// One warning sink: SWS_WARN formats its stream expression and writes one
// "[WARN ] file:line msg" line to stderr. There are no levels; each line
// is a single fprintf, which POSIX stdio locks per call.
#pragma once

#include <sstream>
#include <string>

namespace sws::detail {
void warn_emit(const char* file, int line, const std::string& msg);
}  // namespace sws::detail

#define SWS_WARN(expr)                                             \
  do {                                                             \
    std::ostringstream sws_log_os_;                                \
    sws_log_os_ << expr;                                           \
    ::sws::detail::warn_emit(__FILE__, __LINE__, sws_log_os_.str()); \
  } while (0)
