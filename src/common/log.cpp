#include "common/log.hpp"

#include <cstdio>

namespace sws::detail {

void warn_emit(const char* file, int line, const std::string& msg) {
  // Strip directories from __FILE__ for readability.
  const char* base = file;
  for (const char* p = file; *p; ++p)
    if (*p == '/') base = p + 1;
  std::fprintf(stderr, "[WARN ] %s:%d %s\n", base, line, msg.c_str());
}

}  // namespace sws::detail
