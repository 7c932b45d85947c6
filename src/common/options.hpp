// Tiny command-line option parser for examples and bench binaries.
//
// Supports --key=value, --key value, and bare --flag booleans; arguments
// that are not options are skipped. Unknown
// options are an error (fail fast beats silently ignored typos in a
// benchmark sweep): every binary calls exit_if_unknown() after its last
// get(). Not a general-purpose CLI library on purpose.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sws {

class Options {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.
  Options(int argc, const char* const* argv);

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get(const std::string& key, std::int64_t fallback) const;
  double get(const std::string& key, double fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// Keys that were parsed but never queried (typos, removed flags).
  std::vector<std::string> unused() const;
  /// Exit with status 2, naming each unused() key on stderr, if there are
  /// any. Call once, after the last get() and before any real work.
  void exit_if_unknown() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace sws
