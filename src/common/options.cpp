#include "common/options.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace sws {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg.erase(0, 2);
    if (arg.empty()) throw std::invalid_argument("bare '--' not supported");
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "true";  // bare boolean flag
    }
  }
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  used_[key] = true;
  return it->second;
}

std::int64_t Options::get(const std::string& key,
                          std::int64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  used_[key] = true;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

double Options::get(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  used_[key] = true;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                it->second + "'");
  }
}

bool Options::get(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  used_[key] = true;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("option --" + key + " expects a boolean, got '" +
                              v + "'");
}

std::vector<std::string> Options::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_)
    if (!used_.count(k)) out.push_back(k);
  return out;
}

void Options::exit_if_unknown() const {
  const std::vector<std::string> bad = unused();
  if (bad.empty()) return;
  for (const std::string& k : bad)
    std::cerr << "unknown option --" << k << "\n";
  std::exit(2);
}

}  // namespace sws
