#ifndef E2EBENCH_HARNESS_UTIL_H_
#define E2EBENCH_HARNESS_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace e2e {

using Flags = std::map<std::string, std::string>;

/// The value of `--name`, or an error naming the missing flag.
inline ppdb::Result<std::string> Flag(const Flags& flags,
                                      const std::string& name) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    return ppdb::Status::InvalidArgument("missing --" + name);
  }
  return it->second;
}

/// Prints the failure on stderr; the exit code for a failed command.
inline int Fail(const ppdb::Status& status) {
  std::fprintf(stderr, "e2e_harness: %s\n", status.ToString().c_str());
  return 1;
}

/// A flat JSON object written in insertion order; numbers keep all their
/// digits.
class JsonObject {
 public:
  void Add(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void Add(const std::string& key, int64_t value) {
    Raw(key, std::to_string(value));
  }
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Add(const std::string& key, const std::string& value) {
    Raw(key, Quote(value));
  }
  void Raw(const std::string& key, const std::string& json) {
    fields_.push_back(Quote(key) + ": " + json);
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", " : "") + fields_[i];
    }
    return out + "}";
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  std::vector<std::string> fields_;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_UTIL_H_
