#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace ppdb {

namespace {
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitAndTrim(std::string_view s, char delim) {
  std::vector<std::string_view> out = Split(s, delim);
  for (std::string_view& field : out) field = TrimWhitespace(field);
  return out;
}

std::string StrCat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out.append(part);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty string is not an integer");
  int64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer out of range: '" + std::string(s) + "'");
  }
  if (ec != std::errc() || ptr != last) {
    return Status::ParseError("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty string is not a number");
  // std::from_chars for doubles is missing on some libstdc++ configurations;
  // strtod on a NUL-terminated copy is portable and the inputs are short.
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    return Status::ParseError("not a number: '" + buf + "'");
  }
  return value;
}

bool IsValidIdentifier(std::string_view name) {
  if (name.empty()) return false;
  char first = name[0];
  if (!(std::isalpha(static_cast<unsigned char>(first)) || first == '_')) {
    return false;
  }
  for (char c : name.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == '-')) {
      return false;
    }
  }
  return true;
}

std::string CsvEscape(std::string_view field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace ppdb
