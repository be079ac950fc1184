#ifndef PPDB_COMMON_STRING_UTIL_H_
#define PPDB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ppdb {

/// Returns `s` with leading and trailing ASCII whitespace removed.
std::string_view TrimWhitespace(std::string_view s);

/// Splits `s` on every occurrence of `delim`. Adjacent delimiters produce
/// empty fields; an empty input produces a single empty field.
std::vector<std::string_view> Split(std::string_view s, char delim);

/// Splits `s` on `delim` and trims whitespace from every field.
std::vector<std::string_view> SplitAndTrim(std::string_view s, char delim);

/// Concatenates `parts` into one string, allocated once. Prefer it to an
/// operator+ chain that starts with a literal (`"x" + s + ...`): at -O3,
/// GCC 12 reports a false -Werror=restrict inside libstdc++'s
/// operator+(const char*, std::string&&) (GCC bug 105329).
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Returns a lower-cased copy of `s` (ASCII only).
std::string ToLower(std::string_view s);

/// Parses a base-10 signed integer. The whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a floating point number. The whole string must be consumed.
Result<double> ParseDouble(std::string_view s);

/// True iff `name` is a valid ppdb identifier: `[A-Za-z_][A-Za-z0-9_.-]*`.
/// Identifiers name attributes, purposes, scale levels and providers.
bool IsValidIdentifier(std::string_view name);

/// Escapes a string for CSV output: wraps in quotes and doubles embedded
/// quotes when the value contains a comma, quote or newline.
std::string CsvEscape(std::string_view field);

}  // namespace ppdb

#endif  // PPDB_COMMON_STRING_UTIL_H_
