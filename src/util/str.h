// Small string helpers shared by the .bench parser and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mft {

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; trims each piece; drops empty pieces
/// when `keep_empty` is false.
std::vector<std::string> split(std::string_view s, char delim,
                               bool keep_empty = false);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Uppercase copy (ASCII).
std::string to_upper(std::string_view s);

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...);

/// Appends `s` to `dst` escaped for the inside of a JSON string literal.
void append_json_escaped(std::string& dst, std::string_view s);

}  // namespace mft
