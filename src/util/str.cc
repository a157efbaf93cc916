#include "util/str.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace mft {

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim,
                               bool keep_empty) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(delim, pos);
    if (next == std::string_view::npos) next = s.size();
    std::string_view piece = trim(s.substr(pos, next - pos));
    if (keep_empty || !piece.empty()) out.emplace_back(piece);
    pos = next + 1;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

void append_json_escaped(std::string& dst, std::string_view s) {
  char buf[8];
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      dst.push_back('\\');
      dst.push_back(c);
    } else if (c == '\n') {
      dst += "\\n";
    } else if (c == '\t') {
      dst += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      dst += buf;
    } else {
      dst.push_back(c);
    }
  }
}

}  // namespace mft
