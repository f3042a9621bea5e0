// printf-style formatting into a std::string sized to fit.
//
// A fixed `char buffer[N]` + snprintf silently truncates whenever an
// argument is longer than the author guessed (a long outcome name read
// from a trace file, an out-of-range time). StrFormat measures first,
// so the result is always complete.

#ifndef STRIP_BASE_STR_FORMAT_H_
#define STRIP_BASE_STR_FORMAT_H_

#include <cstdio>
#include <string>

namespace strip::base {

template <typename... Args>
std::string StrFormat(const char* format, Args... args) {
  const int size = std::snprintf(nullptr, 0, format, args...);
  if (size <= 0) return std::string();
  std::string out(static_cast<std::size_t>(size), '\0');
  std::snprintf(out.data(), out.size() + 1, format, args...);
  return out;
}

}  // namespace strip::base

#endif  // STRIP_BASE_STR_FORMAT_H_
