#pragma once
// Strict command-line integer parsing shared by the examples: an argument
// is accepted only if the whole string is a base-10 int no smaller than the
// given minimum, so "abc", "4x" or "-3" print the usage line instead of
// silently becoming 0.

#include <cerrno>
#include <climits>
#include <cstdlib>

namespace moment::examples {

/// Stores `text` in `out` if it is a whole base-10 int >= `min`; otherwise
/// leaves `out` alone and returns false.
inline bool parse_int(const char* text, int min, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min ||
      v > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

}  // namespace moment::examples
