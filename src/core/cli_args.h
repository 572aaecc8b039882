// Strict numeric command-line arguments for the bench binaries and the tools.
//
// atoi/atof stop at the first bad character and strtoull wraps negatives, so
// they read "2x" as 2 and "-1" as 2^64 - 1. The parsers here accept only a
// whole number. The *Arg helpers also hold the value to the range its code
// path supports; on bad input they exit with status 2 and a message naming
// the flag.

#ifndef TMH_SRC_CORE_CLI_ARGS_H_
#define TMH_SRC_CORE_CLI_ARGS_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tmh {

// True only if all of `text` is one base-10 integer that fits a long.
inline bool ParseWholeLong(const char* text, long* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtol(text, &end, 10);
  return end != text && *end == '\0' && errno == 0;
}

// True only if all of `text` is one number that fits a double.
inline bool ParseWholeDouble(const char* text, double* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(text, &end);
  return end != text && *end == '\0' && errno == 0;
}

// `text`, the value given for `flag`, as an integer in [lo, hi].
inline long IntegerArg(const char* flag, const char* text, long lo, long hi) {
  long value = 0;
  if (!ParseWholeLong(text, &value) || value < lo || value > hi) {
    std::fprintf(stderr, "%s must be an integer in [%ld, %ld]; got '%s'\n", flag, lo, hi, text);
    std::exit(2);
  }
  return value;
}

// `text`, the value given for `flag`, as a number in [lo, hi], or in (lo, hi]
// when `exclude_lo`. NaN is out of every range.
inline double NumberArg(const char* flag, const char* text, double lo, double hi,
                        bool exclude_lo = false) {
  double value = 0;
  if (!ParseWholeDouble(text, &value) ||
      !((exclude_lo ? value > lo : value >= lo) && value <= hi)) {
    std::fprintf(stderr, "%s must be a number in %c%g, %g]; got '%s'\n", flag,
                 exclude_lo ? '(' : '[', lo, hi, text);
    std::exit(2);
  }
  return value;
}

}  // namespace tmh

#endif  // TMH_SRC_CORE_CLI_ARGS_H_
