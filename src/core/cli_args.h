// Strict command-line arguments for the bench binaries, the examples and the
// tools.
//
// atoi/atof stop at the first bad character and strtoull wraps negatives, so
// they read "2x" as 2 and "-1" as 2^64 - 1. The parsers here accept only a
// whole number, and a version only as its whole label. The *Arg helpers also
// hold the value to the range its code path supports; on bad input they exit
// with status 2 and a message naming the flag.

#ifndef TMH_SRC_CORE_CLI_ARGS_H_
#define TMH_SRC_CORE_CLI_ARGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/core/experiment.h"
#include "src/os/config.h"

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

// The fewest frames a scaled machine may keep. A scale multiplies the default
// machine's user memory (MachineConfig{}: 4,800 frames of 16 KB), as the
// benches and examples build it. Every bench and example completes on 4 such
// frames. On 3, ablate_page_size's 64 KB pages leave its machine no frame and
// that point never finishes; on 0 frames every run waits forever for one.
inline constexpr int64_t kMinScaledFrames = 4;

// `text`, the value given for `flag`, as a scale in (0, 1] that leaves the
// scaled default machine at least kMinScaledFrames frames.
inline double ScaleArg(const char* flag, const char* text) {
  const double scale = NumberArg(flag, text, 0.0, 1.0, /*exclude_lo=*/true);
  MachineConfig machine;
  machine.user_memory_bytes =
      static_cast<int64_t>(static_cast<double>(machine.user_memory_bytes) * scale);
  if (machine.num_frames() < kMinScaledFrames) {
    std::fprintf(stderr,
                 "%s must leave the scaled machine at least %lld frames; got '%s', which "
                 "leaves %lld\n",
                 flag, static_cast<long long>(kMinScaledFrames), text,
                 static_cast<long long>(machine.num_frames()));
    std::exit(2);
  }
  return scale;
}

// `text`, the value given for `flag`, as one of the paper's four versions,
// spelled whole as VersionLabel spells them: O, P, R or B.
inline AppVersion VersionArg(const char* flag, const char* text) {
  for (const AppVersion version : AllVersions()) {
    if (std::strcmp(text, VersionLabel(version)) == 0) {
      return version;
    }
  }
  std::fprintf(stderr, "%s must be O, P, R or B; got '%s'\n", flag, text);
  std::exit(2);
}

}  // namespace tmh

#endif  // TMH_SRC_CORE_CLI_ARGS_H_
