// Strict command-line arguments (src/core/cli_args.h): a value is accepted
// only when all of it is one number inside the flag's range, or one whole
// version label; any other value exits 2 with a message naming the flag.

#include "src/core/cli_args.h"

#include <gtest/gtest.h>

namespace tmh {
namespace {

TEST(CliArgsTest, AcceptsOnlyWholeNumbers) {
  long l = 0;
  EXPECT_TRUE(ParseWholeLong("-5", &l));
  EXPECT_EQ(l, -5);
  EXPECT_FALSE(ParseWholeLong("3x", &l));
  EXPECT_FALSE(ParseWholeLong("", &l));
  EXPECT_FALSE(ParseWholeLong("99999999999999999999", &l));  // overflows long
  double d = 0;
  EXPECT_TRUE(ParseWholeDouble("0.05", &d));
  EXPECT_DOUBLE_EQ(d, 0.05);
  EXPECT_FALSE(ParseWholeDouble("0.05x", &d));
  EXPECT_FALSE(ParseWholeDouble("1e999", &d));  // overflows double
}

TEST(CliArgsTest, ReturnsValuesOnTheRangeBounds) {
  EXPECT_EQ(IntegerArg("--batch", "1", 1, 10), 1);
  EXPECT_EQ(IntegerArg("--batch", "10", 1, 10), 10);
  EXPECT_DOUBLE_EQ(NumberArg("--sleep", "0", 0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(NumberArg("--scale", "1", 0.0, 1.0, /*exclude_lo=*/true), 1.0);
}

TEST(CliArgsTest, BadValuesExitTwoNamingTheFlag) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(IntegerArg("--batch", "-3", 1, 10), ExitedWithCode(2), "--batch must be");
  EXPECT_EXIT(IntegerArg("--runs", "3x", 1, 10), ExitedWithCode(2), "--runs must be");
  EXPECT_EXIT(IntegerArg("--runs", "11", 1, 10), ExitedWithCode(2), "--runs must be");
  EXPECT_EXIT(NumberArg("--scale", "0", 0.0, 1.0, /*exclude_lo=*/true), ExitedWithCode(2),
              "--scale must be");
  EXPECT_EXIT(NumberArg("--scale", "nan", 0.0, 1.0, /*exclude_lo=*/true), ExitedWithCode(2),
              "--scale must be");
  EXPECT_EXIT(NumberArg("--sleep", "inf", 0.0, 1e9), ExitedWithCode(2), "--sleep must be");
}

TEST(CliArgsTest, ScaleMustLeaveTheMachineItsMinimumFrames) {
  using ::testing::ExitedWithCode;
  // 4,800 default frames: 0.00084 leaves 4, 0.00063 leaves 3.
  EXPECT_DOUBLE_EQ(ScaleArg("scale", "0.00084"), 0.00084);
  EXPECT_DOUBLE_EQ(ScaleArg("scale", "1"), 1.0);
  EXPECT_EXIT(ScaleArg("scale", "0.00063"), ExitedWithCode(2),
              "scale must leave the scaled machine at least 4 frames; got '0.00063', which "
              "leaves 3");
  EXPECT_EXIT(ScaleArg("scale", "1e-9"), ExitedWithCode(2), "scale must leave");
  EXPECT_EXIT(ScaleArg("scale", "0"), ExitedWithCode(2), "scale must be");
  EXPECT_EXIT(ScaleArg("scale", "0.5x"), ExitedWithCode(2), "scale must be");
}

TEST(CliArgsTest, VersionIsOneWholeLabel) {
  using ::testing::ExitedWithCode;
  EXPECT_EQ(VersionArg("version", "O"), AppVersion::kOriginal);
  EXPECT_EQ(VersionArg("version", "P"), AppVersion::kPrefetch);
  EXPECT_EQ(VersionArg("version", "R"), AppVersion::kRelease);
  EXPECT_EQ(VersionArg("version", "B"), AppVersion::kBuffered);
  for (const char* bad : {"Bogus", "b", "", "BB", "V"}) {
    EXPECT_EXIT(VersionArg("version", bad), ExitedWithCode(2), "version must be O, P, R or B")
        << bad;
  }
}

}  // namespace
}  // namespace tmh
