// Strict numeric command-line arguments (src/core/cli_args.h): a value is
// accepted only when all of it is one number inside the flag's range; any
// other value exits 2 with a message naming the flag.

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

}  // namespace
}  // namespace tmh
