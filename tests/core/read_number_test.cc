#include "src/core/read_number.h"

#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

namespace mihn::core {
namespace {

// Full-token match only, no atoi-style prefix salvage. The sign is the
// type's business; range checks (>= 0, >= 1) are the caller's.
TEST(ReadNumberTest, StrictIntRejectsJunk) {
  int value = -1;
  EXPECT_TRUE(ReadNumber("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ReadNumber("0", &value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(ReadNumber("-3", &value));
  EXPECT_EQ(value, -3);
  EXPECT_FALSE(ReadNumber("", &value));
  EXPECT_FALSE(ReadNumber("x", &value));
  EXPECT_FALSE(ReadNumber("3x", &value));  // atoi would say 3.
  EXPECT_FALSE(ReadNumber("4.5", &value));
  EXPECT_FALSE(ReadNumber("99999999999999999999", &value));  // Overflow.
  EXPECT_FALSE(ReadNumber("1e300", &value));                 // Not read as 1.
  EXPECT_FALSE(ReadNumber(" 7", &value));
  EXPECT_FALSE(ReadNumber("7 ", &value));
  EXPECT_EQ(value, -3);  // Every failure left it untouched.
}

TEST(ReadNumberTest, StrictUint64RejectsJunk) {
  uint64_t value = 0;
  EXPECT_TRUE(ReadNumber("18446744073709551615", &value));  // UINT64_MAX.
  EXPECT_EQ(value, 18446744073709551615ull);
  EXPECT_TRUE(ReadNumber("7", &value));
  EXPECT_EQ(value, 7u);
  EXPECT_FALSE(ReadNumber("", &value));
  EXPECT_FALSE(ReadNumber("banana", &value));
  EXPECT_FALSE(ReadNumber("12abc", &value));  // strtoull would say 12.
  EXPECT_FALSE(ReadNumber("-1", &value));     // strtoull would wrap.
  EXPECT_FALSE(ReadNumber("+1", &value));
  EXPECT_FALSE(ReadNumber("18446744073709551616", &value));  // Overflow.
  EXPECT_EQ(value, 7u);
}

TEST(ReadNumberTest, FloatingPointMustBeFiniteAndWhole) {
  double value = 0.0;
  EXPECT_TRUE(ReadNumber("2.5", &value));
  EXPECT_EQ(value, 2.5);
  EXPECT_TRUE(ReadNumber("-0.25", &value));
  EXPECT_EQ(value, -0.25);
  EXPECT_TRUE(ReadNumber("1e300", &value));
  EXPECT_EQ(value, 1e300);
  EXPECT_FALSE(ReadNumber("nan", &value));
  EXPECT_FALSE(ReadNumber("inf", &value));
  EXPECT_FALSE(ReadNumber("-inf", &value));
  EXPECT_FALSE(ReadNumber("1e999", &value));  // Overflows to inf.
  EXPECT_FALSE(ReadNumber("10junk", &value));
  EXPECT_FALSE(ReadNumber("2.5.1", &value));
  EXPECT_FALSE(ReadNumber("", &value));
  EXPECT_EQ(value, 1e300);
}

// The stream form reads one whitespace-separated token and parses all of
// it, so a bad token fails instead of being read up to its junk.
TEST(ReadNumberTest, StreamOverloadReadsOneWholeToken) {
  std::istringstream in("  7\t2.5 12abc 9");
  int count = 0;
  double rate = 0.0;
  EXPECT_TRUE(ReadNumber(in, &count));
  EXPECT_EQ(count, 7);
  EXPECT_TRUE(ReadNumber(in, &rate));
  EXPECT_EQ(rate, 2.5);
  EXPECT_FALSE(ReadNumber(in, &count));  // "12abc" is consumed and rejected.
  EXPECT_EQ(count, 7);
  EXPECT_TRUE(ReadNumber(in, &count));
  EXPECT_EQ(count, 9);
  EXPECT_FALSE(ReadNumber(in, &count));  // Out of tokens.
  EXPECT_EQ(count, 9);
}

}  // namespace
}  // namespace mihn::core
