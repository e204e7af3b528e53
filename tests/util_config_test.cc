#include "util/config.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace ctflash::util {
namespace {

TEST(ParseByteSize, PlainNumbers) {
  EXPECT_EQ(ParseByteSize("0"), 0u);
  EXPECT_EQ(ParseByteSize("4096"), 4096u);
  EXPECT_EQ(ParseByteSize(" 123 "), 123u);
}

TEST(ParseByteSize, BinarySuffixes) {
  EXPECT_EQ(ParseByteSize("1K"), 1024u);
  EXPECT_EQ(ParseByteSize("16KiB"), 16u * 1024);
  EXPECT_EQ(ParseByteSize("16KB"), 16u * 1024);
  EXPECT_EQ(ParseByteSize("4M"), 4u * 1024 * 1024);
  EXPECT_EQ(ParseByteSize("2GiB"), 2ull * 1024 * 1024 * 1024);
  EXPECT_EQ(ParseByteSize("1T"), 1ull << 40);
  EXPECT_EQ(ParseByteSize("64g"), 64ull << 30);
}

TEST(ParseByteSize, FractionalValues) {
  EXPECT_EQ(ParseByteSize("1.5K"), 1536u);
  EXPECT_EQ(ParseByteSize("0.5GiB"), 512ull * 1024 * 1024);
}

TEST(ParseByteSize, PlainByteSuffix) {
  EXPECT_EQ(ParseByteSize("512B"), 512u);
}

TEST(ParseByteSize, Errors) {
  EXPECT_THROW(ParseByteSize(""), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("KiB"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("12XB"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("abc"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("."), std::invalid_argument);
}

TEST(ParseByteSize, DigitOnlyMantissasAreExact) {
  // 2^53 + 1 is the first integer a double cannot hold.
  EXPECT_EQ(ParseByteSize("9007199254740993"), 9007199254740993ull);
  EXPECT_EQ(ParseByteSize("18446744073709551615"), 18446744073709551615ull);
  EXPECT_EQ(ParseByteSize("16777215T"), 16777215ull << 40);
}

TEST(ParseByteSize, RejectsSizesOf2To64BytesOrMore) {
  EXPECT_THROW(ParseByteSize("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("99999999999T"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("16777216T"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("16777216.0T"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("1" + std::string(400, '0') + ".5"),
               std::invalid_argument);
  EXPECT_EQ(ParseByteSize("16777215.5T"), 16777215ull * (1ull << 40) +
                                              (1ull << 39));
}

TEST(ParseByteSize, RejectsASecondDecimalPoint) {
  EXPECT_THROW(ParseByteSize("1.2.3K"), std::invalid_argument);
  EXPECT_THROW(ParseByteSize("1..K"), std::invalid_argument);
}

TEST(Trim, Basics) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
}

TEST(ToLower, Basics) { EXPECT_EQ(ToLower("AbC"), "abc"); }

}  // namespace
}  // namespace ctflash::util
