#include "base/str_format.h"

#include <gtest/gtest.h>

#include <string>

namespace strip::base {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%s=%llu t=%.3f", "txn", 42ULL, 1.5),
            "txn=42 t=1.500");
}

TEST(StrFormatTest, NeverTruncatesLongArguments) {
  const std::string outcome(1000, 'x');
  const std::string out = StrFormat("outcome=%s txn=%llu", outcome.c_str(),
                                    18446744073709551615ULL);
  EXPECT_EQ(out, "outcome=" + outcome + " txn=18446744073709551615");
  // %f of a huge value is over 300 characters.
  EXPECT_EQ(StrFormat("%.6f", 1e300).size(), 301u + 7u);
}

TEST(StrFormatTest, EmptyResult) {
  EXPECT_EQ(StrFormat("%s", ""), "");
}

}  // namespace
}  // namespace strip::base
