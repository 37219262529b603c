// Tests for half-open key ranges and keyspace tiling.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/key_range.h"

namespace pileus {
namespace {

TEST(KeyRangeTest, AllContainsEverything) {
  const KeyRange all = KeyRange::All();
  EXPECT_TRUE(all.Contains(""));
  EXPECT_TRUE(all.Contains("a"));
  EXPECT_TRUE(all.Contains(std::string(100, '\xff')));
}

TEST(KeyRangeTest, HalfOpenSemantics) {
  const KeyRange range{"b", "d"};
  EXPECT_FALSE(range.Contains("a"));
  EXPECT_TRUE(range.Contains("b"));   // Inclusive begin.
  EXPECT_TRUE(range.Contains("c"));
  EXPECT_TRUE(range.Contains("czzz"));
  EXPECT_FALSE(range.Contains("d"));  // Exclusive end.
  EXPECT_FALSE(range.Contains("e"));
}

TEST(KeyRangeTest, UnboundedEnd) {
  const KeyRange range{"m", ""};
  EXPECT_TRUE(range.Contains("m"));
  EXPECT_TRUE(range.Contains("zzzz"));
  EXPECT_FALSE(range.Contains("a"));
}

TEST(KeyRangeTest, EmptyRange) {
  EXPECT_TRUE((KeyRange{"d", "d"}).IsEmpty());
  EXPECT_TRUE((KeyRange{"e", "d"}).IsEmpty());
  EXPECT_FALSE((KeyRange{"d", "e"}).IsEmpty());
  EXPECT_FALSE(KeyRange::All().IsEmpty());
}

TEST(KeyRangeTest, OverlapCases) {
  const KeyRange bd{"b", "d"};
  EXPECT_TRUE(bd.Overlaps(KeyRange{"c", "e"}));
  EXPECT_TRUE(bd.Overlaps(KeyRange{"a", "c"}));
  EXPECT_TRUE(bd.Overlaps(KeyRange::All()));
  EXPECT_TRUE(bd.Overlaps(bd));
  // Adjacent ranges do not overlap (half-open).
  EXPECT_FALSE(bd.Overlaps(KeyRange{"d", "f"}));
  EXPECT_FALSE(bd.Overlaps(KeyRange{"a", "b"}));
  EXPECT_FALSE(bd.Overlaps(KeyRange{"x", "z"}));
  // Empty ranges overlap nothing.
  EXPECT_FALSE(bd.Overlaps(KeyRange{"c", "c"}));
}

TEST(KeyRangeTest, ToStringShowsBounds) {
  EXPECT_EQ(KeyRange::All().ToString(), "[-inf, +inf)");
  EXPECT_EQ((KeyRange{"a", "b"}).ToString(), "['a', 'b')");
}

TEST(KeyRangeTest, CoverageDetection) {
  EXPECT_TRUE(RangesCoverKeySpace({KeyRange::All()}));
  EXPECT_TRUE(RangesCoverKeySpace({{"", "m"}, {"m", ""}}));
  EXPECT_TRUE(RangesCoverKeySpace({{"m", ""}, {"", "m"}}));  // Any order.
  // Gap between "m" and "n".
  EXPECT_FALSE(RangesCoverKeySpace({{"", "m"}, {"n", ""}}));
  // Missing the low end.
  EXPECT_FALSE(RangesCoverKeySpace({{"a", "m"}, {"m", ""}}));
  // Missing the high end.
  EXPECT_FALSE(RangesCoverKeySpace({{"", "m"}, {"m", "z"}}));
  EXPECT_FALSE(RangesCoverKeySpace({}));
}

TEST(KeyRangeTest, SingleKeyRange) {
  // ["d", "d\0") holds exactly the key "d".
  const KeyRange range{"d", std::string("d") + '\0'};
  EXPECT_FALSE(range.IsEmpty());
  EXPECT_TRUE(range.Contains("d"));
  EXPECT_FALSE(range.Contains("c"));
  EXPECT_FALSE(range.Contains(std::string("d") + '\0'));
}

class SplitKeySpace : public ::testing::TestWithParam<int> {};

TEST_P(SplitKeySpace, ProducesCoveringAdjacentRanges) {
  const std::vector<KeyRange> ranges = SplitKeySpaceEvenly(GetParam());
  EXPECT_EQ(ranges.size(), static_cast<size_t>(std::max(1, GetParam())));
  EXPECT_TRUE(RangesCoverKeySpace(ranges));
  // No two ranges overlap.
  for (size_t i = 0; i < ranges.size(); ++i) {
    for (size_t j = i + 1; j < ranges.size(); ++j) {
      EXPECT_FALSE(ranges[i].Overlaps(ranges[j]))
          << ranges[i].ToString() << " vs " << ranges[j].ToString();
    }
  }
  // Every probe key lands in exactly one range.
  for (int c = 0; c < 256; c += 7) {
    const std::string key(1, static_cast<char>(c));
    int owners = 0;
    for (const KeyRange& range : ranges) {
      owners += range.Contains(key) ? 1 : 0;
    }
    EXPECT_EQ(owners, 1) << "key byte " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, SplitKeySpace,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 100));

}  // namespace
}  // namespace pileus
