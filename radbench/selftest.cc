// Tests of the benchmark's own arithmetic (stats.h): span self time
// with overlapping children, the ten-beyond tail rule at small sample
// counts, and ratios with their bases.
#include <gtest/gtest.h>

#include "stats.h"

namespace radbench {
namespace {

Span MakeSpan(uint64_t id, uint64_t parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.name = "s" + std::to_string(id);
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Parent [0, 10); children [1, 4) and [3, 6) overlap, [8, 12) runs
  // past the parent's end. Covered: [1, 6) and [8, 10) = 7.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0.0, 10.0), MakeSpan(2, 1, 1.0, 4.0),
      MakeSpan(3, 1, 3.0, 6.0), MakeSpan(4, 1, 8.0, 12.0),
      MakeSpan(5, 2, 1.5, 2.5)};  // grandchild: charged to span 2 only
  const std::map<uint64_t, double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at(1), 3.0);
  EXPECT_DOUBLE_EQ(self.at(2), 2.0);
  EXPECT_DOUBLE_EQ(self.at(3), 3.0);
  EXPECT_DOUBLE_EQ(self.at(5), 1.0);
}

TEST(SelfTimeTest, NestedAndTouchingIntervals) {
  EXPECT_DOUBLE_EQ(UnionLength({{0, 4}, {1, 2}}, 0, 10), 4.0);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 2}, {2, 5}}, 0, 10), 5.0);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 2}, {6, 7}}, 1, 10), 2.0);
  EXPECT_DOUBLE_EQ(UnionLength({}, 0, 10), 0.0);
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailTest, HighestPercentileWithTenBeyond) {
  // 1000 samples: p99 is rank 990 and leaves exactly ten beyond it.
  Tail t = TailPercentile(Ramp(1000), 99.0);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  // 999 samples leave nine beyond p99, so p95 is reported.
  t = TailPercentile(Ramp(999), 99.0);
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 950.0);
  // 100 samples: p90; 40 samples: p75.
  EXPECT_EQ(TailPercentile(Ramp(100), 99.0).percentile, 90.0);
  EXPECT_EQ(TailPercentile(Ramp(40), 99.0).percentile, 75.0);
  EXPECT_EQ(TailPercentile(Ramp(40), 99.0).value, 30.0);
  // Fewer than twenty samples fall back to the median.
  t = TailPercentile(Ramp(5), 99.0);
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 3.0);
  // The nominal percentile caps the ladder.
  EXPECT_EQ(TailPercentile(Ramp(100000), 99.0).percentile, 99.0);
  EXPECT_EQ(TailPercentile(Ramp(100000), 99.9).percentile, 99.9);
  EXPECT_EQ(TailPercentile({}, 99.0).samples, 0u);
}

TEST(TailTest, SamplesBeyondAndNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(10, 100.0), 0u);
  EXPECT_EQ(NearestRank({5.0, 1.0, 3.0}, 50.0), 3.0);
  EXPECT_EQ(NearestRank({5.0, 1.0, 3.0}, 1.0), 1.0);
  EXPECT_EQ(NearestRank({5.0, 1.0, 3.0}, 100.0), 5.0);
}

TEST(PartStatsTest, PartMediansIgnoreOtherPartsSizes) {
  // A slow part with many samples pulls the pooled median to 5.5; each
  // part keeps its own median.
  const PartSamples parts = {{1, 1, 1}, {2, 2, 2}, {9, 9, 9, 9, 9, 9}};
  EXPECT_EQ(PartMedians(parts), (std::vector<double>{1, 2, 9}));
  EXPECT_EQ(Median({1, 1, 1, 2, 2, 2, 9, 9, 9, 9, 9, 9}), 5.5);
  EXPECT_TRUE(PartMedians({}).empty());
}

TEST(PartStatsTest, TailUsesThePercentileEveryPartSupports) {
  // 1000 and 999 samples: the smaller part supports only p95.
  const PartSamples parts = {Ramp(1000), Ramp(999), Ramp(2000)};
  const PartTails t = TailsOfParts(parts, 99.0);
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.samples, 999u);
  EXPECT_EQ(t.values, (std::vector<double>{950, 950, 1900}));
  const PartTails big = TailsOfParts({Ramp(1000), Ramp(2000)}, 99.0);
  EXPECT_EQ(big.percentile, 99.0);
  EXPECT_EQ(big.values, (std::vector<double>{990, 1980}));
  EXPECT_EQ(SupportedPercentile(19, 99.0), 50.0);
  EXPECT_EQ(SupportedPercentile(20, 99.0), 50.0);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(RatioTest, KeepsItsBase) {
  Ratio r{3, 4};
  EXPECT_DOUBLE_EQ(r.value(), 0.75);
  EXPECT_EQ(r.base, 4u);
  Ratio none;
  EXPECT_EQ(none.value(), 0.0);  // never NaN
  EXPECT_EQ(none.base, 0u);
}

}  // namespace
}  // namespace radbench
