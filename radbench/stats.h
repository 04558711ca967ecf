// Arithmetic the benchmark reports with: medians, tail percentiles
// that the sample size supports, ratios with their bases, and span
// self time. Header-only so selftest.cc checks exactly this code.
#ifndef RADBENCH_STATS_H_
#define RADBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace radbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile as reported: the percentile actually used, its
/// value, and the sample count it came from.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  size_t samples = 0;
};

/// Nearest-rank percentile `p` (0 < p <= 100) of an unsorted sample.
inline double NearestRank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size() / 100.0));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly after the nearest-rank position of percentile `p`.
inline size_t SamplesBeyond(size_t n, double p) {
  const size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0));
  return rank >= n ? 0 : n - rank;
}

/// The highest percentile, no higher than `nominal`, that leaves at
/// least ten of `n` samples beyond it. The ladder is 99.9, 99, 95, 90,
/// 75, 50; below ten samples beyond the median the median is used anyway.
inline double SupportedPercentile(size_t n, double nominal) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (p <= nominal && SamplesBeyond(n, p) >= 10) return p;
  }
  return 50.0;
}

/// The supported percentile of `v` (SupportedPercentile) and its value.
inline Tail TailPercentile(const std::vector<double>& v, double nominal) {
  Tail t;
  t.samples = v.size();
  t.percentile = SupportedPercentile(v.size(), nominal);
  t.value = NearestRank(v, t.percentile);
  return t;
}

/// Samples of one metric, one vector per part of the work.
using PartSamples = std::vector<std::vector<double>>;

/// Each part's median.
inline std::vector<double> PartMedians(const PartSamples& parts) {
  std::vector<double> medians;
  for (const std::vector<double>& p : parts) medians.push_back(Median(p));
  return medians;
}

/// One percentile for every part, the one the smallest part supports
/// (SupportedPercentile), and each part's value at it. `samples` is the
/// smallest part's size.
struct PartTails {
  double percentile = 0.0;
  size_t samples = 0;
  std::vector<double> values;
};

inline PartTails TailsOfParts(const PartSamples& parts, double nominal) {
  PartTails t;
  t.samples = parts.empty() ? 0 : parts.front().size();
  for (const std::vector<double>& p : parts) t.samples = std::min(t.samples, p.size());
  t.percentile = SupportedPercentile(t.samples, nominal);
  for (const std::vector<double>& p : parts) {
    t.values.push_back(NearestRank(p, t.percentile));
  }
  return t;
}

/// A ratio that keeps its base: hits / lookups. A zero base gives 0,
/// never NaN, and the base is still reported.
struct Ratio {
  uint64_t hits = 0;
  uint64_t base = 0;
  double value() const {
    return base == 0 ? 0.0 : static_cast<double>(hits) / base;
  }
};

/// One span recorded by the benchmark around a call into a layer.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one statement share it
  std::string name;
  double start = 0.0;  // seconds on the run's steady clock
  double end = 0.0;
  double duration() const { return end - start; }
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
inline double UnionLength(std::vector<std::pair<double, double>> iv,
                          double lo, double hi) {
  for (auto& [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_s = 0.0, cur_e = 0.0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers. Overlapping children
/// (parallel work) are counted once.
inline std::map<uint64_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<uint64_t, double> self;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const double covered =
        it == children.end() ? 0.0 : UnionLength(it->second, s.start, s.end);
    self[s.id] = s.duration() - covered;
  }
  return self;
}

}  // namespace radbench

#endif  // RADBENCH_STATS_H_
