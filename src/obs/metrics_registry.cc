#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/json.h"

namespace radb::obs {

void Histogram::Observe(double v) {
  // Non-finite samples would otherwise poison the aggregates forever:
  // one NaN turns sum_/min_/max_ (and every percentile derived from
  // them) into NaN in the JSON export, and +inf both saturates sum_
  // and — because the bucket index is only computed for finite values
  // — lands in bucket 0 as if it were a tiny sample. Drop NaN outright
  // and clamp ±inf to the finite extremes so the event is still
  // counted where it belongs.
  if (std::isnan(v)) return;
  if (std::isinf(v)) {
    v = v > 0.0 ? std::numeric_limits<double>::max()
                : std::numeric_limits<double>::lowest();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  // ceil(log2(v)) + kOffset, clamped into [0, kBuckets).
  const double e = v > 0.0 ? std::ceil(std::log2(v)) + kOffset : 0.0;
  const size_t b = static_cast<size_t>(
      std::clamp(e, 0.0, static_cast<double>(kBuckets - 1)));
  ++buckets_[b];
}

double Histogram::UpperBound(size_t i) {
  return std::exp2(static_cast<double>(i) - kOffset);
}

double Histogram::Percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Nearest-rank over the bucket cumulative counts, then linear
  // interpolation between the bucket's bounds for a smoother value.
  const double rank = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // The edge buckets are open-ended; min/max close them.
    const double lower = i == 0 ? min_ : std::max(min_, UpperBound(i - 1));
    const double upper =
        i == kBuckets - 1 ? max_ : std::min(max_, UpperBound(i));
    const double frac =
        (rank - static_cast<double>(before)) / static_cast<double>(buckets_[i]);
    return lower + (upper - lower) * frac;
  }
  return max_;
}

std::vector<std::pair<double, uint64_t>> Histogram::NonEmptyBuckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<double, uint64_t>> out;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] != 0) {
      out.emplace_back(UpperBound(i), buckets_[i]);
    }
  }
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << JsonNumber(g->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": {"
       << "\"count\": " << h->count() << ", \"sum\": " << JsonNumber(h->sum())
       << ", \"min\": " << JsonNumber(h->min())
       << ", \"max\": " << JsonNumber(h->max())
       << ", \"mean\": " << JsonNumber(h->mean())
       << ", \"p50\": " << JsonNumber(h->Percentile(0.50))
       << ", \"p95\": " << JsonNumber(h->Percentile(0.95))
       << ", \"p99\": " << JsonNumber(h->Percentile(0.99)) << ", \"buckets\": [";
    const auto buckets = h->NonEmptyBuckets();
    for (size_t i = 0; i < buckets.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "{\"le\": " << JsonNumber(buckets[i].first)
         << ", \"count\": " << buckets[i].second << "}";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

const char* MetricKindName(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kGauge:
      return "gauge";
    case MetricSample::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.count = c->value();
    s.value = static_cast<double>(s.count);
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.value = h->mean();
    s.p50 = h->Percentile(0.50);
    s.p95 = h->Percentile(0.95);
    s.p99 = h->Percentile(0.99);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
// Registration stack behind Install/UninstallGlobalMetrics. The
// atomic above stays the lock-free read path; the stack (under its
// own mutex) only exists so uninstalls can remove an entry from the
// middle without resurrecting an already-destroyed registry.
std::mutex g_metrics_stack_mu;
std::vector<MetricsRegistry*> g_metrics_stack;
}  // namespace

MetricsRegistry* GlobalMetrics() {
  return g_metrics.load(std::memory_order_acquire);
}

MetricsRegistry* SetGlobalMetrics(MetricsRegistry* m) {
  return g_metrics.exchange(m, std::memory_order_acq_rel);
}

void InstallGlobalMetrics(MetricsRegistry* m) {
  if (m == nullptr) return;
  std::lock_guard<std::mutex> lock(g_metrics_stack_mu);
  g_metrics_stack.push_back(m);
  g_metrics.store(m, std::memory_order_release);
}

void UninstallGlobalMetrics(MetricsRegistry* m) {
  if (m == nullptr) return;
  std::lock_guard<std::mutex> lock(g_metrics_stack_mu);
  for (auto it = g_metrics_stack.rbegin(); it != g_metrics_stack.rend();
       ++it) {
    if (*it == m) {
      g_metrics_stack.erase(std::next(it).base());
      break;
    }
  }
  g_metrics.store(g_metrics_stack.empty() ? nullptr : g_metrics_stack.back(),
                  std::memory_order_release);
}

}  // namespace radb::obs
