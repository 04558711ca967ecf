// The repository benchmark. A plain result must carry every end-to-end
// metric, and they come from more than one workload, so a plain run sets
// up every workload kSetups times (setup_s sums their medians), then
// runs kSlots slots: in each, every workload runs one part and the
// named one, last, runs parts until the slot has lasted its share of the
// --seconds window. Metrics too unsteady for the result (UnsteadyMetrics)
// are printed beside it. The last line of standard output is the result
// object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 1 the run instead times, for every workload, its untraced
// parts after a warm-up part, then the same work driven through the
// layers under spans, and reports the per-layer metrics.
//
// Usage:
//   radbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--work-dir DIR] [--commit SHA]
//   radbench --list-metrics
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/json.h"

#ifndef RADBENCH_COMPILER
#define RADBENCH_COMPILER "unknown"
#endif
#ifndef RADBENCH_BUILD_TYPE
#define RADBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RADBENCH_CXX_FLAGS
#define RADBENCH_CXX_FLAGS ""
#endif

namespace radbench {
namespace {

struct Entry {
  const char* name;
  std::unique_ptr<Workload> (*make)(const RunArgs&);
  WorkloadOutput (*trace)(const RunArgs&, SpanLog*, LayerTotals*);
};

constexpr Entry kWorkloads[] = {
    {"paper_la", MakePaperLa, TracePaperLa},
    {"service_mixed", MakeServiceMixed, TraceServiceMixed},
    {"store_rw", MakeStoreRw, TraceStoreRw},
    {"graph_sparse", MakeGraphSparse, TraceGraphSparse},
};

struct NameUnit {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics of a plain result.
std::vector<NameUnit> EndToEndMetrics() {
  return {
      {"setup_s", "s"},
      {"gram_tuple_s", "s"},
      {"linreg_block_s", "s"},
      {"distance_block_s", "s"},
      {"distance_vector_s", "s"},
      {"scan_s", "s"},
  };
}

/// End-to-end metrics a plain run measures and prints but leaves out of
/// its result: operations under 0.1 s on four threads, which move by
/// 1.3x to 2x from run to run with other load on the host (NOTES.md).
std::vector<NameUnit> UnsteadyMetrics() {
  return {
      {"gram_vector_s", "s"},
      {"gram_block_s", "s"},
      {"qps", "1/s"},
      {"read_p50_s", "s"},
      {"read_p99_s", "s"},
      {"write_p50_s", "s"},
      {"ingest_rows_per_s", "rows/s"},
      {"probe_p50_s", "s"},
      {"probe_p99_s", "s"},
      {"sssp_s", "s"},
  };
}

std::vector<NameUnit> PerLayerMetrics() {
  std::vector<NameUnit> m = {
      {"parser.parse_us", "us"},
      {"binder.bind_us", "us"},
      {"optimizer.plan_us", "us"},
      {"optimizer.plans_considered", "count"},
      {"cache.result_hit_ratio", "ratio"},
      {"cache.result_lookups", "count"},
      {"cache.plan_hit_ratio", "ratio"},
      {"cache.plan_lookups", "count"},
      {"exec.execute_s", "s"},
      {"exec.max_worker_s", "s"},
      {"exec.skew", "ratio"},
      {"exec.rows_out", "rows"},
      {"exec.bytes_out", "bytes"},
      {"exec.cross_join_runs", "count"},
      {"exec.batches", "count"},
      {"la.sparse.flops", "flop"},
      {"la.sparse.spvm_calls", "count"},
      {"la.sparse.spvm_gflops", "GFLOP/s"},
      {"la.sparse.spgemm_gflops", "GFLOP/s"},
      {"mem.spill_bytes", "bytes"},
      {"mem.peak_bytes", "bytes"},
      {"service.queue_wait_us_p99", "us"},
      {"service.latch_wait_us_p99", "us"},
      {"service.execute_share", "ratio"},
      {"pool.busy_frac", "ratio"},
      {"bufferpool.hit_ratio", "ratio"},
      {"bufferpool.lookups", "count"},
      {"bufferpool.evictions", "count"},
      {"storage.wal_bytes_per_user_byte", "ratio"},
      {"storage.disk_bytes_per_user_byte", "ratio"},
      {"storage.checkpoint_s", "s"},
      {"storage.reopen_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const char* k : {"gemm", "tsmm", "rank1", "gemv"}) {
    for (const char* t : {"1t", "4t"}) {
      m.push_back({std::string("la.") + k + "_gflops." + t, "GFLOP/s"});
    }
  }
  for (const char* e : {"systemml", "scidb"}) {
    for (const char* c : {"gram", "linreg", "distance"}) {
      m.push_back({std::string("engines.") + e + "." + c + "_s", "s"});
    }
  }
  for (const char* cell : {"gram_tuple", "gram_vector", "gram_block",
                           "linreg_block", "distance_block",
                           "distance_vector"}) {
    const std::string c = std::string(".") + cell;
    m.push_back({"exec.execute_s" + c, "s"});
    m.push_back({"exec.max_worker_s" + c, "s"});
    m.push_back({"exec.skew" + c, "ratio"});
    m.push_back({"exec.rows_out" + c, "rows"});
    m.push_back({"exec.bytes_out" + c, "bytes"});
    m.push_back({"exec.cross_join_runs" + c, "count"});
    m.push_back({"exec.batches" + c, "count"});
    m.push_back({"dist.bytes_shuffled" + c, "bytes"});
    m.push_back({"dist.rows_shuffled" + c, "rows"});
    if (std::strcmp(cell, "gram_tuple") == 0) continue;  // no LA kernels
    for (const char* k : {"matmul", "tsmm", "matvec", "outer_product"}) {
      m.push_back({std::string("la.") + k + "_flops" + c, "flop"});
    }
  }
  return m;
}

std::string ReadCpuInfo(std::string* model) {
  std::ifstream in("/proc/cpuinfo");
  std::string line, flags;
  while (std::getline(in, line)) {
    auto value = [&] {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? std::string() : line.substr(colon + 2);
    };
    if (model->empty() && line.rfind("model name", 0) == 0) *model = value();
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = " " + value() + " ";
  }
  std::string isa;
  for (const char* f : {"avx2", "avx512f", "fma"}) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      isa += isa.empty() ? f : std::string(",") + f;
    }
  }
  return isa;
}

void PrintFingerprint(const RunArgs& args, const std::string& commit) {
  std::string model;
  const std::string isa = ReadCpuInfo(&model);
  std::printf(
      "fingerprint: {\"nproc\":%u,\"cpu\":\"%s\",\"isa\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"cxx_flags\":\"%s\","
      "\"commit\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d}\n",
      std::thread::hardware_concurrency(), radb::obs::JsonEscape(model).c_str(),
      isa.c_str(), RADBENCH_COMPILER, RADBENCH_BUILD_TYPE, RADBENCH_CXX_FLAGS,
      radb::obs::JsonEscape(commit).c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
}

/// Prints the result object; every listed metric is present.
void PrintResult(const Tally& tally, const MetricMap& got,
                 const std::vector<NameUnit>& names) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = got.find(names[i].name);
    const double v = it == got.end() ? 0.0 : it->second.value;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    os << (i ? ", " : "") << "\"" << names[i].name << "\": {\"value\": " << num
       << ", \"unit\": \"" << names[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--work-dir DIR] [--commit SHA]\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  args.work_dir = ".bench_build/radbench-work";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--seed") {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(next(), nullptr);
    } else if (a == "--trace") {
      args.trace = std::strcmp(next(), "1") == 0;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--work-dir") {
      args.work_dir = next();
    } else if (a == "--commit") {
      commit = next();
    } else if (a == "--list-metrics") {
      for (const NameUnit& m : EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      for (const NameUnit& m : PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      for (const NameUnit& m : UnsteadyMetrics()) {
        std::printf("unsteady %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      return 0;
    } else {
      return Usage(argv[0]);
    }
  }
  const Entry* selected = nullptr;
  for (const Entry& w : kWorkloads) {
    if (args.workload == w.name) selected = &w;
  }
  if (selected == nullptr || args.seconds < 0) return Usage(argv[0]);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir + "/spill", ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  PrintFingerprint(args, commit);
  std::fflush(stdout);

  if (!args.trace) {
    std::vector<std::unique_ptr<Workload>> ws;
    Workload* named = nullptr;
    bool ready = true;
    for (const Entry& e : kWorkloads) {
      Workload* w = ws.emplace_back(e.make(args)).get();
      if (&e == selected) named = w;
      bool ok = true;
      while (ok && w->setups.size() < kSetups) ok = w->SetUp();
      if (!ok) w->tally.Record(false);
      ready = ready && ok;
    }
    std::vector<size_t> parts(ws.size(), 0);
    std::vector<double> part_s(ws.size(), 0.0);
    std::vector<size_t> order;  // the named workload last
    for (size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].get() != named) order.push_back(i);
    }
    order.push_back(static_cast<size_t>(selected - kWorkloads));
    const double share = args.seconds / kSlots;
    for (size_t slot = 0; ready && slot < kSlots; ++slot) {
      const auto slot_t0 = Clock::now();
      for (size_t i : order) {
        const auto t0 = Clock::now();
        do {
          ws[i]->RunPart();
          ++parts[i];
        } while (ws[i].get() == named && SecondsSince(slot_t0) < share);
        part_s[i] += SecondsSince(t0);
      }
    }
    Tally tally;
    MetricMap metrics;
    double setup_s = 0.0;
    for (size_t i = 0; i < ws.size(); ++i) {
      std::printf("%s: %zu set-ups (median %.4g s), %zu parts in %.1f s\n",
                  kWorkloads[i].name, ws[i]->setups.size(),
                  Median(ws[i]->setups), parts[i], part_s[i]);
      if (ready) ws[i]->Report(&metrics);
      tally.Add(ws[i]->tally);
      setup_s += Median(ws[i]->setups);
    }
    PutMetric(&metrics, "setup_s", setup_s, "s");
    std::printf("setup_s: sum over the workloads of the median of %zu set-ups\n",
                kSetups);
    ws.clear();  // closes and removes the persistent store
    for (const NameUnit& u : UnsteadyMetrics()) {
      auto it = metrics.find(u.name);
      std::printf("unsteady, not in the result: %s %.6g %s\n", u.name.c_str(),
                  it == metrics.end() ? 0.0 : it->second.value, u.unit.c_str());
    }
    PrintResult(tally, metrics, EndToEndMetrics());
    return 0;
  }

  // Traced run: for every workload, an untraced warm-up part and a timed
  // base part, then its traced run, so each traced run reports every
  // layer and trace.overhead_frac compares the same work traced and
  // untraced.
  RunArgs plain = args;
  plain.trace = false;
  Tally tally;
  MetricMap base_metrics, metrics;
  double base_s = 0.0, traced_s = 0.0;
  SpanLog log;
  LayerTotals totals;
  for (const Entry& e : kWorkloads) {
    std::unique_ptr<Workload> base = e.make(plain);
    double base_part_s = 0.0;
    if (base->SetUp()) {
      base->RunPart();
      base_part_s = base->RunPart();
      base->Report(&base_metrics);
    } else {
      base->tally.Record(false);
    }
    tally.Add(base->tally);
    base.reset();
    WorkloadOutput traced = e.trace(args, &log, &totals);
    tally.Add(traced.tally);
    base_s += base_part_s;
    traced_s += traced.work_seconds;
    for (const auto& [k, v] : traced.metrics) metrics[k] = v;
  }
  PutCommonLayerMetrics(log, totals, &metrics);
  if (base_s > 0) {
    PutMetric(&metrics, "trace.overhead_frac", traced_s / base_s - 1.0, "ratio");
  }
  std::printf("trace.overhead_frac: traced parts %.4f s, untraced parts %.4f s\n",
              traced_s, base_s);
  PrintComparatorTable(base_metrics, metrics);
  const std::string spans = args.work_dir + "/spans-" + args.workload + "-" +
                            std::to_string(args.seed) + ".json";
  if (!log.WriteJson(spans)) {
    std::fprintf(stderr, "cannot write %s\n", spans.c_str());
    return 1;
  }
  std::printf("spans: %zu written to %s\n", log.spans().size(), spans.c_str());
  PrintResult(tally, metrics, PerLayerMetrics());
  return 0;
}

}  // namespace
}  // namespace radbench

int main(int argc, char** argv) { return radbench::Main(argc, argv); }
