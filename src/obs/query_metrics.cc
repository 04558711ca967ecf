#include "obs/query_metrics.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/string_util.h"
#include "obs/json.h"

namespace radb {

double OperatorMetrics::TotalSeconds() const {
  double s = 0.0;
  for (double w : worker_seconds) s += w;
  return s;
}

double OperatorMetrics::MaxWorkerSeconds() const {
  double m = 0.0;
  for (double w : worker_seconds) m = std::max(m, w);
  return m;
}

double OperatorMetrics::Skew() const {
  if (worker_seconds.empty()) return 1.0;
  const double total = TotalSeconds();
  if (total <= 0.0) return 1.0;
  const double mean = total / static_cast<double>(worker_seconds.size());
  return MaxWorkerSeconds() / mean;
}

double OperatorMetrics::EstimationError() const {
  if (estimated_rows <= 0.0) return 0.0;
  const double est = std::max(estimated_rows, 1.0);
  const double actual = std::max(static_cast<double>(rows_out), 1.0);
  return std::max(est / actual, actual / est);
}

double QueryMetrics::SimulatedParallelSeconds() const {
  double s = 0.0;
  for (const OperatorMetrics& op : operators) s += op.MaxWorkerSeconds();
  return s;
}

size_t QueryMetrics::TotalBytesShuffled() const {
  size_t s = 0;
  for (const OperatorMetrics& op : operators) s += op.bytes_shuffled;
  return s;
}

size_t QueryMetrics::TotalRowsProcessed() const {
  size_t s = 0;
  for (const OperatorMetrics& op : operators) s += op.rows_out;
  return s;
}

size_t QueryMetrics::TotalBytesSpilled() const {
  size_t s = 0;
  for (const OperatorMetrics& op : operators) s += op.bytes_spilled;
  return s;
}

double QueryMetrics::MaxEstimationError() const {
  double worst = 0.0;
  for (const OperatorMetrics& op : operators) {
    worst = std::max(worst, op.EstimationError());
  }
  return worst;
}

double QueryMetrics::SecondsForOperatorsContaining(
    const std::string& substr) const {
  double s = 0.0;
  for (const OperatorMetrics& op : operators) {
    if (op.name.find(substr) != std::string::npos) s += op.TotalSeconds();
  }
  return s;
}

namespace {

std::string FormatSeconds(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << s << "s";
  return os.str();
}

std::string FormatSkew(double skew) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << skew;
  return os.str();
}

}  // namespace

std::string QueryMetrics::ToString() const {
  // Column widths adapt to the data: no operator name is ever
  // truncated and numeric columns stay aligned however large the
  // counts get.
  const char* kHeaders[] = {"operator", "rows_out", "bytes_out", "shuffled",
                            "spilled",  "time",     "skew"};
  std::vector<std::vector<std::string>> cells;
  for (const OperatorMetrics& op : operators) {
    cells.push_back({op.name, std::to_string(op.rows_out),
                     FormatBytes(static_cast<double>(op.bytes_out)),
                     FormatBytes(static_cast<double>(op.bytes_shuffled)),
                     op.bytes_spilled == 0
                         ? "-"
                         : FormatBytes(static_cast<double>(op.bytes_spilled)),
                     FormatSeconds(op.TotalSeconds()), FormatSkew(op.Skew())});
  }
  constexpr size_t kCols = 7;
  size_t widths[kCols];
  for (size_t c = 0; c < kCols; ++c) {
    widths[c] = std::string(kHeaders[c]).size();
    for (const auto& row : cells) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream os;
  for (size_t c = 0; c < kCols; ++c) {
    if (c > 0) os << ' ';
    // Name column left-aligned, numerics right-aligned.
    os << (c == 0 ? std::left : std::right) << std::setw(static_cast<int>(widths[c]))
       << kHeaders[c];
  }
  os << '\n';
  for (const auto& row : cells) {
    for (size_t c = 0; c < kCols; ++c) {
      if (c > 0) os << ' ';
      os << (c == 0 ? std::left : std::right)
         << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    os << '\n';
  }
  os << "total wall " << FormatSeconds(wall_seconds) << " | simulated parallel "
     << FormatSeconds(SimulatedParallelSeconds()) << " | shuffled "
     << FormatBytes(static_cast<double>(TotalBytesShuffled()));
  if (TotalBytesSpilled() > 0) {
    os << " | spilled " << FormatBytes(static_cast<double>(TotalBytesSpilled()));
  }
  os << '\n';
  return os.str();
}

std::string QueryMetrics::ToJson() const {
  using obs::JsonEscape;
  using obs::JsonNumber;
  std::ostringstream os;
  os << "{\n  \"wall_seconds\": " << JsonNumber(wall_seconds)
     << ",\n  \"simulated_parallel_seconds\": "
     << JsonNumber(SimulatedParallelSeconds())
     << ",\n  \"total_bytes_shuffled\": " << TotalBytesShuffled()
     << ",\n  \"total_bytes_spilled\": " << TotalBytesSpilled()
     << ",\n  \"total_rows_processed\": " << TotalRowsProcessed()
     << ",\n  \"max_estimation_error\": " << JsonNumber(MaxEstimationError())
     << ",\n  \"operators\": [";
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorMetrics& op = operators[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << JsonEscape(op.name)
       << "\", \"rows_in\": " << op.rows_in
       << ", \"rows_out\": " << op.rows_out
       << ", \"estimated_rows\": " << JsonNumber(op.estimated_rows)
       << ", \"bytes_out\": " << op.bytes_out
       << ", \"rows_shuffled\": " << op.rows_shuffled
       << ", \"bytes_shuffled\": " << op.bytes_shuffled
       << ", \"bytes_spilled\": " << op.bytes_spilled
       << ", \"spill_runs\": " << op.spill_runs
       << ", \"exec_mode\": \"" << op.ExecMode()
       << "\", \"batches\": " << op.batches
       << ", \"total_seconds\": " << JsonNumber(op.TotalSeconds())
       << ", \"max_worker_seconds\": " << JsonNumber(op.MaxWorkerSeconds())
       << ", \"skew\": " << JsonNumber(op.Skew()) << "}";
  }
  os << (operators.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace radb
