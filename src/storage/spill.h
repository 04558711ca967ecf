#ifndef RADB_STORAGE_SPILL_H_
#define RADB_STORAGE_SPILL_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "mem/memory_tracker.h"
#include "mem/spill_file.h"
#include "storage/serialize.h"
#include "types/value.h"

namespace radb {

/// Shared per-query spill context: the tracker that owns the budget
/// plus the directory spill files land in. One per RunSelect; handed
/// down to every operator that can spill.
struct MemoryContext {
  mem::MemoryTracker* tracker = nullptr;
  std::string spill_dir;  // "" = system temp dir
  /// Owning query's id (0 = standalone); embedded in spill-file names
  /// so concurrent queries sharing one spill_dir stay distinguishable,
  /// and used as the thread-pool task tag for fair scheduling.
  uint64_t query_id = 0;
  /// Cooperative cancellation handle, polled by the executor's loops
  /// through CancelPoll (null = never cancelled). Not owned; the
  /// submitter keeps it alive for the query's duration.
  const CancellationToken* cancel = nullptr;

  bool has_budget() const {
    return tracker != nullptr && tracker->has_budget();
  }
  /// Spill-file name tag for this query ("q<id>", or "" standalone).
  std::string spill_tag() const {
    return query_id == 0 ? std::string() : "q" + std::to_string(query_id);
  }
};

/// An append-only row container that transparently flushes runs of
/// rows to disk when the query's memory budget is exceeded, then
/// replays them in EXACT append order. This is the workhorse behind
/// shuffle receive buffers, Grace-hash join partitions and the
/// aggregation overflow path: FP aggregation is order-sensitive, so
/// order preservation is what keeps budgeted runs bit-identical to
/// unbudgeted ones.
///
/// With a null/unbudgeted context the buffer degenerates to a plain
/// std::vector<Row> with zero extra cost. Not thread-safe; the
/// executor gives each worker its own buffers.
class SpillableRowBuffer {
 public:
  SpillableRowBuffer() = default;
  explicit SpillableRowBuffer(MemoryContext ctx) : ctx_(std::move(ctx)) {}

  // Manual moves: the source must forget its tracked charge and spill
  // totals, or its destructor's Clear() would release the same bytes
  // twice.
  SpillableRowBuffer(SpillableRowBuffer&& other) noexcept;
  SpillableRowBuffer& operator=(SpillableRowBuffer&& other) noexcept;

  /// Appends one row, charging its exact serialized size against the
  /// budget; on pressure, flushes the in-memory tail to a new spill
  /// run first. Only errors from the spill path itself (I/O failure)
  /// are returned — budget pressure never fails an append here.
  Status Append(Row row);

  size_t num_rows() const { return rows_spilled_ + tail_.size(); }
  bool empty() const { return num_rows() == 0; }
  /// Total serialized payload bytes appended (spilled or resident).
  size_t byte_size() const { return total_bytes_; }
  /// True when some of the CURRENT contents live on disk (a Reader
  /// will do spill I/O).
  bool has_spilled_rows() const { return rows_spilled_ > 0; }
  /// Lifetime-cumulative spill totals — survive Clear/Drain so an
  /// operator can collect them after consuming the buffer.
  size_t spill_bytes() const { return spill_bytes_; }
  size_t spill_runs() const { return spill_run_count_; }

  /// The one in-order read of the rows, in two forms: fn(row) for
  /// every row in exact append order (spilled runs replayed through a
  /// Reader, then the resident tail), with one tick of `poll` (null:
  /// a poll on the buffer's own token) before each. fn returns Status,
  /// or Result<bool> whose false stops the read after that row.
  /// ForEachRow hands fn `const Row&` and leaves the buffer as it was;
  /// ConsumeRows hands it `Row&&`, moved out of the tail when nothing
  /// spilled, and clears the buffer once the read ends or stops.
  template <typename Fn>
  Status ForEachRow(CancelPoll* poll, Fn&& fn) {
    return Visit</*kConsume=*/false>(poll, fn);
  }
  template <typename Fn>
  Status ConsumeRows(CancelPoll* poll, Fn&& fn) {
    return Visit</*kConsume=*/true>(poll, fn);
  }

  /// Streaming reader replaying rows in exact append order: all
  /// spilled runs first (they were appended first), then the
  /// in-memory tail. Replay windows (one run's bytes at a time) are
  /// not budget-charged: runs are size-capped by the spiller, so the
  /// overshoot is small and bounded, and charging replay would re-pin
  /// the budget that spilling freed.
  ///
  /// The buffer must not be appended to while a Reader is live.
  class Reader {
   public:
    explicit Reader(SpillableRowBuffer* buf);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Next row, or nullopt at end. Errors only on corrupt/failed
    /// spill I/O.
    Result<std::optional<Row>> Next();

   private:
    Status LoadRun(size_t index);
    void ReleaseRun();

    SpillableRowBuffer* buf_;
    size_t run_index_ = 0;      // next spill run to load
    std::string run_data_;      // current run's bytes
    ByteReader run_{run_data_};  // cursor into run_data_
    size_t run_rows_left_ = 0;  // rows remaining in current run
    size_t tail_index_ = 0;     // cursor into in-memory tail
  };

  /// Flushes the resident tail to disk, releasing its budget charge
  /// (replay order is unchanged — the tail becomes the newest run).
  /// Operators call this on their spillable inputs right before
  /// hard-reserving unspillable state, so a budget pinned by buffered
  /// rows degrades to disk replay instead of ResourceExhausted. No-op
  /// without a tracker; must not be called while a Reader is live.
  Status SpillToDisk();

  /// Drains the buffer into a plain vector in exact append order,
  /// releasing all charges. The buffer is empty afterwards. Use only
  /// where the consumer genuinely needs the whole set in memory
  /// (ResultSet gather); operators stream through ConsumeRows.
  Result<std::vector<Row>> Drain();

  /// Releases all tracked memory and drops rows (early error paths).
  void Clear();

  ~SpillableRowBuffer() { Clear(); }

 private:
  template <bool kConsume, typename Fn>
  Status Visit(CancelPoll* poll, Fn& fn);

  /// Serializes the in-memory tail into one spill run; releases the
  /// tail's charge and records the spill with the tracker.
  Status FlushTail();

  MemoryContext ctx_;
  std::vector<Row> tail_;
  std::vector<size_t> run_row_counts_;
  std::unique_ptr<mem::SpillFile> file_;
  size_t tail_bytes_ = 0;     // tracked charge for tail_
  size_t total_bytes_ = 0;
  size_t rows_spilled_ = 0;
  size_t spill_bytes_ = 0;      // cumulative; not reset by Clear
  size_t spill_run_count_ = 0;  // cumulative; not reset by Clear
};

template <bool kConsume, typename Fn>
Status SpillableRowBuffer::Visit(CancelPoll* poll, Fn& fn) {
  using Out = std::conditional_t<kConsume, Row&&, const Row&>;
  CancelPoll own(ctx_.cancel);
  if (poll == nullptr) poll = &own;
  // Rows that never spilled are read in place; the rest are replayed.
  std::optional<Reader> reader;
  if (has_spilled_rows()) reader.emplace(this);
  std::optional<Row> replayed;
  bool more = true;
  for (size_t i = 0; more; ++i) {
    RADB_RETURN_NOT_OK(poll->Tick());
    if (reader.has_value()) {
      RADB_ASSIGN_OR_RETURN(replayed, reader->Next());
    }
    Row* row = reader ? (replayed ? &*replayed : nullptr)
                      : (i < tail_.size() ? &tail_[i] : nullptr);
    if (row == nullptr) break;
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, Out>, Status>) {
      RADB_RETURN_NOT_OK(fn(static_cast<Out>(*row)));
    } else {
      RADB_ASSIGN_OR_RETURN(more, fn(static_cast<Out>(*row)));
    }
  }
  if constexpr (kConsume) Clear();
  return Status::OK();
}

/// One SpillableRowBuffer per simulated worker — the spill-aware
/// analogue of the executor's Dist.
using SpillableDist = std::vector<SpillableRowBuffer>;

}  // namespace radb

#endif  // RADB_STORAGE_SPILL_H_
