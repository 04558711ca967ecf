#ifndef RADB_MEM_MEMORY_TRACKER_H_
#define RADB_MEM_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <limits>
#include <string>

#include "common/result.h"
#include "obs/metrics_registry.h"

namespace radb::mem {

/// Hierarchical memory accounting: one root tracker per query (owning
/// the budget) with one child per operator that wants its own usage
/// attributed (EXPLAIN ANALYZE spill annotations). Charges propagate
/// to the root atomically, so parallel per-worker loops can reserve
/// and release concurrently; the budget check happens against the
/// root's total.
///
/// Budget semantics:
///  - budget_bytes == 0 means unlimited: every reservation succeeds
///    and the tracker is pure bookkeeping.
///  - TryReserve() is the soft path: a `false` return tells a
///    spill-capable consumer (SpillableRowBuffer, the Grace-hash join,
///    aggregation overflow) to move state to disk and retry.
///  - Reserve() is the hard path: operators holding unspillable state
///    (hash tables, sort buffers, aggregate accumulators) call it and
///    propagate the ResourceExhausted status, failing the query while
///    the Database stays healthy.
///  - ForceReserve() charges without failing, for state that must
///    exist before it can spill (a single row larger than what's left
///    of the budget); the overshoot is bounded by one such item.
///
/// The ledger is split in two classes. SPILLABLE charges (row buffers
/// that can always flush to disk) are gated against the TOTAL in use,
/// so buffers start spilling as soon as anything — including operator
/// state — fills the budget. UNSPILLABLE charges (child trackers
/// created for hash tables / sort buffers / accumulators) are gated
/// only against other unspillable state: whether a hash table fits
/// must not depend on which spillable tails other workers happen to
/// hold resident at that instant, or budget checks would be races.
/// The combined footprint is therefore bounded by 2x the budget in
/// the worst transient case (each class at its cap), and operators
/// keep it near 1x by spilling their inputs before reserving state
/// (the executor's MakeHeadroom).
class MemoryTracker {
 public:
  /// Root tracker. `metrics` may be null; when set, the tracker keeps
  /// the `mem.bytes_in_use` gauge and the `mem.spill_bytes` /
  /// `mem.spill_runs` counters up to date.
  MemoryTracker(std::string label, size_t budget_bytes,
                obs::MetricsRegistry* metrics = nullptr);
  /// Query root under a service-level GLOBAL root. Budget gating is
  /// identical to the plain root constructor (this tracker IS the
  /// budget root for its children), but every total-pool charge and
  /// release is mirrored, ungated, into `global_parent` so a service
  /// can observe cluster-wide bytes in use. The global budget itself
  /// is enforced at admission time (whole queries), never per byte —
  /// a query that was admitted must not start failing because of
  /// *other* queries' allocations, or results would depend on
  /// scheduling.
  MemoryTracker(std::string label, size_t budget_bytes,
                MemoryTracker* global_parent, obs::MetricsRegistry* metrics);
  /// Child tracker: charges forward to `parent`'s root; local usage
  /// is tracked separately for per-operator reporting. Children
  /// default to the UNSPILLABLE class because every operator-state
  /// tracker holds memory that cannot move to disk; pass false for a
  /// child that merely groups spillable charges.
  MemoryTracker(std::string label, MemoryTracker* parent,
                bool unspillable = true);
  ~MemoryTracker();

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Attempts to reserve; false when the root budget would be
  /// exceeded (the signal to spill). Always succeeds when unlimited.
  bool TryReserve(size_t bytes);

  /// Reserve-or-fail for unspillable state.
  Status Reserve(size_t bytes);

  /// Unconditional charge (bounded overshoot, e.g. one oversized row).
  void ForceReserve(size_t bytes);

  void Release(size_t bytes);

  /// Notes `bytes` written to a spill file in `runs` runs.
  void RecordSpill(size_t bytes, size_t runs = 1);

  /// This tracker's own (local) usage.
  size_t bytes_in_use() const {
    return used_.load(std::memory_order_relaxed);
  }
  /// High-water mark of local usage.
  size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  size_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  size_t spill_runs() const {
    return spill_runs_.load(std::memory_order_relaxed);
  }

  /// The root's budget; 0 = unlimited.
  size_t budget() const;
  bool has_budget() const { return budget() > 0; }
  /// Bytes still reservable at the root by THIS tracker's class
  /// (SIZE_MAX when unlimited): total headroom for spillable
  /// trackers, unspillable-pool headroom for unspillable ones.
  size_t remaining() const;
  /// Root-wide unspillable bytes currently reserved.
  size_t unspillable_bytes() const;

  const std::string& label() const { return label_; }
  MemoryTracker* parent() { return parent_; }
  /// The service-level global root this (query-root) tracker mirrors
  /// its charges into, or null.
  MemoryTracker* global_parent() { return global_; }

 private:
  MemoryTracker* Root();
  /// TryReserve; on refusal `*pool_level` gets the level of the pool
  /// (this tracker's class) that the failed check compared against.
  bool TryReserve(size_t bytes, size_t* pool_level);
  void AddLocal(size_t bytes);
  void PublishGauge();
  /// Unconditional charge against the total pool (used_/peak_/gauge),
  /// with no class gating — the shared tail of every reserve path.
  void ForceReserveTotal(size_t bytes);

  std::string label_;
  size_t budget_ = 0;  // root only
  bool unspillable_ = false;
  MemoryTracker* parent_ = nullptr;
  MemoryTracker* global_ = nullptr;  // root only: service-level mirror
  obs::MetricsRegistry* metrics_ = nullptr;  // root only
  obs::Gauge* in_use_gauge_ = nullptr;
  obs::Counter* spill_bytes_counter_ = nullptr;
  obs::Counter* spill_runs_counter_ = nullptr;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> pinned_used_{0};  // root only: unspillable total
  std::atomic<size_t> peak_{0};
  std::atomic<size_t> spill_bytes_{0};
  std::atomic<size_t> spill_runs_{0};
};

}  // namespace radb::mem

#endif  // RADB_MEM_MEMORY_TRACKER_H_
