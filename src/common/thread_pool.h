#ifndef RADB_COMMON_THREAD_POOL_H_
#define RADB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace radb {

/// Ambient per-thread task tag (usually a query id). Regions started
/// without an explicit tag inherit it, so LA kernels reached through
/// GlobalPool() are attributed to the query that called them without
/// plumbing a tag through every signature.
uint64_t CurrentTaskTag();

/// RAII setter for the ambient task tag; restores the previous tag on
/// destruction. The executor opens one at the top of each query.
class ScopedTaskTag {
 public:
  explicit ScopedTaskTag(uint64_t tag);
  ~ScopedTaskTag();
  ScopedTaskTag(const ScopedTaskTag&) = delete;
  ScopedTaskTag& operator=(const ScopedTaskTag&) = delete;

 private:
  uint64_t previous_;
};

/// Fixed-size thread pool driving fork/join `ParallelFor` regions.
///
/// One pool is owned per Database (sized by Config::num_threads) and
/// shared by the executor's per-worker partition loops and, through
/// the GlobalPool() hook, by the dense LA kernels. There is no work
/// stealing and no general task queue: a region hands every claimant
/// the same body and indices are claimed one at a time under the pool
/// lock (bodies are chunky — a partition, a tile product, a row band —
/// so per-claim locking is noise).
///
/// Concurrency model: many regions may be live at once, one per
/// submitting thread. Pool workers multiplex across live regions and
/// pick, at every claim, a region whose *tag* has gone longest without
/// service — per-query fair scheduling, so a heavy tiled multiply
/// (many long regions under one tag) cannot starve a short scan that
/// arrives under another tag. The submitting caller participates but
/// claims only from its own region, which guarantees every region
/// makes progress even when all workers are busy elsewhere.
///
/// A region started from inside a body (nested parallelism, e.g. an LA
/// kernel invoked from a parallel executor loop) is published like any
/// other, under the ambient tag, so idle workers help with it. Its
/// caller still claims only its own indices, so it can always finish
/// the region alone and nesting cannot deadlock.
///
/// Sequential guarantees, relied on for determinism:
///  - a pool built with num_threads <= 1 spawns no threads and runs
///    every region inline on the caller;
///  - bodies must write only disjoint state per index, which is how
///    the executor keeps per-worker Dist outputs bit-identical at any
///    thread count.
class ThreadPool {
 public:
  /// `num_threads` = 0 picks one thread per hardware core.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, n) and blocks until all are
  /// done. The calling thread participates. Concurrent ParallelFor
  /// calls from different threads proceed as concurrent regions and
  /// share the workers fairly by tag. `tag` = 0 inherits the ambient
  /// CurrentTaskTag().
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   uint64_t tag = 0);

  /// Splits [0, total) into contiguous ranges (several per thread, so
  /// dynamic claiming balances uneven work) and runs body(begin, end)
  /// for each. Used by the LA kernels for row-band parallelism; each
  /// output row is produced entirely by one range, so results are
  /// identical to the sequential loop.
  void ParallelRanges(size_t total,
                      const std::function<void(size_t, size_t)>& body,
                      uint64_t tag = 0);

  /// Cumulative per-thread accounting: bodies run, time spent running
  /// them, time spent blocked waiting for work. A body that runs while
  /// its thread is inside another body of the same pool (a nested
  /// region's caller claiming its own indices) adds a task to the
  /// outer body's row but no seconds: the outer body's time covers it,
  /// so each thread-second is counted once.
  struct WorkerStats {
    uint64_t tasks = 0;
    double busy_seconds = 0.0;
    double wait_seconds = 0.0;
  };
  /// A live region as seen at snapshot time; queue_depth = n - next is
  /// the number of still-unclaimed indices.
  struct RegionStats {
    uint64_t id = 0;
    uint64_t tag = 0;
    size_t n = 0;
    size_t next = 0;
    size_t completed = 0;
    double age_seconds = 0.0;
  };
  /// Point-in-time pool snapshot (the radb_threads system table).
  struct PoolStats {
    size_t num_threads = 1;
    std::vector<WorkerStats> workers;  // one per spawned worker thread
    WorkerStats caller;  // aggregate over submitting threads' own claims
    std::vector<RegionStats> regions;  // live regions, oldest first
    uint64_t regions_started = 0;
    uint64_t regions_completed = 0;
  };
  /// Thread-safe; takes the pool lock briefly, never blocks on work.
  PoolStats Stats() const;

  /// Observer called once per retired region (outside the pool lock,
  /// on the submitting thread) with the region's startup wait — time
  /// from submission to first index claim — and its total run time.
  /// Set once, before concurrent use; the Database installs one that
  /// feeds the pool.region_* wait histograms.
  void SetRegionObserver(
      std::function<void(double wait_seconds, double run_seconds)> observer);

  /// hardware_concurrency, clamped to >= 1.
  static size_t HardwareThreads();

 private:
  /// A live fork/join region. Stack-allocated by RunRegion; the entry
  /// in regions_ is removed (under mu_) before RunRegion returns, and
  /// workers never touch a Region pointer after bumping `completed`
  /// past the claim they served.
  struct Region {
    uint64_t id = 0;
    uint64_t tag = 0;
    size_t n = 0;
    const std::function<void(size_t)>* body = nullptr;
    size_t next = 0;       // next unclaimed index
    size_t completed = 0;  // bodies that have returned
    std::chrono::steady_clock::time_point created;
    /// Set (under mu_) when the first index is claimed; the gap from
    /// `created` is the region's queue wait.
    std::chrono::steady_clock::time_point first_claim;
    bool claimed = false;
  };

  void WorkerLoop(size_t worker_index);
  void RunRegion(size_t n, const std::function<void(size_t)>& body,
                 uint64_t tag);
  /// Under mu_: true if any live region still has unclaimed indices.
  bool HasClaimableLocked() const;
  /// Under mu_: fair pick — least-recently-served tag, oldest region
  /// breaking ties. Returns nullptr when nothing is claimable.
  Region* PickRegionLocked();
  /// Under mu_: records that `tag` was just served.
  void TouchTagLocked(uint64_t tag);

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;  // guards regions_, tag bookkeeping, shutdown_
  std::condition_variable work_cv_;  // workers: a region gained work
  std::condition_variable done_cv_;  // callers: some region completed
  std::vector<Region*> regions_;
  /// tag -> logical tick of its most recent index claim. Entries are
  /// erased when the last live region with the tag retires.
  std::vector<std::pair<uint64_t, uint64_t>> tag_service_;
  uint64_t service_clock_ = 0;
  uint64_t region_counter_ = 0;
  uint64_t regions_completed_ = 0;
  bool shutdown_ = false;
  /// Per-worker accounting, indexed like workers_; updated only under
  /// mu_ at points where the loops already hold it.
  std::vector<WorkerStats> worker_stats_;
  WorkerStats caller_stats_;
  std::function<void(double, double)> region_observer_;
};

/// Process-global pool hook for call sites with no natural path to a
/// Database (the LA kernels), mirroring obs::GlobalMetrics(). Null
/// means sequential execution — callers must test. A Database installs
/// its pool here for the duration of its lifetime.
ThreadPool* GlobalPool();
/// Installs (or, with nullptr, uninstalls) the global pool; returns
/// the previous one. Prefer the scoped Install/Uninstall pair below —
/// raw save/restore breaks when two installers are destroyed out of
/// LIFO order (the restorer can resurrect a freed pool).
ThreadPool* SetGlobalPool(ThreadPool* pool);

/// Scoped installation: pushes `pool` onto a registration stack and
/// makes it current. UninstallGlobalPool removes `pool` from anywhere
/// in the stack (not just the top), then the newest surviving entry
/// becomes current again — so two Databases (or a Database plus a
/// temporary per-query override pool) may come and go in any order
/// without one resurrecting the other's freed pool. No-ops on nullptr.
void InstallGlobalPool(ThreadPool* pool);
void UninstallGlobalPool(ThreadPool* pool);

}  // namespace radb

#endif  // RADB_COMMON_THREAD_POOL_H_
