#include "common/thread_pool.h"

#include <algorithm>

namespace radb {

namespace {

/// A region body running on this thread: its pool and the stats row
/// its time is charged to. Frames chain outward through nested
/// regions.
struct BodyFrame {
  const ThreadPool* pool;
  ThreadPool::WorkerStats* row;
  const BodyFrame* outer;
};
thread_local const BodyFrame* tls_frame = nullptr;

/// The row of the innermost body of `pool` this thread is running, or
/// nullptr outside the pool's bodies.
ThreadPool::WorkerStats* OuterRow(const ThreadPool* pool) {
  for (const BodyFrame* f = tls_frame; f != nullptr; f = f->outer) {
    if (f->pool == pool) return f->row;
  }
  return nullptr;
}

/// Ambient task tag; inherited by regions started without an explicit
/// tag and re-established on worker threads while they run a region's
/// bodies, so nested GlobalPool() use stays attributed to the query.
thread_local uint64_t tls_task_tag = 0;

}  // namespace

uint64_t CurrentTaskTag() { return tls_task_tag; }

ScopedTaskTag::ScopedTaskTag(uint64_t tag) : previous_(tls_task_tag) {
  tls_task_tag = tag;
}

ScopedTaskTag::~ScopedTaskTag() { tls_task_tag = previous_; }

size_t ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? HardwareThreads() : num_threads) {
  // The caller participates in every region, so only n-1 extra
  // threads are needed; a 1-thread pool is purely inline.
  workers_.reserve(num_threads_ - 1);
  worker_stats_.resize(num_threads_ == 0 ? 0 : num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::HasClaimableLocked() const {
  for (const Region* r : regions_) {
    if (r->next < r->n) return true;
  }
  return false;
}

ThreadPool::Region* ThreadPool::PickRegionLocked() {
  Region* best = nullptr;
  uint64_t best_service = 0;
  for (Region* r : regions_) {
    if (r->next >= r->n) continue;
    uint64_t service = 0;
    for (const auto& [tag, tick] : tag_service_) {
      if (tag == r->tag) {
        service = tick;
        break;
      }
    }
    // Least-recently-served tag wins; within a tag, the oldest region
    // (smallest id) so a query's own regions finish in FIFO order.
    if (best == nullptr || service < best_service ||
        (service == best_service && r->id < best->id)) {
      best = r;
      best_service = service;
    }
  }
  return best;
}

void ThreadPool::TouchTagLocked(uint64_t tag) {
  ++service_clock_;
  for (auto& [t, tick] : tag_service_) {
    if (t == tag) {
      tick = service_clock_;
      return;
    }
  }
  tag_service_.emplace_back(tag, service_clock_);
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  using Clock = std::chrono::steady_clock;
  WorkerStats& stats = worker_stats_[worker_index];
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto wait_start = Clock::now();
    work_cv_.wait(lock, [&] { return shutdown_ || HasClaimableLocked(); });
    stats.wait_seconds +=
        std::chrono::duration<double>(Clock::now() - wait_start).count();
    if (shutdown_) return;
    Region* r = PickRegionLocked();
    if (r == nullptr) continue;
    const size_t i = r->next++;
    if (!r->claimed) {
      r->claimed = true;
      r->first_claim = Clock::now();
    }
    const uint64_t tag = r->tag;
    const std::function<void(size_t)>* body = r->body;
    TouchTagLocked(tag);
    lock.unlock();
    const BodyFrame frame{this, &stats, nullptr};
    tls_frame = &frame;
    tls_task_tag = tag;
    const auto body_start = Clock::now();
    (*body)(i);
    const double body_seconds =
        std::chrono::duration<double>(Clock::now() - body_start).count();
    tls_task_tag = 0;
    tls_frame = nullptr;
    lock.lock();
    ++stats.tasks;
    stats.busy_seconds += body_seconds;
    // After this increment the submitting caller may retire the
    // region, so `r` must not be dereferenced again once we notify.
    if (++r->completed == r->n) done_cv_.notify_all();
  }
}

void ThreadPool::RunRegion(size_t n, const std::function<void(size_t)>& body,
                           uint64_t tag) {
  using Clock = std::chrono::steady_clock;
  Region region;
  region.tag = tag;
  region.n = n;
  region.body = &body;
  region.created = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    region.id = ++region_counter_;
    regions_.push_back(&region);
  }
  work_cv_.notify_all();
  // The submitting thread claims indices alongside the workers, but
  // only from its own region: it never blocks on another query's
  // bodies, so every region is guaranteed forward progress even when
  // all pool workers are busy elsewhere. A nested caller's claims run
  // inside one of this pool's bodies, whose row already gets their
  // time.
  WorkerStats* const outer_row = OuterRow(this);
  const BodyFrame frame{this, outer_row != nullptr ? outer_row : &caller_stats_,
                        tls_frame};
  const uint64_t previous_tag = tls_task_tag;
  tls_task_tag = tag;
  std::unique_lock<std::mutex> lock(mu_);
  while (region.next < region.n) {
    const size_t i = region.next++;
    if (!region.claimed) {
      region.claimed = true;
      region.first_claim = Clock::now();
    }
    TouchTagLocked(tag);
    lock.unlock();
    tls_frame = &frame;
    const auto body_start = Clock::now();
    body(i);
    const double body_seconds =
        std::chrono::duration<double>(Clock::now() - body_start).count();
    tls_frame = frame.outer;
    lock.lock();
    ++frame.row->tasks;
    if (outer_row == nullptr) frame.row->busy_seconds += body_seconds;
    ++region.completed;
  }
  done_cv_.wait(lock, [&] { return region.completed == region.n; });
  ++regions_completed_;
  const std::function<void(double, double)> observer = region_observer_;
  regions_.erase(std::find(regions_.begin(), regions_.end(), &region));
  // Drop the tag's service entry once its last live region retires so
  // a long-lived service does not accumulate one slot per query ever
  // run.
  bool tag_live = false;
  for (const Region* r : regions_) {
    if (r->tag == tag) {
      tag_live = true;
      break;
    }
  }
  if (!tag_live) {
    for (auto it = tag_service_.begin(); it != tag_service_.end(); ++it) {
      if (it->first == tag) {
        tag_service_.erase(it);
        break;
      }
    }
  }
  lock.unlock();
  tls_task_tag = previous_tag;
  if (observer) {
    const auto end = Clock::now();
    const auto first = region.claimed ? region.first_claim : end;
    observer(std::chrono::duration<double>(first - region.created).count(),
             std::chrono::duration<double>(end - region.created).count());
  }
}

ThreadPool::PoolStats ThreadPool::Stats() const {
  using Clock = std::chrono::steady_clock;
  const auto now = Clock::now();
  PoolStats out;
  out.num_threads = num_threads_;
  std::lock_guard<std::mutex> lock(mu_);
  out.workers = worker_stats_;
  out.caller = caller_stats_;
  out.regions_started = region_counter_;
  out.regions_completed = regions_completed_;
  out.regions.reserve(regions_.size());
  for (const Region* r : regions_) {
    RegionStats s;
    s.id = r->id;
    s.tag = r->tag;
    s.n = r->n;
    s.next = r->next;
    s.completed = r->completed;
    s.age_seconds = std::chrono::duration<double>(now - r->created).count();
    out.regions.push_back(s);
  }
  return out;
}

void ThreadPool::SetRegionObserver(
    std::function<void(double wait_seconds, double run_seconds)> observer) {
  std::lock_guard<std::mutex> lock(mu_);
  region_observer_ = std::move(observer);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body,
                             uint64_t tag) {
  if (n == 0) return;
  if (n == 1 || num_threads_ <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  RunRegion(n, body, tag == 0 ? tls_task_tag : tag);
}

void ThreadPool::ParallelRanges(size_t total,
                                const std::function<void(size_t, size_t)>& body,
                                uint64_t tag) {
  if (total == 0) return;
  if (num_threads_ <= 1) {
    body(0, total);
    return;
  }
  // A few chunks per thread so dynamic index claiming evens out
  // ranges with unequal cost (e.g. the triangular TSMM bands).
  const size_t target_chunks = num_threads_ * 4;
  const size_t chunk =
      std::max<size_t>(1, (total + target_chunks - 1) / target_chunks);
  const size_t n_chunks = (total + chunk - 1) / chunk;
  ParallelFor(
      n_chunks,
      [&](size_t c) {
        const size_t begin = c * chunk;
        body(begin, std::min(begin + chunk, total));
      },
      tag);
}

namespace {
std::atomic<ThreadPool*> g_pool{nullptr};
// Registration stack behind Install/UninstallGlobalPool; mirrors
// obs::InstallGlobalMetrics. The atomic stays the lock-free read
// path.
std::mutex g_pool_stack_mu;
std::vector<ThreadPool*> g_pool_stack;
}  // namespace

ThreadPool* GlobalPool() { return g_pool.load(std::memory_order_acquire); }

ThreadPool* SetGlobalPool(ThreadPool* pool) {
  return g_pool.exchange(pool, std::memory_order_acq_rel);
}

void InstallGlobalPool(ThreadPool* pool) {
  if (pool == nullptr) return;
  std::lock_guard<std::mutex> lock(g_pool_stack_mu);
  g_pool_stack.push_back(pool);
  g_pool.store(pool, std::memory_order_release);
}

void UninstallGlobalPool(ThreadPool* pool) {
  if (pool == nullptr) return;
  std::lock_guard<std::mutex> lock(g_pool_stack_mu);
  for (auto it = g_pool_stack.rbegin(); it != g_pool_stack.rend(); ++it) {
    if (*it == pool) {
      g_pool_stack.erase(std::next(it).base());
      break;
    }
  }
  g_pool.store(g_pool_stack.empty() ? nullptr : g_pool_stack.back(),
               std::memory_order_release);
}

}  // namespace radb
