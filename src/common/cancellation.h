#ifndef RADB_COMMON_CANCELLATION_H_
#define RADB_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace radb {

/// Cooperative cancellation handle shared between a query's submitter
/// and its execution pipeline. Every executor loop over rows, cells,
/// pairs or groups ticks a CancelPoll (below); beyond those, only each
/// operator's start and each pipeline batch call `Check()`. Callers
/// flip the flag from any thread via `Cancel()` or arm a wall-clock
/// deadline before the query starts. Header-only so any library can
/// use it without a new dependency.
///
/// Thread-safety: all members are safe to call concurrently. The
/// token is usually held by std::shared_ptr because the submitting
/// thread (Session::Cancel) and the executing thread race on
/// lifetime.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// Requests cancellation. Idempotent; visible to all threads that
  /// subsequently call Check()/cancelled().
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms a deadline `deadline_ms` milliseconds from now. A query's
  /// deadline covers queue wait too, so this is called at submission
  /// time — the token can expire while the query is still waiting in
  /// admission. Passing 0 disarms.
  void ArmDeadlineMs(uint64_t deadline_ms) {
    if (deadline_ms == 0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
    deadline_ns_.store(now_ns + static_cast<int64_t>(deadline_ms) * 1000000,
                       std::memory_order_relaxed);
  }

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  /// Steady-clock deadline in nanoseconds since epoch, or 0 if none.
  /// Admission uses this to bound its condition-variable wait.
  int64_t deadline_ns() const {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  bool deadline_expired() const {
    const int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >=
           d;
  }

  /// OK while the query may keep running; Cancelled after Cancel();
  /// DeadlineExceeded once the armed deadline passes. Cancellation
  /// takes priority over the deadline so a Cancel() near the deadline
  /// reports deterministically.
  Status Check() const {
    if (cancelled()) return Status::Cancelled("query cancelled");
    if (deadline_expired())
      return Status::DeadlineExceeded("query deadline exceeded");
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};
};

using CancellationTokenPtr = std::shared_ptr<CancellationToken>;

/// Ticks between polls: a cancel lands within microseconds, and the
/// atomic load vanishes against per-row work.
constexpr size_t kCancelCheckRows = 256;

/// Checks a token (null: never cancelled) every kCancelCheckRows-th
/// tick. One per thread.
class CancelPoll {
 public:
  explicit CancelPoll(const CancellationToken* cancel) : cancel_(cancel) {}

  Status Tick() {
    if (cancel_ == nullptr || ++ticks_ < kCancelCheckRows) {
      return Status::OK();
    }
    ticks_ = 0;
    return cancel_->Check();
  }

 private:
  const CancellationToken* cancel_;
  size_t ticks_ = 0;
};

}  // namespace radb

#endif  // RADB_COMMON_CANCELLATION_H_
