#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace radb {
namespace {

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::TypeError("bad type");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_EQ(s.message(), "bad type");
  EXPECT_EQ(s.ToString(), "TypeError: bad type");
  EXPECT_EQ(s, Status::TypeError("bad type"));
  EXPECT_FALSE(s == Status::TypeError("other"));
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kParseError, StatusCode::kBindError,
        StatusCode::kTypeError, StatusCode::kCatalogError,
        StatusCode::kExecutionError, StatusCode::kDimensionMismatch,
        StatusCode::kNumericError, StatusCode::kNotImplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Result<int> Chained(int x) {
  RADB_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(Chained(5).value(), 11);
  EXPECT_FALSE(Chained(0).ok());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(RngTest, DeterministicAndWellDistributed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  Rng d(123);
  (void)d.NextUint64();
  EXPECT_NE(d.NextUint64(), c.NextUint64());

  // Uniform doubles stay in [0, 1) and vary.
  Rng r(7);
  std::set<uint64_t> buckets;
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
    buckets.insert(static_cast<uint64_t>(x * 16));
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
  EXPECT_EQ(buckets.size(), 16u);  // every bucket hit
}

TEST(RngTest, UniformAndBelow) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.Uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
    const uint64_t n = r.NextBelow(7);
    ASSERT_LT(n, 7u);
  }
  EXPECT_EQ(r.NextBelow(0), 0u);
}

TEST(StringUtilTest, ToLowerAndJoin) {
  EXPECT_EQ(ToLower("MiXeD_123"), "mixed_123");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringUtilTest, FormatHms) {
  EXPECT_EQ(FormatHms(0.0042), "4.20ms");
  EXPECT_EQ(FormatHms(1.5), "1.50s");
  EXPECT_EQ(FormatHms(65.0), "00:01:05");
  EXPECT_EQ(FormatHms(3 * 3600 + 19 * 60 + 45), "03:19:45");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(80.0 * 1024 * 1024), "80.00 MiB");
  EXPECT_EQ(FormatBytes(3.5 * 1024 * 1024 * 1024), "3.50 GiB");
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  size_t count = 0;
  pool.ParallelFor(64, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;
  });
  EXPECT_EQ(count, 64u);
}

TEST(ThreadPoolTest, RepeatedRegionsDoNotLeakOrMisattributeWork) {
  // A worker still finishing a claim of one region must never claim an
  // index of the next.
  ThreadPool pool(8);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(17, [&](size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), 17u * 18u / 2);
  }
}

/// A count-down latch for ordering threads without sleeping.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }
  /// False if the count is still above zero after `timeout`.
  bool WaitFor(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_;
};

TEST(ThreadPoolTest, NestedRegionRunsOnIdleThreads) {
  // The outer index that starts the nested region holds one thread; a
  // nested body that waits until a body has started on some other
  // thread returns early only once an idle thread joins the nested
  // region (or, if none ever does, after the timeout, and the test
  // fails).
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> threads;
  Latch second_thread(1);
  pool.ParallelFor(2, [&](size_t outer) {
    if (outer == 1) return;
    pool.ParallelFor(64, [&](size_t) {
      const auto self = std::this_thread::get_id();
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(self);
        if (threads.size() >= 2) second_thread.CountDown();
      }
      (void)second_thread.WaitFor(std::chrono::seconds(30));
    });
  });
  EXPECT_GE(threads.size(), 2u);
}

TEST(ThreadPoolTest, NestedRegionFinishesOnItsCallerAlone) {
  // Every pool worker is held inside another thread's region until the
  // nested regions are done, so their caller must run all of their
  // indices itself.
  constexpr size_t kThreads = 4;
  ThreadPool pool(kThreads);
  Latch all_held(kThreads);
  Latch nested_done(1);
  std::thread holder([&] {
    // kThreads indices: one for the holder, one per worker.
    pool.ParallelFor(kThreads, [&](size_t) {
      all_held.CountDown();
      nested_done.Wait();
    });
  });
  all_held.Wait();
  constexpr size_t kInner = 16;
  std::vector<std::thread::id> ran(2 * kInner);
  pool.ParallelFor(2, [&](size_t outer) {
    pool.ParallelFor(kInner, [&](size_t i) {
      ran[outer * kInner + i] = std::this_thread::get_id();
    });
  });
  nested_done.CountDown();
  holder.join();
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], std::this_thread::get_id()) << i;
  }
}

TEST(ThreadPoolTest, DepthThreeNestingRunsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 6;
  std::vector<std::atomic<int>> hits(kN * kN * kN);
  pool.ParallelFor(kN, [&](size_t a) {
    pool.ParallelFor(kN, [&](size_t b) {
      pool.ParallelFor(kN, [&](size_t c) {
        hits[(a * kN + b) * kN + c].fetch_add(1);
      });
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, RegionOnAnotherPoolFromAWorkerCompletes) {
  ThreadPool a(3), b(3);
  std::vector<std::atomic<int>> hits(8 * 16);
  a.ParallelFor(8, [&](size_t outer) {
    b.ParallelFor(16, [&](size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  uint64_t b_tasks = b.Stats().caller.tasks;
  for (const ThreadPool::WorkerStats& w : b.Stats().workers) b_tasks += w.tasks;
  EXPECT_EQ(b_tasks, hits.size());
}

TEST(ThreadPoolTest, OneThreadPoolStaysInlineWhenNested) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  size_t count = 0;
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++count;
    });
  });
  EXPECT_EQ(count, 16u);
  EXPECT_EQ(pool.Stats().regions_started, 0u);
}

TEST(ThreadPoolTest, NestedClaimsCountEachThreadSecondOnce) {
  // Busy seconds are the time threads spent inside outermost bodies,
  // all within the wall time of the outer region.
  constexpr size_t kThreads = 4;
  ThreadPool pool(kThreads);
  const auto busy = [&] {
    const ThreadPool::PoolStats s = pool.Stats();
    double total = s.caller.busy_seconds;
    for (const ThreadPool::WorkerStats& w : s.workers) total += w.busy_seconds;
    return total;
  };
  const double before = busy();
  std::atomic<uint64_t> sink{0};
  const auto start = std::chrono::steady_clock::now();
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      pool.ParallelFor(8, [&](size_t i) {
        uint64_t x = i;
        for (int k = 0; k < 200000; ++k) x = x * 6364136223846793005u + 1;
        sink.fetch_add(x);
      });
    });
  });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double spent = busy() - before;
  EXPECT_GT(spent, 0.0);
  EXPECT_LE(spent, kThreads * wall);
}

TEST(ThreadPoolTest, ParallelRangesCoversAllOfTotalDisjointly) {
  ThreadPool pool(4);
  constexpr size_t kTotal = 1003;  // not a multiple of the chunk count
  std::vector<std::atomic<int>> hits(kTotal);
  pool.ParallelRanges(kTotal, [&](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end, kTotal);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kTotal; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, GlobalPoolInstallAndRestore) {
  ThreadPool* before = GlobalPool();
  ThreadPool pool(2);
  ThreadPool* previous = SetGlobalPool(&pool);
  EXPECT_EQ(previous, before);
  EXPECT_EQ(GlobalPool(), &pool);
  SetGlobalPool(previous);
  EXPECT_EQ(GlobalPool(), before);
}

TEST(ThreadPoolTest, ZeroThreadsResolvesToHardware) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareThreads());
  EXPECT_GE(pool.num_threads(), 1u);
}

}  // namespace
}  // namespace radb
