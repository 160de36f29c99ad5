#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  // Destruction below joins; the count check happens after.
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ShutdownFinishesQueuedTasks) {
  // Every task submitted before the destructor must run — shutdown never
  // drops queued work.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // ~ThreadPool joins here
  EXPECT_EQ(count.load(), 500);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  bool ok = ParallelFor(&pool, 4, n, 64, Deadline(),
                        [&](size_t b, size_t e) {
                          for (size_t i = b; i < e; ++i) ++hits[i];
                          return true;
                        });
  EXPECT_TRUE(ok);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, MorselBoundariesAreDeterministic) {
  // Morsels depend only on (n, grain): per-morsel buffers concatenated in
  // index order must reproduce the identity sequence at any dop.
  ThreadPool pool(3);
  size_t n = 5000, grain = 128;
  for (int dop : {1, 2, 4}) {
    std::vector<std::vector<size_t>> outs((n + grain - 1) / grain);
    ASSERT_TRUE(ParallelFor(&pool, dop, n, grain, Deadline(),
                            [&](size_t b, size_t e) {
                              for (size_t i = b; i < e; ++i) {
                                outs[b / grain].push_back(i);
                              }
                              return true;
                            }));
    std::vector<size_t> flat;
    for (const auto& chunk : outs) {
      flat.insert(flat.end(), chunk.begin(), chunk.end());
    }
    std::vector<size_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(flat, expected) << "dop " << dop;
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  EXPECT_TRUE(ParallelFor(&pool, 4, 0, 16, Deadline(), [&](size_t, size_t) {
    ran = true;
    return true;
  }));
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  size_t n = 100;
  std::vector<int> hits(n, 0);  // no atomics needed: serial
  EXPECT_TRUE(ParallelFor(nullptr, 8, n, 7, Deadline(),
                          [&](size_t b, size_t e) {
                            for (size_t i = b; i < e; ++i) ++hits[i];
                            return true;
                          }));
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1);
}

TEST(ParallelForTest, BodyFailureAbortsAndReturnsFalse) {
  ThreadPool pool(2);
  std::atomic<size_t> morsels{0};
  bool ok = ParallelFor(&pool, 4, 1 << 20, 16, Deadline(),
                        [&](size_t b, size_t) {
                          ++morsels;
                          return b != 0;  // first morsel reports failure
                        });
  EXPECT_FALSE(ok);
  // The abort flag stops the loop long before all 65536 morsels run.
  EXPECT_LT(morsels.load(), size_t{1} << 16);
}

TEST(ParallelForTest, ExpiredDeadlineCancels) {
  ThreadPool pool(2);
  Deadline deadline = Deadline::AfterMillis(1);
  while (!deadline.Expired()) {
  }
  std::atomic<size_t> morsels{0};
  bool ok = ParallelFor(&pool, 4, 1 << 20, 16, deadline,
                        [&](size_t, size_t) {
                          ++morsels;
                          return true;
                        });
  EXPECT_FALSE(ok);
  // Expiry is checked per morsel claim: nearly all morsels are skipped.
  EXPECT_LT(morsels.load(), size_t{1} << 16);
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(3);
  auto run = [&] {
    ParallelFor(&pool, 4, 10000, 16, Deadline(), [&](size_t b, size_t) {
      if (b == 4992) throw std::runtime_error("boom");
      return true;
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
}

TEST(ParallelForTest, ExceptionStillDrainsWorkers) {
  // After a rethrow, no worker may still reference the (stack-allocated)
  // loop state; run many failing loops back to back to shake out
  // use-after-return under TSan-less CI.
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(
        ParallelFor(&pool, 4, 1000, 8, Deadline(),
                    [&](size_t b, size_t) -> bool {
                      if (b % 64 == 0) throw std::runtime_error("boom");
                      return true;
                    }),
        std::runtime_error);
  }
}

TEST(ParallelForTest, DoesNotWaitForHelpersThatNeverStarted) {
  // The pool's only worker is blocked, so the helper task ParallelFor
  // enqueues cannot start: the caller runs every morsel itself and must
  // return without waiting for it. The helper runs after the release
  // and finds nothing left to do.
  std::mutex mu;  // declared before the pool, so they outlive its worker
  std::condition_variable cv;
  bool release = false;
  ThreadPool pool(1);
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  size_t n = 1000;
  std::vector<int> hits(n, 0);
  bool ok = ParallelFor(&pool, 2, n, 10, Deadline(),
                        [&](size_t b, size_t e) {
                          for (size_t i = b; i < e; ++i) ++hits[i];
                          return true;
                        });
  EXPECT_TRUE(ok);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
            static_cast<std::ptrdiff_t>(n));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}  // ~ThreadPool runs the stale helper, which must touch nothing freed

TEST(ExecContextTest, EffectiveDopDegrades) {
  ExecContext serial;
  serial.dop = 1;
  EXPECT_EQ(serial.EffectiveDop(1 << 20), 1);
  EXPECT_EQ(serial.TaskPool(), nullptr);

  ExecContext parallel;
  parallel.dop = 4;
  EXPECT_EQ(parallel.EffectiveDop(parallel.parallel_min_rows - 1), 1);
  EXPECT_EQ(parallel.EffectiveDop(parallel.parallel_min_rows), 4);
  EXPECT_NE(parallel.TaskPool(), nullptr);

  parallel.parallel_min_rows = 0;
  EXPECT_EQ(parallel.EffectiveDop(0), 4);
}

TEST(ExecContextTest, ParallelGrainIsDeterministic) {
  EXPECT_EQ(ParallelGrain(100, 4), 1024u);          // floored
  EXPECT_EQ(ParallelGrain(1 << 20, 4), 65536u);     // n / (dop * 4)
  EXPECT_EQ(ParallelGrain(16, 4, 1), 1u);           // custom floor
  EXPECT_EQ(ParallelGrain(0, 4, 1), 1u);            // never zero
}

}  // namespace
}  // namespace gqopt
