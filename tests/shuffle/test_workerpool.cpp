// WorkerPool tests: batch completion, worker-index contracts, stealing
// under skewed task costs, exception propagation, reuse across batches,
// and the per-worker CPU accounting the thread-scaling bench reads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mpid/shuffle/workerpool.hpp"

namespace mpid::shuffle {
namespace {

TEST(WorkerPoolTest, RejectsZeroWorkers) {
  EXPECT_THROW(WorkerPool(0), std::invalid_argument);
}

TEST(WorkerPoolTest, SingleWorkerRunsEveryTaskInlineInOrder) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t task, std::size_t worker) {
    EXPECT_EQ(worker, 0u);  // caller thread is the only worker
    order.push_back(task);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolTest, EveryTaskRunsExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  pool.run(kTasks, [&](std::size_t task, std::size_t worker) {
    ASSERT_LT(worker, 4u);
    runs[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(runs[t].load(), 1) << "task " << t;
  }
}

TEST(WorkerPoolTest, EmptyBatchReturnsImmediately) {
  WorkerPool pool(3);
  bool ran = false;
  pool.run(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.last_batch_cpu_ns().size(), 3u);
}

TEST(WorkerPoolTest, SkewedTasksAreStolenAcrossWorkers) {
  // One giant task in worker 0's block plus many small ones: without
  // stealing the small tasks would all wait behind the giant one on the
  // same worker. Require that at least one other worker participates.
  WorkerPool pool(4);
  std::mutex mu;
  std::set<std::size_t> workers_seen;
  pool.run(32, [&](std::size_t task, std::size_t worker) {
    if (task == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    std::lock_guard lock(mu);
    workers_seen.insert(worker);
  });
  EXPECT_GE(workers_seen.size(), 2u);
}

TEST(WorkerPoolTest, FirstTaskExceptionRethrownOnCaller) {
  WorkerPool pool(2);
  EXPECT_THROW(
      pool.run(16,
               [&](std::size_t task, std::size_t) {
                 if (task == 3) throw std::runtime_error("task failed");
               }),
      std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<std::size_t> done{0};
  pool.run(8, [&](std::size_t, std::size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 8u);
}

TEST(WorkerPoolTest, QueuedTasksAbandonedAfterException) {
  // Every task throws: each worker executes at most one task before the
  // first failure drains every deque, so queued tasks on *other* workers'
  // deques are abandoned too — the run() contract. (The old own-deque-only
  // drain let the throwing worker keep stealing and failing.)
  WorkerPool pool(4);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(pool.run(64,
                        [&](std::size_t, std::size_t) {
                          executed.fetch_add(1, std::memory_order_relaxed);
                          throw std::runtime_error("poisoned task");
                        }),
               std::runtime_error);
  EXPECT_LE(executed.load(), pool.workers());
  EXPECT_GE(executed.load(), 1u);
}

TEST(WorkerPoolTest, RapidBackToBackBatchesStayIsolated) {
  // Regression for the stale-batch race: a pool thread waking late for
  // batch N must never run batch N+1's tasks through batch N's (by then
  // dangling) fn, nor through the cleared fn between batches. Tiny
  // batches in a tight loop maximize the wake-after-completion window;
  // the per-batch counter and task-index assert catch any bleed-through
  // (and TSan catches the dangling-fn read).
  WorkerPool pool(4);
  for (std::size_t batch = 1; batch <= 300; ++batch) {
    const std::size_t count = batch % 5 + 1;
    std::atomic<std::size_t> done{0};
    pool.run(count, [&](std::size_t task, std::size_t) {
      ASSERT_LT(task, count);
      done.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(done.load(), count) << "batch " << batch;
  }
}

TEST(WorkerPoolTest, ReusableAcrossManyBatches) {
  WorkerPool pool(3);
  for (int batch = 0; batch < 20; ++batch) {
    std::atomic<std::size_t> done{0};
    pool.run(static_cast<std::size_t>(batch), [&](std::size_t, std::size_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), static_cast<std::size_t>(batch));
  }
}

TEST(WorkerPoolTest, CpuAccountingCoversTheBatch) {
  WorkerPool pool(2);
  std::atomic<std::uint64_t> spins{0};
  pool.run(8, [&](std::size_t, std::size_t) {
    // Burn a measurable slice of CPU per task.
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 200000; ++i) x = x + static_cast<std::uint64_t>(i);
    spins.fetch_add(x, std::memory_order_relaxed);
  });
  const auto& cpu = pool.last_batch_cpu_ns();
  ASSERT_EQ(cpu.size(), 2u);
  const auto total = std::accumulate(cpu.begin(), cpu.end(),
                                     std::uint64_t{0});
  EXPECT_GT(total, 0u);
  // The next batch resets the accounting.
  pool.run(1, [](std::size_t, std::size_t) {});
  ASSERT_EQ(pool.last_batch_cpu_ns().size(), 2u);
}

}  // namespace
}  // namespace mpid::shuffle
