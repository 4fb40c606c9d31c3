// WorkerPool: the per-rank worker pool behind the hybrid process+threads
// execution model (ShuffleOptions::map_threads).
//
// Each MPI-D rank (and each MiniHadoop map task) is one OS process-analog
// in this repo; the pool lets that one rank keep several cores busy: a
// batch of steal-able tasks (map-input chunks, merge runs, decode jobs)
// is distributed block-wise over per-worker deques, and an idle worker
// steals half of a victim's remaining tasks from the back — the classic
// work-stealing shape, sized for coarse tasks (tens per batch,
// milliseconds each), so one pool mutex guarding every deque plus the
// batch state costs nothing measurable — and makes the take-a-task /
// which-batch-is-this decision a single atomic step (see work()), which
// keeps the pool trivially ThreadSanitizer-clean.
//
// The calling thread is always worker 0: a pool of one spawns no threads
// and runs every task inline, which is what makes `threads = 1` configs
// behave (and schedule) exactly like the pre-pool sequential code.
//
// Tasks within one batch must be independent — they may not enqueue
// further tasks. run() blocks until the batch completes and rethrows the
// first task exception on the caller (remaining tasks are abandoned).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mpid::shuffle {

class WorkerPool {
 public:
  /// fn(task, worker): `task` is the batch task index, `worker` the
  /// executing worker in [0, workers()) — per-worker state (buffers,
  /// counters) is indexed by it without synchronization.
  using TaskFn = std::function<void(std::size_t task, std::size_t worker)>;

  /// `threads` >= 1 total workers, including the calling thread; spawns
  /// `threads - 1` pool threads that park between batches.
  explicit WorkerPool(std::size_t threads);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool();

  std::size_t workers() const noexcept { return deques_.size(); }

  /// Runs tasks [0, count) across the workers and blocks until all have
  /// completed. Tasks are dealt block-wise (worker w starts with the w-th
  /// contiguous range), so a deterministic chunking stays cache-friendly
  /// when nobody steals. Throws whatever the first failing task threw;
  /// the remaining queued tasks are abandoned (but in-flight ones finish).
  void run(std::size_t count, const TaskFn& fn);

  /// Per-worker CPU time (CLOCK_THREAD_CPUTIME_ID) spent inside the tasks
  /// of the last run() batch, indexed by worker. The max entry is the
  /// batch's critical-path CPU — on a machine with fewer cores than
  /// workers (or under a loaded scheduler) wall time cannot show the
  /// parallel speedup, but sum/max of this vector still measures how well
  /// the stealing balanced the work (see bench/micro_threads.cpp). Valid
  /// until the next run() call.
  const std::vector<std::uint64_t>& last_batch_cpu_ns() const noexcept {
    return batch_cpu_ns_;
  }

 private:
  /// One worker's batch participation: drain own deque from the front,
  /// then steal half of the largest victim's remainder from the back;
  /// returns once no task is left anywhere. `gen` is the batch the worker
  /// was woken for — each iteration re-reads {generation_, fn_} and pops
  /// the task under one mu_ hold, so a worker that wakes late (or is
  /// preempted across a batch boundary) bails out instead of running a
  /// newer batch's tasks through a stale or cleared fn pointer.
  void work(std::size_t worker, std::uint64_t gen);
  /// Requires mu_ held by the caller.
  bool take(std::size_t worker, std::size_t& task);
  /// Folds one finished task's CPU time into the worker's batch slot and
  /// decrements pending_ — both under mu_, so by the time the caller
  /// observes pending_ == 0 every CPU write is visible too.
  void finish_task(std::size_t worker, std::uint64_t cpu_ns);
  void pool_thread_main(std::size_t worker);

  std::vector<std::deque<std::size_t>> deques_;
  std::vector<std::thread> threads_;
  std::vector<std::uint64_t> batch_cpu_ns_;

  // Batch lifecycle: the caller publishes {deques, fn, pending} under mu_
  // and bumps generation_; pool threads wake, work, and the last finished
  // task signals the caller back. mu_ guards the deques too — coarse
  // tasks make one mutex fine, and it ties each popped task to the fn of
  // the same generation.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const TaskFn* fn_ = nullptr;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace mpid::shuffle
