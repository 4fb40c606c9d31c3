// Callback tracing for one job, recorded from outside the runtimes.
//
// The benchmark wraps the functions it hands to a runtime — map, combine,
// reduce and the MapContext::emit sink — so that each call lands in the
// calling thread's own log: no lock on the hot path, one lock per thread
// per job to register the log. Calls are summed per (thread, role, task
// index, round) slot with counts; no span is kept per record. After run()
// returns (every rank/task thread joined), summarize() turns the slots
// into phase boundaries and per-layer self times, and SpanLog keeps one
// span per (job, slot) and per (job, phase) for the trace file.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/job.hpp"
#include "phases.hpp"

namespace jobbench {

namespace mapred = mpid::mapred;
namespace shuffle = mpid::shuffle;

using Clock = std::chrono::steady_clock;

enum class Role : std::uint8_t { kMap, kReduce };

/// The summed callbacks of one task attempt in one round on one thread.
struct Slot {
  Role role = Role::kMap;
  int index = 0;  // mapper / reducer / partition index
  int round = 1;
  std::int64_t first_start_ns = kNoMark;  // first callback entry
  std::int64_t last_end_ns = kNoMark;     // last callback return
  std::int64_t call_ns = 0;  // inside map()/reduce(), emit included
  std::uint64_t calls = 0;
  std::int64_t emit_ns = 0;  // inside ctx.emit (the runtime's send path)
  std::uint64_t emits = 0;

  void record(std::int64_t start, std::int64_t end) noexcept {
    if (first_start_ns == kNoMark) first_start_ns = start;
    last_end_ns = end;
    call_ns += end - start;
    ++calls;
  }
};

struct ThreadLog {
  int thread = 0;  // registration order within the job
  std::vector<Slot> slots;
  std::size_t current = 0;  // index of the slot used last
  std::int64_t combine_ns = 0;
  std::uint64_t combines = 0;
};

class JobTrace {
 public:
  JobTrace();
  JobTrace(const JobTrace&) = delete;
  JobTrace& operator=(const JobTrace&) = delete;

  /// Marks the run() call: every timestamp is relative to it.
  void start(Clock::time_point at) noexcept { start_ = at; }
  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start_)
        .count();
  }

  /// The calling thread's log (registered on first use in this job).
  ThreadLog& local();
  /// The calling thread's slot for (role, index, round).
  Slot& slot(Role role, int index, int round);

  /// Every thread's log. Call only after the job's threads have joined.
  const std::deque<ThreadLog>& logs() const noexcept { return logs_; }

 private:
  Clock::time_point start_;
  const std::uint64_t generation_;
  std::mutex mu_;               // guards registration into logs_
  std::deque<ThreadLog> logs_;  // deque: registered logs never move
};

mapred::MapFn traced_map(mapred::MapFn fn, JobTrace* trace);
mapred::ReduceFn traced_reduce(mapred::ReduceFn fn, JobTrace* trace);
shuffle::Combiner traced_combiner(shuffle::Combiner fn, JobTrace* trace);
/// `statics` must be the job's static channel partitioned exactly as the
/// runtime partitions it: the wrapper hands the stage map a context of
/// its own (to time emit), and a ChainMapContext cannot be copied.
mapred::ChainMapFn traced_chain_map(mapred::ChainMapFn fn, JobTrace* trace,
                                    const mapred::StaticTables* statics);
mapred::ChainReduceFn traced_chain_reduce(mapred::ChainReduceFn fn,
                                          JobTrace* trace);
/// Wraps ingest and every stage of a chain.
mapred::ChainJob traced_chain(mapred::ChainJob job, JobTrace* trace,
                              const mapred::StaticTables* statics);

/// What the callbacks say about one job.
struct CallbackSummary {
  std::vector<RoundMarks> rounds;
  /// On each round's last mapper to finish, summed over rounds: map()
  /// self time, time inside ctx.emit, and the rest of its map span
  /// (record reading and per-record runtime cost).
  std::int64_t map_self_ns = 0;
  std::int64_t emit_ns = 0;
  std::int64_t input_ns = 0;
  /// Combiner time on every thread.
  std::int64_t combine_ns = 0;
  /// reduce() time of each round's busiest reducer, summed over rounds.
  std::int64_t reduce_self_ns = 0;
};

CallbackSummary summarize(const std::deque<ThreadLog>& logs);

/// Spans of traced jobs, written as Chrome trace-event JSON at the end of
/// the run.
class SpanLog {
 public:
  /// `offset_ns` is the job's start relative to the run's first job.
  void add_job(int job, int runtime, const std::string& runtime_name,
               std::int64_t offset_ns, const CallbackSummary& summary,
               const Phases& phases, const std::deque<ThreadLog>& logs);
  /// Throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

 private:
  std::uint64_t add(const std::string& name, const char* category, int pid,
                    int tid, std::int64_t start_ns, std::int64_t dur_ns,
                    int job, std::uint64_t parent, const std::string& args);

  std::vector<std::string> events_;
  std::uint64_t next_span_ = 1;
};

}  // namespace jobbench
