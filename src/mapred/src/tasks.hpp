// The map task driver and the reduce task driver behind both MPI-D
// runners, JobRunner and JobChain.
//
// A runner says what a task reads and which user function it calls; the
// drivers own everything else. On the map side that is streaming versus
// loaded input, worker-pool chunks, straggler delays, injected crashes
// and the restart loop. On the reduce side it is the crash/re-pull loop
// and the merge phase. Both runners reduce before the rank's barrier and
// collect output through sort_run and merge_runs: JobRunner's master
// merges the reducers' runs as soon as its finalize() has received every
// reducer's done, which each reducer sends after writing its run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "mpid/core/merge.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/mapred/input.hpp"
#include "mpid/mapred/job.hpp"

namespace mpid::mapred::detail {

using Emit = MapContext::Sink;

/// One map task's input and map function, as run_map_task consumes them.
struct MapTask {
  /// Maps every record in one pass through `emit`. Taken when nothing
  /// re-reads or slices the input, so the records never materialize.
  std::function<void(const Emit& emit)> stream;
  /// Loads the input for random access and returns the record count.
  /// Called at most once, and never together with `stream`.
  std::function<std::size_t()> load;
  /// Maps loaded records [lo, hi) through `emit`, calling `tick()` before
  /// each one. Several calls may run at once on the rank's worker pool.
  std::function<void(std::size_t lo, std::size_t hi, const Emit& emit,
                     const std::function<void()>& tick)>
      map_range;
};

/// One mapper's external input: a record source, or a text split whose
/// lines are read as views of the caller's text.
using MapInput = std::variant<RecordSource, LineReader>;

/// The inputs of a run over caller-supplied record sources.
std::vector<MapInput> source_inputs(std::vector<RecordSource> sources);

/// The inputs of a run over `text`: one LineReader per split_text() chunk,
/// so a streamed map task never copies a line.
std::vector<MapInput> text_inputs(std::string_view text, int mappers);

/// A map task over a single-pass input, mapped by `map` under mapper
/// index `mapper`. `stream` hands each record to `map` as read; `load`
/// moves (or, for text, copies) the records into `split`, which must
/// outlive the task. `bytes_read` (nullable) counts the record bytes read.
MapTask input_map_task(MapInput& input, const MapFn& map, int mapper,
                       std::vector<std::string>& split,
                       std::uint64_t* bytes_read);

/// Records [lo, hi) of part `part` when `count` records split into
/// `parts` contiguous parts.
std::pair<std::size_t, std::size_t> part_range(std::size_t count,
                                               std::size_t parts,
                                               std::size_t part);

/// Runs one map task on a mapper rank, up to its round barrier (the
/// caller's finalize() or next_round()). The input streams straight into
/// MPI_D_Send unless it must be loaded: an armed fault injector re-runs
/// a crashed attempt from the first record (restart_mapper), and
/// map_threads > 1 maps resolve_map_chunks() chunks on the rank's worker
/// pool.
/// `chain_ticks` (nullable) carries the current attempt's crash-tick count
/// across the rounds of a chain, so an injected map crash can land in any
/// round, as a reducer's does: it holds the records this attempt mapped
/// in earlier rounds, and a restart zeroes it.
void run_map_task(core::MpiD& mpid, const core::Config& config,
                  const MapTask& task, std::uint64_t* chain_ticks = nullptr);

/// The reduce side of one task, or of one chain round, on a reducer rank.
class ReduceTask {
 public:
  using GroupFn = std::function<void(std::string_view key,
                                     std::vector<std::string>& values)>;

  /// Hadoop's merge phase: the key-sorted frames (the mappers must set
  /// sort_keys) stream through a SortedFrameMerger. `config` must outlive
  /// the task.
  ReduceTask(core::MpiD& mpid, const core::Config& config);

  /// Receives the round's whole shuffle. An injected crash restarts the
  /// attempt: what was received is discarded and every lane re-pulled.
  void collect();

  /// Calls `fn` once per key, in key order, then folds the task's
  /// counters into the rank's Stats: the values handed to `fn`
  /// (pairs_received) and the merger's spill counters. Call after
  /// collect() and before the rank's finalize() or next_round(), which
  /// ship them.
  void reduce(const GroupFn& fn);

 private:
  void arm_merger();

  core::MpiD& mpid_;
  const core::Config& config_;
  const bool budgeted_;  // the merger's disk tier is armed
  core::SortedFrameMerger merger_;
  shuffle::ShuffleCounters spill_counters_;
};

/// Sorts one reducer's output run by (key, value). A reduce sees its keys
/// in order, so this is usually one O(n) check.
void sort_run(KvVec& run);

/// Merges runs that are each sorted by (key, value) into one sorted
/// vector, moving every pair, in O(n log R) for R runs.
KvVec merge_runs(std::vector<KvVec> runs);

}  // namespace mpid::mapred::detail
