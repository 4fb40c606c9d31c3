// The MapReduce programming layer over MPI-D.
//
// Section IV.B of the paper notes that "typical MapReduce applications in
// Hadoop always do not directly invoke communication operations, but
// through context collectors to hide the communication processes. Actually
// our MPI-D interfaces can be also adopted inner the map and reduce
// runners" — this module is exactly that adoption: applications write
// map/reduce functions against context collectors and never see MPI_D_Send
// / MPI_D_Recv.
//
//   JobDef job;
//   job.map = [](std::string_view line, MapContext& ctx) {
//     for (auto word : tokenize(line)) ctx.emit(word, "1");
//   };
//   job.reduce = [](std::string_view key, std::span<const std::string> vs,
//                   ReduceContext& ctx) {
//     ctx.emit(key, std::to_string(sum(vs)));
//   };
//   JobResult r = JobRunner(/*mappers=*/4, /*reducers=*/2).run(job, inputs);
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpid/core/config.hpp"
#include "mpid/mapred/input.hpp"

namespace mpid::mapred {

using KvPair = std::pair<std::string, std::string>;
using KvVec = std::vector<KvPair>;

class MapContext {
 public:
  /// Emits one intermediate key-value pair (an MPI_D_Send underneath).
  void emit(std::string_view key, std::string_view value) {
    sink_(key, value);
  }

  /// 0-based index of this mapper.
  int mapper_index() const noexcept { return mapper_index_; }

  using Sink = std::function<void(std::string_view, std::string_view)>;

  /// Constructed by job runners (JobRunner, minihadoop::MiniCluster), not
  /// by map functions.
  MapContext(Sink sink, int mapper_index)
      : sink_(std::move(sink)), mapper_index_(mapper_index) {}

 private:
  Sink sink_;
  int mapper_index_;
};

class ReduceContext {
 public:
  /// Emits one final output pair of the job.
  void emit(std::string_view key, std::string_view value) {
    outputs_.emplace_back(std::string(key), std::string(value));
  }

  int reducer_index() const noexcept { return reducer_index_; }

  /// Constructed by job runners, not by reduce functions.
  explicit ReduceContext(int reducer_index) : reducer_index_(reducer_index) {}

  /// Moves the pairs emitted so far out (job runners collect output).
  KvVec take_emitted() noexcept { return std::move(outputs_); }

 private:
  KvVec outputs_;
  int reducer_index_;
};

using MapFn = std::function<void(std::string_view record, MapContext&)>;
using ReduceFn = std::function<void(
    std::string_view key, std::span<const std::string> values, ReduceContext&)>;

struct JobDef {
  MapFn map;
  ReduceFn reduce;
  /// Optional local combiner (see core::Config::combiner).
  core::Combiner combiner;
  /// MPI-D tuning; the runner fills in mappers/reducers and sets
  /// sort_keys. Every job runs Hadoop's merge phase: mappers ship
  /// key-sorted frames and each reducer k-way merges them
  /// (core::SortedFrameMerger, whose disk tier a memory budget arms), so
  /// reduce() sees keys in lexicographic order. Value order within a key
  /// is unspecified, as in Hadoop.
  core::Config tuning;

  /// Inert (every job merges); see ROADMAP item 5, "Order".
  bool streaming_merge_reduce = false;
};

struct JobResult {
  /// Final output pairs from all reducers, sorted by (key, value).
  KvVec outputs;
  /// The master's aggregated transport statistics.
  core::JobReport report;

  /// Moves the sorted outputs out of the result. The reducers' runs are
  /// merged into them by move, so no pair is copied after reduce()
  /// emitted it. The result's outputs are empty afterwards.
  KvVec take_outputs() noexcept { return std::move(outputs); }
};

/// Runs MapReduce jobs on an in-process MPI-D world of
/// 1 + mappers + reducers ranks.
class JobRunner {
 public:
  JobRunner(int mappers, int reducers);

  /// One record source per mapper (exactly `mappers` entries).
  JobResult run(const JobDef& job, std::vector<RecordSource> inputs) const;

  /// Convenience: splits a text corpus into per-mapper line sources.
  JobResult run_on_text(const JobDef& job, std::string_view text) const;

  int mappers() const noexcept { return mappers_; }
  int reducers() const noexcept { return reducers_; }

 private:
  int mappers_;
  int reducers_;
};

}  // namespace mpid::mapred
