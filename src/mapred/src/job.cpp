#include "mpid/mapred/job.hpp"

#include <stdexcept>

#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"
#include "tasks.hpp"

namespace mpid::mapred {

JobRunner::JobRunner(int mappers, int reducers)
    : mappers_(mappers), reducers_(reducers) {
  if (mappers < 1 || reducers < 1) {
    throw std::invalid_argument("JobRunner: need >= 1 mapper and reducer");
  }
}

JobResult JobRunner::run(const JobDef& job,
                         std::vector<RecordSource> inputs) const {
  if (!job.map || !job.reduce) {
    throw std::invalid_argument("JobRunner: map and reduce must be set");
  }
  if (inputs.size() != static_cast<std::size_t>(mappers_)) {
    throw std::invalid_argument("JobRunner: need one input per mapper");
  }

  core::Config config = job.tuning;
  config.mappers = mappers_;
  config.reducers = reducers_;
  config.combiner = job.combiner;
  // A sorted reduce is Hadoop's merge phase, and the merge needs every
  // shipped frame to be one sorted run.
  const bool merge = job.sorted_reduce || job.streaming_merge_reduce;
  if (merge) config.sort_keys = true;

  // Each reducer writes only its own run; run_world's join publishes them.
  std::vector<KvVec> runs(static_cast<std::size_t>(reducers_));
  core::JobReport report;

  // One split per mapper, filled when its map task loads it. The coded
  // shuffle loads every split up front: each rank that replicates a map
  // task must re-read its split — the task's own mapper maps r
  // sub-splits, and the home-group reducers replay r-1 of them as side
  // information — and record sources are single-pass cursors (Hadoop's
  // durable-split-in-DFS assumption, same as the fault path).
  const bool coded = config.coded_replication > 1;
  std::vector<std::vector<std::string>> splits(inputs.size());
  if (coded) {
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      while (auto record = inputs[m]()) splits[m].push_back(std::move(*record));
    }
  }

  minimpi::run_world(config.world_size(), [&](minimpi::Comm& comm) {
    core::MpiD mpid(comm, config);
    switch (mpid.role()) {
      case core::Role::kMapper: {
        const int mapper = mpid.mapper_index();
        const auto m = static_cast<std::size_t>(mapper);
        detail::run_map_task(
            mpid, config,
            detail::source_map_task(inputs[m], job.map, mapper, splits[m],
                                    /*bytes_read=*/nullptr));
        mpid.finalize();
        break;
      }
      case core::Role::kReducer: {
        if (coded) {
          // The redundant map pass runs once, before any recv: its side
          // terms decode every coded payload (and survive reducer
          // restarts — the replay is deterministic). The context reports
          // the PRIMARY mapper's index, so index-dependent map functions
          // agree across replicas.
          mpid.run_reduce_side_map(
              [&](int task, int sub, const core::MpiD::CodedEmitFn& emit) {
                const auto& split = splits[static_cast<std::size_t>(task)];
                const auto [lo, hi] = detail::part_range(
                    split.size(), config.coded_replication,
                    static_cast<std::size_t>(sub));
                MapContext ctx(emit, task);
                for (std::size_t i = lo; i < hi; ++i) job.map(split[i], ctx);
              });
        }
        detail::ReduceTask task(mpid, config, merge);
        task.collect();
        mpid.finalize();

        ReduceContext ctx(mpid.reducer_index());
        task.reduce([&](std::string_view key, std::vector<std::string>& values) {
          job.reduce(key, values, ctx);
        });
        auto& run = runs[static_cast<std::size_t>(mpid.reducer_index())];
        run = ctx.take_emitted();
        detail::sort_run(run);
        break;
      }
      case core::Role::kMaster:
        mpid.finalize();
        report = mpid.report();
        break;
    }
  });

  JobResult result;
  result.outputs = detail::merge_runs(std::move(runs));
  result.report = std::move(report);
  return result;
}

JobResult JobRunner::run_on_text(const JobDef& job,
                                 std::string_view text) const {
  const auto chunks = split_text(text, mappers_);
  std::vector<RecordSource> inputs;
  inputs.reserve(chunks.size());
  for (const auto chunk : chunks) inputs.push_back(line_source(chunk));
  return run(job, std::move(inputs));
}

}  // namespace mpid::mapred
