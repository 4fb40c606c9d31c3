#include "mpid/mapred/job.hpp"

#include <exception>
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

namespace {

/// JobRunner::run over `inputs`, one per mapper.
JobResult run_job(const JobDef& job, int mappers, int reducers,
                  std::vector<detail::MapInput> inputs) {
  if (!job.map || !job.reduce) {
    throw std::invalid_argument("JobRunner: map and reduce must be set");
  }
  if (inputs.size() != static_cast<std::size_t>(mappers)) {
    throw std::invalid_argument("JobRunner: need one input per mapper");
  }

  core::Config config = job.tuning;
  config.mappers = mappers;
  config.reducers = reducers;
  config.combiner = job.combiner;
  // Every reduce runs Hadoop's merge phase, and the merge needs every
  // shipped frame to be one sorted run.
  config.sort_keys = true;

  // Each reducer writes only its own run, before its done message; the
  // master reads the runs once finalize() has received every done.
  std::vector<KvVec> runs(static_cast<std::size_t>(reducers));
  JobResult result;

  // One split per mapper, filled when its map task loads it.
  std::vector<std::vector<std::string>> splits(inputs.size());
  std::vector<detail::MapTask> tasks;
  tasks.reserve(inputs.size());
  for (std::size_t m = 0; m < inputs.size(); ++m) {
    tasks.push_back(detail::input_map_task(inputs[m], job.map,
                                           static_cast<int>(m), splits[m],
                                           /*bytes_read=*/nullptr));
  }
  minimpi::run_world(config.world_size(), [&](minimpi::Comm& comm) {
    core::MpiD mpid(comm, config);
    switch (mpid.role()) {
      case core::Role::kMapper: {
        detail::run_map_task(
            mpid, config, tasks[static_cast<std::size_t>(mpid.mapper_index())]);
        mpid.finalize();
        break;
      }
      case core::Role::kReducer: {
        // Reduce before the barrier, as JobChain does, so the reducer
        // never waits on the other ranks with its work still to do.
        detail::ReduceTask task(mpid, config);
        task.collect();
        auto& run = runs[static_cast<std::size_t>(mpid.reducer_index())];
        ReduceContext ctx(mpid.reducer_index());
        std::exception_ptr error;
        try {
          task.reduce([&](std::string_view key,
                          std::vector<std::string>& values) {
            job.reduce(key, values, ctx);
          });
          run = ctx.take_emitted();
          detail::sort_run(run);
        } catch (...) {
          // A failed reduce still reaches the barrier, with an empty run,
          // so the master does not wait out the world timeout for it.
          error = std::current_exception();
          run.clear();
        }
        mpid.finalize();
        if (error) std::rethrow_exception(error);
        break;
      }
      case core::Role::kMaster:
        mpid.finalize();
        result.report = mpid.report();
        // Every run is final: its reducer wrote it before sending done.
        // The merge overlaps the workers' release and teardown.
        result.outputs = detail::merge_runs(std::move(runs));
        break;
    }
  });
  return result;
}

}  // namespace

JobResult JobRunner::run(const JobDef& job,
                         std::vector<RecordSource> inputs) const {
  return run_job(job, mappers_, reducers_,
                 detail::source_inputs(std::move(inputs)));
}

JobResult JobRunner::run_on_text(const JobDef& job,
                                 std::string_view text) const {
  return run_job(job, mappers_, reducers_, detail::text_inputs(text, mappers_));
}

}  // namespace mpid::mapred
