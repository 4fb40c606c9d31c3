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

  // Each reducer writes only its own run and received count; run_world's
  // join publishes them.
  std::vector<KvVec> runs(static_cast<std::size_t>(reducers));
  std::vector<std::uint64_t> received(static_cast<std::size_t>(reducers), 0);
  core::JobReport report;

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
        detail::ReduceTask task(mpid, config);
        task.collect();
        mpid.finalize();

        const auto r = static_cast<std::size_t>(mpid.reducer_index());
        ReduceContext ctx(mpid.reducer_index());
        received[r] = task.reduce(
            [&](std::string_view key, std::vector<std::string>& values) {
              job.reduce(key, values, ctx);
            });
        auto& run = runs[r];
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

  // The reduce runs after finalize() shipped the reducers' stats, so its
  // count joins the report (and its one barrier entry) here.
  for (const std::uint64_t n : received) {
    report.totals.pairs_received += n;
    report.round_totals.back().pairs_received += n;
  }

  JobResult result;
  result.outputs = detail::merge_runs(std::move(runs));
  result.report = std::move(report);
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
