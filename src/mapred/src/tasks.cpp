#include "tasks.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <optional>
#include <thread>

#include "mpid/fault/fault.hpp"
#include "mpid/shuffle/parallel.hpp"

namespace mpid::mapred::detail {

namespace {

/// Safety cap on task re-executions. Injected crashes self-bound through
/// FaultPlan::max_injected_attempts; this guards against a plan scripted
/// to kill every attempt.
constexpr int kMaxTaskAttempts = 16;

/// The armed injector. Task faults ride on the resilient shuffle: the
/// plain shuffle has no recovery.
fault::FaultInjector* injector(const core::Config& config) {
  return config.resilient_shuffle ? config.fault_injector.get() : nullptr;
}

void straggle(fault::FaultInjector& inj, fault::TaskKind kind, int task,
              int attempt) {
  const auto lag = inj.straggle_delay(kind, task, attempt);
  if (lag.count() > 0) std::this_thread::sleep_for(lag);
}

std::optional<std::string> next_record(RecordSource& source) {
  return source();
}

std::optional<std::string_view> next_record(LineReader& reader) noexcept {
  return reader.next();
}

/// input_map_task for one reader type: RecordSource yields owned
/// records, LineReader views into the text.
template <typename Reader>
MapTask reader_map_task(Reader& reader, const MapFn& map, int mapper,
                        std::vector<std::string>& split,
                        std::uint64_t* bytes_read) {
  MapTask task;
  task.stream = [&reader, &map, mapper, bytes_read](const Emit& emit) {
    MapContext ctx(emit, mapper);
    while (auto record = next_record(reader)) {
      if (bytes_read != nullptr) *bytes_read += record->size();
      map(*record, ctx);
    }
  };
  task.load = [&reader, &split, bytes_read] {
    while (auto record = next_record(reader)) {
      if (bytes_read != nullptr) *bytes_read += record->size();
      split.emplace_back(std::move(*record));
    }
    return split.size();
  };
  task.map_range = [&split, &map, mapper](std::size_t lo, std::size_t hi,
                                          const Emit& emit,
                                          const std::function<void()>& tick) {
    MapContext ctx(emit, mapper);
    for (std::size_t i = lo; i < hi; ++i) {
      tick();
      map(split[i], ctx);
    }
  };
  return task;
}

}  // namespace

std::vector<MapInput> source_inputs(std::vector<RecordSource> sources) {
  std::vector<MapInput> inputs;
  inputs.reserve(sources.size());
  for (auto& source : sources) inputs.emplace_back(std::move(source));
  return inputs;
}

std::vector<MapInput> text_inputs(std::string_view text, int mappers) {
  std::vector<MapInput> inputs;
  for (const auto chunk : split_text(text, mappers)) {
    inputs.emplace_back(LineReader(chunk));
  }
  return inputs;
}

MapTask input_map_task(MapInput& input, const MapFn& map, int mapper,
                       std::vector<std::string>& split,
                       std::uint64_t* bytes_read) {
  return std::visit(
      [&](auto& reader) {
        return reader_map_task(reader, map, mapper, split, bytes_read);
      },
      input);
}

std::pair<std::size_t, std::size_t> part_range(std::size_t count,
                                               std::size_t parts,
                                               std::size_t part) {
  return {part * count / parts, (part + 1) * count / parts};
}

void run_map_task(core::MpiD& mpid, const core::Config& config,
                  const MapTask& task, std::uint64_t* chain_ticks) {
  const Emit send = [&mpid](std::string_view key, std::string_view value) {
    mpid.send(key, value);
  };
  fault::FaultInjector* inj = injector(config);
  if (inj == nullptr && config.map_threads <= 1) {
    task.stream(send);
    return;
  }
  // A crashed attempt re-reads the split from its first record (Hadoop
  // re-executes a failed map against its durable split in DFS), and
  // worker-pool chunks slice it.
  const std::size_t count = task.load();
  const int mapper = mpid.mapper_index();
  std::uint64_t round_ticks = 0;
  std::uint64_t& carried = chain_ticks != nullptr ? *chain_ticks : round_ticks;
  for (int safety = 0;; ++safety) {
    const int attempt = mpid.attempt();
    try {
      std::optional<std::uint64_t> crash_at;
      if (inj != nullptr) {
        crash_at = inj->crash_tick(fault::TaskKind::kMap, mapper, attempt);
        straggle(*inj, fault::TaskKind::kMap, mapper, attempt);
      }
      // Ticks count records across every chunk, which may run on the
      // worker pool, so a scripted crash fires at the same overall
      // progress point whatever the thread count, and on exactly one
      // worker.
      std::atomic<std::uint64_t> ticks{carried};
      const std::function<void()> tick = [&] {
        if (crash_at && ticks.fetch_add(1) + 1 == *crash_at) {
          inj->note(fault::Kind::kTaskCrash, "map:" + std::to_string(mapper) +
                                                 "#" + std::to_string(attempt));
          throw fault::TaskCrash(fault::TaskKind::kMap, mapper, attempt);
        }
      };
      if (config.map_threads > 1) {
        // The chunk count is fixed, never a function of the thread count,
        // so the shipped bytes are identical at every map_threads.
        const std::size_t chunks = shuffle::resolve_map_chunks(count);
        mpid.run_map_parallel(chunks, [&](std::size_t chunk, const Emit& emit) {
          const auto [lo, hi] = part_range(count, chunks, chunk);
          task.map_range(lo, hi, emit, tick);
        });
      } else {
        task.map_range(0, count, send, tick);
      }
      carried = ticks.load();
      return;
    } catch (const fault::TaskCrash&) {
      if (inj == nullptr || safety >= kMaxTaskAttempts) throw;
      carried = 0;
      mpid.restart_mapper();
    }
  }
}

ReduceTask::ReduceTask(core::MpiD& mpid, const core::Config& config)
    : mpid_(mpid),
      config_(config),
      budgeted_(config.memory_budget_bytes > 0) {}

void ReduceTask::arm_merger() {
  if (budgeted_) {
    merger_.enable_spill(config_, mpid_.memory_budget(), &spill_counters_);
  }
}

void ReduceTask::collect() {
  if (fault::FaultInjector* inj = injector(config_)) {
    straggle(*inj, fault::TaskKind::kReduce, mpid_.reducer_index(),
             mpid_.attempt());
  }
  arm_merger();
  for (int safety = 0;; ++safety) {
    try {
      // A budgeted merger charges each frame and spills sorted runs when
      // refused (DESIGN.md §13).
      std::vector<std::byte> frame;
      while (mpid_.recv_raw_frame(frame)) merger_.add_frame(std::move(frame));
      break;
    } catch (const fault::TaskCrash&) {
      // An injected crash mid-shuffle: drop everything received and
      // re-pull the retained mapper lanes. The dead attempt's merger
      // removes its disk runs (SpillFile RAII); the fresh one re-arms its
      // disk tier before the re-pulled frames arrive.
      if (safety >= kMaxTaskAttempts) throw;
      mpid_.restart_reducer();
      merger_ = core::SortedFrameMerger{};
      arm_merger();
    }
  }
}

void ReduceTask::reduce(const GroupFn& fn) {
  std::string key;
  std::vector<std::string> values;
  core::Stats counters;
  while (merger_.next_group(key, values)) {
    counters.pairs_received += values.size();
    fn(key, values);
  }
  // Folded once the merge is exhausted: the disk tier's final merge adds
  // its read time to spill_ns inside next_group().
  counters.merge(spill_counters_);
  mpid_.fold_counters(counters);
}

void sort_run(KvVec& run) {
  if (!std::is_sorted(run.begin(), run.end())) {
    std::sort(run.begin(), run.end());
  }
}

KvVec merge_runs(std::vector<KvVec> runs) {
  std::erase_if(runs, [](const KvVec& run) { return run.empty(); });
  // Pairwise passes halve the run count, so each pair moves once per pass.
  while (runs.size() > 1) {
    std::vector<KvVec> merged((runs.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
      auto& out = merged[i / 2];
      out.reserve(runs[i].size() + runs[i + 1].size());
      std::merge(std::make_move_iterator(runs[i].begin()),
                 std::make_move_iterator(runs[i].end()),
                 std::make_move_iterator(runs[i + 1].begin()),
                 std::make_move_iterator(runs[i + 1].end()),
                 std::back_inserter(out));
    }
    if (runs.size() % 2 == 1) merged.back() = std::move(runs.back());
    runs = std::move(merged);
  }
  return runs.empty() ? KvVec{} : std::move(runs.front());
}

}  // namespace mpid::mapred::detail
