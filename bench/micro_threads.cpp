// Thread-scaling microbenchmark of the hybrid process+threads model:
// ParallelMapper (map + combine + realign) across a per-rank WorkerPool,
// at every {threads} x {ranks} point the Figure-6-scale configs use.
//
// This host may have fewer cores than workers, so wall time cannot show
// the parallel speedup directly. The pool therefore accounts per-worker
// CPU time (CLOCK_THREAD_CPUTIME_ID) for each batch, and the bench
// reports:
//
//   map_combine_cpu_s    - total CPU burned in map+combine across workers
//   critical_path_cpu_s  - sum over ranks of the slowest worker's CPU
//   critical_path_speedup- total / critical path: the wall-time speedup a
//                          machine with >= `threads` free cores would see
//                          (work-stealing balance is the only loss term)
//
// threads=1 runs the inline no-thread path, so its wall time doubles as
// the regression guard for the sequential configuration.
#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mpid/mapred/input.hpp"
#include "mpid/shuffle/parallel.hpp"
#include "mpid/shuffle/workerpool.hpp"
#include "mpid/workloads/text.hpp"

namespace {

using namespace mpid;

/// WordCount-shaped map over one text chunk: tokenize and emit (word, 1).
void map_chunk(std::string_view chunk,
               const shuffle::ParallelMapper::EmitFn& emit) {
  mapred::LineReader lines(chunk);
  while (auto line = lines.next()) {
    std::size_t start = 0;
    while (start < line->size()) {
      auto end = line->find(' ', start);
      if (end == std::string_view::npos) end = line->size();
      if (end > start) emit(line->substr(start, end - start), "1");
      start = end + 1;
    }
  }
}

/// `ranks` mapper processes, each running its map task over a WorkerPool
/// of `threads` workers — the batches run sequentially (one shared core
/// budget), with the per-rank critical path accumulated from the pool's
/// CPU accounting.
void BM_ThreadedMapCombine(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto ranks = static_cast<std::size_t>(state.range(1));
  const std::uint64_t bytes_per_rank = 2 * 1024 * 1024;

  std::vector<std::string> inputs;
  inputs.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    inputs.push_back(workloads::generate_text(
        {}, bytes_per_rank, 1000 + static_cast<std::uint64_t>(r)));
  }

  shuffle::ShuffleOptions options;
  options.map_threads = threads;
  options.validate();

  std::uint64_t total_cpu_ns = 0, critical_cpu_ns = 0;
  std::uint64_t pairs = 0, frames = 0, frame_bytes = 0;
  for (auto _ : state) {
    shuffle::WorkerPool pool(threads);
    for (std::size_t r = 0; r < ranks; ++r) {
      shuffle::ShuffleCounters counters;
      shuffle::ParallelMapper::Setup setup;
      setup.partitions = 2;
      setup.combiner = [](std::string_view,
                          std::vector<std::string>&& values) {
        std::uint64_t total = 0;
        for (const auto& v : values) total += std::stoull(v);
        return std::vector<std::string>{std::to_string(total)};
      };
      setup.counters = &counters;
      setup.sink = [&](std::uint32_t, std::vector<std::byte> frame, bool) {
        ++frames;
        frame_bytes += frame.size();
        benchmark::DoNotOptimize(frame.data());
      };
      shuffle::ParallelMapper mapper(options, std::move(setup));

      const auto chunks = shuffle::resolve_map_chunks(inputs[r].size());
      const auto views =
          mapred::split_text(inputs[r], static_cast<int>(chunks));
      pairs += mapper.run(pool, views.size(),
                          [&](std::size_t chunk,
                              const shuffle::ParallelMapper::EmitFn& emit) {
                            map_chunk(views[chunk], emit);
                          });

      const auto& cpu = pool.last_batch_cpu_ns();
      std::uint64_t sum = 0, peak = 0;
      for (const auto ns : cpu) {
        sum += ns;
        peak = std::max(peak, ns);
      }
      total_cpu_ns += sum;
      critical_cpu_ns += peak;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ranks * bytes_per_rank));
  state.counters["map_combine_cpu_s"] =
      static_cast<double>(total_cpu_ns) * 1e-9;
  state.counters["critical_path_cpu_s"] =
      static_cast<double>(critical_cpu_ns) * 1e-9;
  state.counters["critical_path_speedup"] =
      critical_cpu_ns > 0 ? static_cast<double>(total_cpu_ns) /
                                static_cast<double>(critical_cpu_ns)
                          : 1.0;
  state.counters["pairs_emitted"] = static_cast<double>(pairs);
  state.counters["frames"] = static_cast<double>(frames);
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
}
BENCHMARK(BM_ThreadedMapCombine)
    ->Args({1, 2})
    ->Args({2, 2})
    ->Args({4, 2})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->ArgNames({"threads", "ranks"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

MPID_BENCHMARK_MAIN_JSON("micro_threads")
