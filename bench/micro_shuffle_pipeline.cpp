// Shuffle pipeline microbenchmark.
//
// Measures the MPI-D shuffle hot path end to end on in-process ranks —
// mappers call MPI_D_Send, reducers drain MPI_D_Recv — over the
// pipelined zero-copy transport: bounded-window owned isends, pooled
// frame buffers, checksummed frame trailers and per-lane delivery.
//
// Reported:
//   bytes_per_second   — shuffled value payload / wall time
//   mapper_stall_s     — aggregate wall time mappers spent inside the
//                        transport while flushing frames (Stats::flush_wait_ns)
//   frames             — partition frames shipped
//   pool_hit_rate      — FramePool acquire hit rate
//
// Results also land in BENCH_micro_shuffle_pipeline.json for the perf
// trajectory across PRs.
#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include <memory>
#include <string>
#include <vector>

#include "mpid/common/framepool.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/minimpi/comm.hpp"
#include "mpid/minimpi/world.hpp"

namespace {

using namespace mpid;

constexpr int kMappers = 4;
constexpr int kReducers = 2;
constexpr int kPairsPerMapper = 4096;
constexpr std::size_t kValueBytes = 2048;

/// One full shuffle: every mapper ships kPairsPerMapper values of
/// kValueBytes each; reducers drain every pair (one value copy each).
/// Returns the master's report.
core::JobReport run_shuffle(const core::Config& config) {
  core::JobReport report;
  minimpi::run_world(config.world_size(), [&](minimpi::Comm& comm) {
    core::MpiD d(comm, config);
    switch (d.role()) {
      case core::Role::kMapper: {
        const std::string value(kValueBytes, 'x');
        // 64 distinct keys spread pairs over both partitions while keeping
        // key handling cheap relative to the 2 KiB payload.
        std::vector<std::string> keys;
        keys.reserve(64);
        for (int k = 0; k < 64; ++k) keys.push_back("key-" + std::to_string(k));
        for (int i = 0; i < kPairsPerMapper; ++i) {
          d.send(keys[static_cast<std::size_t>(i % 64)], value);
        }
        d.finalize();
        break;
      }
      case core::Role::kReducer: {
        std::string key;
        std::string value;
        std::size_t drained = 0;
        while (d.recv(key, value)) ++drained;
        benchmark::DoNotOptimize(drained);
        d.finalize();
        break;
      }
      case core::Role::kMaster: {
        d.finalize();
        report = d.report();
        break;
      }
    }
  });
  return report;
}

void BM_ShuffleThroughput(benchmark::State& state) {
  core::Config config;
  config.mappers = kMappers;
  config.reducers = kReducers;
  // A dedicated pool keeps hit-rate accounting clean.
  config.frame_pool = std::make_shared<common::FramePool>();

  const std::int64_t payload =
      static_cast<std::int64_t>(kMappers) * kPairsPerMapper *
      static_cast<std::int64_t>(kValueBytes);

  std::uint64_t stall_ns = 0;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    const auto report = run_shuffle(config);
    stall_ns += report.totals.flush_wait_ns;
    frames += report.totals.frames_sent;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          payload);
  state.counters["mapper_stall_s"] = static_cast<double>(stall_ns) * 1e-9;
  state.counters["frames"] = static_cast<double>(frames);
  const auto pc = config.frame_pool->counters();
  state.counters["pool_hit_rate"] =
      pc.acquires == 0 ? 0.0
                       : static_cast<double>(pc.hits) /
                             static_cast<double>(pc.acquires);
}
BENCHMARK(BM_ShuffleThroughput)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Transport-only A/B at the minimpi layer: ship 256 KiB frames from one
/// rank to another, copying (span send) vs moving (owned send with pool
/// recycling). Isolates the zero-copy + pooling win from MPI-D logic.
void BM_FrameTransport(benchmark::State& state) {
  const bool owned = state.range(0) != 0;
  constexpr std::size_t kFrameBytes = 256 * 1024;
  constexpr int kFramesPerRound = 64;

  // One pool shared by both ranks, as in MPI-D: the receiver releases a
  // parsed frame's allocation and the sender's next acquire reuses it.
  const auto pool = std::make_shared<common::FramePool>();
  for (auto _ : state) {
    minimpi::run_world(2, [&](minimpi::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<std::byte> frame(kFrameBytes, std::byte{0x42});
        for (int i = 0; i < kFramesPerRound; ++i) {
          if (owned) {
            auto buf = pool->acquire(kFrameBytes);
            buf.resize(kFrameBytes, std::byte{0x42});
            comm.send_bytes_owned(1, 1, std::move(buf));
          } else {
            comm.send_bytes(1, 1, frame);
          }
        }
      } else {
        for (int i = 0; i < kFramesPerRound; ++i) {
          std::vector<std::byte> sink;
          comm.recv_bytes(0, 1, sink);
          benchmark::DoNotOptimize(sink.data());
          if (owned) pool->release(std::move(sink));
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kFramesPerRound *
                          static_cast<std::int64_t>(kFrameBytes));
}
BENCHMARK(BM_FrameTransport)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"owned"})
    ->UseRealTime();

/// Resilient-shuffle cost curve: the same shuffle plus mapper-side
/// retention and NACK-driven retransmission, while the injector drops the
/// given permille of data frames. The
/// recovery counters land in the JSON artifact next to mapper_stall_s, so
/// the overhead of fault tolerance is tracked across PRs.
void BM_ResilientShuffle(benchmark::State& state) {
  const double drop = static_cast<double>(state.range(0)) / 1000.0;

  core::Config config;
  config.mappers = kMappers;
  config.reducers = kReducers;
  config.resilient_shuffle = true;
  config.frame_pool = std::make_shared<common::FramePool>();

  const std::int64_t payload =
      static_cast<std::int64_t>(kMappers) * kPairsPerMapper *
      static_cast<std::int64_t>(kValueBytes);

  core::Stats totals;
  for (auto _ : state) {
    if (drop > 0.0) {
      fault::FaultPlan plan;
      plan.seed = 11;
      plan.message_drop_prob = drop;
      config.fault_injector = std::make_shared<fault::FaultInjector>(plan);
    }
    const auto report = run_shuffle(config);
    totals += report.totals;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          payload);
  state.counters["mapper_stall_s"] =
      static_cast<double>(totals.flush_wait_ns) * 1e-9;
  state.counters["frames"] = static_cast<double>(totals.frames_sent);
  state.counters["frames_retransmitted"] =
      static_cast<double>(totals.frames_retransmitted);
  state.counters["retransmit_requests"] =
      static_cast<double>(totals.retransmit_requests);
  state.counters["duplicate_frames_dropped"] =
      static_cast<double>(totals.duplicate_frames_dropped);
  state.counters["recovery_wall_s"] =
      static_cast<double>(totals.recovery_wall_ns) * 1e-9;
}
BENCHMARK(BM_ResilientShuffle)
    ->Arg(0)
    ->Arg(20)
    ->Arg(50)
    ->ArgNames({"drop_permille"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

MPID_BENCHMARK_MAIN_JSON("micro_shuffle_pipeline")
