#include "mpid/mpidsim/system.hpp"

#include <algorithm>
#include <stdexcept>

#include "mpid/common/hash.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/sim/event.hpp"
#include "mpid/sim/resource.hpp"

namespace mpid::mpidsim {

struct MpidSystem::Run {
  MpidJobSpec job;
  std::uint64_t share_bytes = 0;       // input per mapper (last takes tail)
  std::uint64_t total_chunks = 0;      // spill rounds across all mappers
  double total_intermediate = 0;
  int mappers_done = 0;
  std::vector<std::unique_ptr<sim::Channel<double>>> to_reducer;
  std::vector<std::uint64_t> chunks_for_reducer;
  int reducers_done = 0;
  std::unique_ptr<sim::Event> done;
  sim::Time started;
  MpidJobResult result;
};

MpidSystem::MpidSystem(sim::Engine& engine, SystemSpec spec)
    : engine_(engine),
      spec_(spec),
      fabric_(engine, spec.nodes, spec.fabric),
      mpi_(engine, fabric_) {
  if (spec.nodes < 2 || spec.mappers_per_node < 1 || spec.reducers < 1) {
    throw std::invalid_argument("MpidSystem: bad topology");
  }
  if (spec.map_threads < 1 || spec.thread_efficiency <= 0.0 ||
      spec.thread_efficiency > 1.0) {
    throw std::invalid_argument(
        "MpidSystem: map_threads must be >= 1 and thread_efficiency in "
        "(0, 1]");
  }
  if (spec.node_aggregation && spec.node_agg_merge_bytes_per_second <= 0.0) {
    throw std::invalid_argument(
        "MpidSystem: node_agg_merge_bytes_per_second must be > 0 when "
        "node_aggregation is set");
  }
  disks_.reserve(static_cast<std::size_t>(spec.nodes));
  for (int n = 0; n < spec.nodes; ++n) {
    net::FabricSpec disk_spec;
    disk_spec.loopback_bytes_per_second = spec.disk_bytes_per_second;
    disk_spec.link_latency = sim::kTimeZero;
    disks_.push_back(std::make_unique<net::Fabric>(engine_, 1, disk_spec));
  }
}

namespace {

/// Chunks a byte count into spill-sized pieces (last piece is the tail).
std::uint64_t chunk_count(std::uint64_t bytes, std::uint64_t chunk) {
  return (bytes + chunk - 1) / chunk;
}

}  // namespace

sim::Task<> MpidSystem::mapper(Run& run, int node, int index_on_node) {
  const int mapper_id = (node - 1) * spec_.mappers_per_node + index_on_node;
  if (!run.job.world_resident) co_await engine_.delay(spec_.job_startup);
  if (spec_.startup_jitter_max.ns > 0) {
    common::SplitMix64 jitter_rng(static_cast<std::uint64_t>(mapper_id) + 1);
    co_await engine_.delay(sim::Time{static_cast<std::int64_t>(
        jitter_rng() % static_cast<std::uint64_t>(
                           spec_.startup_jitter_max.ns))});
  }
  const bool last = mapper_id == spec_.total_mappers() - 1;
  std::uint64_t remaining =
      last ? run.job.input_bytes -
                 run.share_bytes *
                     static_cast<std::uint64_t>(spec_.total_mappers() - 1)
           : run.share_bytes;

  // Finite send buffering: at most send_window spill transfers in flight.
  const auto window_size = static_cast<std::uint64_t>(
      std::max(1, spec_.overlap_sends ? spec_.send_window : 1));
  sim::Resource window(engine_, window_size);
  std::uint64_t chunk_index = 0;
  while (remaining > 0) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(remaining, spec_.spill_input_bytes);
    // Scan input records from the local disk, run the map function and the
    // combiner over the hash-table buffer. Resident chain rounds map the
    // previous round's in-memory reducer partitions instead — no scan.
    if (!run.job.map_input_resident) {
      co_await disks_[static_cast<std::size_t>(node)]->transfer(0, 0, chunk);
    }
    const double jitter =
        1.0 + spec_.chunk_jitter_frac *
                  (2.0 * (static_cast<double>(common::fmix64(
                              (static_cast<std::uint64_t>(mapper_id) << 32) ^
                              chunk_index) >>
                          11) *
                          0x1.0p-53) -
                   1.0);
    // Map compute and realignment run on the process's worker pool
    // (map_threads); the codec stage below stays serial, matching the
    // real library's serialized sequencer drain.
    const double thread_speedup = spec_.map_thread_speedup();
    co_await engine_.delay(sim::from_seconds(
        static_cast<double>(chunk) / spec_.map_cpu_bytes_per_second *
        jitter / thread_speedup));

    // Spill: realign the combined buffer into contiguous partition frames,
    // then (when the job compresses its shuffle) codec-frame them so the
    // fabric only carries wire bytes.
    const double out =
        static_cast<double>(chunk) * run.job.map_output_ratio;
    co_await engine_.delay(sim::from_seconds(
        out / spec_.realign_bytes_per_second / thread_speedup));
    double post = out;
    if (spec_.node_aggregation) {
      // In-node combine tree (DESIGN.md §14): the node's mappers merge
      // duplicate keys before the fabric sees anything. Merge CPU is
      // charged over the full pre-aggregation volume; the wire — and
      // the reducer — then carry only the merged stream.
      co_await engine_.delay(
          sim::from_seconds(out / spec_.node_agg_merge_bytes_per_second));
      const double ratio = run.job.node_agg_ratio > 0.0
                               ? run.job.node_agg_ratio
                               : static_cast<double>(spec_.mappers_per_node);
      post = out / ratio;
    }
    double wire = post;
    if (run.job.compress_shuffle) {
      co_await engine_.delay(
          sim::from_seconds(post / spec_.compress_bytes_per_second));
      wire = post / run.job.shuffle_compression_ratio;
    }

    // MPI_Send of the full frames. With overlap_sends the transfer is
    // pipelined with the next chunk's scan (MPI_D_Send returns
    // immediately); without it the mapper blocks until delivery.
    const int reducer_index =
        static_cast<int>((static_cast<std::uint64_t>(mapper_id) + chunk_index) %
                         static_cast<std::uint64_t>(spec_.reducers));
    const int reducer_node = 1 + reducer_index % (spec_.nodes - 1);
    auto deliver = [](MpidSystem& self, Run& r, sim::Resource& win, int src,
                      int dst_node, int reducer, double raw_bytes,
                      double wire_bytes) -> sim::Task<> {
      co_await self.mpi_.send(src, dst_node,
                              static_cast<std::uint64_t>(wire_bytes));
      // The reducer is handed the raw volume: its realignment/reduce and
      // memory budget are over decoded bytes.
      co_await r.to_reducer[static_cast<std::size_t>(reducer)]->send(
          raw_bytes);
      win.release();
    };
    co_await window.acquire();
    if (spec_.overlap_sends) {
      engine_.spawn(deliver(*this, run, window, node, reducer_node,
                            reducer_index, post, wire));
    } else {
      co_await deliver(*this, run, window, node, reducer_node, reducer_index,
                       post, wire);
    }

    remaining -= chunk;
    ++chunk_index;
  }
  // Drain outstanding transfers before reporting completion (the window
  // resource lives in this frame, so spawned deliveries must finish).
  co_await window.acquire(window_size);
  window.release(window_size);

  if (++run.mappers_done == spec_.total_mappers()) {
    run.result.map_phase_end = engine_.now();
  }
}

sim::Task<> MpidSystem::reducer(Run& run, int reducer_index) {
  if (!run.job.world_resident) co_await engine_.delay(spec_.job_startup);
  const int node = 1 + reducer_index % (spec_.nodes - 1);

  std::uint64_t consumed = 0;
  double received_bytes = 0;
  double spilled_total = 0;  // run bytes written during reception
  auto& inbox = *run.to_reducer[static_cast<std::size_t>(reducer_index)];
  while (consumed <
         run.chunks_for_reducer[static_cast<std::size_t>(reducer_index)]) {
    const double bytes = co_await inbox.recv();
    // Compressed spills are decoded as they arrive, before the reverse
    // realignment sees them.
    if (run.job.compress_shuffle) {
      co_await engine_.delay(
          sim::from_seconds(bytes / spec_.decompress_bytes_per_second));
    }
    // Streaming mode: reverse realignment + the reduce function, applied
    // as the partitions arrive. Within the memory budget this is pure
    // in-memory work; beyond it the prototype spills and merges through
    // the local disk at a much lower effective rate.
    const double in_memory = std::max(
        0.0, std::min(bytes,
                      spec_.reduce_memory_budget_bytes - received_bytes));
    const double spilled = bytes - in_memory;
    if (spec_.model_spill_store) {
      // Two-tier store (mpid::store): over-budget bytes are staged to a
      // sorted run through this node's disk — shared with the node's
      // mappers, so spill I/O and input scans contend like they would on a
      // real box. The merge cascade is charged after the drain.
      co_await engine_.delay(
          sim::from_seconds(in_memory /
                            spec_.reduce_in_memory_bytes_per_second));
      if (spilled > 0) {
        co_await disks_[static_cast<std::size_t>(node)]->transfer(
            0, 0, static_cast<std::uint64_t>(spilled));
        spilled_total += spilled;
      }
    } else {
      // Legacy folded model: the spill rate already includes the disk
      // round-trip of the merge.
      co_await engine_.delay(sim::from_seconds(
          in_memory / spec_.reduce_in_memory_bytes_per_second +
          spilled / spec_.reduce_spill_bytes_per_second));
    }
    received_bytes += bytes;
    ++consumed;
  }
  if (spec_.model_spill_store && spilled_total > 0) {
    // External merge (store/extmerge.hpp): every spill drains the full
    // budget's worth of cursors, so runs are budget-sized. Fan-in
    // compaction merges the oldest spill_merge_fanin runs per pass
    // (read + rewrite through the disk, merge CPU on top), then the final
    // stream re-reads every surviving run once.
    std::vector<double> runs;
    double left = spilled_total;
    while (left > 0) {
      const double r = std::min(left, spec_.reduce_memory_budget_bytes);
      runs.push_back(r);
      left -= r;
    }
    const auto fanin = static_cast<std::size_t>(
        std::max(2, spec_.spill_merge_fanin));
    while (runs.size() > fanin) {
      double merged = 0;
      for (std::size_t i = 0; i < fanin; ++i) merged += runs[i];
      runs.erase(runs.begin(),
                 runs.begin() + static_cast<std::ptrdiff_t>(fanin));
      runs.insert(runs.begin(), merged);
      // One pass = read the inputs + write the merged run.
      co_await disks_[static_cast<std::size_t>(node)]->transfer(
          0, 0, static_cast<std::uint64_t>(2 * merged));
      co_await engine_.delay(
          sim::from_seconds(merged / spec_.spill_merge_bytes_per_second));
      spilled_total += merged;
      run.result.external_merge_passes += 1;
    }
    double surviving = 0;
    for (const double r : runs) surviving += r;
    co_await disks_[static_cast<std::size_t>(node)]->transfer(
        0, 0, static_cast<std::uint64_t>(surviving));
    co_await engine_.delay(
        sim::from_seconds(surviving / spec_.spill_merge_bytes_per_second));
    run.result.spilled_bytes += spilled_total;
  }
  // Final output write to the local disk.
  const auto output_bytes = static_cast<std::uint64_t>(
      received_bytes * run.job.reduce_output_ratio);
  co_await disks_[static_cast<std::size_t>(node)]->transfer(0, 0,
                                                            output_bytes);
  // Inter-round HDFS writeback (ablation rounds only): the part file is
  // pushed through the replication pipeline before the round may end —
  // one fabric hop and one disk write per extra replica.
  for (int rep = 1; rep < run.job.hdfs_writeback_replicas; ++rep) {
    const int replica_node = 1 + (node - 1 + rep) % (spec_.nodes - 1);
    co_await mpi_.send(node, replica_node, output_bytes);
    co_await disks_[static_cast<std::size_t>(replica_node)]->transfer(
        0, 0, output_bytes);
  }

  if (++run.reducers_done == spec_.reducers) {
    run.result.reduce_end = engine_.now();
    run.result.makespan = engine_.now() - run.started;
    run.result.intermediate_bytes = run.total_intermediate;
    run.done->set();
  }
}

MpidJobResult MpidSystem::run(const MpidJobSpec& job) {
  Run run;
  run.job = job;
  run.started = engine_.now();
  run.done = std::make_unique<sim::Event>(engine_);
  const auto mappers = static_cast<std::uint64_t>(spec_.total_mappers());
  run.share_bytes = job.input_bytes / mappers;
  run.total_intermediate =
      static_cast<double>(job.input_bytes) * job.map_output_ratio;

  // Precompute how many spill chunks each reducer will consume, mirroring
  // the mapper loop exactly so termination is exact.
  run.chunks_for_reducer.assign(static_cast<std::size_t>(spec_.reducers), 0);
  for (std::uint64_t m = 0; m < mappers; ++m) {
    const std::uint64_t bytes =
        m + 1 == mappers ? job.input_bytes - run.share_bytes * (mappers - 1)
                         : run.share_bytes;
    const std::uint64_t chunks =
        chunk_count(bytes, spec_.spill_input_bytes);
    run.total_chunks += chunks;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const auto reducer = static_cast<std::size_t>(
          (m + c) % static_cast<std::uint64_t>(spec_.reducers));
      ++run.chunks_for_reducer[reducer];
    }
  }

  for (int r = 0; r < spec_.reducers; ++r) {
    run.to_reducer.push_back(
        std::make_unique<sim::Channel<double>>(engine_));
  }

  for (int node = 1; node < spec_.nodes; ++node) {
    for (int i = 0; i < spec_.mappers_per_node; ++i) {
      engine_.spawn(mapper(run, node, i));
    }
  }
  for (int r = 0; r < spec_.reducers; ++r) engine_.spawn(reducer(run, r));

  engine_.run();
  if (!run.done->is_set()) {
    throw std::runtime_error("MpidSystem::run: job did not complete");
  }
  return run.result;
}

MpidChainResult MpidSystem::run_chain(const MpidChainSpec& chain) {
  if (chain.rounds < 1) {
    throw std::invalid_argument("MpidSystem::run_chain: rounds must be >= 1");
  }
  if (chain.round.input_bytes == 0) {
    throw std::invalid_argument(
        "MpidSystem::run_chain: round.input_bytes must be set");
  }
  MpidChainResult result;
  const sim::Time started = engine_.now();
  // State carried between rounds: round N's reducer output volume.
  double state = static_cast<double>(chain.round.input_bytes) *
                 chain.round.map_output_ratio * chain.round.reduce_output_ratio;
  for (int r = 1; r <= chain.rounds; ++r) {
    MpidJobSpec job = chain.round;
    if (r >= 2) {
      job.input_bytes = static_cast<std::uint64_t>(state);
      job.map_output_ratio = chain.state_map_output_ratio;
      job.reduce_output_ratio = chain.state_reduce_output_ratio;
      // Resident rounds keep the world up and map the reducer partitions
      // in place; the ablation relaunched the job and re-scans the
      // replicated part files.
      job.map_input_resident = chain.resident;
      job.world_resident = chain.resident;
      if (!chain.resident) {
        result.reingest_bytes += static_cast<double>(job.input_bytes);
      }
      state = static_cast<double>(job.input_bytes) * job.map_output_ratio *
              job.reduce_output_ratio;
    }
    const bool writeback = !chain.resident && r < chain.rounds;
    job.hdfs_writeback_replicas = writeback ? chain.hdfs_replicas : 0;
    if (writeback) {
      result.writeback_bytes += state * std::max(1, chain.hdfs_replicas);
    }
    result.rounds.push_back(run(job));
  }
  result.makespan = engine_.now() - started;
  return result;
}

}  // namespace mpid::mpidsim
