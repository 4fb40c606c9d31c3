#include "mpid/minihadoop/minihadoop.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mpid/common/kvframe.hpp"
#include "mpid/hrpc/http.hpp"
#include "mpid/hrpc/rpc.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/compress.hpp"
#include "mpid/shuffle/engine.hpp"
#include "mpid/shuffle/merger.hpp"
#include "mpid/shuffle/nodeagg.hpp"
#include "mpid/shuffle/parallel.hpp"
#include "mpid/shuffle/workerpool.hpp"
#include "mpid/store/budget.hpp"
#include "mpid/store/spillfile.hpp"
#include "jobtracker.hpp"

namespace mpid::minihadoop {

using namespace detail;

namespace {

std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// The response header flagging a codec-framed segment body (the
/// mapred.compress.map.output analog of Hadoop's shuffle headers).
constexpr const char* kCodecHeader = "X-Mpid-Codec";

/// Node-aggregation accounting headers on aggregated /mapOutput replies:
/// the servlet runs the merge, the committed reduce attempt folds these
/// into its counter block — keeping them commit-gated like every other
/// attempt counter (retried and speculative fetches never double-count).
constexpr const char* kAggPreHeader = "X-Mpid-Agg-Pre";
constexpr const char* kAggPostHeader = "X-Mpid-Agg-Post";
constexpr const char* kAggMergeNsHeader = "X-Mpid-Agg-Merge-Ns";
constexpr const char* kAggRawHeader = "X-Mpid-Agg-Raw";
constexpr const char* kAggWireHeader = "X-Mpid-Agg-Wire";
constexpr const char* kAggCompressNsHeader = "X-Mpid-Agg-Compress-Ns";

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One tasktracker's map-output store, served by its /mapOutput servlet.
///
/// With a memory budget armed (MiniJobConfig::memory_budget_bytes), the
/// store is the map side of the two-tier store: each published segment is
/// charged against the job's arbiter, and a refused charge moves the
/// segment body to a SpillFile in spill_dir — /mapOutput then serves those
/// bytes from disk, exactly like Hadoop's file-backed map output. The wire
/// bytes a reducer fetches are identical either way.
struct SegmentStore {
  struct Segment {
    std::string bytes;                     // in-memory tier (empty if spilled)
    std::optional<store::SpillFile> file;  // disk tier
    std::size_t size = 0;
    bool codec = false;  // bytes are a codec frame, not a raw KvWriter frame
  };

  std::mutex mu;
  std::map<std::pair<int, int>, Segment> segments;  // (map, reduce)
  store::Reservation reservation;  // in-memory segment bytes vs the budget
  std::string spill_dir;

  // Serving state, set once before the job starts. With node aggregation
  // each tasktracker models one NODE, so ranks_per_node is ignored.
  const shuffle::ShuffleOptions* opts = nullptr;
  shuffle::Combiner combiner;
  store::MemoryBudget* budget = nullptr;

  /// One merged (reduce, map-set) stream plus its merge accounting.
  /// Cached so fetch retries and speculative reduce twins see
  /// byte-identical bodies without re-running the combine tree.
  struct AggEntry {
    std::string body;
    bool codec = false;
    shuffle::ShuffleCounters counters;
  };
  std::map<std::pair<int, std::string>, AggEntry> agg_cache;

  /// Publishes one segment; `counters` (the attempt's block, nullable)
  /// receives disk-tier accounting when the budget pushes the body out, so
  /// the spill counters stay commit-gated like every other attempt counter.
  void put(int map, int reduce, std::string frame, bool codec,
           shuffle::ShuffleCounters* counters) {
    std::lock_guard lock(mu);
    auto& slot = segments[{map, reduce}];
    if (!slot.file && slot.size > 0) {
      reservation.shrink(slot.size);  // re-executed map: replace the old body
    }
    slot = Segment{};
    slot.size = frame.size();
    slot.codec = codec;
    if (frame.empty() || reservation.try_grow(frame.size())) {
      slot.bytes = std::move(frame);
      return;
    }
    const std::uint64_t t0 = now_ns();
    auto file = store::SpillFile::create(spill_dir, "seg");
    std::FILE* out = std::fopen(file.path().c_str(), "wb");
    if (out == nullptr ||
        std::fwrite(frame.data(), 1, frame.size(), out) != frame.size() ||
        std::fclose(out) != 0) {
      if (out != nullptr) std::fclose(out);
      throw std::runtime_error("SegmentStore: cannot spill segment to " +
                               file.path());
    }
    slot.file = std::move(file);
    if (counters != nullptr) {
      counters->bytes_spilled_disk += frame.size();
      counters->spill_files += 1;
      counters->spill_ns += now_ns() - t0;
    }
  }

  /// Segment body from whichever tier holds it (caller holds `mu`).
  std::string read_body(const Segment& seg) const {
    if (!seg.file) return seg.bytes;
    std::FILE* in = std::fopen(seg.file->path().c_str(), "rb");
    if (in == nullptr) {
      throw std::runtime_error("SegmentStore: spilled segment vanished: " +
                               seg.file->path());
    }
    std::string body(seg.size, '\0');
    const auto got = std::fread(body.data(), 1, seg.size, in);
    std::fclose(in);
    if (got != seg.size) {
      throw std::runtime_error("SegmentStore: short read from " +
                               seg.file->path());
    }
    return body;
  }

  /// Serves "reduce=<r>&maps=<m1,m2,...>". Without node aggregation the
  /// query names one map and the reply is its raw segment. With it
  /// (DESIGN.md §14) the named co-located segments are merged
  /// ascending-map-id through a NodeAggregator into ONE KvPair frame for
  /// `reduce`, codec-framed once per the job's compression policy, and
  /// the merge accounting rides the X-Mpid-Agg-* headers. A missing
  /// segment throws (→ HTTP 500): the reducer's location map is stale,
  /// it backs off and re-resolves.
  hrpc::HttpResponse get(std::string_view query) {
    int reduce = -1;
    std::string maps_csv;
    std::size_t pos = 0;
    while (pos < query.size()) {
      auto amp = query.find('&', pos);
      if (amp == std::string_view::npos) amp = query.size();
      const auto kv = query.substr(pos, amp - pos);
      const auto eq = kv.find('=');
      const auto key = kv.substr(0, eq);
      if (key == "reduce") reduce = std::stoi(std::string(kv.substr(eq + 1)));
      if (key == "maps") maps_csv = std::string(kv.substr(eq + 1));
      pos = amp + 1;
    }
    std::vector<int> maps;
    pos = 0;
    while (pos < maps_csv.size()) {
      auto comma = maps_csv.find(',', pos);
      if (comma == std::string::npos) comma = maps_csv.size();
      maps.push_back(std::stoi(maps_csv.substr(pos, comma - pos)));
      pos = comma + 1;
    }
    if (reduce < 0 || maps.empty() ||
        (!opts->node_aggregation && maps.size() != 1)) {
      throw std::runtime_error("map output fetch: bad query");
    }
    std::lock_guard lock(mu);
    std::vector<const Segment*> members;
    for (const int m : maps) {
      const auto it = segments.find({m, reduce});
      if (it == segments.end()) {
        throw std::runtime_error("no such map output segment");
      }
      members.push_back(&it->second);
    }
    hrpc::HttpResponse response;
    if (!opts->node_aggregation) {
      response.body = read_body(*members.front());
      if (members.front()->codec) {
        response.headers.emplace_back(kCodecHeader, "1");
      }
      return response;
    }
    auto cached = agg_cache.find({reduce, maps_csv});
    if (cached == agg_cache.end()) {
      AggEntry entry;
      shuffle::CombineRunner combine(combiner, &entry.counters);
      std::optional<shuffle::FrameCompressor> codec;
      if (opts->shuffle_compression != shuffle::ShuffleCompression::kOff) {
        codec.emplace(*opts, shuffle::WireFraming::kFlagged,
                      common::FrameKind::kKvPair, nullptr, &entry.counters);
      }
      shuffle::NodeAggregator::Setup setup;
      setup.out_layout = shuffle::Layout::kKvPair;
      setup.partitions = 1;  // the member segments are one partition already
      setup.frame_flush_bytes = shuffle::SpillEncoder::kUnboundedFrame;
      setup.partitioner = shuffle::Partitioner(1);
      setup.combine = &combine;
      setup.compressor = codec ? &*codec : nullptr;
      setup.budget = budget;
      setup.counters = &entry.counters;
      auto* out = &entry;
      setup.sink = [out](std::uint32_t, std::vector<std::byte> frame,
                         bool codec_framed) {
        out->body.assign(reinterpret_cast<const char*>(frame.data()),
                         frame.size());
        out->codec = codec_framed;
      };
      shuffle::NodeAggregator agg(*opts, setup);
      for (const Segment* seg : members) {
        const std::string body = read_body(*seg);
        agg.add_frame(as_bytes(body), shuffle::Layout::kKvPair);
      }
      agg.finish();
      cached = agg_cache.emplace(std::make_pair(reduce, std::move(maps_csv)),
                                 std::move(entry))
                   .first;
    }
    const AggEntry& entry = cached->second;
    response.body = entry.body;
    if (entry.codec) response.headers.emplace_back(kCodecHeader, "1");
    const auto put_header = [&response](const char* name, std::uint64_t v) {
      response.headers.emplace_back(name, std::to_string(v));
    };
    put_header(kAggPreHeader, entry.counters.bytes_pre_node_agg);
    put_header(kAggPostHeader, entry.counters.bytes_post_node_agg);
    put_header(kAggMergeNsHeader, entry.counters.node_agg_merge_ns);
    put_header(kAggRawHeader, entry.counters.shuffle_bytes_raw);
    put_header(kAggWireHeader, entry.counters.shuffle_bytes_wire);
    put_header(kAggCompressNsHeader, entry.counters.compress_ns);
    return response;
  }
};

}  // namespace

MiniCluster::MiniCluster(dfs::MiniDfs& dfs, int tasktrackers)
    : dfs_(dfs), tasktrackers_(tasktrackers) {
  if (tasktrackers < 1) {
    throw std::invalid_argument("MiniCluster: need >= 1 tasktracker");
  }
}

/// Per-round plumbing of a chained run (run_chain): in-memory map splits
/// that bypass the DFS read, and commit-gated capture of reduce bodies so
/// resident rounds skip the DFS write too. Null members keep the classic
/// one-shot behavior.
struct MiniCluster::ChainRoundIO {
  /// One pre-built line split per map task (replaces input_path).
  const std::vector<std::string>* map_splits = nullptr;
  /// false skips the part-r-<i> DFS writes (resident mode).
  bool write_dfs_output = true;
  /// When set (sized reduce_tasks): the COMMITTED attempt's body of each
  /// reduce task is installed here — same commit gate as the DFS write,
  /// so losing speculative twins never leak into the next round.
  std::vector<std::string>* committed_bodies = nullptr;
};

JobSummary MiniCluster::run(const MiniJobConfig& config) {
  return run_internal(config, nullptr);
}

JobSummary MiniCluster::run_internal(const MiniJobConfig& config,
                                     const ChainRoundIO* io) {
  if (!config.map || !config.reduce) {
    throw std::invalid_argument("MiniCluster: map and reduce must be set");
  }
  if (config.map_tasks < 1 || config.reduce_tasks < 1) {
    throw std::invalid_argument("MiniCluster: need >= 1 map and reduce task");
  }
  if (config.max_task_attempts < 1 || config.max_fetch_attempts < 1) {
    throw std::invalid_argument("MiniCluster: attempt budgets must be >= 1");
  }

  const shuffle::ShuffleOptions opts = config;
  opts.validate();
  const bool compressing =
      opts.shuffle_compression != shuffle::ShuffleCompression::kOff;
  // With node aggregation the tracker's servlet codec-frames each merged
  // node stream exactly once (DESIGN.md §14); map attempts publish raw
  // segments, since a per-map codec frame would only be undone there.
  const bool map_compress = compressing && !opts.node_aggregation;

  // Two-tier store arbiter (DESIGN.md §13): one process-wide budget shared
  // by every task of the job — tasktrackers are threads here, so the cap
  // covers the whole simulated cluster the way a real box's RAM would. A
  // caller-supplied budget wins; memory_budget_bytes = 0 disables the tier.
  std::shared_ptr<store::MemoryBudget> budget = opts.memory_budget;
  if (!budget && opts.memory_budget_bytes > 0) {
    budget = std::make_shared<store::MemoryBudget>(opts.memory_budget_bytes);
  }
  const bool budgeted = budget && !budget->unbounded();

  fault::FaultInjector* const inj = config.fault_injector.get();

  // Input splits: contiguous line-aligned chunks of the input file — or,
  // in a resident chain round, the previous round's partitions in place.
  std::vector<std::string> splits;
  if (io != nullptr && io->map_splits != nullptr) {
    if (io->map_splits->size() != static_cast<std::size_t>(config.map_tasks)) {
      throw std::logic_error("MiniCluster: chain round needs one split per "
                             "map task");
    }
    splits = *io->map_splits;
  } else {
    const std::string input = dfs_.read(config.input_path);
    const auto split_views = mapred::split_text(input, config.map_tasks);
    splits.assign(split_views.begin(), split_views.end());
  }

  // ---- jobtracker: RPC control plane -----------------------------------
  JobTracker tracker_state;
  tracker_state.maps.resize(static_cast<std::size_t>(config.map_tasks));
  tracker_state.reduces.resize(static_cast<std::size_t>(config.reduce_tasks));
  tracker_state.max_task_attempts = config.max_task_attempts;
  tracker_state.speculative = config.speculative_execution;
  tracker_state.tracker_timeout = config.tracker_timeout;
  tracker_state.speculative_threshold = config.speculative_threshold;
  tracker_state.inj = inj;
  tracker_state.last_seen.assign(static_cast<std::size_t>(tasktrackers_),
                                 Clock::now());
  tracker_state.lost.assign(static_cast<std::size_t>(tasktrackers_), false);
  for (int m = 0; m < config.map_tasks; ++m) {
    tracker_state.pending_maps.push_back(m);
  }
  for (int r = 0; r < config.reduce_tasks; ++r) {
    tracker_state.pending_reduces.push_back(r);
  }

  std::atomic<bool> aborted{false};
  // One handler per tasktracker so heartbeats never queue behind each
  // other (ipc.server.handler.count).
  hrpc::RpcServer jobtracker(tasktrackers_);
  jobtracker.register_method(
      kProtocol, kVersion, "heartbeat",
      [&](std::span<const std::byte> args) {
        hrpc::DataIn in(args);
        const auto tracker_id = in.read_i32();
        // Control-plane injection: a dropped heartbeat surfaces as an
        // RpcError at the tracker (which backs off and retries); a
        // delayed one just answers late.
        if (inj) {
          const auto hb = inj->on_heartbeat(tracker_id);
          if (hb.delay.count() > 0) std::this_thread::sleep_for(hb.delay);
          if (hb.drop) throw std::runtime_error("heartbeat lost");
        }
        if (aborted.load()) return tracker_state.reply(kOpExit, 0, 0);
        return tracker_state.heartbeat(tracker_id);
      });
  jobtracker.register_method(kProtocol, kVersion, "mapCompleted",
                             [&](std::span<const std::byte> args) {
                               return tracker_state.map_completed(args);
                             });
  jobtracker.register_method(kProtocol, kVersion, "reduceCompleted",
                             [&](std::span<const std::byte> args) {
                               return tracker_state.reduce_completed(args);
                             });
  jobtracker.register_method(kProtocol, kVersion, "taskFailed",
                             [&](std::span<const std::byte> args) {
                               return tracker_state.task_failed(args);
                             });
  jobtracker.register_method(kProtocol, kVersion, "mapLocations",
                             [&](std::span<const std::byte> args) {
                               return tracker_state.map_locations(args);
                             });

  // ---- tasktrackers: HTTP shuffle servers + worker threads -------------
  std::vector<std::unique_ptr<SegmentStore>> stores;
  std::vector<std::unique_ptr<hrpc::HttpServer>> http_servers;
  for (int t = 0; t < tasktrackers_; ++t) {
    stores.push_back(std::make_unique<SegmentStore>());
    stores.back()->reservation = store::Reservation(budget.get());
    stores.back()->spill_dir = opts.spill_dir;
    stores.back()->opts = &opts;
    stores.back()->combiner = config.combiner;
    stores.back()->budget = budget.get();
    auto server = std::make_unique<hrpc::HttpServer>();
    auto* store = stores.back().get();
    server->add_raw_servlet("/mapOutput", [store](std::string_view query) {
      return store->get(query);
    });
    http_servers.push_back(std::move(server));
  }

  // Commit-gated dataflow counters: every attempt accumulates into its
  // own ShuffleCounters; only the attempt the jobtracker commits is
  // merged here (so re-executed and speculative twins never double).
  shuffle::ShuffleCounters job_counters;
  std::mutex counters_mu;
  std::atomic<std::uint64_t> shuffled_bytes{0};
  std::atomic<std::uint64_t> shuffle_requests{0};
  std::atomic<std::uint64_t> shuffle_fetch_retries{0};
  std::atomic<std::uint64_t> heartbeat_errors{0};
  std::atomic<std::uint64_t> recovery_wall_ns{0};
  std::mutex output_mu;
  std::vector<std::string> output_files;
  std::exception_ptr first_error;
  std::mutex error_mu;

  // One map attempt. The split's lines run through a ParallelMapper in the
  // KvPair / unbounded-frame shape: at map_threads = 1 the split is one
  // chunk on a pool of one, run inline (a task-long spill cadence);
  // otherwise it is resolve_map_chunks() chunks. Every chunk contributes
  // at most one raw segment per partition, concatenated in chunk order,
  // and the assembled segment is codec-framed once at task end, so each
  // partition ships one frame and the servlet omits the codec header for
  // a frame the codec skipped, like Hadoop. Returns this attempt's
  // dataflow counters; the caller folds them into the job counters only
  // if the jobtracker commits the attempt.
  auto run_map_task = [&](int tracker_id, int map_id,
                          int attempt) -> shuffle::ShuffleCounters {
    std::optional<std::uint64_t> crash_at;
    if (inj) {
      const auto lag =
          inj->straggle_delay(fault::TaskKind::kMap, map_id, attempt);
      if (lag.count() > 0) std::this_thread::sleep_for(lag);
      crash_at = inj->crash_tick(fault::TaskKind::kMap, map_id, attempt);
    }
    shuffle::ShuffleCounters counters;
    const auto partitions = static_cast<std::size_t>(config.reduce_tasks);
    std::vector<std::string> bodies(partitions);
    std::vector<char> codec_flags(partitions, 0);

    // Lanes never compress: a per-chunk codec frame would break the
    // single-frame segment decode. The whole segment is encoded below.
    // Lanes charge the job's budget, so a refused charge latches
    // should_spill() and drains the lane early; the assembled segment is
    // what SegmentStore pushes to disk if the budget refuses it too.
    shuffle::ShuffleOptions lane_opts = opts;
    lane_opts.shuffle_compression = shuffle::ShuffleCompression::kOff;
    lane_opts.memory_budget = budget;

    shuffle::ParallelMapper::Setup setup;
    setup.layout = shuffle::Layout::kKvPair;
    setup.partitions = static_cast<std::uint32_t>(config.reduce_tasks);
    setup.frame_flush_bytes = shuffle::SpillEncoder::kUnboundedFrame;
    setup.combiner = config.combiner;
    setup.counters = &counters;
    setup.sink = [&bodies](std::uint32_t r, std::vector<std::byte> frame,
                           bool /*codec_framed: raw by construction*/) {
      bodies[r].append(reinterpret_cast<const char*>(frame.data()),
                       frame.size());
    };
    shuffle::ParallelMapper mapper(lane_opts, std::move(setup));

    const auto chunk_views = mapred::split_text(
        splits[static_cast<std::size_t>(map_id)],
        opts.map_threads == 1
            ? 1
            : static_cast<int>(shuffle::resolve_map_chunks(
                  std::numeric_limits<std::size_t>::max())));
    // Ticks count lines across every chunk, so a scripted crash fires at
    // the same overall progress point whatever the thread count, and on
    // exactly one worker.
    std::atomic<std::uint64_t> ticks{0};
    shuffle::WorkerPool pool(opts.map_threads);
    mapper.run(pool, chunk_views.size(),
               [&](std::size_t chunk,
                   const shuffle::ParallelMapper::EmitFn& emit) {
                 mapred::MapContext ctx(emit, map_id);
                 mapred::LineReader lines(chunk_views[chunk]);
                 while (auto line = lines.next()) {
                   if (crash_at && ticks.fetch_add(1) + 1 == *crash_at) {
                     inj->note(fault::Kind::kTaskCrash,
                               task_subject(kKindMap, map_id, attempt));
                     throw fault::TaskCrash(fault::TaskKind::kMap, map_id,
                                            attempt);
                   }
                   config.map(*line, ctx);
                 }
               });

    if (map_compress) {
      shuffle::FrameCompressor codec(opts, shuffle::WireFraming::kFlagged,
                                     common::FrameKind::kKvPair, nullptr,
                                     &counters);
      for (std::size_t r = 0; r < partitions; ++r) {
        if (bodies[r].empty()) continue;
        const auto* data =
            reinterpret_cast<const std::byte*>(bodies[r].data());
        std::vector<std::byte> raw(data, data + bodies[r].size());
        bool codec_framed = false;
        const auto wire = codec.encode(std::move(raw), codec_framed);
        bodies[r].assign(reinterpret_cast<const char*>(wire.data()),
                         wire.size());
        codec_flags[r] = codec_framed ? 1 : 0;
      }
    }

    for (int r = 0; r < config.reduce_tasks; ++r) {
      // Empty partitions keep their default ("", unflagged) segment.
      stores[static_cast<std::size_t>(tracker_id)]->put(
          map_id, r, std::move(bodies[static_cast<std::size_t>(r)]),
          codec_flags[static_cast<std::size_t>(r)] != 0, &counters);
    }
    return counters;
  };

  auto fetch_locations = [&](hrpc::RpcClient& rpc) {
    const auto loc_bytes = rpc.call(kProtocol, kVersion, "mapLocations", {});
    hrpc::DataIn in(loc_bytes);
    const auto count = in.read_vu64();
    std::vector<int> location;
    location.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      location.push_back(in.read_i32());
    }
    return location;
  };

  struct ReduceOutcome {
    std::string body;
    std::uint64_t bytes = 0;  // wire bytes fetched (post-compression)
    std::uint64_t requests = 0;
    shuffle::ShuffleCounters counters;  // decode wall time
  };

  auto run_reduce_task = [&](hrpc::RpcClient& rpc, int reduce_id,
                             int attempt) -> ReduceOutcome {
    if (inj) {
      const auto lag =
          inj->straggle_delay(fault::TaskKind::kReduce, reduce_id, attempt);
      if (lag.count() > 0) std::this_thread::sleep_for(lag);
    }
    // The fetch tick an injected crash fires at; never without a plan.
    const std::uint64_t crash_at =
        (inj ? inj->crash_tick(fault::TaskKind::kReduce, reduce_id, attempt)
             : std::nullopt)
            .value_or(std::numeric_limits<std::uint64_t>::max());
    hrpc::HttpClientOptions copier_options;
    copier_options.read_timeout = config.fetch_read_timeout;

    auto location = fetch_locations(rpc);
    std::map<int, std::unique_ptr<hrpc::HttpClient>> copiers;
    ReduceOutcome outcome;
    // Reducer-side grouping reuses the shuffle engine's buffer stage; no
    // combiner, no spill — the groups are only iterated at reduce time.
    //
    // Under a memory budget, grouping goes through the two-tier store
    // instead: each fetched segment is stably sorted into one key-sorted
    // KvList frame and fed to a budget-armed SegmentMerger, which spills
    // sorted runs to spill_dir when the arbiter refuses a frame and
    // external-merges them back at reduce time. Equal keys concatenate in
    // frame-arrival (= fetch) order, in-segment order within a frame —
    // exactly the value order the sorted hash path produces — so the
    // reduce output is byte-identical either way. (Peak memory: the
    // budget, plus one in-flight segment.)
    shuffle::MapOutputBuffer groups(opts, nullptr, &outcome.counters);
    shuffle::SegmentMerger merger;
    if (budgeted) {
      merger.enable_spill(opts, budget.get(), &outcome.counters);
    }
    shuffle::FrameDecoder decoder(0, nullptr, &outcome.counters);
    std::uint64_t ticks = 0;

    // If the servlet flagged a codec-framed body, decode back to the raw
    // KvWriter frame before reverse realignment.
    auto decode_segment = [&](std::string& segment, bool segment_codec) {
      if (!segment_codec) return;
      std::vector<std::byte> decoded;
      decoder.decode_into(as_bytes(segment), decoded);
      segment.assign(reinterpret_cast<const char*>(decoded.data()),
                     decoded.size());
    };

    // Feeds one raw KvPair segment into the grouping stage — hash groups
    // or the budget-armed external merger.
    auto ingest_segment = [&](std::string_view segment) {
      common::KvReader reader(as_bytes(segment));
      if (budgeted) {
        std::vector<std::pair<std::string, std::string>> pairs;
        while (auto pair = reader.next()) {
          pairs.emplace_back(std::string(pair->key),
                             std::string(pair->value));
        }
        if (pairs.empty()) return;
        std::stable_sort(pairs.begin(), pairs.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
        common::KvListWriter writer;
        std::size_t lo = 0;
        while (lo < pairs.size()) {
          std::size_t hi = lo + 1;
          while (hi < pairs.size() && pairs[hi].first == pairs[lo].first) {
            ++hi;
          }
          writer.begin_group(pairs[lo].first, hi - lo);
          for (std::size_t i = lo; i < hi; ++i) {
            writer.add_value(pairs[i].second);
          }
          lo = hi;
        }
        merger.add_frame(writer.take());
        return;
      }
      while (auto pair = reader.next()) {
        groups.append(pair->key, pair->value);
      }
    };

    // Fetch by HTTP, one GET per group of maps served by one tasktracker:
    // the lowest unfetched map alone or, with node aggregation (DESIGN.md
    // §14, where every tasktracker IS a node), every unfetched map on its
    // tracker, merged by the servlet through the node combine tree. A
    // failed fetch (injected, transport error, or non-200) backs off,
    // re-resolves locations — a map may have been re-executed on another
    // tracker, which regroups the maps — and retries; exhausting the
    // budget fails the attempt (Hadoop's "too many fetch failures" kills
    // the reducer).
    std::vector<char> fetched(static_cast<std::size_t>(config.map_tasks), 0);
    int first = 0;  // the lowest unfetched map
    int try_no = 0;
    while (first < config.map_tasks) {
      const int serving = location[static_cast<std::size_t>(first)];
      std::vector<int> group{first};
      std::string maps_csv = std::to_string(first);
      if (opts.node_aggregation && serving >= 0) {
        for (int m = first + 1; m < config.map_tasks; ++m) {
          if (fetched[static_cast<std::size_t>(m)] == 0 &&
              location[static_cast<std::size_t>(m)] == serving) {
            group.push_back(m);
            maps_csv += ',' + std::to_string(m);
          }
        }
      }
      std::optional<hrpc::HttpResponse> response;
      if (serving >= 0 && !(inj && inj->fail_fetch(first, reduce_id))) {
        auto& copier = copiers[serving];
        if (!copier) {
          copier = std::make_unique<hrpc::HttpClient>(
              *http_servers[static_cast<std::size_t>(serving)],
              copier_options);
        }
        try {
          auto reply = copier->get("/mapOutput?reduce=" +
                                   std::to_string(reduce_id) +
                                   "&maps=" + maps_csv);
          if (reply.status == 200) response = std::move(reply);
        } catch (const std::exception&) {
          copiers.erase(serving);  // reconnect on the next try
        }
      }
      if (response) {
        ++outcome.requests;
        outcome.bytes += response->body.size();
        // Node-aggregation accounting; raw segments carry no such headers.
        const auto hdr = [&response](const char* name) {
          const auto* v = response->header(name);
          return v ? std::stoull(*v) : std::uint64_t{0};
        };
        auto& c = outcome.counters;
        c.bytes_pre_node_agg += hdr(kAggPreHeader);
        c.bytes_post_node_agg += hdr(kAggPostHeader);
        c.node_agg_merge_ns += hdr(kAggMergeNsHeader);
        c.shuffle_bytes_raw += hdr(kAggRawHeader);
        c.shuffle_bytes_wire += hdr(kAggWireHeader);
        c.compress_ns += hdr(kAggCompressNsHeader);
        if (++ticks >= crash_at) {
          inj->note(fault::Kind::kTaskCrash,
                    task_subject(kKindReduce, reduce_id, attempt));
          throw fault::TaskCrash(fault::TaskKind::kReduce, reduce_id,
                                 attempt);
        }
        decode_segment(response->body,
                       response->header(kCodecHeader) != nullptr);
        ingest_segment(response->body);
        for (const int m : group) fetched[static_cast<std::size_t>(m)] = 1;
        while (first < config.map_tasks &&
               fetched[static_cast<std::size_t>(first)] != 0) {
          ++first;
        }
        try_no = 0;
        continue;
      }
      if (try_no + 1 >= config.max_fetch_attempts) {
        throw fault::TaskCrash(fault::TaskKind::kReduce, reduce_id, attempt);
      }
      ++shuffle_fetch_retries;
      if (inj) {
        inj->record_recovery(fault::Kind::kFetchRetry,
                             "segment " + maps_csv + "->" +
                                 std::to_string(reduce_id),
                             "try " + std::to_string(try_no + 1));
      }
      const auto backoff = config.fetch_backoff * (1LL << std::min(try_no, 10));
      if (backoff.count() > 0) {
        std::this_thread::sleep_for(backoff);
        recovery_wall_ns += static_cast<std::uint64_t>(backoff.count());
      }
      location = fetch_locations(rpc);
      ++try_no;
    }

    mapred::ReduceContext ctx(reduce_id);
    if (budgeted) {
      std::string key;
      std::vector<std::string> values;
      while (merger.next_group(key, values)) {
        config.reduce(key, values, ctx);
      }
    } else {
      groups.for_each_group(
          /*sorted=*/true,
          [&](std::string_view key, const std::vector<std::string>& values) {
            config.reduce(key, values, ctx);
          });
    }

    for (const auto& [k, v] : ctx.take_emitted()) {
      outcome.body += k;
      outcome.body += '\t';
      outcome.body += v;
      outcome.body += '\n';
    }
    return outcome;
  };

  // Heartbeats ride the tracker's fault-retry loop: an injected drop (the
  // handler throws) comes back as RpcError; the tracker backs off and
  // retries with the jobtracker none the wiser (heartbeats carry no
  // one-shot state until one actually gets through).
  auto heartbeat_call = [&](hrpc::RpcClient& rpc, int tracker_id) {
    hrpc::DataOut hb;
    hb.write_i32(tracker_id);
    for (int try_no = 0;; ++try_no) {
      try {
        return rpc.call(kProtocol, kVersion, "heartbeat", hb.buffer());
      } catch (const hrpc::RpcError&) {
        ++heartbeat_errors;
        if (try_no + 1 >= kMaxHeartbeatRetries) throw;
        const auto backoff =
            std::chrono::milliseconds(1) * (1 << std::min(try_no, 4));
        std::this_thread::sleep_for(backoff);
        recovery_wall_ns += static_cast<std::uint64_t>(
            std::chrono::nanoseconds(backoff).count());
      }
    }
  };

  auto tasktracker_main = [&](int tracker_id) {
    try {
      hrpc::RpcClient rpc(jobtracker);
      for (;;) {
        const auto reply = heartbeat_call(rpc, tracker_id);
        hrpc::DataIn in(reply);
        const auto op = in.read_u8();
        const auto task = in.read_i32();
        const auto attempt = in.read_i32();
        if (op == kOpExit) break;
        if (op == kOpWait) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        const auto t0 = Clock::now();
        try {
          if (op == kOpMap) {
            const auto counters = run_map_task(tracker_id, task, attempt);
            hrpc::DataOut done;
            done.write_i32(task);
            done.write_i32(attempt);
            done.write_i32(tracker_id);
            const auto ack =
                rpc.call(kProtocol, kVersion, "mapCompleted", done.buffer());
            if (hrpc::DataIn(ack).read_u8() != 0) {
              std::lock_guard lock(counters_mu);
              job_counters.merge(counters);
            }
          } else {
            auto outcome = run_reduce_task(rpc, task, attempt);
            hrpc::DataOut done;
            done.write_i32(task);
            done.write_i32(attempt);
            const auto ack =
                rpc.call(kProtocol, kVersion, "reduceCompleted", done.buffer());
            if (hrpc::DataIn(ack).read_u8() != 0) {
              // This attempt won the commit: its output becomes the
              // task's official result (losing twins discard theirs).
              shuffled_bytes += outcome.bytes;
              shuffle_requests += outcome.requests;
              {
                std::lock_guard lock(counters_mu);
                job_counters.merge(outcome.counters);
              }
              std::lock_guard lock(output_mu);
              if (io == nullptr || io->write_dfs_output) {
                const std::string path = config.output_prefix + "/part-r-" +
                                         std::to_string(task);
                dfs_.create(path, outcome.body);
                output_files.push_back(path);
              }
              if (io != nullptr && io->committed_bodies != nullptr) {
                (*io->committed_bodies)[static_cast<std::size_t>(task)] =
                    std::move(outcome.body);
              }
            }
          }
        } catch (const fault::TaskCrash&) {
          // Injected attempt death: report it; the jobtracker requeues
          // the task (bounded by max_task_attempts).
          hrpc::DataOut failed;
          failed.write_u8(op == kOpMap ? kKindMap : kKindReduce);
          failed.write_i32(task);
          failed.write_i32(attempt);
          rpc.call(kProtocol, kVersion, "taskFailed", failed.buffer());
        }
        if (attempt > 0) {
          // Attempts beyond the first exist only because of recovery
          // (re-execution or speculation): their wall time is the price
          // of fault tolerance.
          recovery_wall_ns += static_cast<std::uint64_t>(
              std::chrono::nanoseconds(Clock::now() - t0).count());
        }
      }
    } catch (...) {
      aborted.store(true);  // release peers stuck polling for work
      std::lock_guard lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(tasktrackers_));
  for (int t = 0; t < tasktrackers_; ++t) {
    workers.emplace_back(tasktracker_main, t);
  }
  for (auto& w : workers) w.join();
  for (auto& server : http_servers) server->shutdown();
  jobtracker.shutdown();
  if (first_error) std::rethrow_exception(first_error);
  if (tracker_state.failed) {
    throw std::runtime_error("MiniCluster: " + tracker_state.failure);
  }

  JobSummary summary;
  static_cast<shuffle::ShuffleCounters&>(summary) = job_counters;
  summary.shuffled_bytes = shuffled_bytes.load();
  summary.shuffle_requests = shuffle_requests.load();
  std::set<int> map_trackers;
  for (const auto& st : tracker_state.maps) map_trackers.insert(st.location);
  summary.map_trackers = map_trackers.size();
  summary.heartbeats = tracker_state.heartbeats.load();
  summary.map_reexecutions = tracker_state.map_reexecutions;
  summary.reduce_reexecutions = tracker_state.reduce_reexecutions;
  summary.speculative_launches = tracker_state.speculative_launches;
  summary.shuffle_fetch_retries = shuffle_fetch_retries.load();
  summary.heartbeat_errors = heartbeat_errors.load();
  summary.trackers_timed_out = tracker_state.trackers_timed_out;
  summary.recovery_wall_ns = recovery_wall_ns.load();
  std::sort(output_files.begin(), output_files.end());
  summary.output_files = std::move(output_files);
  return summary;
}

namespace {

/// Reserved key prefix carrying ChainReduceContext counters through the
/// commit gate as ordinary output pairs: only the committed attempt's
/// counter lines survive, exactly like its data lines. Stripped from
/// every body before it becomes resident data or a part file.
constexpr char kCounterSentinel = '\x01';

/// Splits one committed reduce body back into data lines and counter
/// increments. Returns the cleaned body; data pair/byte tallies (key +
/// value payload, excluding tab/newline framing — the same arithmetic
/// mapred::ResidentPartition uses) accumulate into the out-params.
std::string strip_counter_lines(const std::string& body,
                                mapred::RoundCounters& counters,
                                std::uint64_t& pairs, std::uint64_t& bytes) {
  std::string cleaned;
  cleaned.reserve(body.size());
  std::size_t pos = 0;
  while (pos < body.size()) {
    auto eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const auto tab = line.find('\t');
    if (!line.empty() && line.front() == kCounterSentinel) {
      if (tab != std::string_view::npos) {
        counters.incr(line.substr(1, tab - 1),
                      std::stoull(std::string(line.substr(tab + 1))));
      }
      continue;
    }
    ++pairs;
    bytes += line.size() - (tab == std::string_view::npos ? 0 : 1);
    cleaned.append(line);
    cleaned.push_back('\n');
  }
  return cleaned;
}

}  // namespace

ChainSummary MiniCluster::run_chain(const MiniChainConfig& config) {
  if (config.map || config.reduce) {
    throw std::invalid_argument(
        "MiniCluster: run_chain drives map/reduce from `stages`; leave "
        "MiniJobConfig::map and ::reduce unset");
  }
  if (config.combiner) {
    throw std::invalid_argument(
        "MiniCluster: combiners are not supported inside chains (stage "
        "maps differ per round)");
  }
  {
    // Reuse the shared plan validation (stage shape, round budgets).
    mapred::ChainJob plan;
    plan.ingest = config.ingest;
    plan.stages = config.stages;
    mapred::chain_detail::validate_job(plan);
  }
  const int partitions = config.reduce_tasks;

  ChainSummary chain;
  mapred::chain_detail::PlanCursor cur;
  int round = 1;
  // Committed, counter-stripped reduce bodies of the last round — the
  // resident partitions (map task i of round N+1 reads bodies[i]).
  std::vector<std::string> bodies(static_cast<std::size_t>(partitions));
  mapred::StaticTables statics;
  const mapred::StaticTables* statics_ptr = nullptr;

  for (;;) {
    const mapred::ChainStage& stage = config.stages[cur.stage];

    // Pin the static tables in round 1; the ablation re-realigns them
    // every round (a fresh Hadoop job has nothing pinned).
    if (!config.static_input.empty() && (round == 1 || !config.resident)) {
      statics = mapred::StaticTables(config.static_input, partitions, {});
      statics_ptr = &statics;
      if (round == 1) {
        chain.static_bytes_pinned += statics.total_bytes();
      } else {
        chain.static_bytes_reshuffled += statics.total_bytes();
      }
    }

    MiniJobConfig jc = static_cast<const MiniJobConfig&>(config);
    jc.combiner = {};
    jc.output_prefix =
        config.output_prefix + "/.round-" + std::to_string(round);

    ChainRoundIO io;
    std::vector<std::string> committed(static_cast<std::size_t>(partitions));
    io.committed_bodies = &committed;
    // Resident mode never touches the DFS between rounds; the ablation
    // writes every round's part files (the HDFS round trip under test).
    io.write_dfs_output = !config.resident;

    std::vector<std::string> splits;
    if (round == 1) {
      jc.map = config.ingest;
      jc.map_tasks = config.map_tasks;
      // Record bytes, as MPI-D's JobChain counts them: the lines the
      // ingest map reads, without their terminators.
      const std::string input = dfs_.read(config.input_path);
      mapred::LineReader lines(input);
      while (auto line = lines.next()) chain.ingest_bytes += line->size();
    } else {
      // Rounds >= 2: one map task per reduce partition, reading that
      // partition's previous output in place ("k\tv" lines).
      jc.map_tasks = partitions;
      splits = bodies;
      io.map_splits = &splits;
      if (!config.resident) {
        // The ablation re-ingests the previous round's output as fresh
        // external input: the key and value bytes the stage map reads,
        // which the resident chain maps in place as resident_bytes_in.
        chain.ingest_bytes += chain.rounds.back().resident_bytes_out;
      }
      const auto stage_map = stage.map;
      jc.map = [stage_map, statics_ptr, round](std::string_view record,
                                               mapred::MapContext& mctx) {
        const auto tab = record.find('\t');
        const auto key =
            tab == std::string_view::npos ? record : record.substr(0, tab);
        const auto value = tab == std::string_view::npos
                               ? std::string_view{}
                               : record.substr(tab + 1);
        mapred::ChainMapContext cctx(
            [&mctx](std::string_view k, std::string_view v) {
              mctx.emit(k, v);
            },
            statics_ptr, mctx.mapper_index(), round);
        stage_map(key, value, cctx);
      };
    }

    const auto stage_reduce = stage.reduce;
    jc.reduce = [stage_reduce, statics_ptr, round](
                    std::string_view key, std::span<const std::string> values,
                    mapred::ReduceContext& out) {
      mapred::ChainReduceContext cctx(statics_ptr, out.reducer_index(),
                                      round);
      std::vector<std::string> vals(values.begin(), values.end());
      stage_reduce(key, vals, cctx);
      for (const auto& [k, v] : cctx.take_emitted()) out.emit(k, v);
      // Counters ride the output as sentinel pairs — commit-gated with
      // the data, summed (and stripped) by the driver below.
      for (const auto& [name, value] : cctx.counters().values()) {
        out.emit(std::string(1, kCounterSentinel) + name,
                 std::to_string(value));
      }
    };

    const JobSummary js = run_internal(jc, &io);

    // Fold the round into the chain totals (ShuffleCounters sum via
    // merge; the MiniHadoop transport fields by hand).
    chain.merge(js);
    chain.shuffled_bytes += js.shuffled_bytes;
    chain.shuffle_requests += js.shuffle_requests;
    chain.heartbeats += js.heartbeats;
    chain.map_reexecutions += js.map_reexecutions;
    chain.reduce_reexecutions += js.reduce_reexecutions;
    chain.speculative_launches += js.speculative_launches;
    chain.shuffle_fetch_retries += js.shuffle_fetch_retries;
    chain.heartbeat_errors += js.heartbeat_errors;
    chain.trackers_timed_out += js.trackers_timed_out;
    chain.recovery_wall_ns += js.recovery_wall_ns;

    mapred::RoundReport report;
    report.stage = static_cast<int>(cur.stage);
    report.round_in_stage = cur.round_in_stage;
    for (std::size_t i = 0; i < committed.size(); ++i) {
      bodies[i] = strip_counter_lines(committed[i], report.counters,
                                      report.resident_pairs_out,
                                      report.resident_bytes_out);
    }
    if (config.resident && round >= 2) {
      // This round mapped the previous round's partitions in place.
      chain.resident_pairs_in += chain.rounds.back().resident_pairs_out;
      chain.resident_bytes_in += chain.rounds.back().resident_bytes_out;
    }
    chain.rounds.push_back(std::move(report));

    mapred::ChainJob plan;
    plan.stages = config.stages;
    if (!mapred::chain_detail::advance_plan(plan, cur,
                                            chain.rounds.back().counters)) {
      break;
    }
    ++round;
  }
  chain.chain_rounds = static_cast<std::uint64_t>(round);

  // The official output: the final round's cleaned partitions, one part
  // file each — the same files a one-shot job would have left.
  chain.output_files.clear();
  for (int r = 0; r < partitions; ++r) {
    const std::string path =
        config.output_prefix + "/part-r-" + std::to_string(r);
    dfs_.create(path, bodies[static_cast<std::size_t>(r)]);
    chain.output_files.push_back(path);
  }
  return chain;
}

}  // namespace mpid::minihadoop
