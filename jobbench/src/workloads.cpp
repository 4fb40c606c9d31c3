#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/workloads/graph.hpp"
#include "mpid/workloads/text.hpp"
#include "stats.hpp"
#include "verify.hpp"

namespace jobbench {

namespace {

namespace core = mpid::core;
namespace wl = mpid::workloads;

// Jobs of 30-70 ms: on a host whose hypervisor steals CPU time (see
// least_stolen), the share of jobs that run without steal falls with job
// length, and only those are timed.
constexpr std::uint64_t kWordCountBytes = 512 << 10;
constexpr std::uint64_t kSortBytes = 2 << 20;
constexpr wl::GraphSpec kGraph{.vertices = 2000, .edges = 2400,
                               .components = 4};
constexpr int kCcRounds = 9;
constexpr const char* kInputPath = "/in";

// --- the jobs ------------------------------------------------------------

void wc_map(std::string_view line, mapred::MapContext& ctx) {
  for_each_word(line, [&](std::string_view word) { ctx.emit(word, "1"); });
}

std::uint64_t sum_counts(std::span<const std::string> values) {
  std::uint64_t total = 0;
  for (const auto& v : values) total += std::stoull(v);
  return total;
}

void wc_reduce(std::string_view key, std::span<const std::string> values,
               mapred::ReduceContext& ctx) {
  ctx.emit(key, std::to_string(sum_counts(values)));
}

std::vector<std::string> wc_combine(std::string_view,
                                    std::vector<std::string>&& values) {
  return {std::to_string(sum_counts(values))};
}

void sort_map(std::string_view record, mapred::MapContext& ctx) {
  const auto [key, rest] = split_record(record);
  ctx.emit(key, rest);
}

void identity_reduce(std::string_view key, std::span<const std::string> values,
                     mapred::ReduceContext& ctx) {
  for (const auto& v : values) ctx.emit(key, v);
}

// --- measurement ---------------------------------------------------------

/// Returns free heap to the system, then resets VmHWM to the current RSS
/// ("5", proc(5) clear_refs), so the job's VmHWM shows what the job adds
/// rather than what the allocator kept from earlier jobs. Each job thus
/// starts on cold heap pages, as a job in a fresh process would.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string field;
  while (status >> field) {
    if (field == key) {
      double kib = 0;
      status >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

/// The store layer runs unbudgeted here: a disk spill would time the
/// machine's disk, so it fails the job instead.
void require_no_disk_spill(const mpid::shuffle::ShuffleCounters& c) {
  if (c.bytes_spilled_disk != 0 || c.spill_files != 0) {
    throw std::runtime_error("shuffle spilled to disk (" +
                             std::to_string(c.bytes_spilled_disk) + " B)");
  }
}

void add_shuffle_counters(const mpid::shuffle::ShuffleCounters& c,
                          std::map<std::string, double>& out) {
  out["shuffle.combine_s"] = static_cast<double>(c.combine_ns) / 1e9;
  out["shuffle.pairs_after_combine"] =
      static_cast<double>(c.pairs_after_combine);
  out["shuffle.table_bytes_peak"] = static_cast<double>(c.table_bytes_peak);
  out["shuffle.spill_s"] = static_cast<double>(c.spill_ns) / 1e9;
  out["shuffle.resident_bytes_in"] = static_cast<double>(c.resident_bytes_in);
  out["shuffle.ingest_bytes"] = static_cast<double>(c.ingest_bytes);
}

std::map<std::string, double> mpid_counters(const core::JobReport& report) {
  const core::Stats& t = report.totals;
  require_no_disk_spill(t);
  std::map<std::string, double> out;
  add_shuffle_counters(t, out);
  out["core.flush_wait_s"] = static_cast<double>(t.flush_wait_ns) / 1e9;
  out["core.bytes_sent"] = static_cast<double>(t.bytes_sent);
  out["core.frames_sent"] = static_cast<double>(t.frames_sent);
  out["core.frames_retransmitted"] =
      static_cast<double>(t.frames_retransmitted);
  out["core.duplicate_frames_dropped"] =
      static_cast<double>(t.duplicate_frames_dropped);
  return out;
}

std::map<std::string, double> minihadoop_counters(
    const minihadoop::JobSummary& s, int rounds) {
  require_no_disk_spill(s);
  std::map<std::string, double> out;
  add_shuffle_counters(s, out);
  out["hrpc.shuffled_bytes"] = static_cast<double>(s.shuffled_bytes);
  out["hrpc.shuffle_requests"] = static_cast<double>(s.shuffle_requests);
  out["hrpc.heartbeats"] = static_cast<double>(s.heartbeats);
  out["minihadoop.speculative_launches"] =
      static_cast<double>(s.speculative_launches);
  const double tasks = static_cast<double>(rounds) * (kMapTasks + kReduceTasks);
  const double attempts =
      tasks + static_cast<double>(s.speculative_launches +
                                  s.map_reexecutions + s.reduce_reexecutions);
  out["minihadoop.useful_attempt_ratio"] = tasks / attempts;
  return out;
}

}  // namespace

// Defined ahead of the workloads below: they deduce its return type.
template <typename Fn>
auto Workload::timed(JobRun& out, JobTrace* trace, Fn&& fn) {
  reset_peak_rss();
  const double rss_before = status_mb("VmRSS:");
  const double steal_before = host_steal_s();
  const auto start = Clock::now();
  if (trace) trace->start(start);
  auto result = fn();
  out.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count();
  out.steal_s = host_steal_s() - steal_before;
  out.peak_rss_mb = status_mb("VmHWM:") - rss_before;
  return result;
}

namespace {

minihadoop::MiniJobConfig minihadoop_job(const std::string& output_prefix) {
  minihadoop::MiniJobConfig config;
  config.input_path = kInputPath;
  config.output_prefix = output_prefix;
  config.map_tasks = kMapTasks;
  config.reduce_tasks = kReduceTasks;
  return config;
}

// --- workloads -----------------------------------------------------------

/// Zipf text with a summing combiner: the map function and the combine
/// table do the work; the wire carries little.
class WordCount final : public Workload {
 public:
  explicit WordCount(std::string input)
      : Workload(std::move(input)), reference_(wordcount_reference(input_)) {}

 private:
  void run_mpid(bool resilient, JobTrace* trace, JobRun& out) override {
    mapred::JobDef job;
    job.map = wc_map;
    job.reduce = wc_reduce;
    job.combiner = wc_combine;
    job.tuning.resilient_shuffle = resilient;
    if (trace) {
      job.map = traced_map(job.map, trace);
      job.reduce = traced_reduce(job.reduce, trace);
      job.combiner = traced_combiner(job.combiner, trace);
    }
    auto result = timed(out, trace, [&] {
      return mapred::JobRunner(kMapTasks, kReduceTasks).run_on_text(job, input_);
    });
    out.error = diff_pairs(result.outputs, reference_);
    out.counters = mpid_counters(result.report);
  }

  void run_minihadoop(const std::string& output_prefix, JobTrace* trace,
                      JobRun& out) override {
    auto config = minihadoop_job(output_prefix);
    config.map = wc_map;
    config.reduce = wc_reduce;
    config.combiner = wc_combine;
    if (trace) {
      config.map = traced_map(config.map, trace);
      config.reduce = traced_reduce(config.reduce, trace);
      config.combiner = traced_combiner(config.combiner, trace);
    }
    const auto summary = timed(out, trace, [&] { return cluster_.run(config); });
    KvVec got;
    scan_parts(summary.output_files, /*require_key_order=*/true,
               [&](std::string_view k, std::string_view v) {
                 got.emplace_back(k, v);
               });
    std::sort(got.begin(), got.end());
    out.error = diff_pairs(got, reference_);
    out.counters = minihadoop_counters(summary, 1);
  }

  KvVec reference_;
};

/// TeraSort-style records, identity reduce, no combiner: every input
/// byte crosses the shuffle and every key is unique.
class Sort final : public Workload {
 public:
  explicit Sort(std::string input)
      : Workload(std::move(input)), reference_(sort_reference(input_)) {}

 private:
  void run_mpid(bool resilient, JobTrace* trace, JobRun& out) override {
    mapred::JobDef job;
    job.map = sort_map;
    job.reduce = identity_reduce;
    job.streaming_merge_reduce = true;
    job.tuning.resilient_shuffle = resilient;
    if (trace) {
      job.map = traced_map(job.map, trace);
      job.reduce = traced_reduce(job.reduce, trace);
    }
    const auto result = timed(out, trace, [&] {
      return mapred::JobRunner(kMapTasks, kReduceTasks).run_on_text(job, input_);
    });
    PairDigest got;
    for (const auto& [k, v] : result.outputs) got.add(k, v);
    out.error = diff_digest(got, reference_);
    out.counters = mpid_counters(result.report);
  }

  void run_minihadoop(const std::string& output_prefix, JobTrace* trace,
                      JobRun& out) override {
    auto config = minihadoop_job(output_prefix);
    config.map = sort_map;
    config.reduce = identity_reduce;
    if (trace) {
      config.map = traced_map(config.map, trace);
      config.reduce = traced_reduce(config.reduce, trace);
    }
    const auto summary = timed(out, trace, [&] { return cluster_.run(config); });
    PairDigest got;
    scan_parts(summary.output_files, /*require_key_order=*/true,
               [&](std::string_view k, std::string_view v) { got.add(k, v); });
    out.error = diff_digest(got, reference_);
    out.counters = minihadoop_counters(summary, 1);
  }

  PairDigest reference_;
};

/// Label-propagation connected components: a chain of small rounds, so
/// the per-round fixed cost dominates.
class ConnectedComponents final : public Workload {
 public:
  explicit ConnectedComponents(std::string input)
      : Workload(std::move(input)),
        job_(wl::cc_job(input_)),
        statics_(job_.static_input, kReduceTasks, {}),
        reference_(wl::cc_reference(input_)),
        reference_rounds_(cc_reference_rounds(input_)) {}

 private:
  void check(const KvVec& got, std::size_t rounds, JobRun& out) const {
    out.rounds = static_cast<int>(rounds);
    out.error = diff_pairs(got, reference_);
    if (out.error.empty() && out.rounds != reference_rounds_) {
      out.error = "chain ran " + std::to_string(rounds) + " rounds, want " +
                  std::to_string(reference_rounds_);
    }
  }

  void run_mpid(bool resilient, JobTrace* trace, JobRun& out) override {
    mapred::ChainJob job = trace ? traced_chain(job_, trace, &statics_) : job_;
    job.tuning.resilient_shuffle = resilient;
    const auto result = timed(out, trace, [&] {
      return mapred::JobChain(kReduceTasks).run_on_text(job, input_);
    });
    check(result.outputs, result.rounds.size(), out);
    out.counters = mpid_counters(result.report);
  }

  void run_minihadoop(const std::string& output_prefix, JobTrace* trace,
                      JobRun& out) override {
    const mapred::ChainJob job =
        trace ? traced_chain(job_, trace, &statics_) : job_;
    minihadoop::MiniChainConfig config;
    static_cast<minihadoop::MiniJobConfig&>(config) =
        minihadoop_job(output_prefix);
    config.ingest = job.ingest;
    config.stages = job.stages;
    config.static_input = job.static_input;
    config.resident = true;
    const auto summary =
        timed(out, trace, [&] { return cluster_.run_chain(config); });
    KvVec got;
    scan_parts(summary.output_files, /*require_key_order=*/true,
               [&](std::string_view k, std::string_view v) {
                 got.emplace_back(k, v);
               });
    std::sort(got.begin(), got.end());
    check(got, summary.rounds.size(), out);
    out.counters =
        minihadoop_counters(summary, static_cast<int>(summary.rounds.size()));
  }

  mapred::ChainJob job_;
  mapred::StaticTables statics_;
  KvVec reference_;
  int reference_rounds_;
};

}  // namespace

std::string make_input(const std::string& workload, std::uint64_t seed) {
  if (workload == "wordcount") {
    // Exactly kWordCountBytes: the generator overshoots by part of a line,
    // so cut there and end on a newline.
    std::string text = wl::generate_text({}, kWordCountBytes, seed);
    text.resize(kWordCountBytes);
    text.back() = '\n';
    return text;
  }
  if (workload == "sort") {
    std::string records;
    records.reserve(kSortBytes + 128);
    auto source = wl::record_source({}, kSortBytes, seed);
    while (auto record = source()) {
      records += *record;
      records += '\n';
    }
    return records;
  }
  if (workload == "cc") {
    // The chain's round count follows the graph's diameter (8 to 10
    // rounds across seeds). Take the first graph derived from `seed` that
    // runs kCcRounds rounds, so every seed does the same work per job.
    wl::GraphSpec spec = kGraph;
    for (std::uint64_t attempt = 0; attempt < 1000; ++attempt) {
      spec.seed = seed * 0x9e3779b97f4a7c15ULL + attempt;
      std::string text = wl::generate_graph(spec);
      if (cc_reference_rounds(text) == kCcRounds) return text;
    }
    throw std::runtime_error("no graph with " + std::to_string(kCcRounds) +
                             " rounds for seed " + std::to_string(seed));
  }
  throw std::invalid_argument("unknown workload '" + workload +
                              "' (want wordcount, sort or cc)");
}

std::unique_ptr<Workload> Workload::make(const std::string& workload,
                                         std::uint64_t seed) {
  std::string input = make_input(workload, seed);
  if (workload == "wordcount") {
    return std::make_unique<WordCount>(std::move(input));
  }
  if (workload == "sort") return std::make_unique<Sort>(std::move(input));
  return std::make_unique<ConnectedComponents>(std::move(input));
}

Workload::Workload(std::string input)
    : input_(std::move(input)), dfs_(3), cluster_(dfs_, 2) {
  dfs_.create(kInputPath, input_);
}

void Workload::scan_parts(
    const std::vector<std::string>& files, bool require_key_order,
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  if (files.size() != static_cast<std::size_t>(kReduceTasks)) {
    throw std::runtime_error("job wrote " + std::to_string(files.size()) +
                             " part files, want " +
                             std::to_string(kReduceTasks));
  }
  for (const auto& file : files) {
    const std::string body = dfs_.read(file);
    const std::string why = scan_part(body, require_key_order, fn);
    if (!why.empty()) throw std::runtime_error(file + ": " + why);
  }
}

JobRun Workload::run(Runtime runtime, int job, JobTrace* trace) {
  JobRun out;
  const std::string prefix = "/out/" + std::to_string(job);
  try {
    if (runtime == Runtime::kMiniHadoop) {
      run_minihadoop(prefix, trace, out);
    } else {
      run_mpid(runtime == Runtime::kMpidResilient, trace, out);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  if (runtime == Runtime::kMiniHadoop) {
    for (const auto& path : dfs_.list(prefix + "/")) dfs_.remove(path);
  }
  return out;
}

}  // namespace jobbench
