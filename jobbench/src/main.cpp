// jobbench: WordCount, sort and connected-components jobs on MPI-D,
// resilient MPI-D and MiniHadoop, timed end to end in one process.
//
//   jobbench --workload wordcount|sort|cc --seed N --seconds S --trace 0|1
//            [--revision TEXT] [--list-metrics]
//
// One client thread runs one job at a time (a closed loop), rotating the
// three runtimes job by job so drift in machine load hits them equally.
// Set-up (input generation, serial references, DFS load, cluster
// construction, one verified warm-up job per runtime) runs once before the
// loop and kSetups - 1 more times spread through it; setup_s is the median
// of the steal-free ones (see setup_median). Every job's output is checked
// against the reference. Jobs during which the hypervisor stole CPU time
// (see least_stolen) count toward failures but not toward the timings; the
// loop runs on until each runtime has kMinJobs steal-free jobs (see
// run_loop).
// With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 the loop alternates untraced and traced
// triples, and the last line carries the per-layer medians of the traced
// jobs, the tracing overhead and each job's peak RSS. Human-readable
// tables come first.
#include <sched.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "phases.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace jobbench {
namespace {

/// Set-ups per run, and the fewest its median rests on (see least_stolen).
constexpr int kSetups = 12;
constexpr std::size_t kMinSetups = 5;
/// Timed jobs per runtime: p90 needs 10 beyond it.
constexpr std::size_t kMinJobs = 100;
/// A job slower than this counts as failed (timed out); a failed job's
/// sample is at least this, so it ranks behind every successful job.
constexpr double kJobTimeoutS = 30.0;
/// The loop runs at least --seconds, and past that until every runtime has
/// kMinJobs steal-free jobs, but no longer than this many times --seconds.
constexpr double kLoopStretch = 1.2;
/// Keeps a run, stretched, within three minutes.
constexpr double kMaxSeconds = 120.0;
/// A single job running this long is hung: the watchdog ends the process.
constexpr auto kHungJob = std::chrono::seconds(60);
/// Result files (and, with --trace 1, the trace) land here.
constexpr const char* kOutDir = ".bench_out";

const std::array<const char*, 26> kMpidLayers = {
    "mapred.startup_s",        "mapred.round_barrier_s",
    "mapred.round_s",          "mapred.rounds",
    "mapred.map_phase_s",      "app.map_s",
    "core.send_s",             "mapred.input_s",
    "app.combine_s",           "shuffle.combine_s",
    "shuffle.pairs_after_combine", "shuffle.table_bytes_peak",
    "shuffle.spill_s",         "core.flush_wait_s",
    "core.bytes_sent",         "core.frames_sent",
    "core.shuffle_tail_s",     "mapred.reduce_phase_s",
    "app.reduce_s",            "mapred.teardown_s",
    "core.frames_retransmitted", "core.duplicate_frames_dropped",
    "shuffle.resident_bytes_in", "shuffle.ingest_bytes",
    "peak_rss_mb",             "trace_overhead_s"};

const std::array<const char*, 26> kMiniHadoopLayers = {
    "minihadoop.startup_s",    "minihadoop.round_barrier_s",
    "minihadoop.round_s",      "minihadoop.rounds",
    "hrpc.heartbeats",         "minihadoop.map_phase_s",
    "app.map_s",               "shuffle.emit_s",
    "dfs.input_s",             "app.combine_s",
    "shuffle.combine_s",       "shuffle.pairs_after_combine",
    "shuffle.table_bytes_peak", "shuffle.spill_s",
    "hrpc.shuffled_bytes",     "hrpc.shuffle_requests",
    "hrpc.shuffle_tail_s",     "minihadoop.reduce_phase_s",
    "app.reduce_s",            "minihadoop.teardown_s",
    "minihadoop.speculative_launches", "minihadoop.useful_attempt_ratio",
    "shuffle.resident_bytes_in", "shuffle.ingest_bytes",
    "peak_rss_mb",             "trace_overhead_s"};

const std::array<const char*, 26>& layers_of(int runtime) {
  return runtime == static_cast<int>(Runtime::kMiniHadoop) ? kMiniHadoopLayers
                                                           : kMpidLayers;
}

const char* unit_of(const std::string& name) {
  if (name.ends_with("_mb_per_s")) return "MB/s";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_mb")) return "MB";
  if (name.ends_with("ratio")) return "ratio";
  if (name.find("bytes") != std::string::npos) return "B";
  return "count";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string revision = "unknown";
  bool list_metrics = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() && !a.list_metrics) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(a.seconds > 0 && a.seconds <= kMaxSeconds)) {
    throw std::invalid_argument("--seconds must lie in (0, 120]");
  }
  return a;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Ends the process when one job runs longer than kHungJob, so a hang
/// fails the run within the time limit instead of stalling it.
class Watchdog {
 public:
  Watchdog() : thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void job_started(const std::string& what) {
    std::lock_guard lock(mu_);
    deadline_ = Clock::now() + kHungJob;
    what_ = what;
  }

 private:
  void watch() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      cv_.wait_until(lock, deadline_, [this] {
        return stop_ || Clock::now() >= deadline_;
      });
      if (!stop_ && Clock::now() >= deadline_) {
        std::fprintf(stderr, "jobbench: %s hung past %lld s\n", what_.c_str(),
                     static_cast<long long>(kHungJob.count()));
        std::_Exit(3);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  Clock::time_point deadline_ = Clock::now() + kHungJob;  // guarded by mu_
  std::string what_ = "set-up";                           // guarded by mu_
  bool stop_ = false;                                     // guarded by mu_
  std::thread thread_;  // last: starts after the state it reads
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One job of the loop, as the loop saw it.
struct JobSample {
  int runtime = 0;
  int job = 0;
  double start_s = 0;    // since the loop started
  double wall_s = 0;     // as measured
  double peak_rss_mb = 0;
  double steal_s = 0;    // hypervisor steal during the job
  bool traced = false;
  std::string error;     // empty when the output was verified
  std::map<std::string, double> layers;  // traced, verified jobs

  /// The time percentiles rank: a failed job ranks behind every
  /// successful one.
  double ranked_s() const {
    return error.empty() ? wall_s : std::max(wall_s, kJobTimeoutS);
  }
};

/// One runtime's tally. Failures count over every job; the timings come
/// from the least-stolen jobs (see tally).
struct RuntimeSamples {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t untimed = 0;  // jobs left out of the timings for steal
  std::string first_error;
  std::vector<double> wall_s;         // timed untraced jobs, ranked
  std::vector<double> traced_wall_s;  // timed traced jobs, ranked
  std::vector<double> peak_rss_mb;    // every job
  double wall_sum_s = 0;              // timed untraced jobs, as measured
  std::uint64_t verified_bytes = 0;   // input bytes of those verified
  std::map<std::string, std::vector<double>> layers;  // timed traced jobs

  void count(const JobSample& j) {
    ++attempted;
    if (!j.error.empty()) {
      ++failed;
      if (first_error.empty()) {
        first_error = "job " + std::to_string(j.job) + ": " + j.error;
      }
    }
    peak_rss_mb.push_back(j.peak_rss_mb);
  }

  void time(const JobSample& j, std::uint64_t input_bytes) {
    for (const auto& [name, v] : j.layers) layers[name].push_back(v);
    if (j.traced) {
      traced_wall_s.push_back(j.ranked_s());
      return;
    }
    wall_s.push_back(j.ranked_s());
    wall_sum_s += j.wall_s;
    if (j.error.empty()) verified_bytes += input_bytes;
  }

  double mb_per_s() const {
    return wall_sum_s > 0
               ? static_cast<double>(verified_bytes) / 1e6 / wall_sum_s
               : 0.0;
  }
};

using Samples = std::array<RuntimeSamples, kRuntimes>;

/// Counts every job; times, per runtime and per traced/untraced, the
/// steal-free jobs, or the kMinJobs least-stolen when fewer are steal-free.
Samples tally(const std::vector<JobSample>& jobs, std::uint64_t input_bytes) {
  Samples s;
  for (int rt = 0; rt < kRuntimes; ++rt) {
    for (const bool traced : {false, true}) {
      std::vector<const JobSample*> group;
      std::vector<double> steal;
      for (const auto& j : jobs) {
        if (j.runtime != rt || j.traced != traced) continue;
        s[rt].count(j);
        group.push_back(&j);
        steal.push_back(j.steal_s);
      }
      const auto keep = least_stolen(steal, kMinJobs);
      s[rt].untimed += group.size() - keep.size();
      for (const auto i : keep) s[rt].time(*group[i], input_bytes);
    }
  }
  return s;
}

using Metrics = std::vector<std::pair<std::string, double>>;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

std::string stamp_json(const Args& a,
                       const Samples& s) {
  std::string jobs;
  for (int rt = 0; rt < kRuntimes; ++rt) {
    jobs += std::string(rt ? "," : "") + "\"" + kRuntimeNames[rt] +
            "\":" + std::to_string(s[rt].attempted);
  }
  return "{\"nproc\":" + std::to_string(online_cpus()) + ",\"cpu\":\"" +
         json_escape(cpu_model()) + "\",\"compiler\":\"" +
         json_escape(std::string("g++ ") + __VERSION__) +
         "\",\"build_type\":\"" JOBBENCH_BUILD_TYPE "\",\"revision\":\"" +
         json_escape(a.revision) + "\",\"workload\":\"" + a.workload +
         "\",\"seed\":" + std::to_string(a.seed) +
         ",\"trace\":" + (a.trace ? "1" : "0") + ",\"jobs_per_runtime\":{" +
         jobs + "}}";
}

/// The per-layer values of one traced job: the runtime's counters plus
/// the phase cut of its callback timestamps. Throws when the phases do not
/// add up to the wall time.
std::map<std::string, double> layer_values(Runtime runtime, const JobRun& run,
                                           const CallbackSummary& cb,
                                           const Phases& ph) {
  if (ph.sum() != ph.wall_ns) {
    throw std::runtime_error("phases sum to " + std::to_string(ph.sum()) +
                             " ns, wall is " + std::to_string(ph.wall_ns));
  }
  if (static_cast<int>(cb.rounds.size()) != run.rounds) {
    throw std::runtime_error("callbacks saw " +
                             std::to_string(cb.rounds.size()) +
                             " rounds, the runtime reported " +
                             std::to_string(run.rounds));
  }
  const bool hadoop = runtime == Runtime::kMiniHadoop;
  const std::string rt = hadoop ? "minihadoop." : "mapred.";
  auto s = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
  std::vector<double> rounds;
  for (const auto ns : ph.round_ns) rounds.push_back(s(ns));

  auto out = run.counters;
  out[rt + "startup_s"] = s(ph.startup_ns);
  out[rt + "map_phase_s"] = s(ph.map_ns);
  out[hadoop ? "hrpc.shuffle_tail_s" : "core.shuffle_tail_s"] =
      s(ph.shuffle_tail_ns);
  out[rt + "reduce_phase_s"] = s(ph.reduce_ns);
  out[rt + "round_barrier_s"] = s(ph.barrier_ns);
  out[rt + "teardown_s"] = s(ph.teardown_ns);
  out[rt + "round_s"] = median(rounds);
  out[rt + "rounds"] = static_cast<double>(ph.round_ns.size());
  out["app.map_s"] = s(cb.map_self_ns);
  out[hadoop ? "shuffle.emit_s" : "core.send_s"] = s(cb.emit_ns);
  out[hadoop ? "dfs.input_s" : "mapred.input_s"] = s(cb.input_ns);
  out["app.combine_s"] = s(cb.combine_ns);
  out["app.reduce_s"] = s(cb.reduce_self_ns);
  return out;
}

void print_table(const Samples& s) {
  auto ms = [](std::optional<double> v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v.value_or(0.0) * 1e3);
    return std::string(v ? buf : "-");
  };
  std::printf("%-16s %6s %6s %6s %10s %10s %10s %10s\n", "runtime",
              "jobs", "failed", "stolen", "p50 ms", "p90 ms", "MB/s",
              "peak MB");
  for (int rt = 0; rt < kRuntimes; ++rt) {
    std::printf("%-16s %6llu %6llu %6llu %10s %10s %10.1f %10.1f\n",
                kRuntimeNames[rt],
                static_cast<unsigned long long>(s[rt].attempted),
                static_cast<unsigned long long>(s[rt].failed),
                static_cast<unsigned long long>(s[rt].untimed),
                ms(percentile(s[rt].wall_s, 50)).c_str(),
                ms(percentile(s[rt].wall_s, 90)).c_str(),
                s[rt].mb_per_s(), median(s[rt].peak_rss_mb));
    if (!s[rt].first_error.empty()) {
      std::printf("  first failure: %s\n", s[rt].first_error.c_str());
    }
  }
}

/// Per-layer medians over traced jobs, one row per layer name, "-" where
/// a runtime has no such layer.
void print_layer_table(const Samples& s) {
  std::vector<std::string> rows(kMpidLayers.begin(), kMpidLayers.end());
  for (const auto* layer : kMiniHadoopLayers) {
    if (std::find(rows.begin(), rows.end(), layer) == rows.end()) {
      rows.emplace_back(layer);
    }
  }
  std::printf("\nper-layer medians over traced jobs\n%-32s %-6s", "layer",
              "unit");
  for (const auto* name : kRuntimeNames) std::printf(" %15s", name);
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("%-32s %-6s", row.c_str(), unit_of(row));
    for (int rt = 0; rt < kRuntimes; ++rt) {
      const auto& names = layers_of(rt);
      const auto it = s[rt].layers.find(row);
      if (std::find(names.begin(), names.end(), row) == names.end() ||
          it == s[rt].layers.end()) {
        std::printf(" %15s", "-");
      } else {
        std::printf(" %15.6g", median(it->second));
      }
    }
    std::printf("\n");
  }
}

/// One set-up's wall time and the hypervisor steal during it.
struct SetUp {
  double seconds = 0;
  double steal_s = 0;
};

/// Sets the workload up: input generation, serial reference, DFS load,
/// cluster construction and one verified warm-up job per runtime.
std::unique_ptr<Workload> set_up(const Args& a, Watchdog& dog, int& next_job,
                                 std::vector<SetUp>& log) {
  dog.job_started("set-up");
  const double steal_before = host_steal_s();
  const auto start = Clock::now();
  auto workload = Workload::make(a.workload, a.seed);
  for (int rt = 0; rt < kRuntimes; ++rt) {
    dog.job_started(std::string("warm-up job on ") + kRuntimeNames[rt]);
    const JobRun warm =
        workload->run(static_cast<Runtime>(rt), next_job++, nullptr);
    if (!warm.error.empty()) {
      throw std::runtime_error(std::string("warm-up job on ") +
                               kRuntimeNames[rt] + " failed: " + warm.error);
    }
  }
  log.push_back({seconds_since(start), host_steal_s() - steal_before});
  return workload;
}

/// What the timed loop produced.
struct LoopResult {
  std::vector<JobSample> jobs;
  std::vector<SetUp> setups;  // the loop's own, after the first
  SpanLog spans;
  double seconds = 0;
};

/// True when every runtime has kMinJobs steal-free untraced jobs.
bool enough_jobs(const std::vector<JobSample>& jobs) {
  std::array<std::size_t, kRuntimes> steal_free{};
  for (const auto& j : jobs) {
    if (!j.traced && j.steal_s <= 0) ++steal_free[j.runtime];
  }
  return std::all_of(steal_free.begin(), steal_free.end(),
                     [](std::size_t n) { return n >= kMinJobs; });
}

/// Cuts a traced job at its callback timestamps into per-layer values and
/// spans. Throws when a phase is missing or negative, or the phases do
/// not add up to the wall time.
void record_trace(const JobRun& run, const JobTrace& trace, JobSample& job,
                  std::int64_t offset_ns, SpanLog& spans) {
  const auto runtime = static_cast<Runtime>(job.runtime);
  const CallbackSummary cb = summarize(trace.logs());
  const Phases ph = cut_phases(cb.rounds, run.wall_ns);
  job.layers = layer_values(runtime, run, cb, ph);
  spans.add_job(job.job, job.runtime, kRuntimeNames[job.runtime], offset_ns,
                cb, ph, trace.logs());
}

/// The closed loop: triples of jobs, one per runtime in rotating order,
/// for --seconds and then until every runtime has kMinJobs steal-free jobs,
/// at most kLoopStretch times --seconds. Between triples it sets the
/// workload up again, kSetups - 1 times evenly over --seconds, and
/// discards the copy. With --trace 1, every other triple is traced.
LoopResult run_loop(const Args& a, Workload& workload, Watchdog& dog,
                    int next_job) {
  LoopResult out;
  const auto start = Clock::now();
  for (int triple = 0;; ++triple) {
    const double elapsed = seconds_since(start);
    if (elapsed >= a.seconds &&
        (enough_jobs(out.jobs) || elapsed >= kLoopStretch * a.seconds)) {
      break;
    }
    const int setups = static_cast<int>(out.setups.size()) + 1;
    if (setups < kSetups && elapsed >= setups * a.seconds / kSetups) {
      set_up(a, dog, next_job, out.setups);
    }
    const bool traced = a.trace && triple % 2 == 1;
    for (int k = 0; k < kRuntimes; ++k) {
      JobSample& job = out.jobs.emplace_back();
      job.runtime = (k + triple) % kRuntimes;
      job.job = next_job++;
      job.traced = traced;
      const std::int64_t offset_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count();
      job.start_s = static_cast<double>(offset_ns) / 1e9;
      dog.job_started("job " + std::to_string(job.job) + " on " +
                      kRuntimeNames[job.runtime]);
      JobTrace trace;
      JobRun run = workload.run(static_cast<Runtime>(job.runtime), job.job,
                                traced ? &trace : nullptr);
      job.wall_s = static_cast<double>(run.wall_ns) / 1e9;
      job.peak_rss_mb = run.peak_rss_mb;
      job.steal_s = run.steal_s;
      job.error = run.error;
      if (job.error.empty() && job.wall_s > kJobTimeoutS) {
        job.error = "timed out (" + fmt(job.wall_s) + " s)";
      }
      if (traced && job.error.empty()) {
        try {
          record_trace(run, trace, job, offset_ns, out.spans);
        } catch (const std::exception& e) {
          job.error = std::string("trace: ") + e.what();
        }
      }
    }
  }
  out.seconds = seconds_since(start);
  return out;
}

/// The result file's per-job log: one [runtime, job, start_s, wall_s,
/// peak_rss_mb, steal_s, traced, verified, error] entry per loop job.
std::string job_log(const LoopResult& loop) {
  std::string log;
  for (const auto& j : loop.jobs) {
    log += std::string(log.empty() ? "" : ",") + "[\"" +
           kRuntimeNames[j.runtime] + "\"," + std::to_string(j.job) + "," +
           fmt(j.start_s) + "," + fmt(j.wall_s) + "," + fmt(j.peak_rss_mb) +
           "," + fmt(j.steal_s) + "," + (j.traced ? "1" : "0") + "," +
           (j.error.empty() ? "1" : "0") + ",\"" + json_escape(j.error) +
           "\"]";
  }
  return log;
}

/// The set-ups' [seconds, steal_s] pairs, for the result file.
std::string setup_log(const std::vector<SetUp>& setups) {
  std::string log;
  for (const auto& u : setups) {
    log += std::string(log.empty() ? "" : ",") + "[" + fmt(u.seconds) + "," +
           fmt(u.steal_s) + "]";
  }
  return log;
}

/// The median set-up time over the steal-free set-ups, or the kMinSetups
/// least-stolen when fewer are steal-free. Sets `used` to how many.
double setup_median(const std::vector<SetUp>& setups, std::size_t& used) {
  std::vector<double> steal;
  for (const auto& u : setups) steal.push_back(u.steal_s);
  std::vector<double> seconds;
  for (const auto i : least_stolen(steal, kMinSetups)) {
    seconds.push_back(setups[i].seconds);
  }
  used = seconds.size();
  return median(seconds);
}

double p50_of(const std::vector<double>& v) {
  return percentile(v, 50).value_or(0.0);
}

/// The end-to-end metrics. `resolved` turns false when a percentile lacks
/// the samples beyond it.
Metrics end_to_end_metrics(const Samples& samples, double setup_s,
                           bool& resolved) {
  Metrics m;
  std::uint64_t attempted = 0, failed = 0;
  for (int rt = 0; rt < kRuntimes; ++rt) {
    const auto& s = samples[rt];
    const std::string p = kRuntimeNames[rt];
    const auto p50 = percentile(s.wall_s, 50);
    const auto p90 = percentile(s.wall_s, 90);
    if (!p50 || !p90) resolved = false;
    m.emplace_back(p + ".job_p50_s", p50.value_or(0.0));
    m.emplace_back(p + ".job_p90_s", p90.value_or(0.0));
    m.emplace_back(p + ".input_mb_per_s", s.mb_per_s());
    attempted += s.attempted;
    failed += s.failed;
  }
  m.emplace_back("setup_s", setup_s);
  m.emplace_back("verified_job_ratio",
                 static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted));
  return m;
}

/// The per-layer medians of the traced jobs, plus each runtime's tracing
/// overhead (traced minus untraced p50). Prints the overhead and the
/// per-layer table.
Metrics per_layer_metrics(Samples& samples) {
  Metrics m;
  std::printf("\n");
  for (int rt = 0; rt < kRuntimes; ++rt) {
    auto& s = samples[rt];
    const double overhead = p50_of(s.traced_wall_s) - p50_of(s.wall_s);
    s.layers["trace_overhead_s"] = {overhead};
    s.layers["peak_rss_mb"] = s.peak_rss_mb;
    std::printf("tracing overhead %-16s %+8.3f ms on an untraced p50 of "
                "%.3f ms (%zu traced, %zu untraced jobs)\n",
                kRuntimeNames[rt], overhead * 1e3, p50_of(s.wall_s) * 1e3,
                s.traced_wall_s.size(), s.wall_s.size());
    for (const auto* layer : layers_of(rt)) {
      const auto it = s.layers.find(layer);
      const double v = it == s.layers.end() ? 0.0 : median(it->second);
      m.emplace_back(std::string(kRuntimeNames[rt]) + "." + layer, v);
    }
  }
  print_layer_table(samples);
  return m;
}

std::string result_json(const Samples& samples, const Metrics& metrics,
                        bool resolved) {
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& s : samples) {
    attempted += s.attempted;
    failed += s.failed;
  }
  std::string body;
  for (const auto& [name, v] : metrics) {
    body += std::string(body.empty() ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + fmt(v) + ", \"unit\": \"" + unit_of(name) +
            "\"}";
  }
  const bool correct = failed == 0 && resolved;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         body + "}}";
}

int run_benchmark(const Args& a) {
  Watchdog dog;
  int next_job = 0;
  std::vector<SetUp> setups;
  const auto workload = set_up(a, dog, next_job, setups);
  const double steal_before = host_steal_s();
  LoopResult loop = run_loop(a, *workload, dog, next_job);
  const double loop_steal_s = host_steal_s() - steal_before;
  setups.insert(setups.end(), loop.setups.begin(), loop.setups.end());
  Samples samples = tally(loop.jobs, workload->input().size());
  std::size_t setups_used = 0;
  const double setup_s = setup_median(setups, setups_used);

  const std::string stamp = stamp_json(a, samples);
  std::printf("stamp: %s\n", stamp.c_str());
  const double steal_share =
      loop_steal_s / (loop.seconds * static_cast<double>(online_cpus()));
  std::printf("workload %s: %zu input bytes per job, %.1f s loop with "
              "%.1f%% of CPU time stolen by the hypervisor; set-up median "
              "%.3f s over %zu of %zu set-ups; jobs that saw steal are not "
              "timed (\"stolen\")\n",
              a.workload.c_str(), workload->input().size(), loop.seconds,
              steal_share * 100, setup_s, setups_used, setups.size());
  print_table(samples);
  // Figure 6's "% of Hadoop time", derived and not gated.
  const double hadoop_p50 = p50_of(samples[2].wall_s);
  const double headline =
      hadoop_p50 > 0 ? p50_of(samples[0].wall_s) / hadoop_p50 : 0.0;
  std::printf("headline (Figure 6, %% of Hadoop time): mpid.job_p50_s / "
              "minihadoop.job_p50_s = %.3f\n",
              headline);

  bool resolved = true;
  const Metrics metrics = a.trace
                              ? per_layer_metrics(samples)
                              : end_to_end_metrics(samples, setup_s, resolved);
  const std::string result = result_json(samples, metrics, resolved);

  std::filesystem::create_directories(kOutDir);
  const std::string base = std::string(kOutDir) + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0");
  std::ofstream(base + ".json")
      << "{\"stamp\": " << stamp << ", \"headline_mpid_over_minihadoop\": "
      << fmt(headline) << ", \"loop_steal_share\": " << fmt(steal_share)
      << ", \"result\": " << result << ", \"setups\": [" << setup_log(setups)
      << "], \"jobs\": [" << job_log(loop) << "]}\n";
  if (a.trace) {
    loop.spans.write(base + ".trace.json");
    std::printf("trace: %s.trace.json\n", base.c_str());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

void list_metrics() {
  for (int rt = 0; rt < kRuntimes; ++rt) {
    for (const char* m : {"job_p50_s", "job_p90_s", "input_mb_per_s"}) {
      const std::string name = std::string(kRuntimeNames[rt]) + "." + m;
      std::printf("end_to_end %s %s\n", name.c_str(), unit_of(name));
    }
  }
  std::printf("end_to_end setup_s s\nend_to_end verified_job_ratio ratio\n");
  for (int rt = 0; rt < kRuntimes; ++rt) {
    for (const auto* layer : layers_of(rt)) {
      const std::string name = std::string(kRuntimeNames[rt]) + "." + layer;
      std::printf("per_layer %s %s\n", name.c_str(), unit_of(name));
    }
  }
}

}  // namespace
}  // namespace jobbench

int main(int argc, char** argv) {
  jobbench::Args args;
  try {
    args = jobbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "jobbench: %s\nusage: jobbench --workload wordcount|sort|cc "
                 "--seed N --seconds S --trace 0|1 [--revision TEXT] "
                 "[--list-metrics]\n",
                 e.what());
    return 2;
  }
  if (args.list_metrics) {
    jobbench::list_metrics();
    return 0;
  }
  try {
    return jobbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench: %s\n", e.what());
    return 1;
  }
}
