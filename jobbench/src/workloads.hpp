// The benchmark's three job workloads on the three runtime
// configurations, each job checked against a serial reference.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "trace.hpp"

namespace jobbench {

namespace dfs = mpid::dfs;
namespace minihadoop = mpid::minihadoop;

enum class Runtime { kMpid, kMpidResilient, kMiniHadoop };
inline constexpr int kRuntimes = 3;
inline constexpr std::array<const char*, kRuntimes> kRuntimeNames = {
    "mpid", "mpid_resilient", "minihadoop"};

/// Tasks per job (and partitions per chain round) on every runtime.
inline constexpr int kMapTasks = 2;
inline constexpr int kReduceTasks = 2;

/// The generated input of `workload` ("wordcount", "sort" or "cc") for
/// `seed`. Sizes depend only on the workload. Throws
/// std::invalid_argument for an unknown workload.
std::string make_input(const std::string& workload, std::uint64_t seed);

/// One timed job.
struct JobRun {
  std::int64_t wall_ns = 0;  // around the run() / run_chain() call
  /// Empty when the job returned and its output matched the reference.
  std::string error;
  /// RSS the job added at its peak: VmHWM minus VmRSS at the run() call,
  /// with free heap returned to the system (malloc_trim) and VmHWM reset
  /// (clear_refs) just before it.
  double peak_rss_mb = 0;
  /// Hypervisor steal over all CPUs around the run() call (host_steal_s).
  double steal_s = 0;
  int rounds = 1;
  /// The runtime's own counters for this job, by per-layer metric name.
  std::map<std::string, double> counters;
};

/// A workload's set-up state: input, reference, and the MiniHadoop
/// cluster (one MiniDfs with the input loaded once, one MiniCluster).
class Workload {
 public:
  /// Generates the input and builds the reference. Throws
  /// std::invalid_argument for an unknown workload.
  static std::unique_ptr<Workload> make(const std::string& workload,
                                        std::uint64_t seed);

  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& input() const noexcept { return input_; }

  /// Runs job number `job` on `runtime` and checks its output. With a
  /// non-null `trace` the job's callbacks are wrapped and timestamped.
  /// Never throws for a failing job: the failure lands in JobRun::error.
  JobRun run(Runtime runtime, int job, JobTrace* trace);

 protected:
  explicit Workload(std::string input);

  virtual void run_mpid(bool resilient, JobTrace* trace, JobRun& out) = 0;
  virtual void run_minihadoop(const std::string& output_prefix,
                              JobTrace* trace, JobRun& out) = 0;

  /// Times `fn` (the run() call) into out.wall_ns and out.peak_rss_mb,
  /// starting `trace`'s clock at the same instant.
  template <typename Fn>
  auto timed(JobRun& out, JobTrace* trace, Fn&& fn);

  /// Scans every part file of a MiniHadoop job; throws on a malformed or
  /// (with `require_key_order`) unsorted part.
  void scan_parts(
      const std::vector<std::string>& files, bool require_key_order,
      const std::function<void(std::string_view, std::string_view)>& fn)
      const;

  std::string input_;
  dfs::MiniDfs dfs_;
  minihadoop::MiniCluster cluster_;
};

}  // namespace jobbench
