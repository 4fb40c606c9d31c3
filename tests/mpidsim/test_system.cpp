// MPI-D system model tests: completion, scaling behaviour, determinism,
// and the Figure 6 comparison invariants against the Hadoop simulator.
#include <gtest/gtest.h>

#include <ostream>

#include "mpid/common/units.hpp"
#include "mpid/hadoop/cluster.hpp"
#include "mpid/mpidsim/system.hpp"
#include "mpid/sim/engine.hpp"
#include "mpid/workloads/presets.hpp"

namespace mpid::mpidsim {
namespace {

using common::GiB;
using common::MiB;

MpidJobResult run_mpid(std::uint64_t input) {
  sim::Engine engine;
  MpidSystem system(engine, workloads::fig6_mpid_system());
  return system.run(workloads::mpid_wordcount_job(input));
}

TEST(MpidSystem, ValidatesTopology) {
  sim::Engine engine;
  SystemSpec bad;
  bad.nodes = 1;
  EXPECT_THROW(MpidSystem(engine, bad), std::invalid_argument);
  SystemSpec no_reducers;
  no_reducers.reducers = 0;
  EXPECT_THROW(MpidSystem(engine, no_reducers), std::invalid_argument);
}

TEST(MpidSystem, EmptyJobCostsOnlyStartup) {
  const auto result = run_mpid(0);
  EXPECT_LT(result.makespan.to_seconds(), 2.0);
  EXPECT_GT(result.makespan.to_seconds(),
            workloads::fig6_mpid_system().job_startup.to_seconds() * 0.9);
}

TEST(MpidSystem, MakespanGrowsWithInput) {
  const auto t1 = run_mpid(1 * GiB).makespan;
  const auto t10 = run_mpid(10 * GiB).makespan;
  const auto t100 = run_mpid(100 * GiB).makespan;
  EXPECT_LT(t1, t10);
  EXPECT_LT(t10, t100);
  // Large inputs scale roughly linearly (reduce-bound single reducer).
  EXPECT_NEAR(t100.to_seconds() / t10.to_seconds(), 10.0, 4.0);
}

TEST(MpidSystem, IntermediateVolumeMatchesRatio) {
  const auto result = run_mpid(4 * GiB);
  EXPECT_NEAR(result.intermediate_bytes,
              0.30 * static_cast<double>(4 * GiB),
              0.01 * static_cast<double>(4 * GiB));
}

TEST(MpidSystem, MapPhasePrecedesReduceEnd) {
  const auto result = run_mpid(8 * GiB);
  EXPECT_LT(result.map_phase_end, result.reduce_end);
  EXPECT_EQ(result.reduce_end - sim::kTimeZero, result.makespan);
}

TEST(MpidSystem, Deterministic) {
  const auto a = run_mpid(2 * GiB);
  const auto b = run_mpid(2 * GiB);
  EXPECT_EQ(a.makespan.ns, b.makespan.ns);
}

TEST(MpidSystem, MultipleReducersShortenReducePhase) {
  SystemSpec one = workloads::fig6_mpid_system();
  SystemSpec four = one;
  four.reducers = 4;
  MpidJobSpec job = workloads::mpid_wordcount_job(20 * GiB);
  sim::Engine e1, e4;
  const auto t1 = MpidSystem(e1, one).run(job).makespan;
  const auto t4 = MpidSystem(e4, four).run(job).makespan;
  EXPECT_LT(t4.to_seconds(), t1.to_seconds() * 0.6);
}

// ------------------------- Figure 6 invariants -------------------------

struct Fig6Point {
  std::uint64_t input;
  double min_ratio;
  double max_ratio;
};

// Named after the printed parameter (gtest_discover_tests would otherwise
// print its raw bytes).
void PrintTo(const Fig6Point& p, std::ostream* os) {
  *os << p.input / GiB << "GiB";
}

class Fig6Test : public ::testing::TestWithParam<Fig6Point> {};

// Paper: MPI-D/Hadoop = 8% at 1 GB, 48% at 10 GB, 56% at 100 GB. The
// model reproduces the rising shape; tolerances are documented in
// EXPERIMENTS.md.
INSTANTIATE_TEST_SUITE_P(
    Ratios, Fig6Test,
    ::testing::Values(Fig6Point{1 * GiB, 0.02, 0.35},
                      Fig6Point{10 * GiB, 0.25, 0.65},
                      Fig6Point{100 * GiB, 0.40, 0.75}));

TEST_P(Fig6Test, MpidBeatsHadoopByTheExpectedFactor) {
  const auto [input, min_ratio, max_ratio] = GetParam();

  sim::Engine hadoop_engine;
  hadoop::Cluster cluster(hadoop_engine, workloads::fig6_hadoop_cluster());
  const auto hadoop_time =
      cluster.run(workloads::hadoop_wordcount_job(input)).makespan;

  const auto mpid_time = run_mpid(input).makespan;

  const double ratio = mpid_time.to_seconds() / hadoop_time.to_seconds();
  EXPECT_GT(ratio, min_ratio) << "hadoop=" << hadoop_time.to_seconds()
                              << "s mpid=" << mpid_time.to_seconds() << "s";
  EXPECT_LT(ratio, max_ratio) << "hadoop=" << hadoop_time.to_seconds()
                              << "s mpid=" << mpid_time.to_seconds() << "s";
}

TEST(Fig6, RatioRisesWithInputSize) {
  auto ratio_at = [](std::uint64_t input) {
    sim::Engine he;
    hadoop::Cluster cluster(he, workloads::fig6_hadoop_cluster());
    const double h =
        cluster.run(workloads::hadoop_wordcount_job(input)).makespan.to_seconds();
    const double m = run_mpid(input).makespan.to_seconds();
    return m / h;
  };
  const double r1 = ratio_at(1 * GiB);
  const double r100 = ratio_at(100 * GiB);
  EXPECT_LT(r1, r100);  // MPI-D's relative advantage shrinks as the job
                        // becomes compute/reduce-bound — the paper's trend.
}

}  // namespace
}  // namespace mpid::mpidsim
