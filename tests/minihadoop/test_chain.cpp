// MiniHadoop chained jobs: resident rounds vs the HDFS-round-trip
// ablation, counter sentinels through the commit gate, and byte-parity
// with the MPI-D JobChain on the same ChainStage definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/minihadoop/minihadoop.hpp"

namespace mpid::minihadoop {
namespace {

/// The same countdown chain the mapred JobChain tests run: distinct
/// keys, values decrement toward zero, "active" drives convergence.
void fill_countdown(mapred::MapFn& ingest,
                    std::vector<mapred::ChainStage>& stages,
                    int max_rounds = 12) {
  ingest = [](std::string_view line, mapred::MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp == std::string_view::npos) return;
    ctx.emit(line.substr(0, sp), line.substr(sp + 1));
  };
  mapred::ChainStage stage;
  stage.name = "countdown";
  stage.map = [](std::string_view key, std::string_view value,
                 mapred::ChainMapContext& ctx) { ctx.emit(key, value); };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    mapred::ChainReduceContext& ctx) {
    long n = 0;
    for (const auto& v : values) n += std::stol(v);
    n = std::max(0L, n - 1);
    ctx.emit(key, std::to_string(n));
    if (n > 0) ctx.incr("active");
  };
  stage.max_rounds = max_rounds;
  stage.until = [](const mapred::RoundCounters& c) {
    return c.value("active") == 0;
  };
  stages.push_back(std::move(stage));
}

std::string countdown_text() {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text += "key" + std::to_string(i) + " " + std::to_string(1 + i % 5) + "\n";
  }
  return text;
}

/// All part files of a run parsed into sorted (key, value) pairs.
mapred::KvVec parse_parts(dfs::MiniDfs& fs,
                          const std::vector<std::string>& files) {
  mapred::KvVec pairs;
  for (const auto& file : files) {
    const std::string body = fs.read(file);
    std::size_t pos = 0;
    while (pos < body.size()) {
      auto eol = body.find('\n', pos);
      if (eol == std::string::npos) eol = body.size();
      const std::string_view line(body.data() + pos, eol - pos);
      pos = eol + 1;
      const auto tab = line.find('\t');
      if (tab == std::string_view::npos) continue;
      pairs.emplace_back(std::string(line.substr(0, tab)),
                         std::string(line.substr(tab + 1)));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

MiniChainConfig countdown_config(bool resident) {
  MiniChainConfig config;
  fill_countdown(config.ingest, config.stages);
  config.input_path = "/chain/input.txt";
  config.output_prefix = resident ? "/chain/out-resident" : "/chain/out-dfs";
  config.map_tasks = 3;
  config.reduce_tasks = 3;
  config.resident = resident;
  return config;
}

TEST(MiniChain, ResidentChainConvergesWithCommitGatedCounters) {
  dfs::MiniDfs fs(3);
  fs.create("/chain/input.txt", countdown_text());
  MiniCluster cluster(fs, 3);
  const auto summary = cluster.run_chain(countdown_config(/*resident=*/true));

  // 5 work rounds (max initial value 5), stage bookkeeping intact.
  ASSERT_EQ(summary.rounds.size(), 5u);
  EXPECT_EQ(summary.chain_rounds, 5u);
  EXPECT_EQ(summary.rounds[0].counters.value("active"), 9u);
  EXPECT_EQ(summary.rounds[4].counters.value("active"), 0u);
  for (const auto& round : summary.rounds) {
    EXPECT_EQ(round.resident_pairs_out, 12u);
  }

  // Every key counted down to zero; no counter sentinel leaked out.
  const auto outputs = parse_parts(fs, summary.output_files);
  ASSERT_EQ(outputs.size(), 12u);
  for (const auto& [key, value] : outputs) {
    EXPECT_EQ(value, "0");
    EXPECT_NE(key.front(), '\x01');
  }

  // Residency: external input enters once, rounds >= 2 read partitions
  // in place, and no intermediate part files ever touched the DFS.
  EXPECT_GT(summary.ingest_bytes, 0u);
  EXPECT_GT(summary.resident_pairs_in, 0u);
  EXPECT_FALSE(fs.exists("/chain/out-resident/.round-2/part-r-0"));
}

TEST(MiniChain, AblationRoundTripsTheDfsButMatchesByteForByte) {
  dfs::MiniDfs fs(3);
  fs.create("/chain/input.txt", countdown_text());
  MiniCluster cluster(fs, 3);
  const auto resident = cluster.run_chain(countdown_config(true));
  const auto ablation = cluster.run_chain(countdown_config(false));

  EXPECT_EQ(parse_parts(fs, resident.output_files),
            parse_parts(fs, ablation.output_files));
  ASSERT_EQ(resident.rounds.size(), ablation.rounds.size());
  for (std::size_t r = 0; r < resident.rounds.size(); ++r) {
    EXPECT_EQ(resident.rounds[r].counters.values(),
              ablation.rounds[r].counters.values());
  }

  // The ablation pays: per-round part files on the DFS, re-ingest every
  // round, zero resident reads.
  EXPECT_TRUE(fs.exists("/chain/out-dfs/.round-2/part-r-0"));
  EXPECT_GT(ablation.ingest_bytes, resident.ingest_bytes);
  EXPECT_EQ(ablation.resident_pairs_in, 0u);
}

/// A fixed 3-round chain over 8 keys whose static weight is added every
/// round, so both the map and the reduce read the pinned tables.
MiniChainConfig statics_config(bool resident) {
  MiniChainConfig config;
  config.ingest = [](std::string_view line, mapred::MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp != std::string_view::npos) {
      ctx.emit(line.substr(0, sp), line.substr(sp + 1));
    }
  };
  mapred::ChainStage stage;
  stage.name = "accumulate";
  stage.map = [](std::string_view key, std::string_view value,
                 mapred::ChainMapContext& ctx) {
    ctx.emit(key, ctx.statics(key).empty() ? "missing-static" : value);
  };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    mapred::ChainReduceContext& ctx) {
    const auto weights = ctx.statics(key);
    long n = weights.empty() ? 0 : std::stol(weights.front());
    for (const auto& v : values) n += std::stol(v);
    ctx.emit(key, std::to_string(n));
  };
  stage.max_rounds = 3;
  config.stages.push_back(std::move(stage));
  for (int i = 0; i < 8; ++i) {
    config.static_input.emplace_back("key" + std::to_string(i),
                                     std::to_string(10 * (i + 1)));
  }
  config.input_path = "/chain/statics.txt";
  config.output_prefix = resident ? "/chain/statics-resident"
                                  : "/chain/statics-dfs";
  config.map_tasks = 3;
  config.reduce_tasks = 3;
  config.resident = resident;
  return config;
}

TEST(MiniChain, RoundTripReshufflesStaticsEveryLaterRound) {
  std::string text;
  for (int i = 0; i < 8; ++i) text += "key" + std::to_string(i) + " 1\n";
  dfs::MiniDfs fs(3);
  fs.create("/chain/statics.txt", text);
  MiniCluster cluster(fs, 3);
  const auto resident = cluster.run_chain(statics_config(true));
  const auto roundtrip = cluster.run_chain(statics_config(false));

  // final = 1 + 3 rounds * weight, on both modes.
  mapred::KvVec want;
  for (int i = 0; i < 8; ++i) {
    want.emplace_back("key" + std::to_string(i),
                      std::to_string(1 + 3 * 10 * (i + 1)));
  }
  EXPECT_EQ(parse_parts(fs, resident.output_files), want);
  EXPECT_EQ(parse_parts(fs, roundtrip.output_files), want);

  // Resident mode pins the statics once. A fresh job per round has
  // nothing pinned, so rounds 2..3 each realign the whole channel again.
  ASSERT_EQ(roundtrip.rounds.size(), 3u);
  EXPECT_GT(resident.static_bytes_pinned, 0u);
  EXPECT_EQ(resident.static_bytes_reshuffled, 0u);
  EXPECT_EQ(roundtrip.static_bytes_pinned, resident.static_bytes_pinned);
  EXPECT_EQ(roundtrip.static_bytes_reshuffled,
            (roundtrip.rounds.size() - 1) * roundtrip.static_bytes_pinned);
}

TEST(MiniChain, MatchesMpidJobChainByteForByte) {
  const auto text = countdown_text();
  dfs::MiniDfs fs(3);
  fs.create("/chain/input.txt", text);
  MiniCluster cluster(fs, 3);
  const auto hadoop = cluster.run_chain(countdown_config(true));

  mapred::ChainJob job;
  fill_countdown(job.ingest, job.stages);
  const auto mpid = mapred::JobChain(3).run_on_text(job, text);

  EXPECT_EQ(parse_parts(fs, hadoop.output_files), mpid.outputs);
  ASSERT_EQ(hadoop.rounds.size(), mpid.rounds.size());
  for (std::size_t r = 0; r < hadoop.rounds.size(); ++r) {
    EXPECT_EQ(hadoop.rounds[r].counters.values(),
              mpid.rounds[r].counters.values());
    EXPECT_EQ(hadoop.rounds[r].resident_bytes_out,
              mpid.rounds[r].resident_bytes_out);
  }
  // The byte tallies use the same arithmetic, so the residency counters
  // agree exactly across the two runtimes.
  EXPECT_EQ(hadoop.resident_bytes_in, mpid.report.totals.resident_bytes_in);
}

TEST(MiniChain, IngestBytesCountRecordBytesLikeJobChain) {
  // Both runtimes count ingest_bytes as the record bytes the map reads:
  // the input's lines without their terminators, and in the round trip
  // the re-ingested pairs' key and value bytes, which the resident chain
  // maps in place as resident_bytes_in.
  const auto text = countdown_text();
  dfs::MiniDfs fs(3);
  fs.create("/chain/input.txt", text);
  MiniCluster cluster(fs, 3);
  const auto hadoop = cluster.run_chain(countdown_config(true));
  const auto roundtrip = cluster.run_chain(countdown_config(false));

  mapred::ChainJob job;
  fill_countdown(job.ingest, job.stages);
  const auto mpid = mapred::JobChain(3).run_on_text(job, text);

  const auto newlines =
      static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(mpid.report.totals.ingest_bytes, text.size() - newlines);
  EXPECT_EQ(hadoop.ingest_bytes, mpid.report.totals.ingest_bytes);
  EXPECT_EQ(roundtrip.ingest_bytes,
            hadoop.ingest_bytes + hadoop.resident_bytes_in);
}

TEST(MiniChain, SurvivesInjectedCrashesMidChain) {
  const auto text = countdown_text();
  dfs::MiniDfs fs(3);
  fs.create("/chain/input.txt", text);
  MiniCluster cluster(fs, 3);
  const auto baseline = cluster.run_chain(countdown_config(true));
  const auto expected = parse_parts(fs, baseline.output_files);

  // A map attempt dies in round 1 and a reduce attempt dies too; the
  // jobtracker requeues both, and only committed attempts feed the next
  // round (counter sentinels included).
  fault::FaultPlan plan;
  plan.seed = 21;
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 1, 0, 2});
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 1});
  auto config = countdown_config(true);
  config.output_prefix = "/chain/out-faulted";
  config.fault_injector = std::make_shared<fault::FaultInjector>(plan);
  const auto faulted = cluster.run_chain(config);

  EXPECT_EQ(parse_parts(fs, faulted.output_files), expected);
  EXPECT_GT(faulted.map_reexecutions + faulted.reduce_reexecutions, 0u);
  ASSERT_EQ(faulted.rounds.size(), baseline.rounds.size());
  for (std::size_t r = 0; r < faulted.rounds.size(); ++r) {
    EXPECT_EQ(faulted.rounds[r].counters.values(),
              baseline.rounds[r].counters.values());
  }
}

TEST(MiniChain, RejectsMisconfiguredChains) {
  dfs::MiniDfs fs(3);
  fs.create("/chain/input.txt", countdown_text());
  MiniCluster cluster(fs, 2);

  auto with_map = countdown_config(true);
  with_map.map = [](std::string_view, mapred::MapContext&) {};
  EXPECT_THROW(cluster.run_chain(with_map), std::invalid_argument);

  auto with_combiner = countdown_config(true);
  with_combiner.combiner = [](std::string_view,
                              std::vector<std::string>&& vs) {
    return std::move(vs);
  };
  EXPECT_THROW(cluster.run_chain(with_combiner), std::invalid_argument);

  auto no_stages = countdown_config(true);
  no_stages.stages.clear();
  EXPECT_THROW(cluster.run_chain(no_stages), std::invalid_argument);
}

}  // namespace
}  // namespace mpid::minihadoop
