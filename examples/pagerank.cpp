// Iterative PageRank, twice over the same deterministic directed graph:
//
//   1. on mapred::JobChain — the resident-partition chain API. The graph
//      structure is the pinned static channel (realigned once, never
//      re-shuffled), the rank vector lives in the reducer partitions
//      between rounds, and each iteration is one chained round with no
//      re-ingest. Ranks are scaled integers (units of 1e-6), so every
//      executor computes bit-identical results.
//
//   2. on the MR-MPI baseline library (map/collate/reduce rounds with the
//      graph structure re-shuffled alongside the ranks every iteration) —
//      the Twister-style formulation the paper's related work discusses,
//      kept as the parity reference in double precision.
//
// The two must agree to ~1e-4 per vertex (integer truncation only).
//
// Build & run:  ./examples/pagerank
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/mrmpi.hpp"
#include "mpid/minimpi/world.hpp"

namespace {

constexpr int kVertices = 64;
constexpr double kDamping = 0.85;
constexpr int kIterations = 10;
constexpr std::uint64_t kScale = 1000000;  // rank units of 1e-6

/// Deterministic sparse graph: each vertex links to 3 pseudo-random
/// targets (duplicates and self-links possible — both formulations must
/// treat them identically).
std::vector<int> out_links(int v) {
  mpid::common::Xoshiro256StarStar rng(7000 + static_cast<std::uint64_t>(v));
  std::vector<int> targets;
  for (int i = 0; i < 3; ++i) {
    targets.push_back(static_cast<int>(rng.next_below(kVertices)));
  }
  return targets;
}

std::string vertex(int v) { return "v" + std::to_string(v); }

std::string encode_links(const std::vector<int>& links) {
  std::string s = "L";
  for (const int t : links) s += ":" + std::to_string(t);
  return s;
}

std::vector<int> decode_links(std::string_view s) {
  std::vector<int> links;
  std::size_t pos = 2;  // skip "L:"
  while (pos <= s.size()) {
    const auto colon = s.find(':', pos);
    const auto token = s.substr(pos, colon == std::string_view::npos
                                         ? s.size() - pos
                                         : colon - pos);
    links.push_back(std::stoi(std::string(token)));
    if (colon == std::string_view::npos) break;
    pos = colon + 1;
  }
  return links;
}

/// PageRank on the chain API: ranks come back as (vertex, scaled
/// integer), exactly reproducible.
std::map<std::string, std::uint64_t> run_chain() {
  using namespace mpid;
  mapred::ChainJob job;
  std::string input;
  for (int v = 0; v < kVertices; ++v) {
    input += vertex(v) + "\n";
    for (const int t : out_links(v)) {
      job.static_input.emplace_back(vertex(v), vertex(t));
    }
  }
  job.ingest = [](std::string_view line, mapred::MapContext& ctx) {
    ctx.emit(line, "R");
  };
  mapred::ChainStage iterate;
  iterate.name = "pagerank";
  iterate.map = [](std::string_view key, std::string_view rank,
                   mapred::ChainMapContext& ctx) {
    ctx.emit(key, "=");
    if (rank == "R") return;
    const auto links = ctx.statics(key);
    if (links.empty()) return;
    // share = d * rank / out_degree, in scaled-integer arithmetic.
    const std::uint64_t share =
        85 * std::stoull(std::string(rank)) / (100 * links.size());
    const std::string msg = ">" + std::to_string(share);
    for (const auto& target : links) ctx.emit(target, msg);
  };
  iterate.reduce = [](std::string_view key, std::vector<std::string>& values,
                      mapred::ChainReduceContext& ctx) {
    bool init = false;
    std::uint64_t sum = 0;
    for (const auto& value : values) {
      if (value == "R") init = true;
      if (value[0] == '>') sum += std::stoull(value.substr(1));
    }
    if (init) {
      ctx.emit(key, std::to_string(kScale / kVertices));
      return;
    }
    ctx.emit(key, std::to_string(15 * kScale / (100 * kVertices) + sum));
  };
  iterate.max_rounds = kIterations + 1;  // seed round + iterations
  job.stages.push_back(std::move(iterate));

  const auto result = mapred::JobChain(4).run_on_text(job, input);
  std::map<std::string, std::uint64_t> ranks;
  for (const auto& [v, r] : result.outputs) ranks[v] = std::stoull(r);
  return ranks;
}

/// The original MR-MPI formulation, double precision: the parity
/// reference.
std::map<std::string, double> run_mrmpi() {
  using namespace mpid;
  std::map<std::string, double> ranks;
  minimpi::run_world(4, [&ranks](minimpi::Comm& comm) {
    mapred::mrmpi::MapReduce mr(comm);

    // Bootstrap: every vertex starts at rank 1/N alongside its links.
    mr.map(kVertices, [](int v, mapred::mrmpi::Emitter& out) {
      out.emit(vertex(v), "R:" + std::to_string(1.0 / kVertices));
      out.emit(vertex(v), encode_links(out_links(v)));
    });

    for (int iter = 0; iter < kIterations; ++iter) {
      // Group (rank, links) per vertex, then scatter contributions. Note
      // the structural records travel through every collate — exactly the
      // re-shuffle of static data the chain's pinned statics avoid.
      mr.collate();
      mr.reduce([](std::string_view v, std::span<const std::string> records,
                   mapred::mrmpi::Emitter& out) {
        double rank = 0;
        std::vector<int> links;
        for (const auto& r : records) {
          if (r[0] == 'R') {
            rank += std::stod(r.substr(2));
          } else {
            links = decode_links(r);
          }
        }
        out.emit(v, encode_links(links));
        const double share =
            kDamping * rank / static_cast<double>(links.size());
        for (const int t : links) {
          out.emit(vertex(t), "R:" + std::to_string(share));
        }
        out.emit(v, "R:" + std::to_string((1.0 - kDamping) / kVertices));
      });
    }

    mr.collate();
    mr.reduce([](std::string_view v, std::span<const std::string> records,
                 mapred::mrmpi::Emitter& out) {
      double rank = 0;
      for (const auto& r : records) {
        if (r[0] == 'R') rank += std::stod(r.substr(2));
      }
      out.emit(v, std::to_string(rank));
    });

    const auto gathered = mr.gather(0);
    if (comm.rank() == 0) {
      for (const auto& [v, r] : gathered) ranks[v] = std::stod(r);
    }
  });
  return ranks;
}

}  // namespace

int main() {
  const auto chain = run_chain();
  const auto reference = run_mrmpi();

  double total = 0;
  double worst = 0;
  std::vector<std::pair<std::uint64_t, std::string>> top;
  for (const auto& [v, scaled] : chain) {
    const double rank = static_cast<double>(scaled) / kScale;
    total += rank;
    worst = std::max(worst, std::abs(rank - reference.at(v)));
    top.emplace_back(scaled, v);
  }
  std::sort(top.rbegin(), top.rend());

  std::printf("pagerank over %d vertices, %d chained rounds (4 partitions):\n",
              kVertices, kIterations);
  std::printf("  mass conservation: total rank = %.4f (expect ~1)\n", total);
  std::printf("  max |chain - mrmpi| = %.2e (integer truncation only)\n",
              worst);
  std::printf("  top 5:\n");
  for (int i = 0; i < 5; ++i) {
    const auto& [scaled, v] = top[static_cast<std::size_t>(i)];
    std::printf("    %-4s %.5f\n", v.c_str(),
                static_cast<double>(scaled) / kScale);
  }
  if (chain.size() != static_cast<std::size_t>(kVertices) || worst > 1e-4) {
    std::fprintf(stderr, "parity check failed\n");
    return 1;
  }
  return 0;
}
