#include "mpid/workloads/graph.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/prng.hpp"

namespace mpid::workloads {
namespace {

constexpr int kNameWidth = 6;
constexpr char kInf[] = "INF";
constexpr int kDistWidth = 10;
// Scaled-integer PageRank damping: new = (1-d)/N + d * sum, with d = 85/100.
constexpr std::uint64_t kDampNum = 85;
constexpr std::uint64_t kDampDen = 100;

std::string pad_number(std::uint64_t n, int width) {
  std::string s = std::to_string(n);
  if (static_cast<int>(s.size()) < width) {
    s.insert(0, static_cast<std::size_t>(width) - s.size(), '0');
  }
  return s;
}

std::string pad_dist(std::uint64_t d) { return pad_number(d, kDistWidth); }

struct Edge {
  std::string u;
  std::string v;
  std::uint64_t w;
};

std::vector<Edge> parse_edges(const std::string& text) {
  std::vector<Edge> edges;
  std::istringstream in(text);
  std::string u, v;
  std::uint64_t w;
  while (in >> u >> v >> w) edges.push_back({u, v, w});
  return edges;
}

/// "a|b" with a < b; empty for self-loops (callers skip those).
std::string edge_key(std::string_view a, std::string_view b) {
  if (a == b) return {};
  if (b < a) std::swap(a, b);
  std::string key(a);
  key += '|';
  key += b;
  return key;
}

void parse_line(std::string_view line, std::string& u, std::string& v,
                std::uint64_t& w) {
  const auto s1 = line.find(' ');
  const auto s2 = line.find(' ', s1 + 1);
  if (s1 == std::string_view::npos || s2 == std::string_view::npos) {
    throw std::invalid_argument("graph: malformed edge line");
  }
  u.assign(line.substr(0, s1));
  v.assign(line.substr(s1 + 1, s2 - s1 - 1));
  w = std::stoull(std::string(line.substr(s2 + 1)));
}

/// Shared min-propagation reduce for CC and SSSP: values are "=" + state
/// (the vertex's current label/distance, possibly duplicated) and ">" +
/// candidate (a propagated improvement). Order-insensitive by
/// construction — both folds are min().
void min_propagate_reduce(std::string_view key, std::vector<std::string>& values,
                          mapred::ChainReduceContext& ctx) {
  std::string_view old_state;
  std::string_view best;
  for (const auto& value : values) {
    const std::string_view payload(value.data() + 1, value.size() - 1);
    if (value[0] == '=') {
      if (old_state.empty() || payload < old_state) old_state = payload;
    }
    if (best.empty() || payload < best) best = payload;
  }
  if (old_state.empty()) {
    throw std::logic_error("graph: vertex lost its '=' state record");
  }
  ctx.emit(key, best);
  if (best < old_state) ctx.incr("changed");
}

}  // namespace

std::string vertex_name(int v) {
  return "v" + pad_number(static_cast<std::uint64_t>(v), kNameWidth);
}

std::string generate_graph(const GraphSpec& spec) {
  if (spec.vertices <= 1 || spec.components < 1 || spec.max_weight < 1) {
    throw std::invalid_argument("graph: degenerate GraphSpec");
  }
  const int components = std::min(spec.components, spec.vertices / 2);
  common::SplitMix64 rng(spec.seed);
  std::string text;
  // A spanning path per component first, so every vertex appears in at
  // least one edge and the "components" knob is a guarantee, not a hint
  // (vertex i lives in component i % components; the path links
  // consecutive members).
  for (int c = 0; c < components; ++c) {
    int prev = c;
    for (int v = c + components; v < spec.vertices; v += components) {
      text += vertex_name(prev) + " " + vertex_name(v) + " " +
              std::to_string(1 + rng() % spec.max_weight) + "\n";
      prev = v;
    }
  }
  for (int e = 0; e < spec.edges; ++e) {
    const int c = static_cast<int>(rng() % components);
    const int span = (spec.vertices - c + components - 1) / components;
    if (span < 2) continue;
    const int a = c + components * static_cast<int>(rng() % span);
    const int b = c + components * static_cast<int>(rng() % span);
    text += vertex_name(a) + " " + vertex_name(b) + " " +
            std::to_string(1 + rng() % spec.max_weight) + "\n";
  }
  return text;
}

mapred::KvVec adjacency_static(const std::string& edge_text, bool weighted) {
  mapred::KvVec statics;
  for (const auto& edge : parse_edges(edge_text)) {
    if (edge.u == edge.v) continue;
    if (weighted) {
      const std::string w = pad_number(edge.w, 2);
      statics.emplace_back(edge.u, edge.v + "|" + w);
      statics.emplace_back(edge.v, edge.u + "|" + w);
    } else {
      statics.emplace_back(edge.u, edge.v);
      statics.emplace_back(edge.v, edge.u);
    }
  }
  return statics;
}

mapred::ChainJob cc_job(const std::string& edge_text, int max_rounds) {
  mapred::ChainJob job;
  job.static_input = adjacency_static(edge_text, /*weighted=*/false);
  // Round 1 folds the first propagation hop into ingest (each endpoint
  // hears the other's label), so "changed" is live from the start.
  job.ingest = [](std::string_view line, mapred::MapContext& ctx) {
    std::string u, v;
    std::uint64_t w;
    parse_line(line, u, v, w);
    ctx.emit(u, "=" + u);
    ctx.emit(v, "=" + v);
    if (u != v) {
      ctx.emit(u, ">" + v);
      ctx.emit(v, ">" + u);
    }
  };
  mapred::ChainStage propagate;
  propagate.name = "cc-propagate";
  propagate.map = [](std::string_view key, std::string_view label,
                     mapred::ChainMapContext& ctx) {
    ctx.emit(key, std::string("=") += label);
    const std::string msg = std::string(">") += label;
    for (const auto& n : ctx.statics(key)) ctx.emit(n, msg);
  };
  propagate.reduce = min_propagate_reduce;
  propagate.max_rounds = max_rounds;
  propagate.until = [](const mapred::RoundCounters& c) {
    return c.value("changed") == 0;
  };
  job.stages.push_back(std::move(propagate));
  return job;
}

mapred::ChainJob sssp_job(const std::string& edge_text,
                          const std::string& source, int max_rounds) {
  mapred::ChainJob job;
  job.static_input = adjacency_static(edge_text, /*weighted=*/true);
  job.ingest = [source](std::string_view line, mapred::MapContext& ctx) {
    std::string u, v;
    std::uint64_t w;
    parse_line(line, u, v, w);
    ctx.emit(u, u == source ? "=" + pad_dist(0) : std::string("=") + kInf);
    ctx.emit(v, v == source ? "=" + pad_dist(0) : std::string("=") + kInf);
    // First relaxation hop, so a no-op round 1 can't stop the chain
    // before anything left the source.
    if (u != v) {
      if (u == source) ctx.emit(v, ">" + pad_dist(w));
      if (v == source) ctx.emit(u, ">" + pad_dist(w));
    }
  };
  mapred::ChainStage relax;
  relax.name = "sssp-relax";
  relax.map = [](std::string_view key, std::string_view dist,
                 mapred::ChainMapContext& ctx) {
    ctx.emit(key, std::string("=") += dist);
    if (dist == kInf) return;
    const std::uint64_t d = std::stoull(std::string(dist));
    for (const auto& entry : ctx.statics(key)) {
      const auto bar = entry.rfind('|');
      const std::uint64_t w = std::stoull(entry.substr(bar + 1));
      ctx.emit(std::string_view(entry).substr(0, bar), ">" + pad_dist(d + w));
    }
  };
  relax.reduce = min_propagate_reduce;
  relax.max_rounds = max_rounds;
  relax.until = [](const mapred::RoundCounters& c) {
    return c.value("changed") == 0;
  };
  job.stages.push_back(std::move(relax));
  return job;
}

mapred::ChainJob triangle_job(const std::string& edge_text) {
  (void)edge_text;  // the edge list arrives as run input; no static channel
  mapred::ChainJob job;
  job.ingest = [](std::string_view line, mapred::MapContext& ctx) {
    std::string u, v;
    std::uint64_t w;
    parse_line(line, u, v, w);
    const std::string key = edge_key(u, v);
    if (!key.empty()) ctx.emit(key, "E");
  };

  // Stage 1: collapse duplicate edges to one "E" record per "a|b".
  mapred::ChainStage dedup;
  dedup.name = "tri-dedup";
  dedup.reduce = [](std::string_view key, std::vector<std::string>&,
                    mapred::ChainReduceContext& ctx) { ctx.emit(key, "E"); };
  job.stages.push_back(std::move(dedup));

  // Stage 2: route each edge to its smaller endpoint (and keep the edge
  // record flowing); the endpoint emits one wedge "b|c" per sorted
  // neighbor pair — the two sides a triangle through apex a must close.
  mapred::ChainStage wedges;
  wedges.name = "tri-wedges";
  wedges.map = [](std::string_view key, std::string_view value,
                  mapred::ChainMapContext& ctx) {
    const auto bar = key.find('|');
    ctx.emit(key.substr(0, bar), key.substr(bar + 1));
    ctx.emit(key, value);
  };
  wedges.reduce = [](std::string_view key, std::vector<std::string>& values,
                     mapred::ChainReduceContext& ctx) {
    if (key.find('|') != std::string_view::npos) {
      ctx.emit(key, "E");
      return;
    }
    std::sort(values.begin(), values.end());
    for (std::size_t i = 0; i < values.size(); ++i) {
      for (std::size_t j = i + 1; j < values.size(); ++j) {
        ctx.emit(values[i] + "|" + values[j], "W");
      }
    }
  };
  job.stages.push_back(std::move(wedges));

  // Stage 3: a wedge whose far side is a real edge is a triangle.
  mapred::ChainStage close;
  close.name = "tri-close";
  close.map = [](std::string_view key, std::string_view value,
                 mapred::ChainMapContext& ctx) { ctx.emit(key, value); };
  close.reduce = [](std::string_view key, std::vector<std::string>& values,
                    mapred::ChainReduceContext& ctx) {
    bool is_edge = false;
    std::uint64_t wedge_count = 0;
    for (const auto& value : values) {
      if (value == "E") is_edge = true;
      if (value == "W") ++wedge_count;
    }
    if (is_edge && wedge_count > 0) {
      ctx.emit(key, std::to_string(wedge_count));
      ctx.incr("triangles", wedge_count);
    }
  };
  job.stages.push_back(std::move(close));
  return job;
}

mapred::ChainJob pagerank_job(const std::string& edge_text, int rounds,
                              int vertex_count) {
  if (rounds < 1 || vertex_count < 1) {
    throw std::invalid_argument("pagerank: rounds and vertex_count >= 1");
  }
  mapred::ChainJob job;
  job.static_input = adjacency_static(edge_text, /*weighted=*/false);
  const std::uint64_t n = static_cast<std::uint64_t>(vertex_count);
  const std::uint64_t base = (kRankScale - kDampNum * kRankScale / kDampDen) / n;
  job.ingest = [](std::string_view line, mapred::MapContext& ctx) {
    std::string u, v;
    std::uint64_t w;
    parse_line(line, u, v, w);
    ctx.emit(u, "R");
    ctx.emit(v, "R");
  };
  mapred::ChainStage iterate;
  iterate.name = "pagerank";
  iterate.map = [](std::string_view key, std::string_view rank,
                   mapred::ChainMapContext& ctx) {
    ctx.emit(key, "=");
    if (rank == "R") return;  // round 1: init markers carry no mass
    const auto neighbors = ctx.statics(key);
    if (neighbors.empty()) return;
    const std::uint64_t share =
        std::stoull(std::string(rank)) / neighbors.size();
    const std::string msg = ">" + std::to_string(share);
    for (const auto& n : neighbors) ctx.emit(n, msg);
  };
  iterate.reduce = [base, n](std::string_view key,
                             std::vector<std::string>& values,
                             mapred::ChainReduceContext& ctx) {
    bool init = false;
    std::uint64_t sum = 0;
    for (const auto& value : values) {
      if (value == "R") init = true;
      if (value[0] == '>') sum += std::stoull(value.substr(1));
    }
    if (init) {
      ctx.emit(key, std::to_string(kRankScale / n));
      return;
    }
    ctx.emit(key, std::to_string(base + kDampNum * sum / kDampDen));
  };
  // Round 1 only seeds uniform ranks, so `rounds` iterations need
  // rounds + 1 chain rounds.
  iterate.max_rounds = rounds + 1;
  job.stages.push_back(std::move(iterate));
  return job;
}

mapred::KvVec cc_reference(const std::string& edge_text) {
  const auto edges = parse_edges(edge_text);
  std::map<std::string, std::string> parent;
  for (const auto& e : edges) {
    parent.emplace(e.u, e.u);
    parent.emplace(e.v, e.v);
  }
  auto find = [&parent](std::string v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const auto& e : edges) {
    // Union by name: the lexicographically smaller root wins, matching
    // the chain's min-label fixpoint.
    std::string ru = find(e.u), rv = find(e.v);
    if (ru != rv) (rv < ru ? parent[ru] : parent[rv]) = std::min(ru, rv);
  }
  mapred::KvVec out;
  for (const auto& [v, _] : parent) out.emplace_back(v, find(v));
  std::sort(out.begin(), out.end());
  return out;
}

mapred::KvVec sssp_reference(const std::string& edge_text,
                             const std::string& source) {
  const auto edges = parse_edges(edge_text);
  std::map<std::string, std::vector<std::pair<std::string, std::uint64_t>>> adj;
  for (const auto& e : edges) {
    adj[e.u];
    adj[e.v];
    if (e.u == e.v) continue;
    adj[e.u].emplace_back(e.v, e.w);
    adj[e.v].emplace_back(e.u, e.w);
  }
  std::map<std::string, std::uint64_t> dist;
  using Item = std::pair<std::uint64_t, std::string>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  if (adj.count(source) != 0) {
    dist[source] = 0;
    heap.emplace(0, source);
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;
    for (const auto& [n, w] : adj[v]) {
      const std::uint64_t nd = d + w;
      auto it = dist.find(n);
      if (it == dist.end() || nd < it->second) {
        dist[n] = nd;
        heap.emplace(nd, n);
      }
    }
  }
  mapred::KvVec out;
  for (const auto& [v, _] : adj) {
    const auto it = dist.find(v);
    out.emplace_back(v, it == dist.end() ? kInf : pad_dist(it->second));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t triangle_reference(const std::string& edge_text) {
  std::set<std::string> edges;
  std::map<std::string, std::vector<std::string>> up;  // smaller -> larger
  for (const auto& e : parse_edges(edge_text)) {
    const std::string key = edge_key(e.u, e.v);
    if (key.empty() || !edges.insert(key).second) continue;
    const auto bar = key.find('|');
    up[key.substr(0, bar)].push_back(key.substr(bar + 1));
  }
  std::uint64_t triangles = 0;
  for (auto& [_, neighbors] : up) {
    std::sort(neighbors.begin(), neighbors.end());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        if (edges.count(neighbors[i] + "|" + neighbors[j]) != 0) ++triangles;
      }
    }
  }
  return triangles;
}

mapred::KvVec pagerank_reference(const std::string& edge_text, int rounds,
                                 int vertex_count) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& e : parse_edges(edge_text)) {
    adj[e.u];
    adj[e.v];
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  const std::uint64_t n = static_cast<std::uint64_t>(vertex_count);
  const std::uint64_t base = (kRankScale - kDampNum * kRankScale / kDampDen) / n;
  std::map<std::string, std::uint64_t> rank;
  for (const auto& [v, _] : adj) rank[v] = kRankScale / n;
  for (int r = 0; r < rounds; ++r) {
    std::map<std::string, std::uint64_t> sums;
    for (const auto& [v, _] : adj) sums[v] = 0;
    for (const auto& [v, neighbors] : adj) {
      if (neighbors.empty()) continue;
      const std::uint64_t share = rank[v] / neighbors.size();
      for (const auto& nb : neighbors) sums[nb] += share;
    }
    for (auto& [v, value] : rank) value = base + kDampNum * sums[v] / kDampDen;
  }
  mapred::KvVec out;
  for (const auto& [v, value] : rank) {
    out.emplace_back(v, std::to_string(value));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mpid::workloads
