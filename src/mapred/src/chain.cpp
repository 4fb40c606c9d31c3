#include "mpid/mapred/chain.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "mpid/common/hash.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/shuffle/partition.hpp"
#include "tasks.hpp"

namespace mpid::mapred {

namespace {

std::uint64_t kv_bytes(const KvPair& p) noexcept {
  return static_cast<std::uint64_t>(p.first.size() + p.second.size());
}

}  // namespace

// ------------------------------------------------------------ StaticTables --

std::size_t StaticTables::Table::locate(std::string_view key,
                                        std::uint64_t hash) const {
  // Fibonacci hashing moves every bit of the hash into the top bits, so
  // the home slot stays uniform although the default partitioner fixes
  // hash % partitions for every key of one table.
  const int shift = 64 - std::countr_zero(index.size());
  const std::size_t mask = index.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  for (std::size_t pos = (hash * 0x9e3779b97f4a7c15ULL) >> shift;;
       pos = (pos + 1) & mask) {
    const Slot& slot = index[pos];
    if (slot.entry == 0) return pos;
    if (slot.tag != tag) continue;
    const Entry& e = entries[slot.entry - 1];
    if (std::string_view(keys).substr(e.key_offset, e.key_size) == key) {
      return pos;
    }
  }
}

StaticTables::StaticTables(const KvVec& static_input, int partitions,
                           const core::Partitioner& partitioner) {
  if (partitions < 1) {
    throw std::invalid_argument("StaticTables: need >= 1 partition");
  }
  const std::size_t n = static_input.size();
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("StaticTables: too many static pairs");
  }
  tables_.resize(static_cast<std::size_t>(partitions));
  const shuffle::Partitioner part(static_cast<std::uint32_t>(partitions),
                                  partitioner);

  // Pass 1: hash each key once (the default partitioner reuses the hash)
  // and count each partition's pairs.
  std::vector<std::uint64_t> hashes(n);
  std::vector<std::uint32_t> owner(n);
  std::vector<std::size_t> pairs(tables_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [key, value] = static_input[i];
    hashes[i] = common::fnv1a64(key);
    owner[i] = part.of_hashed(key, hashes[i]);
    ++pairs[owner[i]];
    tables_[owner[i]].bytes += key.size() + value.size();
    total_bytes_ += key.size() + value.size();
  }
  // An index of slots_for(n) slots holding n keys is at most two-thirds
  // full, so a probe always reaches an empty slot.
  const auto slots_for = [](std::size_t keys) {
    return std::bit_ceil(keys * 3 / 2 + 1);
  };
  for (std::size_t p = 0; p < tables_.size(); ++p) {
    // The pair count bounds the distinct keys.
    if (pairs[p] > 0) tables_[p].index.resize(slots_for(pairs[p]));
  }

  // Pass 2: find or add each key's entry and count its values.
  std::vector<std::uint32_t> entry_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& key = static_input[i].first;
    Table& t = tables_[owner[i]];
    Slot& slot = t.index[t.locate(key, hashes[i])];
    if (slot.entry == 0) {
      t.entries.push_back(
          {.key_offset = t.keys.size(), .key_size = key.size()});
      t.keys += key;
      slot = {.tag = static_cast<std::uint32_t>(hashes[i] >> 32),
              .entry = static_cast<std::uint32_t>(t.entries.size())};
    }
    entry_of[i] = slot.entry - 1;
    ++t.entries[entry_of[i]].value_count;
  }
  hashes = {};  // not needed past this point; lowers the build's peak

  // Re-index each table for its distinct keys, which are usually far
  // fewer than its pairs: the pinned index then stays small and cached.
  for (Table& t : tables_) {
    if (t.entries.empty()) continue;
    t.index = std::vector<Slot>(slots_for(t.entries.size()));
    for (std::size_t e = 0; e < t.entries.size(); ++e) {
      const auto key = std::string_view(t.keys).substr(
          t.entries[e].key_offset, t.entries[e].key_size);
      const std::uint64_t hash = common::fnv1a64(key);
      t.index[t.locate(key, hash)] = {
          .tag = static_cast<std::uint32_t>(hash >> 32),
          .entry = static_cast<std::uint32_t>(e + 1)};
    }
  }

  // Pass 3: lay each key's run out behind the previous key's, then copy
  // the values in, so each run keeps input order.
  for (Table& t : tables_) {
    std::uint32_t next = 0;
    for (Entry& e : t.entries) {
      e.first_value = next;
      next += e.value_count;
      e.value_count = 0;
    }
    t.values.resize(next);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Table& t = tables_[owner[i]];
    Entry& e = t.entries[entry_of[i]];
    t.values[e.first_value + e.value_count++] = static_input[i].second;
  }
}

std::span<const std::string> StaticTables::find(int partition,
                                                std::string_view key) const {
  if (partition < 0 ||
      static_cast<std::size_t>(partition) >= tables_.size()) {
    return {};
  }
  const Table& t = tables_[static_cast<std::size_t>(partition)];
  if (t.index.empty()) return {};
  const Slot& slot = t.index[t.locate(key, common::fnv1a64(key))];
  if (slot.entry == 0) return {};
  const Entry& e = t.entries[slot.entry - 1];
  return {t.values.data() + e.first_value, e.value_count};
}

std::uint64_t StaticTables::partition_bytes(int partition) const {
  if (partition < 0 ||
      static_cast<std::size_t>(partition) >= tables_.size()) {
    return 0;
  }
  return tables_[static_cast<std::size_t>(partition)].bytes;
}

// ------------------------------------------------------- ResidentPartition --

namespace {

/// Record framing of a spilled resident partition: u32 key length, u32
/// value length, key bytes, value bytes — repeated to end of file.
void write_record(std::ofstream& out, std::string_view k,
                  std::string_view v) {
  const std::uint32_t kl = static_cast<std::uint32_t>(k.size());
  const std::uint32_t vl = static_cast<std::uint32_t>(v.size());
  out.write(reinterpret_cast<const char*>(&kl), sizeof(kl));
  out.write(reinterpret_cast<const char*>(&vl), sizeof(vl));
  out.write(k.data(), static_cast<std::streamsize>(k.size()));
  out.write(v.data(), static_cast<std::streamsize>(v.size()));
}

bool read_record(std::ifstream& in, std::string& k, std::string& v) {
  std::uint32_t kl = 0;
  std::uint32_t vl = 0;
  if (!in.read(reinterpret_cast<char*>(&kl), sizeof(kl))) return false;
  if (!in.read(reinterpret_cast<char*>(&vl), sizeof(vl))) {
    throw std::runtime_error(
        "ResidentPartition: truncated spill record header");
  }
  k.resize(kl);
  v.resize(vl);
  if ((kl > 0 && !in.read(k.data(), kl)) ||
      (vl > 0 && !in.read(v.data(), vl))) {
    throw std::runtime_error("ResidentPartition: truncated spill record");
  }
  return true;
}

}  // namespace

void ResidentPartition::seal(KvVec pairs, store::MemoryBudget* budget,
                             const std::string& spill_dir) {
  clear();
  // The determinism rule: a partition seals sorted by (key, value), so
  // the next round's map input order is a pure function of this round's
  // output multiset — identical across runtimes and thread counts.
  detail::sort_run(pairs);
  pair_count_ = pairs.size();
  byte_count_ = 0;
  for (const auto& p : pairs) byte_count_ += kv_bytes(p);

  store::Reservation reservation(budget);
  if (reservation.try_grow(static_cast<std::size_t>(byte_count_))) {
    reservation_ = std::move(reservation);
    pairs_ = std::move(pairs);
    return;
  }
  // Budget refused: demote the sealed pairs to the slow tier. The spill
  // keeps residency honest under a hard cap — the chain still never
  // re-shuffles, it just streams the partition back from disk.
  if (spill_dir.empty()) {
    throw std::runtime_error(
        "ResidentPartition: memory budget refused the sealed partition "
        "and no spill_dir is configured");
  }
  auto file = store::SpillFile::create(spill_dir, "resident");
  {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("ResidentPartition: cannot open spill file " +
                               file.path());
    }
    for (const auto& [k, v] : pairs) write_record(out, k, v);
    out.flush();
    if (!out) {
      throw std::runtime_error("ResidentPartition: spill write failed to " +
                               file.path());
    }
  }
  file_ = std::move(file);
}

void ResidentPartition::clear() {
  pairs_.clear();
  pairs_.shrink_to_fit();
  reservation_.reset();
  file_.reset();
  pair_count_ = 0;
  byte_count_ = 0;
}

void ResidentPartition::for_each(
    const std::function<void(std::string_view, std::string_view)>& fn)
    const {
  if (!file_) {
    for (const auto& [k, v] : pairs_) fn(k, v);
    return;
  }
  std::ifstream in(file_->path(), std::ios::binary);
  if (!in) {
    throw std::runtime_error("ResidentPartition: cannot reopen spill file " +
                             file_->path());
  }
  std::string k;
  std::string v;
  while (read_record(in, k, v)) fn(k, v);
}

KvVec ResidentPartition::load() const {
  if (!file_) return pairs_;
  KvVec out;
  out.reserve(static_cast<std::size_t>(pair_count_));
  for_each([&out](std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v));
  });
  return out;
}

KvVec ResidentPartition::take() {
  KvVec out = file_ ? load() : std::move(pairs_);
  clear();
  return out;
}

// ------------------------------------------------------------ chain_detail --

namespace chain_detail {

bool advance_plan(const ChainJob& job, PlanCursor& cur,
                  const RoundCounters& counters) {
  const ChainStage& stage = job.stages[cur.stage];
  const bool stage_done = cur.round_in_stage >= stage.max_rounds ||
                          (stage.until && stage.until(counters));
  if (!stage_done) {
    ++cur.round_in_stage;
    return true;
  }
  if (cur.stage + 1 < job.stages.size()) {
    ++cur.stage;
    cur.round_in_stage = 1;
    return true;
  }
  return false;
}

bool statically_last(const ChainJob& job, const PlanCursor& cur) {
  return cur.stage + 1 == job.stages.size() &&
         cur.round_in_stage >= job.stages[cur.stage].max_rounds;
}

int total_max_rounds(const ChainJob& job) {
  int total = 0;
  for (const auto& stage : job.stages) total += stage.max_rounds;
  return total;
}

void validate_job(const ChainJob& job) {
  if (!job.ingest) {
    throw std::invalid_argument("ChainJob: ingest must be set");
  }
  if (job.stages.empty()) {
    throw std::invalid_argument("ChainJob: need >= 1 stage");
  }
  for (std::size_t s = 0; s < job.stages.size(); ++s) {
    const auto& stage = job.stages[s];
    if (!stage.reduce) {
      throw std::invalid_argument("ChainJob: stage " + std::to_string(s) +
                                  " has no reduce");
    }
    // Stage 0's first round maps through ingest; a single-round stage 0
    // therefore never calls its map.
    if (!stage.map && !(s == 0 && stage.max_rounds == 1)) {
      throw std::invalid_argument("ChainJob: stage " + std::to_string(s) +
                                  " has no map");
    }
    if (stage.max_rounds < 1) {
      throw std::invalid_argument("ChainJob: stage " + std::to_string(s) +
                                  " needs max_rounds >= 1");
    }
  }
  if (job.tuning.combiner) {
    throw std::invalid_argument(
        "ChainJob: combiners are not supported inside chains (stage maps "
        "differ per round; a chain-wide combiner would be wrong for at "
        "least one of them)");
  }
}

}  // namespace chain_detail

// ------------------------------------------------------------ the executor --

namespace {

using chain_detail::PlanCursor;

/// Shared cross-rank state of one chained run. All mutation happens
/// either under `mu` (round counters, per-round resident totals) or on a
/// partition slot owned by exactly one reducer rank, read by exactly one
/// mapper rank strictly after the next round barrier (the barrier's
/// done/ack handshake is the happens-before edge).
struct ChainState {
  ChainState(const ChainJob& job, int partitions, const core::Config& config);

  /// Drops the per-round slots past the `rounds` that ran.
  void trim(std::size_t rounds);

  std::mutex mu;
  std::vector<RoundCounters> round_counters;  // by global round - 1
  std::vector<std::uint64_t> resident_pairs;  // by global round - 1
  std::vector<std::uint64_t> resident_bytes;
  /// What the resident partitions charge: the job's shared budget when one
  /// exists, a chain-local arbiter when only a byte cap was given, else
  /// nothing. Declared before `resident`, so it outlives their charges.
  std::shared_ptr<store::MemoryBudget> resident_budget;
  std::vector<ResidentPartition> resident;  // by partition
  const StaticTables* statics = nullptr;
  std::string spill_dir;
};

ChainState::ChainState(const ChainJob& job, int partitions,
                       const core::Config& config)
    : resident_budget(config.memory_budget), spill_dir(config.spill_dir) {
  const auto rounds =
      static_cast<std::size_t>(chain_detail::total_max_rounds(job));
  round_counters.resize(rounds);
  resident_pairs.assign(rounds, 0);
  resident_bytes.assign(rounds, 0);
  resident.resize(static_cast<std::size_t>(partitions));
  if (!resident_budget && config.memory_budget_bytes > 0) {
    resident_budget =
        std::make_shared<store::MemoryBudget>(config.memory_budget_bytes);
  }
}

void ChainState::trim(std::size_t rounds) {
  round_counters.resize(rounds);
  resident_pairs.resize(rounds);
  resident_bytes.resize(rounds);
}

/// Runs the map side of one round on mapper rank `p`. Round 1 maps the
/// external `input` through job.ingest (`input` is null on later
/// rounds); later rounds map this partition's resident pairs through the
/// current stage's map. Chain accounting accumulates into `acc`.
/// `map_ticks` is run_map_task's chain-wide crash-tick carry.
void run_map_side(core::MpiD& mpid, const ChainJob& job,
                  const PlanCursor& cur, int round, int p,
                  detail::MapInput* input, const ResidentPartition& resident,
                  const StaticTables* statics, shuffle::ShuffleCounters& acc,
                  std::uint64_t* map_ticks) {
  if (input != nullptr) {
    std::vector<std::string> split;
    detail::run_map_task(mpid, job.tuning,
                         detail::input_map_task(*input, job.ingest, p, split,
                                                &acc.ingest_bytes),
                         map_ticks);
    return;
  }
  // Resident round: this partition's sealed pairs are the map input, in
  // place — no re-ingest, no DFS round trip.
  acc.resident_pairs_in += resident.pair_count();
  acc.resident_bytes_in += resident.byte_count();
  const ChainStage& stage = job.stages[cur.stage];
  KvVec pairs;
  detail::MapTask task;
  task.stream = [&](const detail::Emit& emit) {
    ChainMapContext ctx(emit, statics, p, round);
    resident.for_each([&](std::string_view k, std::string_view v) {
      stage.map(k, v, ctx);
    });
  };
  // The seal order is deterministic, so the chunk boundaries — and the
  // shipped bytes — are identical at every thread count.
  task.load = [&] {
    pairs = resident.load();
    return pairs.size();
  };
  task.map_range = [&](std::size_t lo, std::size_t hi,
                       const detail::Emit& emit,
                       const std::function<void()>& tick) {
    ChainMapContext ctx(emit, statics, p, round);
    for (std::size_t i = lo; i < hi; ++i) {
      tick();
      stage.map(pairs[i].first, pairs[i].second, ctx);
    }
  };
  detail::run_map_task(mpid, job.tuning, task, map_ticks);
}

/// One rank's share of one round: a mapper maps; a reducer merges the
/// shuffle, reduces in key order, seals its next resident partition and
/// folds the round's counters. `live` false marks the empty teardown
/// round a converged chain ends with — the mappers still seal their
/// lanes at the barrier, so the reducers drain the empty shuffle, but
/// nothing maps or seals.
void run_round(core::MpiD& mpid, ChainState& state, const ChainJob& job,
               const PlanCursor& cur, int round,
               std::vector<detail::MapInput>& inputs, bool live,
               std::uint64_t* map_ticks) {
  switch (mpid.role()) {
    case core::Role::kMapper: {
      if (!live) return;
      const int p = mpid.mapper_index();
      const auto slot = static_cast<std::size_t>(p);
      shuffle::ShuffleCounters acc;
      run_map_side(mpid, job, cur, round, p,
                   round == 1 ? &inputs[slot] : nullptr, state.resident[slot],
                   state.statics, acc, map_ticks);
      mpid.fold_counters(acc);
      return;
    }
    case core::Role::kReducer: {
      const int p = mpid.reducer_index();
      detail::ReduceTask task(mpid, job.tuning);
      task.collect();
      ChainReduceContext ctx(state.statics, p, round);
      task.reduce([&](std::string_view key, std::vector<std::string>& values) {
        job.stages[cur.stage].reduce(key, values, ctx);
      });
      if (!live) return;
      auto& part = state.resident[static_cast<std::size_t>(p)];
      part.seal(ctx.take_emitted(), state.resident_budget.get(),
                state.spill_dir);
      shuffle::ShuffleCounters acc;
      if (state.statics != nullptr && round == 1) {
        // Pinned once, never realigned again.
        acc.static_bytes_pinned = state.statics->partition_bytes(p);
      }
      if (part.spilled()) acc.resident_bytes_spilled = part.byte_count();
      mpid.fold_counters(acc);
      const auto r = static_cast<std::size_t>(round - 1);
      std::lock_guard lock(state.mu);
      state.round_counters[r].merge(ctx.counters());
      state.resident_pairs[r] += part.pair_count();
      state.resident_bytes[r] += part.byte_count();
      return;
    }
    case core::Role::kMaster:
      return;
  }
}

/// Reads the aggregated counters of `global_round` and advances the plan
/// cursor; pure given the chain state, so every rank decides alike.
bool decide_next(ChainState& state, const ChainJob& job, PlanCursor& cur,
                 int global_round) {
  std::lock_guard lock(state.mu);
  return chain_detail::advance_plan(
      job, cur, state.round_counters[static_cast<std::size_t>(global_round - 1)]);
}

ChainResult assemble_result(ChainState& state, const ChainJob& job,
                            core::JobReport report) {
  ChainResult result;
  result.report = std::move(report);
  // Replay the plan against the aggregated counters to label each work
  // round with its stage.
  PlanCursor cur;
  for (std::size_t r = 0; r < state.round_counters.size(); ++r) {
    RoundReport rr;
    rr.stage = static_cast<int>(cur.stage);
    rr.round_in_stage = cur.round_in_stage;
    rr.counters = state.round_counters[r];
    rr.resident_pairs_out = state.resident_pairs[r];
    rr.resident_bytes_out = state.resident_bytes[r];
    result.rounds.push_back(std::move(rr));
    if (!chain_detail::advance_plan(job, cur, state.round_counters[r])) break;
  }
  // Final outputs: the last round's resident partitions, each sealed
  // sorted, merged into the JobResult order. Pairs move end to end —
  // reducer emit -> seal -> here.
  std::vector<KvVec> runs;
  runs.reserve(state.resident.size());
  for (auto& part : state.resident) runs.push_back(part.take());
  result.outputs = detail::merge_runs(std::move(runs));
  return result;
}

/// JobChain::run over `inputs`, one per partition.
ChainResult run_chained(const ChainJob& job, int partitions,
                        std::vector<detail::MapInput> inputs) {
  chain_detail::validate_job(job);
  if (inputs.size() != static_cast<std::size_t>(partitions)) {
    throw std::invalid_argument("JobChain: need one input per partition");
  }

  core::Config config = job.tuning;
  config.mappers = partitions;
  config.reducers = partitions;
  config.sort_keys = true;  // every reduce runs the merge phase
  // Budget for every barrier the plan can reach: each stage's round
  // allowance plus the empty teardown barrier an early-converged chain
  // needs (the stop decision is only known after the round it stops at).
  config.resident_rounds =
      static_cast<std::size_t>(chain_detail::total_max_rounds(job)) + 1;
  config.validate();

  ChainState state(job, partitions, config);
  // The static channel: realigned once, before the world starts, pinned
  // for every round.
  const StaticTables statics(job.static_input, partitions,
                             config.partitioner);
  state.statics = job.static_input.empty() ? nullptr : &statics;

  core::JobReport report;
  minimpi::run_world(config.world_size(), [&](minimpi::Comm& comm) {
    core::MpiD mpid(comm, config);
    PlanCursor cur;
    bool live = true;  // false: the next barrier is the empty teardown
    std::uint64_t map_ticks = 0;  // this rank's map attempt, chain-wide
    for (int round = 1;; ++round) {
      run_round(mpid, state, job, cur, round, inputs, live, &map_ticks);
      if (!live || chain_detail::statically_last(job, cur)) break;
      mpid.next_round();
      live = decide_next(state, job, cur, round);
    }
    mpid.finalize();
    if (mpid.role() == core::Role::kMaster) report = mpid.report();
  });

  // Trim counter slots of rounds that never ran (early convergence).
  PlanCursor cur;
  std::size_t ran = 1;
  while (ran < state.round_counters.size() &&
         chain_detail::advance_plan(
             job, cur, state.round_counters[ran - 1])) {
    ++ran;
  }
  state.trim(ran);
  return assemble_result(state, job, std::move(report));
}

}  // namespace

// --------------------------------------------------------------- JobChain --

JobChain::JobChain(int partitions) : partitions_(partitions) {
  if (partitions < 1) {
    throw std::invalid_argument("JobChain: need >= 1 partition");
  }
}

ChainResult JobChain::run(const ChainJob& job,
                          std::vector<RecordSource> inputs) const {
  return run_chained(job, partitions_,
                     detail::source_inputs(std::move(inputs)));
}

ChainResult JobChain::run_on_text(const ChainJob& job,
                                  std::string_view text) const {
  return run_chained(job, partitions_, detail::text_inputs(text, partitions_));
}

}  // namespace mpid::mapred
