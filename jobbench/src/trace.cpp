#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace jobbench {

namespace {

std::atomic<std::uint64_t> next_generation{1};

/// The calling thread's log of the current job. A generation number (not
/// the JobTrace address, which a later job may reuse) identifies the job.
struct LocalCache {
  std::uint64_t generation = 0;
  ThreadLog* log = nullptr;
};
thread_local LocalCache local_cache;

/// What an emit sink needs, behind one pointer so the std::function that
/// carries it stays in its small-object buffer (no allocation per record).
template <typename Context>
struct EmitTap {
  Context* ctx;
  Slot* slot;
  const JobTrace* trace;

  void operator()(std::string_view key, std::string_view value) const {
    const auto start = trace->now_ns();
    ctx->emit(key, value);
    slot->emit_ns += trace->now_ns() - start;
    ++slot->emits;
  }
};

}  // namespace

JobTrace::JobTrace()
    : start_(Clock::now()), generation_(next_generation.fetch_add(1)) {}

ThreadLog& JobTrace::local() {
  if (local_cache.generation != generation_) {
    std::lock_guard lock(mu_);
    ThreadLog& log = logs_.emplace_back();
    log.thread = static_cast<int>(logs_.size()) - 1;
    local_cache = {generation_, &log};
  }
  return *local_cache.log;
}

Slot& JobTrace::slot(Role role, int index, int round) {
  ThreadLog& log = local();
  auto matches = [&](const Slot& s) {
    return s.role == role && s.index == index && s.round == round;
  };
  if (log.current < log.slots.size() && matches(log.slots[log.current])) {
    return log.slots[log.current];
  }
  const auto it = std::find_if(log.slots.begin(), log.slots.end(), matches);
  if (it != log.slots.end()) {
    log.current = static_cast<std::size_t>(it - log.slots.begin());
  } else {
    log.current = log.slots.size();
    log.slots.push_back(Slot{.role = role, .index = index, .round = round});
  }
  return log.slots[log.current];
}

mapred::MapFn traced_map(mapred::MapFn fn, JobTrace* trace) {
  return [fn = std::move(fn), trace](std::string_view record,
                                     mapred::MapContext& ctx) {
    Slot& slot = trace->slot(Role::kMap, ctx.mapper_index(), 1);
    const auto start = trace->now_ns();
    const EmitTap<mapred::MapContext> tap{&ctx, &slot, trace};
    mapred::MapContext inner(
        [&tap](std::string_view k, std::string_view v) { tap(k, v); },
        ctx.mapper_index());
    fn(record, inner);
    slot.record(start, trace->now_ns());
  };
}

mapred::ReduceFn traced_reduce(mapred::ReduceFn fn, JobTrace* trace) {
  return [fn = std::move(fn), trace](std::string_view key,
                                     std::span<const std::string> values,
                                     mapred::ReduceContext& ctx) {
    Slot& slot = trace->slot(Role::kReduce, ctx.reducer_index(), 1);
    const auto start = trace->now_ns();
    fn(key, values, ctx);
    slot.record(start, trace->now_ns());
  };
}

shuffle::Combiner traced_combiner(shuffle::Combiner fn, JobTrace* trace) {
  return [fn = std::move(fn), trace](std::string_view key,
                                     std::vector<std::string>&& values) {
    ThreadLog& log = trace->local();
    const auto start = trace->now_ns();
    auto out = fn(key, std::move(values));
    log.combine_ns += trace->now_ns() - start;
    ++log.combines;
    return out;
  };
}

mapred::ChainMapFn traced_chain_map(mapred::ChainMapFn fn, JobTrace* trace,
                                    const mapred::StaticTables* statics) {
  return [fn = std::move(fn), trace, statics](
             std::string_view key, std::string_view value,
             mapred::ChainMapContext& ctx) {
    Slot& slot = trace->slot(Role::kMap, ctx.partition(), ctx.round());
    const auto start = trace->now_ns();
    const EmitTap<mapred::ChainMapContext> tap{&ctx, &slot, trace};
    mapred::ChainMapContext inner(
        [&tap](std::string_view k, std::string_view v) { tap(k, v); },
        statics, ctx.partition(), ctx.round());
    fn(key, value, inner);
    slot.record(start, trace->now_ns());
  };
}

mapred::ChainReduceFn traced_chain_reduce(mapred::ChainReduceFn fn,
                                          JobTrace* trace) {
  return [fn = std::move(fn), trace](std::string_view key,
                                     std::vector<std::string>& values,
                                     mapred::ChainReduceContext& ctx) {
    Slot& slot = trace->slot(Role::kReduce, ctx.partition(), ctx.round());
    const auto start = trace->now_ns();
    fn(key, values, ctx);
    slot.record(start, trace->now_ns());
  };
}

mapred::ChainJob traced_chain(mapred::ChainJob job, JobTrace* trace,
                              const mapred::StaticTables* statics) {
  job.ingest = traced_map(std::move(job.ingest), trace);
  for (auto& stage : job.stages) {
    stage.map = traced_chain_map(std::move(stage.map), trace, statics);
    stage.reduce = traced_chain_reduce(std::move(stage.reduce), trace);
  }
  return job;
}

CallbackSummary summarize(const std::deque<ThreadLog>& logs) {
  CallbackSummary out;
  int rounds = 0;
  for (const auto& log : logs) {
    out.combine_ns += log.combine_ns;
    for (const auto& s : log.slots) rounds = std::max(rounds, s.round);
  }
  out.rounds.resize(static_cast<std::size_t>(std::max(rounds, 0)));

  for (int r = 1; r <= rounds; ++r) {
    RoundMarks& m = out.rounds[static_cast<std::size_t>(r - 1)];
    std::int64_t busiest_reduce = 0;
    for (const auto& log : logs) {
      for (const auto& s : log.slots) {
        if (s.round != r || s.role != Role::kReduce) continue;
        if (m.first_reduce == kNoMark || s.first_start_ns < m.first_reduce) {
          m.first_reduce = s.first_start_ns;
        }
        m.last_reduce = std::max(m.last_reduce, s.last_end_ns);
        busiest_reduce = std::max(busiest_reduce, s.call_ns);
      }
    }
    out.reduce_self_ns += busiest_reduce;

    const Slot* last_mapper = nullptr;
    for (const auto& log : logs) {
      for (const auto& s : log.slots) {
        if (s.round != r || s.role != Role::kMap) continue;
        // Reducers start only after every committed map attempt; a map
        // attempt still returning past that point lost a speculative race
        // and is left out of the marks.
        if (m.first_reduce != kNoMark && s.last_end_ns > m.first_reduce) {
          continue;
        }
        if (m.first_map == kNoMark || s.first_start_ns < m.first_map) {
          m.first_map = s.first_start_ns;
        }
        if (!last_mapper || s.last_end_ns > last_mapper->last_end_ns) {
          last_mapper = &s;
        }
      }
    }
    if (last_mapper) {
      m.last_map = last_mapper->last_end_ns;
      out.map_self_ns += last_mapper->call_ns - last_mapper->emit_ns;
      out.emit_ns += last_mapper->emit_ns;
      out.input_ns += (last_mapper->last_end_ns - last_mapper->first_start_ns) -
                      last_mapper->call_ns;
    }
  }
  return out;
}

std::uint64_t SpanLog::add(const std::string& name, const char* category,
                           int pid, int tid, std::int64_t start_ns,
                           std::int64_t dur_ns, int job, std::uint64_t parent,
                           const std::string& args) {
  const std::uint64_t id = next_span_++;
  char head[320];
  std::snprintf(head, sizeof head,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%d,"
                "\"span\":%llu,\"parent\":%llu",
                name.c_str(), category, pid, tid,
                static_cast<double>(start_ns) / 1e3,
                static_cast<double>(dur_ns) / 1e3, job,
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(parent));
  events_.push_back(std::string(head) + args + "}}");
  return id;
}

void SpanLog::add_job(int job, int runtime, const std::string& runtime_name,
                      std::int64_t offset_ns, const CallbackSummary& summary,
                      const Phases& phases, const std::deque<ThreadLog>& logs) {
  const std::uint64_t root = add(runtime_name + " job", "job", runtime, 0,
                                 offset_ns, phases.wall_ns, job, 0, "");
  auto phase = [&](const char* name, std::int64_t from, std::int64_t to) {
    add(name, "phase", runtime, 0, offset_ns + from, to - from, job, root, "");
  };
  const auto& rounds = summary.rounds;
  phase("startup", 0, rounds.front().first_map);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    if (r > 0) phase("round_barrier", rounds[r - 1].last_reduce,
                     rounds[r].first_map);
    phase("map", rounds[r].first_map, rounds[r].last_map);
    phase("shuffle_tail", rounds[r].last_map, rounds[r].first_reduce);
    phase("reduce", rounds[r].first_reduce, rounds[r].last_reduce);
  }
  phase("teardown", rounds.back().last_reduce, phases.wall_ns);

  for (const auto& log : logs) {
    for (const auto& s : log.slots) {
      const std::string name = std::string(s.role == Role::kMap ? "map" : "reduce") +
                               "[" + std::to_string(s.index) + "] round " +
                               std::to_string(s.round);
      char args[256];
      std::snprintf(args, sizeof args,
                    ",\"calls\":%llu,\"call_ns\":%lld,\"emits\":%llu,"
                    "\"emit_ns\":%lld,\"thread_combines\":%llu,"
                    "\"thread_combine_ns\":%lld",
                    static_cast<unsigned long long>(s.calls),
                    static_cast<long long>(s.call_ns),
                    static_cast<unsigned long long>(s.emits),
                    static_cast<long long>(s.emit_ns),
                    static_cast<unsigned long long>(log.combines),
                    static_cast<long long>(log.combine_ns));
      add(name, "rank", runtime, 1 + log.thread, offset_ns + s.first_start_ns,
          s.last_end_ns - s.first_start_ns, job, root, args);
    }
  }
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace jobbench
