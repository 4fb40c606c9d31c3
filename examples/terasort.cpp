// JavaSort/TeraSort-style record sort on the MPI-D stack: the workload of
// the paper's Figure 1 and Table I, here running for real (in-process
// ranks, generated 100-byte records).
//
// map:    record -> (key, payload)
// reduce: keys arrive grouped and merged, so each reducer emits its
//         partition in key order. A range partitioner (a custom MPI-D
//         Partitioner — TeraSort's trick) assigns contiguous key ranges
//         to reducers, so the concatenated output is GLOBALLY sorted.
//
// Build & run:  ./examples/terasort
#include <cstdio>
#include <string>
#include <vector>

#include "mpid/common/units.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/workloads/text.hpp"

int main() {
  using namespace mpid;

  const std::uint64_t input_bytes = 2 * common::MiB;
  const int mappers = 4;
  const int reducers = 3;

  mapred::JobDef job;
  job.map = [](std::string_view record, mapred::MapContext& ctx) {
    // Key = first 10 bytes; value = the rest of the record.
    if (record.size() > 10) {
      ctx.emit(record.substr(0, 10), record.substr(10));
    }
  };
  job.reduce = [](std::string_view key, std::span<const std::string> payloads,
                  mapred::ReduceContext& ctx) {
    // Duplicate keys keep all their payloads.
    for (const auto& p : payloads) ctx.emit(key, p);
  };
  // Range partitioner over the first key byte (keys are uniform printable
  // characters '!'..'~'): reducer r owns an equal slice of the key space.
  job.tuning.partitioner = [](std::string_view key,
                              std::uint32_t reducers) -> std::uint32_t {
    const auto c = static_cast<std::uint32_t>(
        static_cast<unsigned char>(key.empty() ? '!' : key[0]) - '!');
    return std::min(reducers - 1, c * reducers / 94);
  };

  std::vector<mapred::RecordSource> inputs;
  inputs.reserve(mappers);
  workloads::RecordSpec record_spec;
  for (int m = 0; m < mappers; ++m) {
    inputs.push_back(workloads::record_source(
        record_spec, input_bytes / static_cast<std::uint64_t>(mappers),
        1000 + static_cast<std::uint64_t>(m)));
  }

  const auto result =
      mapred::JobRunner(mappers, reducers).run(job, std::move(inputs));

  // Validate: output is globally sorted by key — each reducer owns a
  // contiguous key range and emits it in order.
  bool sorted = true;
  for (std::size_t i = 1; i < result.outputs.size(); ++i) {
    if (result.outputs[i].first < result.outputs[i - 1].first) {
      sorted = false;
      break;
    }
  }

  std::printf("terasort: %zu records sorted across %d reducers\n",
              result.outputs.size(), reducers);
  std::printf("sorted output: %s\n", sorted ? "yes" : "NO (bug!)");
  std::printf("intermediate volume: %s in %llu frames\n",
              common::format_bytes(result.report.totals.bytes_sent).c_str(),
              static_cast<unsigned long long>(
                  result.report.totals.frames_sent));
  std::printf("first keys: ");
  for (std::size_t i = 0; i < 3 && i < result.outputs.size(); ++i) {
    std::printf("\"%s\" ", result.outputs[i].first.c_str());
  }
  std::printf("\n");
  return sorted ? 0 : 1;
}
