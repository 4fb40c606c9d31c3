// Robustness fuzzing for the frame decoders: random mutations of valid
// frames must either parse (possibly to different data) or throw — never
// crash, hang, or read out of bounds (ASAN-observable). The reducer-side
// reverse realignment depends on this discipline. KvListReader's two
// forms — next() returning a fresh view and next(view) refilling the
// caller's — decode every frame in lockstep and must agree group by group,
// throw included.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>

#include "mpid/common/kvframe.hpp"
#include "mpid/common/prng.hpp"

namespace mpid::common {
namespace {

std::vector<std::byte> valid_kv_frame(Xoshiro256StarStar& rng) {
  KvWriter writer;
  const auto pairs = rng.next_in(1, 30);
  for (std::uint64_t i = 0; i < pairs; ++i) {
    std::string k(rng.next_below(20), 'k');
    std::string v(rng.next_below(50), 'v');
    writer.append(k, v);
  }
  return writer.take();
}

std::vector<std::byte> valid_kvlist_frame(Xoshiro256StarStar& rng) {
  KvListWriter writer;
  const auto groups = rng.next_in(1, 15);
  for (std::uint64_t g = 0; g < groups; ++g) {
    const auto values = rng.next_below(6);
    writer.begin_group("key" + std::to_string(g), values);
    for (std::uint64_t v = 0; v < values; ++v) writer.add_value("val");
  }
  return writer.take();
}

/// Decodes `frame` with both KvListReader forms side by side. The refill
/// form reuses one view across groups of every size and must yield the
/// same groups as next(), and throw on the same group when next() does.
/// Fails the test if the decoders run past `kMaxGroups`.
void expect_list_forms_agree(std::span<const std::byte> frame) {
  constexpr std::size_t kMaxGroups = 100000;
  KvListReader by_value(frame);
  KvListReader by_refill(frame);
  KvListView view;
  for (std::size_t groups = 0; groups <= kMaxGroups; ++groups) {
    std::optional<KvListView> want;
    bool want_threw = false;
    try {
      want = by_value.next();
    } catch (const std::runtime_error&) {
      want_threw = true;  // corruption detected: acceptable
    }
    bool got = false;
    bool got_threw = false;
    try {
      got = by_refill.next(view);
    } catch (const std::runtime_error&) {
      got_threw = true;
    }
    ASSERT_EQ(got_threw, want_threw) << "group " << groups;
    if (want_threw) return;
    ASSERT_EQ(got, want.has_value()) << "group " << groups;
    if (!got) return;
    EXPECT_EQ(view.key, want->key) << "group " << groups;
    EXPECT_EQ(view.values, want->values) << "group " << groups;
  }
  FAIL() << "decoder failed to terminate";
}

class FrameFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST_P(FrameFuzzTest, MutatedKvFramesNeverCrash) {
  Xoshiro256StarStar rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    auto frame = valid_kv_frame(rng);
    // Mutate 1-5 random bytes and/or truncate.
    const auto mutations = rng.next_in(1, 5);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      frame[rng.next_below(frame.size())] =
          static_cast<std::byte>(rng.next_below(256));
    }
    if (rng.next_below(3) == 0) frame.resize(rng.next_below(frame.size() + 1));

    KvReader reader(frame);
    try {
      std::size_t pairs = 0;
      while (reader.next()) {
        if (++pairs > 100000) FAIL() << "decoder failed to terminate";
      }
    } catch (const std::runtime_error&) {
      // Corruption detected: acceptable.
    }
  }
}

TEST_P(FrameFuzzTest, MutatedKvListFramesNeverCrash) {
  Xoshiro256StarStar rng(GetParam() * 131);
  for (int iter = 0; iter < 200; ++iter) {
    auto frame = valid_kvlist_frame(rng);
    const auto mutations = rng.next_in(1, 5);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      frame[rng.next_below(frame.size())] =
          static_cast<std::byte>(rng.next_below(256));
    }
    if (rng.next_below(3) == 0) frame.resize(rng.next_below(frame.size() + 1));
    expect_list_forms_agree(frame);
  }
}

TEST_P(FrameFuzzTest, ValidKvListFramesDecodeAlikeInBothForms) {
  Xoshiro256StarStar rng(GetParam() * 977);
  for (int iter = 0; iter < 200; ++iter) {
    expect_list_forms_agree(valid_kvlist_frame(rng));
  }
}

TEST_P(FrameFuzzTest, RandomGarbageNeverCrashes) {
  Xoshiro256StarStar rng(GetParam() * 733);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::byte> garbage(rng.next_below(300));
    for (auto& b : garbage) b = static_cast<std::byte>(rng.next_below(256));
    KvReader kv(garbage);
    try {
      while (kv.next()) {
      }
    } catch (const std::runtime_error&) {
    }
    expect_list_forms_agree(garbage);
  }
}

}  // namespace
}  // namespace mpid::common
