// ShuffleOptions::validate(): the shared knob contract both runtimes rely
// on — Config and MiniJobConfig inherit these fields, so one bad value
// must fail the same way everywhere.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mpid/shuffle/options.hpp"

namespace mpid::shuffle {
namespace {

TEST(ShuffleOptionsTest, DefaultsValidate) {
  ShuffleOptions opts;
  EXPECT_NO_THROW(opts.validate());
  // The shared defaults the runtimes converged on.
  EXPECT_EQ(opts.spill_threshold_bytes, 4u * 1024 * 1024);
  EXPECT_EQ(opts.partition_frame_bytes, 256u * 1024);
  EXPECT_EQ(opts.inline_combine_threshold, 64u);
  EXPECT_EQ(opts.shuffle_compression, ShuffleCompression::kOff);
  EXPECT_EQ(opts.compress_min_frame_bytes, 4096u);
}

TEST(ShuffleOptionsTest, ZeroSpillThresholdThrows) {
  ShuffleOptions opts;
  opts.spill_threshold_bytes = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(ShuffleOptionsTest, ZeroPartitionFrameThrows) {
  ShuffleOptions opts;
  opts.partition_frame_bytes = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(ShuffleOptionsTest, AutoMinFrameAboveFlushThresholdThrows) {
  ShuffleOptions opts;
  opts.partition_frame_bytes = 512;
  opts.compress_min_frame_bytes = 4096;  // every frame would skip
  // The inconsistency only matters when kAuto consults the floor.
  EXPECT_NO_THROW(opts.validate());
  opts.shuffle_compression = ShuffleCompression::kAuto;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.compress_min_frame_bytes = 256;
  EXPECT_NO_THROW(opts.validate());
}

TEST(ShuffleOptionsTest, AutoSkipPolicyValidated) {
  ShuffleOptions opts;
  opts.shuffle_compression = ShuffleCompression::kAuto;
  opts.compress_skip_ratio = 0.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.compress_skip_ratio = 0.9;
  opts.compress_skip_after = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.compress_skip_after = 2;
  EXPECT_NO_THROW(opts.validate());

  // The same degenerate values pass under kOff / kOn: the skip policy is
  // never consulted there.
  opts.shuffle_compression = ShuffleCompression::kOn;
  opts.compress_skip_ratio = 0.0;
  opts.compress_skip_after = 0;
  EXPECT_NO_THROW(opts.validate());
}

TEST(ShuffleOptionsTest, SpillFieldsIgnoredWhileUnbudgeted) {
  // With memory_budget_bytes == 0 the store is disarmed: nonsense spill
  // knobs must not reject a config that never spills.
  ShuffleOptions opts;
  opts.spill_page_bytes = 1;
  opts.spill_merge_fanin = 0;
  opts.spill_dir = "/nonexistent/mpid-spill";
  EXPECT_NO_THROW(opts.validate());
}

TEST(ShuffleOptionsTest, BudgetSmallerThanOnePageThrows) {
  ShuffleOptions opts;
  opts.spill_dir = testing::TempDir();
  opts.spill_page_bytes = 64 * 1024;
  opts.memory_budget_bytes = 64 * 1024;  // exactly one page: OK
  EXPECT_NO_THROW(opts.validate());
  opts.memory_budget_bytes = 64 * 1024 - 1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(ShuffleOptionsTest, SpillPageFloorEnforced) {
  ShuffleOptions opts;
  opts.spill_dir = testing::TempDir();
  opts.memory_budget_bytes = 1 << 20;
  opts.spill_page_bytes = ShuffleOptions::kMinSpillPageBytes;
  EXPECT_NO_THROW(opts.validate());
  opts.spill_page_bytes = ShuffleOptions::kMinSpillPageBytes - 1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(ShuffleOptionsTest, MergeFaninBelowTwoThrows) {
  ShuffleOptions opts;
  opts.spill_dir = testing::TempDir();
  opts.memory_budget_bytes = 1 << 20;
  opts.spill_merge_fanin = 2;
  EXPECT_NO_THROW(opts.validate());
  opts.spill_merge_fanin = 1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(ShuffleOptionsTest, SpillDirMustBeAWritableDirectory) {
  ShuffleOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.spill_dir.clear();  // unset
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.spill_dir = "/nonexistent/mpid-spill";  // missing
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.spill_dir = "/dev/null";  // not a directory
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.spill_dir = testing::TempDir();
  EXPECT_NO_THROW(opts.validate());
}

}  // namespace
}  // namespace mpid::shuffle
