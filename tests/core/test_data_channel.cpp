// The MPI-D data channel: the frame trailer's checksum, and the lane
// protocol failing loudly — never hanging, never delivering bad data —
// when a peer breaks it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mpid/core/frame.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"

namespace mpid::core {
namespace {

using minimpi::Comm;
using minimpi::run_world;
using namespace std::chrono_literals;

std::vector<std::byte> pattern(std::size_t len) {
  std::vector<std::byte> bytes(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::byte>(i * 37 + len * 11 + 5);
  }
  return bytes;
}

TEST(FrameChecksum, EverySingleBitFlipChangesIt) {
  const std::uint32_t inc = 0x01020304;
  const std::uint32_t seq = 0x00a0b0c0 | kSeqCodecBit;
  // Lengths across every word boundary and the first 64-byte block,
  // including the ones that leave a zero-padded tail word.
  for (std::size_t len = 0; len <= 67; ++len) {
    const auto payload = pattern(len);
    const std::uint64_t sum = frame_checksum(inc, seq, payload);
    for (int bit = 0; bit < 32; ++bit) {
      EXPECT_NE(frame_checksum(inc ^ (1u << bit), seq, payload), sum)
          << "len " << len << " incarnation bit " << bit;
      EXPECT_NE(frame_checksum(inc, seq ^ (1u << bit), payload), sum)
          << "len " << len << " seq bit " << bit;
    }
    for (std::size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = payload;
        flipped[i] ^= static_cast<std::byte>(1 << bit);
        EXPECT_NE(frame_checksum(inc, seq, flipped), sum)
            << "len " << len << " byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(FrameTrailer, RoundTripsAndRejectsEverySingleBitFlip) {
  for (std::size_t len = 0; len <= 67; ++len) {
    const auto payload = pattern(len);
    auto framed = payload;
    append_frame_trailer(framed, 7, 42, /*codec_framed=*/len % 2 == 1);
    ASSERT_EQ(framed.size(), len + kFrameTrailerBytes);

    auto intact = framed;
    const auto trailer = strip_frame_trailer(intact);
    ASSERT_TRUE(trailer.has_value()) << "len " << len;
    EXPECT_EQ(trailer->incarnation, 7u);
    EXPECT_EQ(trailer->seq, 42u);
    EXPECT_EQ(trailer->codec_framed, len % 2 == 1);
    EXPECT_EQ(intact, payload);

    // Payload, incarnation, seq and checksum field alike.
    for (std::size_t i = 0; i < framed.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = framed;
        flipped[i] ^= static_cast<std::byte>(1 << bit);
        EXPECT_FALSE(strip_frame_trailer(flipped).has_value())
            << "len " << len << " byte " << i << " bit " << bit;
        EXPECT_EQ(flipped.size(), framed.size());  // left untouched
      }
    }
  }
  std::vector<std::byte> runt(kFrameTrailerBytes - 1);
  EXPECT_FALSE(strip_frame_trailer(runt).has_value());
}

/// Runs `rank_main` on a short deadlock guard and returns the message of
/// the exception run_world rethrows (empty when none).
std::string world_error(int size,
                        const std::function<void(Comm&)>& rank_main) {
  try {
    run_world(size, 5s, rank_main);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

TEST(DataChannel, NackToAMapperWithoutRetentionThrowsNamingRankAndLane) {
  // A real plain-shuffle mapper (rank 1) against a fake reducer (rank 2)
  // that NACKs the first frame; the master (rank 0) has nothing to do.
  Config cfg;  // resilient_shuffle off: the mapper retains nothing
  const std::string error = world_error(cfg.world_size(), [&](Comm& comm) {
    if (comm.rank() == 1) {
      MpiD d(comm, cfg);
      d.send("k", "v");
      d.finalize();
    } else if (comm.rank() == 2) {
      // MpiD's data channel is its communicator's first dup().
      Comm data = comm.dup();
      std::vector<std::byte> msg;
      (void)data.recv_bytes(1, /*data*/ 1, msg);
      (void)data.recv_bytes(1, /*seal*/ 2, msg);
      std::vector<std::byte> nack(8);
      const std::uint32_t count = 1;
      const std::uint32_t seq = 0;
      std::memcpy(nack.data(), &count, 4);
      std::memcpy(nack.data() + 4, &seq, 4);
      data.send_bytes(1, /*lane NACK*/ 6, nack);
    }
  });
  EXPECT_NE(error.find("mapper rank 1"), std::string::npos) << error;
  EXPECT_NE(error.find("NACK for lane 0"), std::string::npos) << error;
}

TEST(DataChannel, NewIncarnationOnADeliveredLaneThrows) {
  // A real reducer (rank 3) against two fake mappers: mapper 0 ships one
  // frame, seals its lane, waits for the ACK and then ships a frame of a
  // new incarnation; mapper 1 never seals, so the reducer keeps receiving.
  Config cfg;
  cfg.mappers = 2;
  const std::string error = world_error(cfg.world_size(), [&](Comm& comm) {
    if (comm.rank() == 3) {
      MpiD d(comm, cfg);
      std::vector<std::byte> frame;
      while (d.recv_raw_frame(frame)) {
      }
    } else if (comm.rank() == 1) {
      Comm data = comm.dup();
      auto first = pattern(24);
      append_frame_trailer(first, /*incarnation=*/0, /*seq=*/0, false);
      data.send_bytes(3, /*data*/ 1, first);
      std::vector<std::byte> seal(8, std::byte{0});
      const std::uint32_t total = 1;
      std::memcpy(seal.data() + 4, &total, 4);
      data.send_bytes(3, /*seal*/ 2, seal);
      std::vector<std::byte> ack;
      (void)data.recv_bytes(3, /*lane ACK*/ 5, ack);
      auto late = pattern(24);
      append_frame_trailer(late, /*incarnation=*/1, /*seq=*/0, false);
      data.send_bytes(3, /*data*/ 1, late);
    }
  });
  EXPECT_NE(error.find("incarnation 1 on lane 0 after delivering"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace mpid::core
