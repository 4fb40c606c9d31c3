// MPI matching invariants under the context-sharded mailbox.
//
// The mailbox shards its (mutex, condvar, queue) state by communicator
// context so data-plane and collective traffic never contend. Sharding
// must be invisible to MPI semantics; these stress tests pin the two
// load-bearing guarantees under randomized interleavings:
//
//  1. A wildcard-source (and/or wildcard-tag) receive matches the
//     earliest compatible message of its context.
//  2. Messages between a fixed (source, destination, context) triple are
//     non-overtaking — they are received in the order they were sent,
//     whatever subset of them a tag filter selects.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/minimpi/comm.hpp"
#include "mpid/minimpi/world.hpp"

namespace mpid::minimpi {
namespace {

struct Marker {
  std::int32_t source = -1;
  std::int32_t comm_id = -1;  // which communicator the sender used
  std::int32_t tag = -1;
  std::int32_t seq = -1;  // per-(source, comm) send sequence number
};

Marker decode(const std::vector<std::byte>& raw) {
  Marker m;
  EXPECT_EQ(raw.size(), sizeof(Marker));
  std::memcpy(&m, raw.data(), sizeof(Marker));
  return m;
}

/// Many senders blast tagged sequences at one receiver; every message is
/// consumed by a fully wildcard receive. Per-source sequence numbers must
/// come back strictly in order — the earliest-compatible rule degenerates
/// to per-source FIFO when everything matches.
TEST(MailboxShard, WildcardReceivesPreservePerSourceOrder) {
  constexpr int kSenders = 4;
  constexpr int kMessages = 200;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_world(kSenders + 1, [&](Comm& comm) {
      if (comm.rank() > 0) {
        common::SplitMix64 rng(seed * 977 + static_cast<std::uint64_t>(
                                                comm.rank()));
        for (int i = 0; i < kMessages; ++i) {
          Marker m;
          m.source = comm.rank();
          m.comm_id = 0;
          m.tag = static_cast<std::int32_t>(rng() % 4);
          m.seq = i;
          comm.send_value(0, m.tag, m);
        }
      } else {
        std::map<std::int32_t, std::int32_t> next_seq;
        for (int i = 0; i < kSenders * kMessages; ++i) {
          std::vector<std::byte> raw;
          const Status st = comm.recv_bytes(kAnySource, kAnyTag, raw);
          const Marker m = decode(raw);
          EXPECT_EQ(m.source, st.source);
          EXPECT_EQ(m.tag, st.tag);
          EXPECT_EQ(m.seq, next_seq[m.source]++) << "source " << m.source;
        }
      }
    });
  }
}

/// One sender interleaves two tag streams; the receiver pulls them with
/// tag filters in a random order. Within each tag — an arbitrary matching
/// subset of one (source, destination, context) lane — delivery order
/// must equal send order, and a tag filter must never yield the other
/// stream's message even when that one was sent earlier.
TEST(MailboxShard, TagFilteredSubsetsAreNonOvertaking) {
  constexpr int kPerTag = 150;
  for (std::uint64_t seed = 7; seed <= 9; ++seed) {
    run_world(2, [&](Comm& comm) {
      if (comm.rank() == 0) {
        common::SplitMix64 rng(seed);
        std::int32_t seq[2] = {0, 0};
        while (seq[0] < kPerTag || seq[1] < kPerTag) {
          std::int32_t tag = static_cast<std::int32_t>(rng() % 2);
          if (seq[tag] == kPerTag) tag = 1 - tag;
          Marker m;
          m.source = 0;
          m.comm_id = 0;
          m.tag = tag;
          m.seq = seq[tag]++;
          comm.send_value(1, tag, m);
        }
      } else {
        common::SplitMix64 rng(seed ^ 0xfeed);
        std::int32_t expected[2] = {0, 0};
        while (expected[0] < kPerTag || expected[1] < kPerTag) {
          std::int32_t tag = static_cast<std::int32_t>(rng() % 2);
          if (expected[tag] == kPerTag) tag = 1 - tag;
          std::vector<std::byte> raw;
          const Status st = comm.recv_bytes(0, tag, raw);
          const Marker m = decode(raw);
          EXPECT_EQ(st.tag, tag);
          EXPECT_EQ(m.tag, tag);
          EXPECT_EQ(m.seq, expected[tag]++);
        }
      }
    });
  }
}

/// Traffic on a dup'd communicator (different context, usually a
/// different shard) must stay invisible to the base communicator's
/// wildcard receives, and each communicator's per-source order must hold
/// independently while both are in flight.
TEST(MailboxShard, DupContextsAreIsolatedAndIndependentlyOrdered) {
  constexpr int kMessages = 120;
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    run_world(2, [&](Comm& comm) {
      Comm data = comm.dup();
      if (comm.rank() == 0) {
        common::SplitMix64 rng(seed);
        std::int32_t seq[2] = {0, 0};
        while (seq[0] < kMessages || seq[1] < kMessages) {
          std::int32_t which = static_cast<std::int32_t>(rng() % 2);
          if (seq[which] == kMessages) which = 1 - which;
          Marker m;
          m.source = 0;
          m.comm_id = which;
          m.tag = 5;
          m.seq = seq[which]++;
          (which == 0 ? comm : data).send_value(1, 5, m);
        }
      } else {
        // Drain the base communicator entirely first: its wildcard
        // receives must see only comm_id 0 messages, in order, no matter
        // how much dup-context traffic is already queued around them.
        for (std::int32_t i = 0; i < kMessages; ++i) {
          std::vector<std::byte> raw;
          comm.recv_bytes(kAnySource, kAnyTag, raw);
          const Marker m = decode(raw);
          EXPECT_EQ(m.comm_id, 0);
          EXPECT_EQ(m.seq, i);
        }
        for (std::int32_t i = 0; i < kMessages; ++i) {
          std::vector<std::byte> raw;
          data.recv_bytes(kAnySource, kAnyTag, raw);
          const Marker m = decode(raw);
          EXPECT_EQ(m.comm_id, 1);
          EXPECT_EQ(m.seq, i);
        }
      }
    });
  }
}

/// Pre-posted wildcard irecvs must complete in posting order against arrival order: the first posted
/// receive takes the earliest message. Exercises the posted-queue matching
/// path rather than the unexpected-queue path.
TEST(MailboxShard, PrePostedWildcardReceivesMatchEarliestFirst) {
  constexpr int kWindow = 8;
  constexpr int kRounds = 25;
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int r = 0; r < kRounds; ++r) {
        // Wait until the receiver has posted its window (rendezvous),
        // then send a burst that must land in posting order.
        (void)comm.recv_value<std::int32_t>(1, 99);
        for (std::int32_t i = 0; i < kWindow; ++i) {
          Marker m;
          m.source = 0;
          m.comm_id = 0;
          m.tag = 7;
          m.seq = r * kWindow + i;
          comm.send_value(1, 7, m);
        }
      }
    } else {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::vector<std::byte>> sinks(kWindow);
        std::vector<Request> reqs;
        reqs.reserve(kWindow);
        for (int i = 0; i < kWindow; ++i) {
          reqs.push_back(comm.irecv_bytes(kAnySource, kAnyTag, sinks[i]));
        }
        comm.send_value(0, 99, std::int32_t{r});
        for (int i = 0; i < kWindow; ++i) {
          const Status st = reqs[static_cast<std::size_t>(i)].wait();
          EXPECT_EQ(st.tag, 7);
          const Marker m = decode(sinks[static_cast<std::size_t>(i)]);
          EXPECT_EQ(m.seq, r * kWindow + i);
        }
      }
    }
  });
}

/// Full-stack randomized soak: several ranks exchange on the world
/// communicator and a dup'd one concurrently (collectives mixed in, which
/// run in their own shard via the collective context bit). Checks global
/// conservation and per-(source, comm) ordering at every rank.
TEST(MailboxShard, RandomizedInterleavingsAcrossContexts) {
  constexpr int kRanks = 4;
  constexpr int kMessages = 80;
  for (std::uint64_t seed = 41; seed <= 43; ++seed) {
    run_world(kRanks, [&](Comm& comm) {
      Comm data = comm.dup();
      common::SplitMix64 rng(seed * 31 +
                             static_cast<std::uint64_t>(comm.rank()));
      const Rank peer = (comm.rank() + 1) % kRanks;

      comm.barrier();
      std::int32_t seq[2] = {0, 0};
      while (seq[0] < kMessages || seq[1] < kMessages) {
        std::int32_t which = static_cast<std::int32_t>(rng() % 2);
        if (seq[which] == kMessages) which = 1 - which;
        Marker m;
        m.source = comm.rank();
        m.comm_id = which;
        m.tag = static_cast<std::int32_t>(rng() % 3);
        m.seq = seq[which]++;
        (which == 0 ? comm : data).send_value(peer, m.tag, m);
      }

      std::int32_t expected[2] = {0, 0};
      for (int got = 0; got < 2 * kMessages;) {
        const std::int32_t which =
            expected[0] < kMessages &&
                    (expected[1] == kMessages || (rng() % 2 == 0))
                ? 0
                : 1;
        std::vector<std::byte> raw;
        const Status st =
            (which == 0 ? comm : data).recv_bytes(kAnySource, kAnyTag, raw);
        const Marker m = decode(raw);
        EXPECT_EQ(m.comm_id, which);
        EXPECT_EQ(m.source, st.source);
        EXPECT_EQ(m.seq, expected[which]++);
        ++got;
      }
      comm.barrier();  // collective context exercises a distinct shard
    });
  }
}

}  // namespace
}  // namespace mpid::minimpi
