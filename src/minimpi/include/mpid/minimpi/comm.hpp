// Comm: a rank's handle on a communicator (MPI_Comm analog).
//
// Byte-level operations are the primitives; typed operations are thin
// templates over them restricted to trivially copyable element types (the
// MPI datatype model). Collectives are implemented on top of point-to-point
// messages with binomial trees, exactly the layering the paper's MPI-D
// prototype assumes ("built on the basic point-to-point primitives in
// MPI").
//
// Collective traffic runs in a separate context (the collective bit), so a
// user receive with wildcard tag can never match internal messages, and a
// per-communicator collective sequence number keeps adjacent collectives
// from cross-matching when ranks are skewed in time.
#pragma once

#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mpid/minimpi/request.hpp"
#include "mpid/minimpi/types.hpp"
#include "mpid/minimpi/world.hpp"

namespace mpid::minimpi {

template <typename T>
concept Datatype = std::is_trivially_copyable_v<T>;

class Comm {
 public:
  Comm(World& world, Rank rank, std::uint64_t context) noexcept
      : world_(&world), rank_(rank), context_(context) {}

  Rank rank() const noexcept { return rank_; }
  int size() const noexcept {
    return group_ ? static_cast<int>(group_->size()) : world_->size();
  }
  World& world() const noexcept { return *world_; }
  /// The communicator's message context (exposed so a fault injector can
  /// scope transport faults to one communicator's traffic).
  std::uint64_t context() const noexcept { return context_; }

  /// A new communicator with an isolated message context. Every rank must
  /// call dup() the same number of times in the same order (as with
  /// MPI_Comm_dup); no communication is required because the derived
  /// context is computed deterministically.
  Comm dup() noexcept;

  /// MPI_Comm_split: partitions this communicator by `color`; within each
  /// partition ranks are ordered by (key, old rank). Collective — every
  /// rank of this communicator must call it. A negative color (the
  /// MPI_UNDEFINED analog) yields nullopt for that rank.
  std::optional<Comm> split(int color, int key);

  // ------------------------------------------------------------- p2p ----

  void send_bytes(Rank dst, int tag, std::span<const std::byte> data);

  /// Zero-copy send: moves the payload buffer into the transport instead
  /// of copying it. The eventual receiver's sink vector adopts this exact
  /// allocation, so a pooled buffer travels mapper → wire → reducer with
  /// no intermediate copy (the shuffle hot path of MPI-D).
  void send_bytes_owned(Rank dst, int tag, std::vector<std::byte>&& data);

  /// Synchronous send (MPI_Ssend): completes only once a matching receive
  /// has consumed the message. Times out (throwing) under the world's
  /// deadlock guard if no receive ever matches.
  void ssend_bytes(Rank dst, int tag, std::span<const std::byte> data);

  template <Datatype T>
  void ssend_value(Rank dst, int tag, const T& value) {
    ssend_bytes(dst, tag,
                std::as_bytes(std::span<const T>(&value, 1)));
  }
  Status recv_bytes(Rank src, int tag, std::vector<std::byte>& out);
  Request isend_bytes(Rank dst, int tag, std::span<const std::byte> data);
  /// Zero-copy nonblocking send (see send_bytes_owned).
  Request isend_bytes_owned(Rank dst, int tag, std::vector<std::byte>&& data);
  /// `out` must stay alive until the request completes.
  Request irecv_bytes(Rank src, int tag, std::vector<std::byte>& out);

  /// Blocking probe: waits until a matching message is available and
  /// returns its metadata without receiving it.
  Status probe(Rank src, int tag);
  std::optional<Status> iprobe(Rank src, int tag);

  /// Combined send+receive that cannot deadlock (MPI_Sendrecv).
  Status sendrecv_bytes(Rank dst, int send_tag,
                        std::span<const std::byte> send_data, Rank src,
                        int recv_tag, std::vector<std::byte>& out);

  template <Datatype T>
  void send(Rank dst, int tag, std::span<const T> data) {
    send_bytes(dst, tag, std::as_bytes(data));
  }

  template <Datatype T>
  void send_value(Rank dst, int tag, const T& value) {
    send(dst, tag, std::span<const T>(&value, 1));
  }

  void send_string(Rank dst, int tag, std::string_view s) {
    send_bytes(dst, tag,
               std::as_bytes(std::span<const char>(s.data(), s.size())));
  }

  template <Datatype T>
  Status recv(Rank src, int tag, std::vector<T>& out) {
    std::vector<std::byte> raw;
    const Status st = recv_bytes(src, tag, raw);
    if (raw.size() % sizeof(T) != 0) {
      throw std::runtime_error("minimpi: datatype size mismatch in recv");
    }
    out.resize(raw.size() / sizeof(T));
    std::memcpy(out.data(), raw.data(), raw.size());
    return st;
  }

  template <Datatype T>
  T recv_value(Rank src, int tag, Status* status = nullptr) {
    std::vector<T> one;
    const Status st = recv(src, tag, one);
    if (one.size() != 1) {
      throw std::runtime_error("minimpi: recv_value expected one element");
    }
    if (status != nullptr) *status = st;
    return one.front();
  }

  std::string recv_string(Rank src, int tag, Status* status = nullptr) {
    std::vector<std::byte> raw;
    const Status st = recv_bytes(src, tag, raw);
    if (status != nullptr) *status = st;
    return {reinterpret_cast<const char*>(raw.data()), raw.size()};
  }

  // ----------------------------------------------------- collectives ----

  /// Dissemination barrier: O(log n) rounds.
  void barrier();

  /// Binomial-tree broadcast of a byte buffer. Non-roots resize `data`.
  void bcast_bytes(std::vector<std::byte>& data, Rank root);

  template <Datatype T>
  T bcast_value(T value, Rank root) {
    std::vector<std::byte> buf(sizeof(T));
    if (rank_ == root) std::memcpy(buf.data(), &value, sizeof(T));
    bcast_bytes(buf, root);
    T out;
    std::memcpy(&out, buf.data(), sizeof(T));
    return out;
  }

  /// Binomial-tree reduction. Every rank passes `contribution`; the result
  /// is meaningful only at `root` (other ranks get their partial). All
  /// contributions must have equal length.
  template <Datatype T, typename Op>
  std::vector<T> reduce(std::span<const T> contribution, Op op, Rank root) {
    std::vector<T> acc(contribution.begin(), contribution.end());
    const int n = size();
    const Rank vrank = virtual_rank(root);
    const std::uint64_t seq = next_collective_seq();
    for (int mask = 1; mask < n; mask <<= 1) {
      if ((vrank & mask) != 0) {
        const Rank dst = absolute_rank(vrank - mask, root);
        coll_send(dst, seq, 0, std::as_bytes(std::span<const T>(acc)));
        break;
      }
      const int vsrc = vrank + mask;
      if (vsrc < n) {
        std::vector<std::byte> raw;
        coll_recv(absolute_rank(vsrc, root), seq, 0, raw);
        if (raw.size() != acc.size() * sizeof(T)) {
          throw std::runtime_error("minimpi: reduce length mismatch");
        }
        std::vector<T> incoming(acc.size());
        std::memcpy(incoming.data(), raw.data(), raw.size());
        for (std::size_t i = 0; i < acc.size(); ++i) op(acc[i], incoming[i]);
      }
    }
    return acc;
  }

  template <Datatype T, typename Op>
  T reduce_value(const T& contribution, Op op, Rank root) {
    return reduce(std::span<const T>(&contribution, 1), op, root).front();
  }

  template <Datatype T, typename Op>
  std::vector<T> allreduce(std::span<const T> contribution, Op op) {
    auto result = reduce(contribution, op, 0);
    std::vector<std::byte> raw(result.size() * sizeof(T));
    std::memcpy(raw.data(), result.data(), raw.size());
    bcast_bytes(raw, 0);
    result.resize(raw.size() / sizeof(T));
    std::memcpy(result.data(), raw.data(), raw.size());
    return result;
  }

  template <Datatype T, typename Op>
  T allreduce_value(const T& contribution, Op op) {
    return allreduce(std::span<const T>(&contribution, 1), op).front();
  }

  /// Gathers one variable-size byte buffer per rank; root receives them in
  /// rank order, other ranks receive an empty vector.
  std::vector<std::vector<std::byte>> gather_bytes(
      std::span<const std::byte> contribution, Rank root);

  template <Datatype T>
  std::vector<T> gather(std::span<const T> contribution, Rank root) {
    auto parts = gather_bytes(std::as_bytes(contribution), root);
    std::vector<T> flat;
    for (const auto& part : parts) {
      const std::size_t old = flat.size();
      flat.resize(old + part.size() / sizeof(T));
      std::memcpy(flat.data() + old, part.data(), part.size());
    }
    return flat;
  }

  /// Scatters one buffer per rank from root (MPI_Scatterv-style,
  /// variable sizes). `parts` is ignored on non-roots.
  std::vector<std::byte> scatter_bytes(
      const std::vector<std::vector<std::byte>>& parts, Rank root);

  /// Personalized all-to-all exchange of variable-size byte buffers:
  /// element d of `outgoing` goes to rank d; returns what every rank sent
  /// to us, indexed by source (MPI_Alltoallv analog).
  std::vector<std::vector<std::byte>> alltoall_bytes(
      std::vector<std::vector<std::byte>> outgoing);

  /// Gather to everyone (gather + bcast).
  std::vector<std::vector<std::byte>> allgather_bytes(
      std::span<const std::byte> contribution);

  /// Inclusive prefix reduction (MPI_Scan): rank r receives op applied
  /// over the contributions of ranks 0..r. Linear chain; O(size) latency.
  template <Datatype T, typename Op>
  T scan_value(const T& contribution, Op op) {
    const std::uint64_t seq = next_collective_seq();
    T acc = contribution;
    if (rank_ > 0) {
      std::vector<std::byte> raw;
      coll_recv(rank_ - 1, seq, 0, raw);
      if (raw.size() != sizeof(T)) {
        throw std::runtime_error("minimpi: scan size mismatch");
      }
      T incoming;
      std::memcpy(&incoming, raw.data(), sizeof(T));
      op(incoming, acc);  // incoming = prefix(0..r-1) op mine
      acc = incoming;
    }
    if (rank_ + 1 < size()) {
      coll_send(rank_ + 1, seq, 0,
                std::as_bytes(std::span<const T>(&acc, 1)));
    }
    return acc;
  }

  /// Exclusive prefix reduction (MPI_Exscan): rank r receives op over
  /// ranks 0..r-1; rank 0 receives `identity`.
  template <Datatype T, typename Op>
  T exscan_value(const T& contribution, Op op, const T& identity) {
    const std::uint64_t seq = next_collective_seq();
    T prefix = identity;
    if (rank_ > 0) {
      std::vector<std::byte> raw;
      coll_recv(rank_ - 1, seq, 0, raw);
      if (raw.size() != sizeof(T)) {
        throw std::runtime_error("minimpi: exscan size mismatch");
      }
      std::memcpy(&prefix, raw.data(), sizeof(T));
    }
    if (rank_ + 1 < size()) {
      T forward = prefix;
      op(forward, contribution);
      coll_send(rank_ + 1, seq, 0,
                std::as_bytes(std::span<const T>(&forward, 1)));
    }
    return prefix;
  }

  /// MPI_Reduce_scatter_block: element-wise reduction of `contribution`
  /// (length = block * size) followed by scattering block r to rank r.
  template <Datatype T, typename Op>
  std::vector<T> reduce_scatter_block(std::span<const T> contribution,
                                      Op op) {
    const auto n = static_cast<std::size_t>(size());
    if (contribution.size() % n != 0) {
      throw std::invalid_argument(
          "minimpi: reduce_scatter_block needs size-divisible input");
    }
    const std::size_t block = contribution.size() / n;
    auto reduced = reduce(contribution, op, 0);
    std::vector<std::vector<std::byte>> parts;
    if (rank_ == 0) {
      parts.resize(n);
      for (std::size_t r = 0; r < n; ++r) {
        const auto* p =
            reinterpret_cast<const std::byte*>(reduced.data() + r * block);
        parts[r].assign(p, p + block * sizeof(T));
      }
    }
    const auto mine = scatter_bytes(parts, 0);
    std::vector<T> out(block);
    if (mine.size() != block * sizeof(T)) {
      throw std::runtime_error("minimpi: reduce_scatter_block size mismatch");
    }
    std::memcpy(out.data(), mine.data(), mine.size());
    return out;
  }

 private:
  Comm(World& world, Rank rank, std::uint64_t context,
       std::shared_ptr<const std::vector<Rank>> group) noexcept
      : world_(&world), rank_(rank), context_(context),
        group_(std::move(group)) {}

  /// Communicator-local rank -> world rank.
  Rank to_world(Rank r) const noexcept {
    return group_ ? (*group_)[static_cast<std::size_t>(r)] : r;
  }
  /// World rank -> communicator-local rank (groups are small; linear scan).
  Rank from_world(Rank world_rank) const noexcept {
    if (!group_) return world_rank;
    for (std::size_t i = 0; i < group_->size(); ++i) {
      if ((*group_)[i] == world_rank) return static_cast<Rank>(i);
    }
    return -1;
  }
  /// Translates a receive status' source back into this communicator.
  Status localized(Status st) const noexcept {
    st.source = from_world(st.source);
    return st;
  }

  Rank virtual_rank(Rank root) const noexcept {
    return (rank_ - root + size()) % size();
  }
  Rank absolute_rank(Rank vrank, Rank root) const noexcept {
    return (vrank + root) % size();
  }

  std::uint64_t next_collective_seq() noexcept { return coll_seq_++; }

  /// Point-to-point inside a collective: isolated context + phase tag.
  void coll_send(Rank dst, std::uint64_t seq, int phase,
                 std::span<const std::byte> data);
  Status coll_recv(Rank src, std::uint64_t seq, int phase,
                   std::vector<std::byte>& out);

  void check_peer(Rank peer, const char* what) const;
  void check_tag(int tag, const char* what) const;

  /// Delivers a standard-mode send, consulting the world's transport fault
  /// hook (drop / duplicate / delay / corrupt) when one is installed.
  void deliver_user(detail::Envelope&& env, Rank dst_world);

  World* world_;
  Rank rank_;
  std::uint64_t context_;
  std::shared_ptr<const std::vector<Rank>> group_;  // null = world identity
  std::uint64_t coll_seq_ = 0;
  std::uint64_t dup_seq_ = 0;
  std::uint64_t split_seq_ = 0;
};

}  // namespace mpid::minimpi
