#include "mpid/minimpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "mpid/common/hash.hpp"
#include "mpid/common/kvframe.hpp"

namespace mpid::minimpi {

namespace {

/// Collective traffic lives in a context derived from the user context so
/// wildcard user receives can never observe it.
constexpr std::uint64_t kCollectiveBit = 0x8000000000000000ULL;

constexpr int kCollPhases = 16;

int collective_tag(std::uint64_t seq, int phase) noexcept {
  return static_cast<int>((seq % (1u << 20)) * kCollPhases +
                          static_cast<unsigned>(phase));
}

}  // namespace

void Comm::check_peer(Rank peer, const char* what) const {
  if (peer < 0 || peer >= size()) {
    std::ostringstream msg;
    msg << "minimpi: " << what << ": rank " << peer << " out of range [0, "
        << size() << ")";
    throw std::out_of_range(msg.str());
  }
}

void Comm::check_tag(int tag, const char* what) const {
  if (tag < 0 || tag > kMaxUserTag) {
    std::ostringstream msg;
    msg << "minimpi: " << what << ": tag " << tag << " out of range [0, "
        << kMaxUserTag << "]";
    throw std::out_of_range(msg.str());
  }
}

Comm Comm::dup() noexcept {
  ++dup_seq_;
  return Comm(*world_, rank_, common::fmix64(context_ ^ dup_seq_), group_);
}

std::optional<Comm> Comm::split(int color, int key) {
  // Share (color, key) of every member, ordered by current rank.
  ++split_seq_;
  std::int32_t mine[2] = {color, key};
  auto all = allgather_bytes(std::as_bytes(std::span<const std::int32_t>(
      mine, 2)));

  // Members of my color, ordered by (key, old rank).
  std::vector<std::pair<std::int32_t, Rank>> members;  // (key, old rank)
  for (Rank r = 0; r < size(); ++r) {
    std::int32_t theirs[2];
    if (all[static_cast<std::size_t>(r)].size() != sizeof theirs) {
      throw std::runtime_error("minimpi: split exchange corrupt");
    }
    std::memcpy(theirs, all[static_cast<std::size_t>(r)].data(),
                sizeof theirs);
    if (color >= 0 && theirs[0] == color) members.emplace_back(theirs[1], r);
  }
  if (color < 0) return std::nullopt;
  std::sort(members.begin(), members.end());

  auto group = std::make_shared<std::vector<Rank>>();
  Rank my_new_rank = -1;
  for (const auto& [k, old_rank] : members) {
    if (old_rank == rank_) my_new_rank = static_cast<Rank>(group->size());
    group->push_back(to_world(old_rank));
  }
  const std::uint64_t new_context = common::fmix64(
      context_ ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(color))
                  << 24) ^ split_seq_ ^ 0xab12cd34ef56ULL);
  return Comm(*world_, my_new_rank, new_context, std::move(group));
}

void Comm::deliver_user(detail::Envelope&& env, Rank dst_world) {
  if (const TransportHook* hook = world_->transport_hook()) {
    const TransportFault fault = (*hook)(
        {env.context, env.source, dst_world, env.tag, env.payload.size()});
    if (fault.delay.count() > 0) std::this_thread::sleep_for(fault.delay);
    if (fault.corrupt && !env.payload.empty()) {
      env.payload[fault.corrupt_offset % env.payload.size()] ^=
          fault.corrupt_mask;
    }
    if (fault.drop) return;
    if (fault.duplicate) {
      detail::Envelope copy;
      copy.context = env.context;
      copy.source = env.source;
      copy.tag = env.tag;
      copy.payload = env.payload;
      world_->mailbox(dst_world).deliver(std::move(copy));
    }
  }
  world_->mailbox(dst_world).deliver(std::move(env));
}

void Comm::send_bytes(Rank dst, int tag, std::span<const std::byte> data) {
  check_peer(dst, "send");
  check_tag(tag, "send");
  detail::Envelope env;
  env.context = context_;
  env.source = to_world(rank_);
  env.tag = tag;
  env.payload.assign(data.begin(), data.end());
  deliver_user(std::move(env), to_world(dst));
}

void Comm::send_bytes_owned(Rank dst, int tag, std::vector<std::byte>&& data) {
  check_peer(dst, "send");
  check_tag(tag, "send");
  detail::Envelope env;
  env.context = context_;
  env.source = to_world(rank_);
  env.tag = tag;
  env.payload = std::move(data);
  deliver_user(std::move(env), to_world(dst));
}

void Comm::ssend_bytes(Rank dst, int tag, std::span<const std::byte> data) {
  check_peer(dst, "ssend");
  check_tag(tag, "ssend");
  auto token = std::make_shared<detail::SyncToken>();
  detail::Envelope env;
  env.context = context_;
  env.source = to_world(rank_);
  env.tag = tag;
  env.payload.assign(data.begin(), data.end());
  env.sync = token;
  world_->mailbox(to_world(dst)).deliver(std::move(env));
  if (!token->wait(world_->timeout())) {
    throw std::runtime_error(
        "minimpi: ssend timed out waiting for a matching receive — likely "
        "deadlock");
  }
}

Status Comm::recv_bytes(Rank src, int tag, std::vector<std::byte>& out) {
  if (src != kAnySource) check_peer(src, "recv");
  if (tag != kAnyTag) check_tag(tag, "recv");
  detail::PostedRecv posted;
  posted.context = context_;
  posted.source_filter = src == kAnySource ? kAnySource : to_world(src);
  posted.tag_filter = tag;
  posted.sink = &out;
  world_->mailbox(to_world(rank_)).recv_blocking(posted, world_->timeout());
  return localized(posted.status);
}

Request Comm::isend_bytes(Rank dst, int tag, std::span<const std::byte> data) {
  send_bytes(dst, tag, data);  // eager: complete on return
  auto state = std::make_unique<Request::State>();
  state->mailbox = nullptr;
  state->immediate_status.source = rank_;
  state->immediate_status.tag = tag;
  state->immediate_status.byte_count = data.size();
  return Request(std::move(state));
}

Request Comm::isend_bytes_owned(Rank dst, int tag,
                                std::vector<std::byte>&& data) {
  const std::size_t n = data.size();
  send_bytes_owned(dst, tag, std::move(data));  // eager: complete on return
  auto state = std::make_unique<Request::State>();
  state->mailbox = nullptr;
  state->immediate_status.source = rank_;
  state->immediate_status.tag = tag;
  state->immediate_status.byte_count = n;
  return Request(std::move(state));
}

Request Comm::irecv_bytes(Rank src, int tag, std::vector<std::byte>& out) {
  if (src != kAnySource) check_peer(src, "irecv");
  if (tag != kAnyTag) check_tag(tag, "irecv");
  auto state = std::make_unique<Request::State>();
  state->posted.context = context_;
  state->posted.source_filter = src == kAnySource ? kAnySource : to_world(src);
  state->posted.tag_filter = tag;
  state->posted.sink = &out;
  state->mailbox = &world_->mailbox(to_world(rank_));
  state->timeout = world_->timeout();
  state->group = group_;
  state->mailbox->post(state->posted);
  return Request(std::move(state));
}

Status Comm::probe(Rank src, int tag) {
  if (src != kAnySource) check_peer(src, "probe");
  if (tag != kAnyTag) check_tag(tag, "probe");
  return localized(world_->mailbox(to_world(rank_))
                       .probe(context_,
                              src == kAnySource ? kAnySource : to_world(src),
                              tag, world_->timeout()));
}

std::optional<Status> Comm::iprobe(Rank src, int tag) {
  if (src != kAnySource) check_peer(src, "iprobe");
  if (tag != kAnyTag) check_tag(tag, "iprobe");
  auto st = world_->mailbox(to_world(rank_))
                .iprobe(context_,
                        src == kAnySource ? kAnySource : to_world(src), tag);
  if (!st) return std::nullopt;
  return localized(*st);
}

Status Comm::sendrecv_bytes(Rank dst, int send_tag,
                            std::span<const std::byte> send_data, Rank src,
                            int recv_tag, std::vector<std::byte>& out) {
  Request recv_req = irecv_bytes(src, recv_tag, out);
  send_bytes(dst, send_tag, send_data);
  return recv_req.wait();
}

void Comm::coll_send(Rank dst, std::uint64_t seq, int phase,
                     std::span<const std::byte> data) {
  detail::Envelope env;
  env.context = context_ | kCollectiveBit;
  env.source = to_world(rank_);
  env.tag = collective_tag(seq, phase);
  env.payload.assign(data.begin(), data.end());
  world_->mailbox(to_world(dst)).deliver(std::move(env));
}

Status Comm::coll_recv(Rank src, std::uint64_t seq, int phase,
                       std::vector<std::byte>& out) {
  detail::PostedRecv posted;
  posted.context = context_ | kCollectiveBit;
  posted.source_filter = to_world(src);
  posted.tag_filter = collective_tag(seq, phase);
  posted.sink = &out;
  world_->mailbox(to_world(rank_)).recv_blocking(posted, world_->timeout());
  return localized(posted.status);
}

void Comm::barrier() {
  const int n = size();
  const std::uint64_t seq = next_collective_seq();
  std::vector<std::byte> token;
  int phase = 0;
  for (int step = 1; step < n; step <<= 1, ++phase) {
    const Rank to = (rank_ + step) % n;
    const Rank from = (rank_ - step % n + n) % n;
    coll_send(to, seq, phase, {});
    coll_recv(from, seq, phase, token);
  }
}

void Comm::bcast_bytes(std::vector<std::byte>& data, Rank root) {
  check_peer(root, "bcast");
  const int n = size();
  const Rank vrank = virtual_rank(root);
  const std::uint64_t seq = next_collective_seq();

  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      coll_recv(absolute_rank(vrank - mask, root), seq, 0, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      coll_send(absolute_rank(vrank + mask, root), seq, 0,
                std::span<const std::byte>(data));
    }
    mask >>= 1;
  }
}

std::vector<std::vector<std::byte>> Comm::gather_bytes(
    std::span<const std::byte> contribution, Rank root) {
  check_peer(root, "gather");
  const int n = size();
  const std::uint64_t seq = next_collective_seq();
  std::vector<std::vector<std::byte>> parts;
  if (rank_ == root) {
    parts.resize(static_cast<std::size_t>(n));
    parts[static_cast<std::size_t>(root)].assign(contribution.begin(),
                                                 contribution.end());
    for (Rank r = 0; r < n; ++r) {
      if (r == root) continue;
      coll_recv(r, seq, 0, parts[static_cast<std::size_t>(r)]);
    }
  } else {
    coll_send(root, seq, 0, contribution);
  }
  return parts;
}

std::vector<std::byte> Comm::scatter_bytes(
    const std::vector<std::vector<std::byte>>& parts, Rank root) {
  check_peer(root, "scatter");
  const int n = size();
  const std::uint64_t seq = next_collective_seq();
  if (rank_ == root) {
    if (parts.size() != static_cast<std::size_t>(n)) {
      throw std::invalid_argument("minimpi: scatter needs one part per rank");
    }
    for (Rank r = 0; r < n; ++r) {
      if (r == root) continue;
      coll_send(r, seq, 0,
                std::span<const std::byte>(parts[static_cast<std::size_t>(r)]));
    }
    return parts[static_cast<std::size_t>(root)];
  }
  std::vector<std::byte> mine;
  coll_recv(root, seq, 0, mine);
  return mine;
}

std::vector<std::vector<std::byte>> Comm::alltoall_bytes(
    std::vector<std::vector<std::byte>> outgoing) {
  const int n = size();
  if (outgoing.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("minimpi: alltoall needs one buffer per rank");
  }
  const std::uint64_t seq = next_collective_seq();
  std::vector<std::vector<std::byte>> incoming(static_cast<std::size_t>(n));
  incoming[static_cast<std::size_t>(rank_)] =
      std::move(outgoing[static_cast<std::size_t>(rank_)]);
  // Eager sends cannot deadlock: blast all sends, then collect.
  for (Rank r = 0; r < n; ++r) {
    if (r == rank_) continue;
    coll_send(r, seq, 0,
              std::span<const std::byte>(outgoing[static_cast<std::size_t>(r)]));
  }
  for (Rank r = 0; r < n; ++r) {
    if (r == rank_) continue;
    coll_recv(r, seq, 0, incoming[static_cast<std::size_t>(r)]);
  }
  return incoming;
}

std::vector<std::vector<std::byte>> Comm::allgather_bytes(
    std::span<const std::byte> contribution) {
  auto parts = gather_bytes(contribution, 0);
  // Broadcast the concatenation with a simple length-prefixed encoding.
  std::vector<std::byte> packed;
  if (rank_ == 0) {
    for (const auto& part : parts) {
      common::put_varint(packed, part.size());
      packed.insert(packed.end(), part.begin(), part.end());
    }
  }
  bcast_bytes(packed, 0);
  std::vector<std::vector<std::byte>> out;
  std::size_t offset = 0;
  while (offset < packed.size()) {
    const auto len = common::get_varint(packed, offset);
    if (!len || *len > packed.size() - offset) {
      throw std::runtime_error("minimpi: allgather decode error");
    }
    out.emplace_back(packed.begin() + static_cast<std::ptrdiff_t>(offset),
                     packed.begin() +
                         static_cast<std::ptrdiff_t>(offset + *len));
    offset += static_cast<std::size_t>(*len);
  }
  return out;
}

}  // namespace mpid::minimpi
