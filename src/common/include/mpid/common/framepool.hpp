// FramePool: a bounded, thread-safe recycler of frame byte buffers.
//
// The MPI-D shuffle moves data in fixed-target-size partition frames
// (std::vector<std::byte>). Without pooling every spill allocates a fresh
// buffer on the mapper, the transport hands it to the reducer, and the
// reducer frees it after reverse realignment — an allocate/free pair per
// frame on the hottest path in the system. A FramePool closes that loop:
// reducers release parsed frame buffers, mappers acquire them for the next
// spill, and the allocator drops out of the steady state entirely.
//
// The pool is deliberately small and dumb: a mutex-guarded LIFO stack of
// vectors. LIFO keeps the most recently touched (cache-warm) buffer on
// top. Bounds prevent pathological retention: at most `max_buffers`
// vectors are kept, and any buffer whose capacity exceeds
// `max_buffer_bytes` is dropped instead of cached (a one-off jumbo frame
// must not pin memory forever).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace mpid::common {

class FramePool {
 public:
  struct Counters {
    std::uint64_t acquires = 0;  // acquire() calls
    std::uint64_t hits = 0;      // acquires satisfied from the pool
    std::uint64_t releases = 0;  // release() calls
    std::uint64_t drops = 0;     // releases discarded (full pool / jumbo)
  };

  /// The default count covers a round's live frames: a reducer holds each
  /// mapper lane until it seals, and a resilient mapper retains a copy of
  /// every frame until the barrier. Buffers beyond the bound go back to
  /// the allocator, whose fresh pages fault on first touch (at 256 KiB
  /// frames that cost ~10x the copy itself).
  explicit FramePool(std::size_t max_buffers = 256,
                     std::size_t max_buffer_bytes = 8 * 1024 * 1024)
      : max_buffers_(max_buffers), max_buffer_bytes_(max_buffer_bytes) {
    free_.reserve(max_buffers_);  // keeps release() allocation-free
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Returns an empty buffer, reusing a pooled allocation when one is
  /// available; reserves at least `capacity_hint` bytes either way.
  std::vector<std::byte> acquire(std::size_t capacity_hint = 0);

  /// Returns a buffer to the pool. Contents are discarded; the allocation
  /// is kept unless the pool is full or the buffer is over the size cap.
  void release(std::vector<std::byte>&& buf) noexcept;

  /// Number of buffers currently cached.
  std::size_t cached() const;

  Counters counters() const;

  /// A process-wide shared pool. In-process minimpi worlds run every rank
  /// as a thread of one process, so a single shared pool lets reducer
  /// threads recycle buffers straight back to mapper threads.
  static const std::shared_ptr<FramePool>& process_pool();

 private:
  const std::size_t max_buffers_;
  const std::size_t max_buffer_bytes_;
  mutable std::mutex mu_;
  std::vector<std::vector<std::byte>> free_;
  Counters counters_;
};

}  // namespace mpid::common
