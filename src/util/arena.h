#pragma once
// Aligned arena allocation for vector storage.
//
// The SIMD kernels (vectordb/kernels.h) load rows with aligned vector
// instructions, so the packed SoA blocks they scan must start on a cache
// line. `AlignedBuffer` is a growable, cache-line-aligned byte buffer —
// the allocation primitive under every packed fp32 matrix — and
// `Arena` is a bump allocator over large aligned slabs for callers that
// carve many small aligned pieces (per-level HNSW adjacency lists) without
// one malloc per piece.
//
// Neither is thread-safe; confine an instance to its owning structure and
// publish that structure immutably (the Snapshot pattern) for shared reads.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

namespace pkb::util {

/// Cache-line alignment used by every arena allocation. 64 bytes covers one
/// x86 cache line and a full AVX-512 register; NEON and AVX2 loads are
/// satisfied a fortiori.
inline constexpr std::size_t kArenaAlignment = 64;

/// Round `n` up to the next multiple of `align` (a power of two).
[[nodiscard]] constexpr std::size_t align_up(std::size_t n,
                                             std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

/// A growable byte buffer whose data() is always 64-byte aligned. Unlike
/// std::vector, reallocation keeps the alignment guarantee; contents are
/// preserved across grow() calls. Zero-initializes new bytes so padded SIMD
/// lanes read exact zeros (a zero contributes nothing to a dot product,
/// which is what keeps padded scans bit-equal to unpadded ones).
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  /// Exactly `bytes`, zeroed.
  explicit AlignedBuffer(std::size_t bytes) {
    reserve(bytes);
    resize(bytes);
  }

  AlignedBuffer(const AlignedBuffer& other) { *this = other; }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      resize(other.size_);
      if (size_ > 0) std::memcpy(data_.get(), other.data_.get(), size_);
    }
    return *this;
  }
  AlignedBuffer(AlignedBuffer&&) noexcept = default;
  AlignedBuffer& operator=(AlignedBuffer&&) noexcept = default;

  /// Grow or shrink to `bytes`; existing contents up to min(old, new) are
  /// kept, new bytes are zero. Amortized doubling keeps append loops O(n).
  void resize(std::size_t bytes) {
    if (bytes > capacity_) {
      std::size_t cap = capacity_ == 0 ? 1024 : capacity_;
      while (cap < bytes) cap *= 2;
      auto grown = allocate(cap);
      if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
      std::memset(grown.get() + size_, 0, cap - size_);
      data_ = std::move(grown);
      capacity_ = cap;
    } else if (bytes > size_) {
      std::memset(data_.get() + size_, 0, bytes - size_);
    }
    size_ = bytes;
  }

  /// Make room for `bytes` with one exact allocation when the final size is
  /// known, instead of the doubling steps resize() takes; contents and size
  /// are kept. Never shrinks.
  void reserve(std::size_t bytes) {
    if (bytes <= capacity_) return;
    auto grown = allocate(bytes);
    if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
    data_ = std::move(grown);
    capacity_ = bytes;
  }

  [[nodiscard]] std::byte* data() { return data_.get(); }
  [[nodiscard]] const std::byte* data() const { return data_.get(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Typed views; the buffer must be sized in whole elements by the caller.
  template <typename T>
  [[nodiscard]] T* as() {
    return reinterpret_cast<T*>(data_.get());
  }
  template <typename T>
  [[nodiscard]] const T* as() const {
    return reinterpret_cast<const T*>(data_.get());
  }

 private:
  struct Free {
    void operator()(std::byte* p) const { ::operator delete[](
        p, std::align_val_t{kArenaAlignment}); }
  };
  using Ptr = std::unique_ptr<std::byte[], Free>;

  static Ptr allocate(std::size_t bytes) {
    return Ptr(static_cast<std::byte*>(::operator new[](
        bytes, std::align_val_t{kArenaAlignment})));
  }

  Ptr data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Bump allocator over aligned slabs. alloc() never moves earlier
/// allocations (pointers stay valid for the arena's lifetime), so graph
/// structures can hold raw pointers into it. No per-piece free — the arena
/// releases everything at once on destruction, which matches the immutable
/// index lifecycle (build once, publish, drop with the snapshot).
class Arena {
 public:
  /// `slab_bytes` is the granularity of the backing allocations; oversized
  /// requests get a dedicated slab.
  explicit Arena(std::size_t slab_bytes = 1 << 20) : slab_bytes_(slab_bytes) {}

  /// 64-byte-aligned, zero-initialized allocation of `bytes`.
  [[nodiscard]] std::byte* alloc(std::size_t bytes) {
    const std::size_t need = align_up(bytes == 0 ? 1 : bytes, kArenaAlignment);
    if (slabs_.empty() || used_ + need > slabs_.back().size()) {
      slabs_.emplace_back(std::max(need, slab_bytes_));
      used_ = 0;
    }
    std::byte* p = slabs_.back().data() + used_;
    used_ += need;
    return p;
  }

  /// Typed array allocation (zeroed).
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t count) {
    return reinterpret_cast<T*>(alloc(count * sizeof(T)));
  }

  /// Total bytes held by the arena's slabs.
  [[nodiscard]] std::size_t footprint() const {
    std::size_t total = 0;
    for (const AlignedBuffer& s : slabs_) total += s.size();
    return total;
  }

 private:
  std::size_t slab_bytes_;
  std::vector<AlignedBuffer> slabs_;
  std::size_t used_ = 0;
};

}  // namespace pkb::util
