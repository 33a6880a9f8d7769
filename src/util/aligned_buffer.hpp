#pragma once
// Cache-line / SIMD aligned heap buffer.
//
// Batched tridiagonal kernels stream long contiguous arrays; allocating them
// on a 64-byte boundary keeps every row of the SoA layout on its own cache
// line start and makes the simulated 128-byte memory-transaction accounting
// in gpusim deterministic (a segment never straddles an allocation edge).

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>

namespace tridsolve::util {

/// Default alignment for numeric arrays: the simulated GPU's 128-byte
/// memory-transaction segment (cudaMalloc guarantees at least this on
/// real devices), which is also two x86 cache lines.
inline constexpr std::size_t kDefaultAlignment = 128;

/// Owning, aligned, fixed-size array of trivially-destructible T.
///
/// A minimal RAII vector replacement: never reallocates, never default-
/// initializes more than requested, and exposes itself as std::span.
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedBuffer is for plain numeric types");

 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count, T fill = T{})
      : size_(count), data_(allocate(count)) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = fill;
  }

  /// A copy of `src`, written once (no fill first).
  explicit AlignedBuffer(std::span<const T> src)
      : size_(src.size()), data_(allocate(src.size())) {
    std::copy(src.begin(), src.end(), data_.get());
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] const T* data() const noexcept { return data_.get(); }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  [[nodiscard]] std::span<T> span() noexcept { return {data_.get(), size_}; }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data_.get(), size_};
  }

  [[nodiscard]] T* begin() noexcept { return data_.get(); }
  [[nodiscard]] T* end() noexcept { return data_.get() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_.get(); }
  [[nodiscard]] const T* end() const noexcept { return data_.get() + size_; }

 private:
  struct Deleter {
    void* block = nullptr;  ///< start of the allocation data() sits in
    void operator()(T*) const noexcept { ::operator delete(block); }
  };

  // A plain block with room to align, not aligned operator new: glibc
  // serves that through memalign, which trims each block to the exact
  // size and frees the slack. A freed buffer then cannot hold the next
  // same-size request, the slack pins small holes between big buffers,
  // and a batch loop that reallocates its buffers keeps growing the heap.
  static std::unique_ptr<T[], Deleter> allocate(std::size_t count) {
    if (count == 0) return nullptr;
    const std::size_t bytes = count * sizeof(T);
    std::size_t space = bytes + kDefaultAlignment;
    void* block = ::operator new(space);
    void* p = block;
    std::align(kDefaultAlignment, bytes, p, space);
    return std::unique_ptr<T[], Deleter>(static_cast<T*>(p), Deleter{block});
  }

  std::size_t size_ = 0;
  std::unique_ptr<T[], Deleter> data_;
};

/// True if `p` is aligned to `alignment` bytes.
bool is_aligned(const void* p, std::size_t alignment) noexcept;

}  // namespace tridsolve::util
