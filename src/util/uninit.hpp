#pragma once
// An allocator whose value-less construction leaves the element unwritten,
// so growing a std::vector with resize() does not zero-fill the new tail.
// For buffers that are always written before they are read (tensor
// workspaces, SSD bounce buffers).

#include <memory>
#include <type_traits>

namespace moment::util {

template <typename T>
struct UninitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_default_constructible_v<T>);
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  void construct(T*) noexcept {}
};

}  // namespace moment::util
