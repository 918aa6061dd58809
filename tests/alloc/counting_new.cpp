// Replaces the global allocation functions with malloc/free wrappers that
// count the calls per thread (counting_new.hpp).  Every form is replaced,
// deallocation included, so allocation and release always pair within
// one allocator, sanitizer runtimes included.
#include "counting_new.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocations = 0;

void* allocate(std::size_t size) {
  ++t_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

void* allocate(std::size_t size, std::align_val_t alignment) {
  ++t_allocations;
  const std::size_t align =
      std::max(static_cast<std::size_t>(alignment), sizeof(void*));
  void* block = nullptr;
  if (posix_memalign(&block, align, size == 0 ? 1 : size) == 0) {
    return block;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace prophet::testing {

std::uint64_t allocations() { return t_allocations; }

}  // namespace prophet::testing

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return allocate(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return allocate(size, alignment);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate(size, alignment);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  try {
    return allocate(size, alignment);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(block);
}
