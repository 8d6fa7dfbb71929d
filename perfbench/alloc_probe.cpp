// Replaceable global allocation functions that count every heap allocation
// made by the process. The count is exact and deterministic for the
// single-threaded replays this benchmark runs, so it is a regression signal
// that wall-clock noise cannot blur.
#include "alloc_probe.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
