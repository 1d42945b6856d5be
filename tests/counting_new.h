// Replacement global operator new and delete that count what a test asks
// for. Include this header from exactly one source file of a test binary:
// its definitions replace the standard library's for the whole program.
//
// Every form of global new is malloc and every delete is free: ASan pairs
// allocations with deallocations, and the library's nothrow new
// (std::stable_sort's temporary buffer) would otherwise meet this free.
// noinline keeps GCC from pairing an inlined malloc with an inlined free at
// call sites (its -Wmismatched-new-delete would then fire on std::vector).
// The counters are per thread, so a measurement counts only the requests of
// the thread that made it, whatever a daemon thread does meanwhile.

#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace esva::testing {

struct Allocations {
  std::size_t calls = 0;
  std::size_t bytes = 0;
};

/// While set, this thread's requests to operator new are added to
/// `allocations`.
inline thread_local bool counting_allocations = false;
inline thread_local Allocations allocations;

}  // namespace esva::testing

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (esva::testing::counting_allocations) {
    ++esva::testing::allocations.calls;
    esva::testing::allocations.bytes += size;
  }
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
