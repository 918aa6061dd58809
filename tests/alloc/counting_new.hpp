// Counts the global operator new calls of the calling thread, for tests
// that pin how much a run allocates.  The counting replacements of the
// global allocation functions are in counting_new.cpp, linked into this
// directory's test binary only: every other suite keeps the sanitizer's
// own allocator and its new/delete mismatch reports.
#pragma once

#include <cstdint>

namespace prophet::testing {

/// Global operator new calls made on this thread so far.
[[nodiscard]] std::uint64_t allocations();

/// Global operator new calls `run()` makes on this thread.
template <class Run>
std::uint64_t allocations_of(Run&& run) {
  const std::uint64_t before = allocations();
  run();
  return allocations() - before;
}

}  // namespace prophet::testing
