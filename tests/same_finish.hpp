// Compares two reports' per-process finish times pid by pid, bit for bit,
// for the suites that hold engines, paths or runs to identical results.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace prophet::testing {

inline std::uint64_t finish_bits(double finish) {
  return std::bit_cast<std::uint64_t>(finish);
}

/// Success when `actual` holds `expected`'s finish times, pid by pid, in
/// the same bits.
inline ::testing::AssertionResult same_finish(
    const std::vector<double>& actual, const std::vector<double>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << actual.size() << " finish times, expected " << expected.size();
  }
  for (std::size_t pid = 0; pid < expected.size(); ++pid) {
    if (finish_bits(actual[pid]) != finish_bits(expected[pid])) {
      return ::testing::AssertionFailure()
             << "pid " << pid << ": " << actual[pid] << " vs " << expected[pid];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace prophet::testing
