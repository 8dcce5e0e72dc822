// Work/depth instrumentation.
//
// The theorems of the paper bound two machine-independent quantities:
//   * work  — total number of element operations, and
//   * depth — the longest chain of sequentially dependent parallel rounds.
// We measure both directly instead of inferring them from wall-clock time:
// each invocation of a parallel primitive on n elements is recorded as one
// *round* of n work units (a round costs O(log n) PRAM depth at most; the
// round count is the quantity Theorem 4.4 bounds up to log factors).
//
// Counters are owned by the orchestrating thread of an update; parallel
// workers never touch them, so no synchronization is needed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pdmm {

// Grain auto-sizing for the parallel primitives. Two costs bound a chunk
// size from opposite sides: chunks must be large enough to amortize the
// scheduling overhead of one claim (min_grain), and a region should not be
// carved into more chunks than load balancing can use. Capping the chunk
// count keeps the atomic-cursor traffic of huge regions bounded.
//
// Determinism contract: the grain is a function of n (and the per-primitive
// min_grain) ONLY — never of the thread count. A chunk-structured result
// (the combine tree of a parallel_reduce under a non-associative op such
// as a floating-point sum) would otherwise differ across thread counts.
// The sort and the grouped applies no longer depend on it: a stable sort
// has one correct output whatever its blocking.
inline constexpr size_t kMaxChunksPerRegion = 64;

inline constexpr size_t auto_grain(size_t n, size_t min_grain) {
  const size_t balanced = (n + kMaxChunksPerRegion - 1) / kMaxChunksPerRegion;
  return balanced > min_grain ? balanced : min_grain;
}

struct CostCounters {
  uint64_t work = 0;    // total element operations
  uint64_t rounds = 0;  // sequential parallel-primitive steps (depth proxy)

  void round(uint64_t work_units) {
    ++rounds;
    work += work_units;
  }

  void add_work(uint64_t work_units) { work += work_units; }

  void reset() { work = rounds = 0; }

  CostCounters& operator+=(const CostCounters& o) {
    work += o.work;
    rounds += o.rounds;
    return *this;
  }
};

}  // namespace pdmm
