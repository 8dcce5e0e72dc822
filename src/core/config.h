// Configuration of the dynamic matcher.
//
// A Config fully determines a DynamicMatcher's behaviour: two matchers
// with the same Config fed the same update sequence produce bit-identical
// state and counters on any machine and thread count. Defaults reproduce
// the paper's algorithm with eager settling (Invariant 3.5(2) restored
// after every batch); the knobs below trade that off or pin structure
// sizes for controlled experiments (benchmark E15 ablates them).
#pragma once

#include <cstdint>

namespace pdmm {

struct Config {
  // Maximum hyperedge rank r. alpha = 4r per §3.2.1.
  uint32_t max_rank = 2;

  // Seed for all algorithm randomness (the adversary must not see it).
  uint64_t seed = 0x5eedULL;

  // Initial value of N, the bound on #vertices + #updates. When the budget
  // is exhausted N doubles and all structures rebuild (§3.2.1).
  uint64_t initial_capacity = 1024;

  // Whether to perform the N-doubling rebuild automatically. Disabling it
  // keeps L fixed (useful for controlled benchmarks); the guarantees then
  // hold only while the update count stays within initial_capacity.
  bool auto_rebuild = true;

  // Run the Step-2 settle sweep again after the insertion phase so
  // Invariant 3.5(2) holds after *every* batch (eager mode; see DESIGN.md
  // §2 step 4). Paper-exact lazy mode when false.
  bool settle_after_insertions = true;

  // Eager mode only: settle sweeps can kick matched edges, whose
  // reinsertion can re-populate the rising sets; the drain loop alternates
  // sweep/reinsert until clean, up to this many iterations (then the
  // residue is left for the next batch, exactly as lazy mode would).
  uint32_t max_eager_sweeps = 8;

  // grand-random-subsettle runs ceil(subsettle_iter_factor * log2 |E'|)
  // iterations of subsubsettle per phase (the paper's O(log |E'|)).
  uint32_t subsettle_iter_factor = 2;

  // Hard cap on subsettle repetitions inside one grand-random-settle before
  // falling back to sequential settling (whp O(log N) repeats suffice; the
  // cap guards against pathological seeds and is counted in stats).
  uint32_t max_settle_repeats = 64;

  // Collect per-epoch statistics (benchmarks E7/E8); small constant
  // overhead per matching change.
  bool collect_epoch_stats = true;

  // Validate all invariants after every batch (tests only; O(graph) work).
  bool check_invariants = false;
};

// True when `a` and `b` replay the same update stream to the same state:
// they agree on every field that steers a batch. This is the one list of
// lineage fields; recovery, follower bootstrap and the snapshot loader
// all compare through it. initial_capacity (the snapshot carries N
// itself), collect_epoch_stats and check_invariants are observation or
// sizing knobs and do not fork a replay.
inline bool same_lineage(const Config& a, const Config& b) {
  return a.max_rank == b.max_rank && a.seed == b.seed &&
         a.settle_after_insertions == b.settle_after_insertions &&
         a.subsettle_iter_factor == b.subsettle_iter_factor &&
         a.max_settle_repeats == b.max_settle_repeats &&
         a.max_eager_sweeps == b.max_eager_sweeps &&
         a.auto_rebuild == b.auto_rebuild;
}

}  // namespace pdmm
