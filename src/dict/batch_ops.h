// Grouped-mutation application: the EREW discipline used by every phase of
// the dynamic matcher that mutates per-vertex structures.
//
// A parallel phase first *computes* its mutations read-only (one record per
// (target vertex, payload)), then this helper sorts the records by key and
// applies each group in a single task. Concurrent tasks touch disjoint
// targets, so per-target containers need no locks, and the sorted order
// makes the result deterministic for a fixed seed.
//
// Determinism discipline: phases that care about the order of mutations
// *within* one group (container iteration order feeds downstream random
// sampling) use apply_grouped_unique with a key that is unique per record —
// typically (target << 32) | edge — and a group projection of the key. A
// total order leaves nothing to the sort's tie-breaking, so the applied
// order is independent of grain and thread count by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/cost_model.h"
#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "parallel/thread_pool.h"

namespace pdmm {

namespace detail {

// Runs apply(g) for every group g in [0, groups), one task per group —
// or inline when the groups hold at most kDefaultGrain records in all: a
// group is often a record or two (and many buckets are empty), so a small
// apply is cheaper run in place than spread over the pool. The cutoff
// depends on the record count only, never on the thread count.
template <typename F>
void apply_groups(ThreadPool& pool, size_t groups, size_t records, F&& apply) {
  if (records <= kDefaultGrain) {
    for (size_t g = 0; g < groups; ++g) apply(g);
  } else {
    parallel_for(pool, groups, apply, /*grain=*/1);
  }
}

}  // namespace detail

// Scratch for the grouped-apply helpers (merge buffer + group offsets) so
// hot callers can run allocation-free.
template <typename Rec>
struct GroupScratch {
  std::vector<Rec> sort_buf;
  std::vector<size_t> starts;
};

// Sorts `records` by key(record) (a uint64 that must be UNIQUE per record),
// then calls apply(group, span_begin, span_end) once per distinct
// group(key), groups in parallel (inline when there are at most
// kDefaultGrain records). Because keys are unique, the applied order
// within each group is the ascending-key order — fully deterministic.
template <typename Rec, typename KeyFn, typename GroupFn, typename ApplyFn>
void apply_grouped_unique(ThreadPool& pool, std::vector<Rec>& records,
                          KeyFn&& key, GroupFn&& group, ApplyFn&& apply,
                          GroupScratch<Rec>& scratch,
                          CostCounters* cost = nullptr) {
  if (records.empty()) return;
  parallel_sort_with(pool, records, scratch.sort_buf,
                     [&](const Rec& a, const Rec& b) { return key(a) < key(b); });
  group_boundaries_into(
      records, [&](const Rec& r) { return group(key(r)); }, scratch.starts);
  const std::vector<size_t>& starts = scratch.starts;
  const size_t groups = starts.size() - 1;
  detail::apply_groups(pool, groups, records.size(), [&](size_t g) {
    apply(group(key(records[starts[g]])), records.data() + starts[g],
          records.data() + starts[g + 1]);
  });
  if (cost) {
    cost->round(records.size());  // sort counts as one logical round here;
    cost->round(groups);          // apply is the second round.
  }
}

// Scratch for apply_bucketed_dense (bucket-ordered record copy, blocked
// histogram, scan output, per-bucket boundaries).
template <typename Rec>
struct DenseBucketScratch {
  std::vector<Rec> out;
  std::vector<size_t> counts;
  std::vector<size_t> offsets;
  std::vector<size_t> bucket_starts;
};

// Prefix-sum bucketed apply for DENSE group keys. When the group key is a
// small integer (e.g. a level: num_buckets <= L+1), the comparison sort in
// apply_grouped_unique is overkill — a blocked (bucket, block) histogram,
// one exclusive prefix sum (scan.h), and a stable per-block scatter place
// every record in O(n) work and O(1) sort depth.
//
// Stability: the histogram is bucket-major over grain-aligned blocks, so
// within one bucket records land in (block asc, in-block asc) = original
// generation order. A caller whose records are generated in ascending
// secondary order therefore gets exactly the in-group order that
// apply_grouped_unique would produce with (bucket << 32 | secondary) keys —
// which is how refresh_s_membership_all swaps one for the other without
// changing a single applied order. The grain depends only on n
// (cost_model.h contract), so the scatter layout — and with it the applied
// order — is identical across thread counts.
//
// `bucket(rec)` must return a value < num_buckets. apply(bucket, begin,
// end) runs once per non-empty bucket, buckets in parallel (inline when
// there are at most kDefaultGrain records).
template <typename Rec, typename BucketFn, typename ApplyFn>
void apply_bucketed_dense(ThreadPool& pool, std::vector<Rec>& records,
                          size_t num_buckets, BucketFn&& bucket,
                          ApplyFn&& apply, DenseBucketScratch<Rec>& scratch,
                          CostCounters* cost = nullptr) {
  if (records.empty() || num_buckets == 0) return;
  const size_t n = records.size();
  const size_t g = resolve_grain(n, kAutoGrain, kDefaultGrain);
  const size_t num_blocks = (n + g - 1) / g;

  scratch.counts.assign(num_buckets * num_blocks, 0);
  parallel_for_blocks(pool, n, g, [&](size_t blk, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      ++scratch.counts[bucket(records[i]) * num_blocks + blk];
    }
  });

  scan_exclusive(pool, scratch.counts, scratch.offsets);

  scratch.bucket_starts.resize(num_buckets + 1);
  for (size_t d = 0; d < num_buckets; ++d) {
    scratch.bucket_starts[d] = scratch.offsets[d * num_blocks];
  }
  scratch.bucket_starts[num_buckets] = n;

  // Stable scatter: slot (d, blk) of offsets is advanced only by block
  // blk's task, so the cursors are exclusively owned (EREW) and the copy
  // needs no atomics.
  scratch.out.resize(n);
  parallel_for_blocks(pool, n, g, [&](size_t blk, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const size_t d = bucket(records[i]);
      scratch.out[scratch.offsets[d * num_blocks + blk]++] = records[i];
    }
  });

  size_t nonempty = 0;
  for (size_t d = 0; d < num_buckets; ++d) {
    nonempty += scratch.bucket_starts[d + 1] > scratch.bucket_starts[d];
  }
  detail::apply_groups(pool, num_buckets, n, [&](size_t d) {
    const size_t b = scratch.bucket_starts[d];
    const size_t e = scratch.bucket_starts[d + 1];
    if (b != e) apply(d, scratch.out.data() + b, scratch.out.data() + e);
  });
  if (cost) {
    cost->round(n);         // histogram + scan + scatter: streaming passes
    cost->round(nonempty);  // per-bucket apply is the second round
  }
}

}  // namespace pdmm
