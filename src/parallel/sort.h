// Integer sorting for the grouped applies: a stable LSD radix sort over a
// uint64 key projection, and the stable counting scatter it shares with
// the dense bucketed apply (dict/batch_ops.h).
//
// Every sort on the matcher's hot path orders integer keys — the
// (vertex << 32) | edge records of a grouped apply, edge ids, vertex ids —
// so each one is a few 8-bit counting passes instead of a comparison sort.
// Digits that are the same in every key (at n = 2^16 a (u << 32) | e key
// varies in about 34 of its 64 bits) are found by one OR/AND pass and
// skipped.
//
// Determinism: a stable sort has exactly one correct output, so the result
// is a pure function of the input — independent of the thread count, the
// grain and the serial/parallel choice. Callers whose keys are unique (or
// are the element itself) get the same bytes from any correct sort.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace pdmm {

// Inputs of at most this many records are insertion-sorted. Timed on the
// sorts of a bulk_churn run (4-core x86 VM), the radix passes already beat
// std::stable_sort from 33-64 records (1.7 vs 2.3 us) and by 4x at
// 513-1024 (11 vs 51 us): the records arrive cache-cold from the pool's
// workers, which costs a comparison sort's random accesses far more than
// the radix's streaming passes.
inline constexpr size_t kSortSmallCutoff = 32;

// Radix passes run serially below this many records and as blocked
// parallel scatters at or above it. A parallel pass pays a worker wake, a
// second read of the input (its per-block histogram) and a 256 x blocks
// cursor scan; on a 4-core x86 VM it first beat the serial passes at about
// 2^16 records with 4 threads and 2^17 with 2 (2^17 records: 2.4 ms serial,
// 1.8 ms at 4 threads). A function of n only, though either side gives the
// same output.
inline constexpr size_t kSortParallelCutoff = size_t{1} << 17;

// Key projection for plain unsigned vectors: the element itself.
struct IdentityKey {
  template <std::unsigned_integral U>
  constexpr uint64_t operator()(U x) const {
    return x;
  }
};

// Scratch for counting_scatter: per-(block, bucket) counts, then cursors.
struct ScatterScratch {
  std::vector<size_t> cursors;
};

// Stable counting scatter: writes in[0, n) to out[0, n) grouped by
// bucket(rec) < num_buckets in ascending bucket order, each bucket in input
// order. Blocked over grain-aligned blocks of [0, n): every block counts its
// records per bucket into its own row, one exclusive prefix sum in
// (bucket, block) order turns the counts into cursors, and each block then
// scatters its records through the cursors it alone advances (EREW — no
// atomics; a block's row is contiguous, so concurrent blocks never count
// into interleaved words). Blocks run in parallel when n spans more than
// one grain.
// If `bucket_starts` is non-null it receives num_buckets + 1 offsets: the
// start of each bucket in `out`, then n.
template <typename T, typename BucketFn>
void counting_scatter(ThreadPool& pool, const T* in, T* out, size_t n,
                      size_t num_buckets, BucketFn&& bucket,
                      ScatterScratch& scratch,
                      std::vector<size_t>* bucket_starts = nullptr) {
  const size_t g = resolve_grain(n, kAutoGrain, kDefaultGrain);
  const size_t num_blocks = n == 0 ? 0 : (n + g - 1) / g;
  std::vector<size_t>& cur = scratch.cursors;
  cur.assign(num_blocks * num_buckets, 0);
  parallel_for_blocks(pool, n, g, [&](size_t blk, size_t b, size_t e) {
    size_t* row = cur.data() + blk * num_buckets;
    for (size_t i = b; i < e; ++i) ++row[bucket(in[i])];
  });

  if (bucket_starts) bucket_starts->resize(num_buckets + 1);
  size_t acc = 0;
  for (size_t d = 0; d < num_buckets; ++d) {
    if (bucket_starts) (*bucket_starts)[d] = acc;
    for (size_t blk = 0; blk < num_blocks; ++blk) {
      size_t& c = cur[blk * num_buckets + d];
      const size_t cnt = c;
      c = acc;
      acc += cnt;
    }
  }
  if (bucket_starts) (*bucket_starts)[num_buckets] = n;

  parallel_for_blocks(pool, n, g, [&](size_t blk, size_t b, size_t e) {
    size_t* row = cur.data() + blk * num_buckets;
    for (size_t i = b; i < e; ++i) out[row[bucket(in[i])]++] = in[i];
  });
}

namespace detail {

inline constexpr unsigned kRadixBits = 8;
inline constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;
inline constexpr unsigned kRadixDigits = 64 / kRadixBits;

template <typename T, typename KeyFn>
void insertion_sort_by_key(std::vector<T>& v, KeyFn& key) {
  for (size_t i = 1; i < v.size(); ++i) {
    T x = std::move(v[i]);
    const uint64_t k = key(x);
    size_t j = i;
    for (; j > 0 && key(v[j - 1]) > k; --j) v[j] = std::move(v[j - 1]);
    v[j] = std::move(x);
  }
}

}  // namespace detail

// Sorts v stably by key(v[i]) (a uint64). `buf` is the ping-pong scratch
// (resized as needed, contents clobbered) so repeated sorts in a hot loop
// reuse one allocation; after an odd number of passes the sorted records
// live in what was buf's storage and the two vectors trade allocations.
// Plain unsigned vectors sort by value with the default IdentityKey.
template <typename T, typename KeyFn = IdentityKey>
void parallel_sort_by_key(ThreadPool& pool, std::vector<T>& v,
                          std::vector<T>& buf, KeyFn&& key = KeyFn{}) {
  using detail::kRadixBuckets;
  const size_t n = v.size();
  if (n <= kSortSmallCutoff) {
    detail::insertion_sort_by_key(v, key);
    return;
  }

  uint64_t any = 0, all = ~uint64_t{0};
  for (const T& x : v) {
    const uint64_t k = key(x);
    any |= k;
    all &= k;
  }
  unsigned shifts[detail::kRadixDigits];
  unsigned passes = 0;
  for (unsigned s = 0; s < 64; s += detail::kRadixBits) {
    if (((any ^ all) >> s) & (kRadixBuckets - 1)) shifts[passes++] = s;
  }
  if (passes == 0) return;  // all keys equal: already stably sorted

  buf.resize(n);
  T* src = v.data();
  T* dst = buf.data();
  if (n < kSortParallelCutoff || pool.num_threads() == 1) {
    // Serial: one read pass builds the histograms of every varying digit,
    // then each pass is a prefix sum and one scatter.
    size_t hist[detail::kRadixDigits][kRadixBuckets];
    for (unsigned p = 0; p < passes; ++p) {
      std::fill_n(hist[p], kRadixBuckets, size_t{0});
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = key(src[i]);
      for (unsigned p = 0; p < passes; ++p) {
        ++hist[p][(k >> shifts[p]) & (kRadixBuckets - 1)];
      }
    }
    for (unsigned p = 0; p < passes; ++p) {
      size_t* cur = hist[p];
      size_t acc = 0;
      for (size_t d = 0; d < kRadixBuckets; ++d) {
        const size_t cnt = cur[d];
        cur[d] = acc;
        acc += cnt;
      }
      const unsigned s = shifts[p];
      for (size_t i = 0; i < n; ++i) {
        dst[cur[(key(src[i]) >> s) & (kRadixBuckets - 1)]++] = src[i];
      }
      std::swap(src, dst);
    }
  } else {
    ScatterScratch scratch;
    for (unsigned p = 0; p < passes; ++p) {
      const unsigned s = shifts[p];
      counting_scatter(
          pool, src, dst, n, kRadixBuckets,
          [&](const T& x) {
            return static_cast<size_t>((key(x) >> s) & (kRadixBuckets - 1));
          },
          scratch);
      std::swap(src, dst);
    }
  }
  if (src != v.data()) v.swap(buf);
}

// Group boundaries of a sorted vector: the start offset of each run of
// equal key(rec), then sorted.size(). The grouped applies split their
// sorted records here and apply one group per task (the EREW discipline).
template <typename T, typename KeyFn>
void group_boundaries_into(const std::vector<T>& sorted, KeyFn&& key,
                           std::vector<size_t>& starts) {
  starts.clear();
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || key(sorted[i]) != key(sorted[i - 1])) starts.push_back(i);
  }
  starts.push_back(sorted.size());
}

}  // namespace pdmm
