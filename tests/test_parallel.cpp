// Unit tests for the parallel runtime: pool, for, scan, reduce, pack, sort,
// grouped application.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>

#include "dict/batch_ops.h"
#include "parallel/pack.h"
#include "param_name.h"
#include "parallel/parallel_for.h"
#include "parallel/reduce.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace pdmm {
namespace {

class ParallelAcrossThreads : public testing::TestWithParam<unsigned> {};

TEST_P(ParallelAcrossThreads, ForCoversEveryIndexOnce) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  const size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, n, [&](size_t i) { hits[i].fetch_add(1); }, 128);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelAcrossThreads, ScanMatchesSerial) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(4);
  std::vector<uint64_t> in(12345);
  for (auto& x : in) x = rng.below(100);
  std::vector<uint64_t> out;
  const uint64_t total = scan_exclusive(pool, in, out, 64);
  uint64_t acc = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], acc);
    acc += in[i];
  }
  EXPECT_EQ(total, acc);
}

TEST_P(ParallelAcrossThreads, ReduceSumAndAny) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  const size_t n = 54321;
  EXPECT_EQ(parallel_sum(pool, n, [](size_t i) { return i; }, 100),
            n * (n - 1) / 2);
  EXPECT_TRUE(parallel_any(pool, n, [](size_t i) { return i == 54320; }, 64));
  EXPECT_FALSE(parallel_any(pool, n, [](size_t) { return false; }, 64));
}

TEST_P(ParallelAcrossThreads, PackKeepsOrder) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  std::vector<uint32_t> vals(10000);
  std::iota(vals.begin(), vals.end(), 0);
  auto evens =
      pack_values(pool, vals, [&](size_t i) { return vals[i] % 2 == 0; }, 64);
  ASSERT_EQ(evens.size(), 5000u);
  for (size_t i = 0; i < evens.size(); ++i) EXPECT_EQ(evens[i], 2 * i);

  auto idx = pack_indices(pool, 1000, [](size_t i) { return i % 7 == 0; }, 64);
  for (size_t i = 0; i < idx.size(); ++i) EXPECT_EQ(idx[i], 7 * i);
}

TEST_P(ParallelAcrossThreads, SortMatchesStdSort) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(8);
  std::vector<uint64_t> v(200000);
  for (auto& x : v) x = rng();
  std::vector<uint64_t> ref = v;
  std::vector<uint64_t> buf;
  parallel_sort_by_key(pool, v, buf);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(v, ref);
}

TEST_P(ParallelAcrossThreads, SortTinyAndEmpty) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  std::vector<uint64_t> buf;
  std::vector<uint64_t> empty;
  parallel_sort_by_key(pool, empty, buf);
  EXPECT_TRUE(empty.empty());
  std::vector<uint64_t> one{42};
  parallel_sort_by_key(pool, one, buf);
  EXPECT_EQ(one[0], 42u);
}

// Sizes on both sides of the small-input and parallel-pass cutoffs; the
// largest runs the blocked parallel passes (also under the tsan preset).
std::vector<size_t> sort_sizes() {
  return {0,
          1,
          2,
          kSortSmallCutoff - 1,
          kSortSmallCutoff,
          kSortSmallCutoff + 1,
          5000,
          kSortParallelCutoff - 1,
          kSortParallelCutoff,
          kSortParallelCutoff + kDefaultGrain + 17};
}

// The 12-byte (vertex, edge, level) shape the matcher's grouped applies
// sort, keyed (u << 32) | e.
struct SortRec {
  uint32_t u;
  uint32_t e;
  int32_t lvl;
  uint64_t key() const { return (static_cast<uint64_t>(u) << 32) | e; }
  bool operator==(const SortRec&) const = default;
};

TEST_P(ParallelAcrossThreads, SortByKeyUniqueRecordsMatchesStdSort) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(21);
  std::vector<SortRec> buf;
  for (size_t n : sort_sizes()) {
    std::vector<SortRec> v(n);
    for (size_t i = 0; i < n; ++i) {
      // Distinct edge ids make every key unique; u < 2^16, e < 2^18.
      v[i] = {static_cast<uint32_t>(rng.below(1u << 16)),
              static_cast<uint32_t>((i * 40503u) % (1u << 18)),
              static_cast<int32_t>(rng.below(20))};
    }
    std::vector<SortRec> ref = v;
    std::sort(ref.begin(), ref.end(), [](const SortRec& a, const SortRec& b) {
      return a.key() < b.key();
    });
    parallel_sort_by_key(pool, v, buf, [](const SortRec& r) { return r.key(); });
    ASSERT_EQ(v, ref) << "n=" << n;
  }
}

TEST_P(ParallelAcrossThreads, SortByKeyIntegersWithDuplicates) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(22);
  std::vector<uint32_t> buf;
  for (size_t n : sort_sizes()) {
    for (uint64_t range : {uint64_t{7}, uint64_t{1000}, uint64_t{1} << 32}) {
      std::vector<uint32_t> v(n);
      for (auto& x : v) x = static_cast<uint32_t>(rng.below(range));
      std::vector<uint32_t> ref = v;
      std::sort(ref.begin(), ref.end());
      parallel_sort_by_key(pool, v, buf);
      ASSERT_EQ(v, ref) << "n=" << n << " range=" << range;
    }
  }
}

TEST_P(ParallelAcrossThreads, SortByKeyConstantDigitsAndEqualKeysIsStable) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  struct Rec {
    uint64_t key;
    uint32_t pos;  // input position: checks stability among equal keys
    bool operator==(const Rec&) const = default;
  };
  Xoshiro256 rng(23);
  std::vector<Rec> buf;
  // Each shape maps a random draw to a key: high digits constant, low
  // digits constant, one varying middle digit, few distinct keys, and
  // every key equal.
  const std::vector<std::function<uint64_t(uint64_t)>> shapes = {
      [](uint64_t x) { return x & 0xfff; },
      [](uint64_t x) { return (x & 0xffff) << 40; },
      [](uint64_t x) { return (uint64_t{0xab} << 56) | ((x & 0xff) << 24); },
      [](uint64_t x) { return (x % 3) << 33 | 0x5a5a; },
      [](uint64_t) { return uint64_t{0xdeadbeefcafe}; },
  };
  for (size_t n : sort_sizes()) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      std::vector<Rec> v(n);
      for (size_t i = 0; i < n; ++i) {
        v[i] = {shapes[s](rng()), static_cast<uint32_t>(i)};
      }
      std::vector<Rec> ref = v;
      std::stable_sort(ref.begin(), ref.end(),
                       [](const Rec& a, const Rec& b) { return a.key < b.key; });
      parallel_sort_by_key(pool, v, buf, [](const Rec& r) { return r.key; });
      ASSERT_EQ(v, ref) << "n=" << n << " shape=" << s;
    }
  }
}

TEST_P(ParallelAcrossThreads, CountingScatterIsStableWithBucketStarts) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(24);
  ScatterScratch scratch;
  for (size_t n : {size_t{0}, size_t{5}, size_t{3 * kDefaultGrain + 1},
                   size_t{100000}}) {
    std::vector<std::pair<uint32_t, uint32_t>> in(n);
    for (size_t i = 0; i < n; ++i) {
      in[i] = {static_cast<uint32_t>(rng.below(13)), static_cast<uint32_t>(i)};
    }
    std::vector<std::pair<uint32_t, uint32_t>> out(n);
    std::vector<size_t> starts;
    counting_scatter(
        pool, in.data(), out.data(), n, 13,
        [](const std::pair<uint32_t, uint32_t>& r) { return size_t{r.first}; },
        scratch, &starts);
    std::vector<std::pair<uint32_t, uint32_t>> ref = in;
    std::stable_sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    ASSERT_EQ(out, ref) << "n=" << n;
    ASSERT_EQ(starts.size(), 14u);
    for (uint32_t d = 0; d < 13; ++d) {
      const size_t lo = static_cast<size_t>(
          std::partition_point(ref.begin(), ref.end(),
                               [d](const auto& r) { return r.first < d; }) -
          ref.begin());
      EXPECT_EQ(starts[d], lo) << "n=" << n << " bucket=" << d;
    }
    EXPECT_EQ(starts[13], n);
  }
}

TEST_P(ParallelAcrossThreads, ApplyGroupedPartitionsByKey) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  struct Rec {
    uint32_t group;
    uint32_t idx;  // makes the full key unique within its group
    uint32_t val;
  };
  Xoshiro256 rng(15);
  std::vector<Rec> recs(5000);
  std::vector<uint64_t> expected(97, 0);
  for (uint32_t i = 0; i < recs.size(); ++i) {
    auto& r = recs[i];
    r.group = static_cast<uint32_t>(rng.below(97));
    r.idx = i;
    r.val = static_cast<uint32_t>(rng.below(10));
    expected[r.group] += r.val;
  }
  std::vector<std::atomic<uint64_t>> got(97);
  GroupScratch<Rec> scratch;
  apply_grouped_unique(
      pool, recs,
      [](const Rec& r) {
        return (static_cast<uint64_t>(r.group) << 32) | r.idx;
      },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t group, const Rec* b, const Rec* e) {
        uint64_t sum = 0;
        for (const Rec* r = b; r != e; ++r) {
          EXPECT_EQ(r->group, group);
          sum += r->val;
        }
        got[group].fetch_add(sum);
      },
      scratch);
  for (size_t k = 0; k < 97; ++k) EXPECT_EQ(got[k].load(), expected[k]);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelAcrossThreads,
                         testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return testing_util::name_cat("t", info.param);
                         });

TEST(ThreadPool, NestedParallelismRunsSerially) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  parallel_for(pool, 100, [&](size_t) {
    // Nested region must run inline without deadlocking.
    parallel_for(pool, 10, [&](size_t) { total.fetch_add(1); }, 1);
  }, 1);
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, ManySmallJobsDoNotLeakOrDeadlock) {
  ThreadPool pool(4);
  for (int i = 0; i < 2000; ++i) {
    std::atomic<int> c{0};
    parallel_for(pool, 8, [&](size_t) { c.fetch_add(1); }, 1);
    ASSERT_EQ(c.load(), 8);
  }
}

TEST_P(ParallelAcrossThreads, BlocksPassAlignedBlockIndex) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  const size_t n = 10000;
  const size_t grain = 128;
  std::vector<std::atomic<uint32_t>> hits((n + grain - 1) / grain);
  parallel_for_blocks(pool, n, grain, [&](size_t blk, size_t b, size_t e) {
    // Blocks are grain-aligned and the passed index matches the range.
    EXPECT_EQ(b % grain, 0u);
    EXPECT_EQ(blk, b / grain);
    EXPECT_LE(e, n);
    hits[blk].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST_P(ParallelAcrossThreads, PackIntoReusesBuffersAndKeepsOrder) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  std::vector<uint32_t> vals(30000);
  std::iota(vals.begin(), vals.end(), 0u);
  std::vector<uint32_t> out;
  std::vector<uint8_t> flags;
  for (int rep = 0; rep < 3; ++rep) {
    pack_values_into(
        pool, vals, [&](size_t i) { return vals[i] % 3 == 0; }, out, flags,
        64);
    ASSERT_EQ(out.size(), 10000u);
    for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * 3);
  }
}

TEST_P(ParallelAcrossThreads, ApplyGroupedUniqueOrdersWithinGroups) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  struct Rec {
    uint32_t group;
    uint32_t item;
  };
  Xoshiro256 rng(77);
  std::vector<Rec> recs(4000);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i] = {static_cast<uint32_t>(rng.below(31)),
               static_cast<uint32_t>(i)};  // unique within its group
  }
  std::vector<std::vector<uint32_t>> got(31);
  GroupScratch<Rec> scratch;
  apply_grouped_unique(
      pool, recs,
      [](const Rec& r) {
        return (static_cast<uint64_t>(r.group) << 32) | r.item;
      },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t g, const Rec* b, const Rec* e) {
        auto& sink = got[g];
        for (const Rec* r = b; r != e; ++r) {
          EXPECT_EQ(r->group, g);
          sink.push_back(r->item);
        }
      },
      scratch);
  for (const auto& sink : got) {
    // Unique total keys pin ascending in-group order for any grain/threads.
    EXPECT_TRUE(std::is_sorted(sink.begin(), sink.end()));
  }
  size_t total = 0;
  for (const auto& sink : got) total += sink.size();
  EXPECT_EQ(total, recs.size());
}

// The matcher's grouped applies: one (u, e) record per endpoint of a
// rank-mixed hyperedge batch, generated edge-major (so keys arrive
// unsorted), sized past the parallel-apply and parallel-sort cutoffs.
TEST_P(ParallelAcrossThreads, ApplyGroupedUniqueRankMixedRecords) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(78);
  std::vector<SortRec> recs;
  for (uint32_t e = 0; recs.size() < kSortParallelCutoff + 5000; ++e) {
    const uint32_t rank = 2 + static_cast<uint32_t>(rng.below(3));
    std::vector<uint32_t> eps;
    while (eps.size() < rank) {
      const auto u = static_cast<uint32_t>(rng.below(1u << 14));
      if (std::find(eps.begin(), eps.end(), u) == eps.end()) eps.push_back(u);
    }
    for (uint32_t u : eps) recs.push_back({u, e, static_cast<int32_t>(rank)});
  }
  std::vector<SortRec> ref = recs;
  std::sort(ref.begin(), ref.end(), [](const SortRec& a, const SortRec& b) {
    return a.key() < b.key();
  });

  std::vector<std::vector<SortRec>> got(1u << 14);
  GroupScratch<SortRec> scratch;
  CostCounters cost;
  apply_grouped_unique(
      pool, recs, [](const SortRec& r) { return r.key(); },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t u, const SortRec* b, const SortRec* e) {
        ASSERT_TRUE(got[u].empty()) << "group " << u << " applied twice";
        got[u].assign(b, e);
      },
      scratch, &cost);
  EXPECT_EQ(recs, ref);  // the records are left sorted by key
  std::vector<SortRec> applied;
  for (const auto& g : got) applied.insert(applied.end(), g.begin(), g.end());
  EXPECT_EQ(applied, ref);
  EXPECT_EQ(cost.rounds, 2u);
}

TEST(ThreadPool, ClampsToHardwareConcurrency) {
  // When hardware_concurrency() reports 0 ("unknown"), the pool honors the
  // caller's count instead of clamping — mirror that contract here.
  const unsigned hw = std::thread::hardware_concurrency();
  ThreadPool pool(hw + 13);
  EXPECT_EQ(pool.num_threads(), hw ? hw : hw + 13);
  ThreadPool small(1);
  EXPECT_EQ(small.num_threads(), 1u);
}

TEST(ThreadPool, LargeRegionsCompleteWithManyThreads) {
  // Regression net for the chunk-claim completion protocol: many regions
  // of varying sizes, all must complete with every chunk executed once.
  ThreadPool pool(8, /*allow_oversubscribe=*/true);
  Xoshiro256 rng(5);
  for (int it = 0; it < 300; ++it) {
    const size_t n = 1 + rng.below(50000);
    std::vector<std::atomic<uint8_t>> hit(n);
    parallel_for(pool, n, [&](size_t i) { hit[i].fetch_add(1); }, 64);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hit[i].load(), 1u) << i;
  }
}

// Batched claims: with far more chunks than threads, one claim takes a run
// of chunks, but every body call must still be exactly one aligned chunk
// and every chunk must run once. Covers grain 1, a grain that does not
// divide n, and a std::function lvalue body (a supported caller form).
// (A 1-thread pool takes the serial path: one body(0, n) call.)
TEST(ThreadPool, BatchedClaimsRunEachAlignedChunkOnce) {
  for (const unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads, /*allow_oversubscribe=*/true);
    for (const size_t grain : {size_t{1}, size_t{7}}) {
      for (const size_t n : {size_t{5000}, size_t{10007}, size_t{65537}}) {
        SCOPED_TRACE(testing_util::name_cat("threads ", threads, " grain ",
                                            grain, " n ", n));
        const size_t chunks = (n + grain - 1) / grain;
        std::vector<std::atomic<uint32_t>> hits(chunks);
        std::atomic<bool> misaligned{false};
        const std::function<void(size_t, size_t)> body = [&](size_t b,
                                                             size_t e) {
          if (b % grain != 0 || e != std::min(b + grain, n)) {
            misaligned.store(true);
            return;
          }
          hits[b / grain].fetch_add(1);
        };
        pool.run_blocked(n, grain, body);
        EXPECT_FALSE(misaligned.load());
        for (size_t k = 0; k < chunks; ++k) {
          ASSERT_EQ(hits[k].load(), 1u) << k;
        }
      }
    }
  }
}

// Regions separated by idle gaps, so every worker has parked and each
// parallel region must wake them through the parked count. Every fourth region needs all pool
// threads at once (each chunk waits until as many threads have entered as
// the pool has), so a parked worker that is never woken shows up as a
// timeout, not a hang. Serial-cutoff regions (n <= grain, small grouped
// applies) are mixed in.
TEST(ThreadPool, RegionsAfterIdleGapsWakeParkedWorkers) {
  ThreadPool pool(4, /*allow_oversubscribe=*/true);
  const size_t threads = pool.num_threads();
  GroupScratch<uint64_t> scratch;
  for (int it = 0; it < 40; ++it) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    if (it % 4 == 0 && threads > 1) {
      std::atomic<size_t> arrived{0};
      std::atomic<bool> timed_out{false};
      pool.run_blocked(threads, 1, [&](size_t, size_t) {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (arrived.load() < threads) {
          if (std::chrono::steady_clock::now() > deadline) {
            timed_out.store(true);
            return;
          }
          std::this_thread::yield();
        }
      });
      ASSERT_FALSE(timed_out.load()) << "a parked worker was not woken";
    } else if (it % 4 == 1) {
      std::atomic<size_t> sum{0};
      parallel_for(pool, 100000, [&](size_t i) { sum.fetch_add(i); }, 512);
      ASSERT_EQ(sum.load(), size_t{100000} * 99999 / 2);
    } else if (it % 4 == 2) {
      size_t calls = 0;  // serial path: one inline call, no claim
      pool.run_blocked(100, 100, [&](size_t b, size_t e) {
        ++calls;
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 100u);
      });
      ASSERT_EQ(calls, 1u);
    } else {
      std::vector<uint64_t> recs(500);
      for (size_t i = 0; i < recs.size(); ++i) recs[i] = (i % 13) << 32 | i;
      size_t applied = 0;  // below the cutoff: applied inline, serially
      apply_grouped_unique(
          pool, recs, [](uint64_t r) { return r; },
          [](uint64_t k) { return k >> 32; },
          [&](uint64_t, const uint64_t* b, const uint64_t* e) {
            applied += static_cast<size_t>(e - b);
          },
          scratch);
      ASSERT_EQ(applied, recs.size());
    }
  }
}

// Destroying a pool right after a region, while its workers are still on
// their way back to park, must join cleanly (and so must a pool that never
// ran a region).
TEST(ThreadPool, DestroyRightAfterRegions) {
  for (int it = 0; it < 50; ++it) {
    ThreadPool pool(4, /*allow_oversubscribe=*/true);
    if (it % 5 == 0) continue;
    std::atomic<size_t> c{0};
    parallel_for(pool, 64, [&](size_t) { c.fetch_add(1); }, 1);
    ASSERT_EQ(c.load(), 64u);
  }
}

// An oversubscribed pool (twice the hardware's threads, so workers are
// often preempted mid-region) finishes a long loop of small regions.
TEST(ThreadPool, OversubscribedPoolFinishesManySmallRegions) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(2 * hw, /*allow_oversubscribe=*/true);
  ASSERT_EQ(pool.num_threads(), 2 * hw);
  for (int it = 0; it < 3000; ++it) {
    std::atomic<size_t> c{0};
    const size_t n = 1 + static_cast<size_t>(it % 97);
    parallel_for(pool, n, [&](size_t) { c.fetch_add(1); }, 1);
    ASSERT_EQ(c.load(), n);
  }
}

TEST(CostModel, AutoGrainIsThreadIndependent) {
  // The contract the deterministic sorts rely on: grain depends on n only.
  EXPECT_EQ(auto_grain(100, 2048), 2048u);
  EXPECT_EQ(auto_grain(1 << 20, 2048), (1u << 20) / kMaxChunksPerRegion);
  EXPECT_GE(auto_grain(1 << 20, 2048) * kMaxChunksPerRegion, 1u << 20);
}

TEST(CostModel, RoundsAndWorkAccumulate) {
  CostCounters c;
  c.round(10);
  c.round(5);
  c.add_work(3);
  EXPECT_EQ(c.rounds, 2u);
  EXPECT_EQ(c.work, 18u);
  CostCounters d;
  d.round(1);
  c += d;
  EXPECT_EQ(c.rounds, 3u);
}

}  // namespace
}  // namespace pdmm
