#include "static_mm/luby.h"

#include <algorithm>
#include <atomic>

#include "parallel/pack.h"
#include "parallel/parallel_for.h"
#include "parallel/sort.h"
#include "util/assert.h"
#include "util/rng.h"

namespace pdmm {
namespace {

// Priority word: 32 random bits in the high half, the edge id in the low
// half. Distinct per edge by construction, so per-vertex maxima are unique
// winners (ties between equal random halves fall back to edge id, which is
// deterministic and costs only a negligible bias).
uint64_t priority_of(uint64_t seed, uint32_t round, EdgeId e) {
  return (hash_mix(seed, round, e) & 0xFFFFFFFF00000000ull) | e;
}

}  // namespace

StaticMMResult static_maximal_matching(ThreadPool& pool,
                                       const HyperedgeRegistry& reg,
                                       std::span<const EdgeId> candidates,
                                       uint64_t seed,
                                       CostCounters* cost) {
  StaticMMResult result;
  const size_t m0 = candidates.size();
  if (m0 == 0) return result;
  const uint32_t r = reg.max_rank();

  // Dense-relabel the touched vertices so per-round vertex state is O(m r),
  // independent of the total graph size.
  std::vector<Vertex> verts;
  verts.reserve(m0 * r);
  for (EdgeId e : candidates) {
    auto eps = reg.endpoints(e);
    verts.insert(verts.end(), eps.begin(), eps.end());
  }
  std::vector<Vertex> sort_buf;
  parallel_sort_by_key(pool, verts, sort_buf);
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  if (cost) cost->round(m0 * r);

  const size_t nv = verts.size();
  auto dense_of = [&](Vertex v) {
    return static_cast<uint32_t>(
        std::lower_bound(verts.begin(), verts.end(), v) - verts.begin());
  };

  // Per-candidate dense endpoints, fixed stride r.
  std::vector<uint32_t> dense_eps(m0 * r, kNoVertex);
  std::vector<uint8_t> deg(m0);
  parallel_for(pool, m0, [&](size_t i) {
    auto eps = reg.endpoints(candidates[i]);
    deg[i] = static_cast<uint8_t>(eps.size());
    for (size_t j = 0; j < eps.size(); ++j)
      dense_eps[i * r + j] = dense_of(eps[j]);
  });
  if (cost) cost->round(m0 * r);

  std::vector<uint32_t> live(m0);  // indices into the candidate arrays
  for (size_t i = 0; i < m0; ++i) live[i] = static_cast<uint32_t>(i);

  std::vector<std::atomic<uint64_t>> vmax(nv);
  std::vector<std::atomic<uint8_t>> vmatched(nv);
  // mo: relaxed — single-threaded init; the pool barrier that launches the
  // first round publishes these stores to the workers.
  for (auto& a : vmax) a.store(0, std::memory_order_relaxed);
  for (auto& a : vmatched) a.store(0, std::memory_order_relaxed);

  std::vector<uint64_t> prio(m0);
  // Safety cap: Luby finishes in O(log m) rounds whp; 64 + 8*log2 is far
  // beyond any plausible run and turns a broken RNG into a loud failure.
  const uint32_t round_cap = 64 + 8 * log2_ceil(m0 + 2);

  while (!live.empty()) {
    PDMM_ASSERT_MSG(result.rounds < round_cap,
                    "Luby failed to terminate within the whp round budget");
    ++result.rounds;
    const uint32_t round = result.rounds;
    const size_t m = live.size();

    // Draw priorities and publish per-vertex maxima.
    parallel_for(pool, m, [&](size_t i) {
      const uint32_t c = live[i];
      const uint64_t p = priority_of(seed, round, candidates[c]);
      prio[c] = p;
      for (uint8_t j = 0; j < deg[c]; ++j) {
        auto& slot = vmax[dense_eps[c * r + j]];
        // mo: relaxed — monotone fetch-max race; only the winning value
        // matters and the phase boundary (pool barrier) orders it before
        // the reads in the winner-selection pass.
        uint64_t cur = slot.load(std::memory_order_relaxed);
        while (cur < p &&
               !slot.compare_exchange_weak(cur, p, std::memory_order_relaxed)) {
        }
      }
    });
    if (cost) cost->round(m * r);

    // Winners: local maximum at every endpoint. Mark their endpoints.
    std::vector<uint32_t> winners = pack_values(pool, live, [&](size_t i) {
      const uint32_t c = live[i];
      for (uint8_t j = 0; j < deg[c]; ++j) {
        // mo: relaxed — reads values written in the previous phase; the
        // pool barrier between phases is the synchronization edge.
        if (vmax[dense_eps[c * r + j]].load(std::memory_order_relaxed) !=
            prio[c])
          return false;
      }
      return true;
    });
    parallel_for(pool, winners.size(), [&](size_t i) {
      const uint32_t c = winners[i];
      for (uint8_t j = 0; j < deg[c]; ++j)
        // mo: relaxed — idempotent flag set (1 is the only value written);
        // readers run in the next phase, after the pool barrier.
        vmatched[dense_eps[c * r + j]].store(1, std::memory_order_relaxed);
    });
    if (cost) cost->round(m * r + winners.size() * r);
    PDMM_ASSERT_MSG(!winners.empty(),
                    "a Luby round must match at least the global maximum");
    for (uint32_t c : winners) result.matched.push_back(candidates[c]);

    // Drop candidates incident to matched vertices and reset maxima of
    // surviving endpoints for the next round.
    live = pack_values(pool, live, [&](size_t i) {
      const uint32_t c = live[i];
      for (uint8_t j = 0; j < deg[c]; ++j) {
        // mo: relaxed — flag was set before the previous pool barrier.
        if (vmatched[dense_eps[c * r + j]].load(std::memory_order_relaxed))
          return false;
      }
      return true;
    });
    parallel_for(pool, live.size(), [&](size_t i) {
      const uint32_t c = live[i];
      for (uint8_t j = 0; j < deg[c]; ++j)
        // mo: relaxed — reset for the next round; surviving candidates'
        // endpoints are disjoint from matched ones, and the next round's
        // pool barrier orders the reset before any re-publish.
        vmax[dense_eps[c * r + j]].store(0, std::memory_order_relaxed);
    });
    if (cost) cost->round(m * r);
  }
  return result;
}

std::vector<EdgeId> greedy_maximal_matching(
    const HyperedgeRegistry& reg, std::span<const EdgeId> candidates) {
  std::vector<EdgeId> matched;
  // Vertex-marked greedy; hash set sized to the touched universe.
  std::vector<Vertex> marked;
  PhaseDict<uint8_t> taken(candidates.size() * 2 + 16);
  for (EdgeId e : candidates) {
    bool free = true;
    for (Vertex v : reg.endpoints(e)) {
      if (taken.contains(v)) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (Vertex v : reg.endpoints(e)) taken.insert(v, 1);
    matched.push_back(e);
  }
  return matched;
}

}  // namespace pdmm
