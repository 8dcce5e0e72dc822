// DynamicMatcher: update pipeline and structural primitives (§3.2–3.3).
// The grand-random-settle machinery lives in settle.cpp.
//
// Hot-path disciplines (see docs/ARCHITECTURE.md "Performance notes"):
//  * Structural phases are batch-parallel: a read-only parallel pass
//    computes mutation records, which apply grouped per target vertex
//    (lock-free EREW) with totally ordered keys, so the resulting state is
//    identical across thread counts.
//  * S_l membership is cached per vertex as a bitmask; refreshes touch the
//    shared S_l sets only when a membership bit actually flips.
//  * All phase-scoped buffers come from the Scratch arena (one allocation
//    over the matcher's lifetime, reused every batch).
#include "core/matcher.h"

#include <algorithm>
#include <bit>

#include "core/checker.h"
#include "dict/batch_ops.h"
#include "parallel/pack.h"
#include "parallel/parallel_for.h"
#include "parallel/sort.h"
#include "serve/match_view.h"
#include "static_mm/luby.h"

namespace pdmm {

namespace {
// Epoch stats are kept in fixed-size arrays so the N-doubling rebuild never
// loses history; L = ceil(log_alpha N) <= 42 for alpha >= 4 and 64-bit N.
// The per-vertex S_l bitmask needs L + 1 <= 64 on top of that.
constexpr size_t kMaxLevels = 48;
static_assert(kMaxLevels <= 64, "S_l bitmask packs levels into a uint64");
}  // namespace

DynamicMatcher::DynamicMatcher(const Config& cfg, ThreadPool& pool)
    : cfg_(cfg),
      pool_(pool),
      scheme_(cfg.max_rank, std::max<uint64_t>(cfg.initial_capacity, 2)),
      rng_(cfg.seed),
      reg_(cfg.max_rank),
      epochs_(kMaxLevels) {
  PDMM_ASSERT(cfg.max_rank >= 1);
  PDMM_ASSERT(static_cast<size_t>(scheme_.top_level()) + 1 < kMaxLevels);
  s_.resize(static_cast<size_t>(scheme_.top_level()) + 1);
  undecided_.resize(static_cast<size_t>(scheme_.top_level()) + 1);
}

DynamicMatcher::~DynamicMatcher() = default;

std::vector<EdgeId> DynamicMatcher::matching() const {
  std::vector<EdgeId> out;
  out.reserve(matching_size_);
  for (EdgeId e = 0; e < eflags_.size(); ++e) {
    if (eflags_[e] & kMatched) out.push_back(e);
  }
  return out;
}

std::vector<Vertex> DynamicMatcher::vertex_cover() const {
  // Exact reservation: matched hyperedges can have rank < max_rank, so
  // matching_size_ * max_rank over-allocates; count the members instead.
  size_t count = 0;
  for (Vertex v = 0; v < vhot_.size(); ++v) count += vhot_.matched(v) != kNoEdge;
  std::vector<Vertex> cover;
  cover.reserve(count);
  for (Vertex v = 0; v < vhot_.size(); ++v) {
    if (vhot_.matched(v) != kNoEdge) cover.push_back(v);
  }
  return cover;
}

uint64_t DynamicMatcher::o_tilde(Vertex v, Level l) const {
  if (v >= verts_.size()) return 0;
  const VertexState& vs = verts_[v];
  uint64_t total = vs.owned.size();
  for (const auto& ls : vs.a_sets) {
    if (ls.level < l) total += ls.set.size();
  }
  return total;
}

void DynamicMatcher::append_o_tilde(Vertex v, Level l,
                                    std::vector<EdgeId>& out) const {
  const VertexState& vs = verts_[v];
  out.insert(out.end(), vs.owned.items().begin(), vs.owned.items().end());
  for (const auto& ls : vs.a_sets) {
    if (ls.level < l)
      out.insert(out.end(), ls.set.items().begin(), ls.set.items().end());
  }
}

std::vector<EdgeId> DynamicMatcher::collect_o_tilde(Vertex v, Level l) const {
  std::vector<EdgeId> out;
  out.reserve(o_tilde(v, l));
  append_o_tilde(v, l, out);
  return out;
}

void DynamicMatcher::grow_vertices(Vertex bound) {
  if (bound > verts_.size()) {
    verts_.resize(bound);
    vhot_.resize(bound);
  }
}

void DynamicMatcher::grow_edges(size_t bound) {
  if (bound <= elevel_.size()) return;
  elevel_.resize(bound, 0);
  eowner_.resize(bound, kNoVertex);
  eflags_.resize(bound, 0);
  eresp_.resize(bound, kNoEdge);
  edge_d_.resize(bound);
  epoch_d_deleted_.resize(bound, 0);
}

// ---------------------------------------------------------------------------
// S_l maintenance
// ---------------------------------------------------------------------------

uint64_t DynamicMatcher::compute_s_mask(Vertex v) const {
  const VertexState& vs = verts_[v];
  const Level top = scheme_.top_level();
  uint64_t counts[kMaxLevels] = {0};
  uint64_t total = vs.owned.size();
  for (const auto& ls : vs.a_sets) {
    counts[static_cast<size_t>(ls.level)] = ls.set.size();
    total += ls.set.size();
  }
  if (total == 0) return 0;
  uint64_t mask = 0;
  uint64_t o_til = vs.owned.size();  // running value of o~(v, l)
  for (Level l = 0; l <= top; ++l) {
    const uint64_t thr = scheme_.rise_threshold(l);
    // o~(v, l) never exceeds `total` and thresholds grow geometrically, so
    // once one is out of reach every later one is too.
    if (thr > total) break;
    mask |= static_cast<uint64_t>(o_til >= thr) << l;
    o_til += counts[static_cast<size_t>(l)];
  }
  // S_l requires l(v) < l: clear bits 0..l(v) arithmetically. l(v) is in
  // [-1, top], so the shift count lands in [0, top+1] — never UB.
  return mask & (~uint64_t{0} << (vhot_.level(v) + 1));
}

void DynamicMatcher::refresh_s_membership(Vertex v) {
  const uint64_t nm = compute_s_mask(v);
  uint64_t delta = nm ^ vhot_.s_mask(v);
  if (delta == 0) return;
  vhot_.set_s_mask(v, nm);
  do {
    const int l = std::countr_zero(delta);
    delta &= delta - 1;
    if ((nm >> l) & 1) {
      s_[static_cast<size_t>(l)].insert(v);
    } else {
      s_[static_cast<size_t>(l)].erase(v);
    }
  } while (delta != 0);
}

void DynamicMatcher::refresh_s_membership_all(
    const std::vector<Vertex>& touched) {
  if (touched.empty()) return;
  // Pass 1 (parallel; `touched` is sorted unique, so the per-vertex mask
  // writes are disjoint): recompute each mask, remember which bits flip.
  auto& deltas = scratch_.s_deltas;
  deltas.resize(touched.size());
  parallel_for(pool_, touched.size(), [&](size_t i) {
    PDMM_DASSERT(i == 0 || touched[i - 1] < touched[i]);
    const Vertex v = touched[i];
    const uint64_t nm = compute_s_mask(v);
    deltas[i] = nm ^ vhot_.s_mask(v);
    vhot_.set_s_mask(v, nm);
  });
  cost_.round(touched.size());

  // Pass 2: expand the (rare) flips into per-level membership deltas...
  auto& muts = scratch_.s_muts;
  muts.clear();
  for (size_t i = 0; i < touched.size(); ++i) {
    uint64_t delta = deltas[i];
    if (delta == 0) continue;
    const uint64_t nm = vhot_.s_mask(touched[i]);
    do {
      const int l = std::countr_zero(delta);
      delta &= delta - 1;
      muts.push_back(SMut{static_cast<Level>(l), touched[i],
                          static_cast<uint8_t>((nm >> l) & 1)});
    } while (delta != 0);
  }
  if (muts.empty()) return;

  // ...and apply them bucketed by level: levels are dense (< s_.size()),
  // so a prefix-sum counting scatter replaces the comparison sort. The
  // records above are generated vertex-ascending per level (touched is
  // sorted, one record per (level, vertex)), and the scatter is stable, so
  // each level applies in exactly the ascending-vertex order the old
  // (level << 32 | vertex) sort produced. Concurrent buckets touch
  // distinct S_l sets.
  apply_bucketed_dense(
      pool_, muts, s_.size(),
      [](const SMut& m) { return static_cast<size_t>(m.lvl); },
      [&](size_t lvl, const SMut* b, const SMut* e) {
        IndexedSet& s = s_[lvl];
        for (const SMut* m = b; m != e; ++m) {
          if (m->add) {
            s.insert(m->v);
          } else {
            s.erase(m->v);
          }
        }
      },
      scratch_.s_buckets, &cost_);
}

// ---------------------------------------------------------------------------
// Structural primitives
// ---------------------------------------------------------------------------

void DynamicMatcher::insert_edge_into_structures(EdgeId e) {
  const auto eps = reg_.endpoints(e);
  Vertex owner = eps[0];
  Level maxl = vhot_.level(eps[0]);
  for (size_t i = 1; i < eps.size(); ++i) {
    if (vhot_.level(eps[i]) > maxl) {
      maxl = vhot_.level(eps[i]);
      owner = eps[i];
    }
  }
  PDMM_ASSERT_MSG(maxl >= 0,
                  "an edge with all endpoints unmatched cannot be placed");
  elevel_[e] = maxl;
  eowner_[e] = owner;
  verts_[owner].owned.insert(e);
  for (Vertex u : eps) {
    if (u != owner) verts_[u].ensure_a(maxl).insert(e);
  }
  for (Vertex u : eps) refresh_s_membership(u);
  cost_.add_work(eps.size() * 2);
}

void DynamicMatcher::remove_edge_from_structures(EdgeId e) {
  const auto eps = reg_.endpoints(e);
  const Vertex owner = eowner_[e];
  const Level l = elevel_[e];
  verts_[owner].owned.erase(e);
  for (Vertex u : eps) {
    if (u != owner) verts_[u].erase_a(l, e);
  }
  for (Vertex u : eps) refresh_s_membership(u);
  cost_.add_work(eps.size() * 2);
}

void DynamicMatcher::apply_struct_muts(bool insert) {
  auto& muts = scratch_.struct_muts;
  auto& live = scratch_.struct_live;
  pack_values_into(
      pool_, muts, [&](size_t i) { return muts[i].u != kNoVertex; }, live,
      scratch_.pack_flags);
  if (live.empty()) return;
  apply_grouped_unique(
      pool_, live, [](const StructMut& m) { return m.key(); },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t key, const StructMut* b, const StructMut* e) {
        VertexState& vs = verts_[static_cast<Vertex>(key)];
        for (const StructMut* m = b; m != e; ++m) {
          if (insert) {
            if (m->is_owner) {
              vs.owned.insert(m->e);
            } else {
              vs.ensure_a(m->lvl).insert(m->e);
            }
          } else {
            if (m->is_owner) {
              vs.owned.erase(m->e);
            } else {
              vs.erase_a(m->lvl, m->e);
            }
          }
        }
      },
      scratch_.struct_groups, &cost_);

  // `live` is now sorted by (u, e), so the touched vertex set falls out of
  // one scan, already sorted and unique — exactly what the grouped S_l
  // refresh requires.
  auto& touched = scratch_.struct_touched;
  touched.clear();
  for (const StructMut& m : live) {
    if (touched.empty() || touched.back() != m.u) touched.push_back(m.u);
  }
  refresh_s_membership_all(touched);
}

void DynamicMatcher::insert_edges_into_structures(
    const std::vector<EdgeId>& ids) {
  if (ids.empty()) return;
  const uint32_t r = reg_.max_rank();
  auto& muts = scratch_.struct_muts;
  muts.assign(ids.size() * r, StructMut{});
  parallel_for(pool_, ids.size(), [&](size_t i) {
    const EdgeId e = ids[i];
    const auto eps = reg_.endpoints(e);
    Vertex owner = eps[0];
    Level maxl = vhot_.level(eps[0]);
    for (size_t j = 1; j < eps.size(); ++j) {
      if (vhot_.level(eps[j]) > maxl) {
        maxl = vhot_.level(eps[j]);
        owner = eps[j];
      }
    }
    PDMM_ASSERT_MSG(maxl >= 0,
                    "an edge with all endpoints unmatched cannot be placed");
    elevel_[e] = maxl;
    eowner_[e] = owner;
    for (size_t j = 0; j < eps.size(); ++j) {
      muts[i * r + j] = StructMut{eps[j], e, maxl,
                                  static_cast<uint8_t>(eps[j] == owner)};
    }
  });
  cost_.round(ids.size() * r);
  apply_struct_muts(/*insert=*/true);
}

void DynamicMatcher::remove_edges_from_structures(
    const std::vector<EdgeId>& ids) {
  if (ids.empty()) return;
  const uint32_t r = reg_.max_rank();
  auto& muts = scratch_.struct_muts;
  muts.assign(ids.size() * r, StructMut{});
  parallel_for(pool_, ids.size(), [&](size_t i) {
    const EdgeId e = ids[i];
    const auto eps = reg_.endpoints(e);
    const Vertex owner = eowner_[e];
    const Level l = elevel_[e];
    for (size_t j = 0; j < eps.size(); ++j) {
      muts[i * r + j] =
          StructMut{eps[j], e, l, static_cast<uint8_t>(eps[j] == owner)};
    }
  });
  cost_.round(ids.size() * r);
  apply_struct_muts(/*insert=*/false);
}

void DynamicMatcher::apply_level_moves(std::vector<LevelMove>& moves) {
  if (moves.empty()) return;
  parallel_sort_by_key(pool_, moves, scratch_.moves_sort_buf,
                       [](const LevelMove& m) { return m.v; });
  for (size_t i = 1; i < moves.size(); ++i)
    PDMM_ASSERT_MSG(moves[i].v != moves[i - 1].v,
                    "duplicate vertex in level-move batch");

  // Collect affected edges before levels change: every owned edge of a
  // mover, plus (for risers) every edge in A(v, l') with l' < target —
  // those get captured by the riser (batch set-level, Claim 3.4).
  auto& affected = scratch_.affected;
  affected.clear();
  size_t need = 0;
  for (const LevelMove& mv : moves) {
    const VertexState& vs = verts_[mv.v];
    need += vs.owned.size();
    if (mv.to > vhot_.level(mv.v)) {
      for (const auto& ls : vs.a_sets) {
        if (ls.level < mv.to) need += ls.set.size();
      }
    }
  }
  affected.reserve(need);
  for (const LevelMove& mv : moves) {
    VertexState& vs = verts_[mv.v];
    affected.insert(affected.end(), vs.owned.items().begin(),
                    vs.owned.items().end());
    if (mv.to > vhot_.level(mv.v)) {
      for (const auto& ls : vs.a_sets) {
        if (ls.level < mv.to)
          affected.insert(affected.end(), ls.set.items().begin(),
                          ls.set.items().end());
      }
    }
  }
  cost_.round(affected.size() + moves.size());

  for (const LevelMove& mv : moves) vhot_.set_level(mv.v, mv.to);

  parallel_sort_by_key(pool_, affected, scratch_.sort_buf);
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  // Recompute level + owner of each affected edge from the new vertex
  // levels (parallel; per-edge state is disjoint).
  const uint32_t r = reg_.max_rank();
  auto& muts = scratch_.move_muts;
  muts.assign(affected.size() * r, MoveMut{});
  parallel_for(pool_, affected.size(), [&](size_t i) {
    const EdgeId e = affected[i];
    const auto eps = reg_.endpoints(e);
    const Vertex old_owner = eowner_[e];
    const Level old_lvl = elevel_[e];

    Level maxl = kUnmatchedLevel;
    for (Vertex u : eps) maxl = std::max(maxl, vhot_.level(u));
    PDMM_ASSERT_MSG(maxl >= 0, "affected edge stranded at level -1");
    Vertex new_owner;
    if (vhot_.level(old_owner) == maxl) {
      new_owner = old_owner;  // keep the owner while it stays maximal
    } else {
      new_owner = kNoVertex;
      for (Vertex u : eps) {
        if (vhot_.level(u) == maxl) {
          new_owner = u;  // endpoints sorted: smallest-id maximal endpoint
          break;
        }
      }
    }
    if (eflags_[e] & kMatched) {
      for ([[maybe_unused]] Vertex u : eps)
        PDMM_DASSERT(vhot_.level(u) == maxl);
    }
    elevel_[e] = maxl;
    eowner_[e] = new_owner;
    for (size_t j = 0; j < eps.size(); ++j) {
      MoveMut& m = muts[i * r + j];
      m.u = eps[j];
      m.e = e;
      m.old_lvl = old_lvl;
      m.new_lvl = maxl;
      m.was_owner = (eps[j] == old_owner);
      m.now_owner = (eps[j] == new_owner);
    }
  });
  cost_.round(affected.size() * r);

  // Apply the container moves grouped per vertex; groups are disjoint so
  // per-vertex containers need no locks, and the unique (u, e) keys pin
  // the applied order independent of grain and thread count.
  auto& live = scratch_.move_live;
  pack_values_into(
      pool_, muts,
      [&](size_t i) {
        const MoveMut& m = muts[i];
        if (m.u == kNoVertex) return false;
        const bool same_container =
            (m.was_owner && m.now_owner) ||
            (!m.was_owner && !m.now_owner && m.old_lvl == m.new_lvl);
        return !same_container;
      },
      live, scratch_.pack_flags);
  apply_grouped_unique(
      pool_, live, [](const MoveMut& m) { return m.key(); },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t key, const MoveMut* b, const MoveMut* e) {
        VertexState& vs = verts_[static_cast<Vertex>(key)];
        for (const MoveMut* m = b; m != e; ++m) {
          if (m->was_owner) {
            vs.owned.erase(m->e);
          } else {
            vs.erase_a(m->old_lvl, m->e);
          }
          if (m->now_owner) {
            vs.owned.insert(m->e);
          } else {
            vs.ensure_a(m->new_lvl).insert(m->e);
          }
        }
      },
      scratch_.move_groups, &cost_);

  // Refresh S_l membership of every vertex whose mask can have changed:
  // the movers (their level term changed) and the vertices with a live
  // container move (their per-level counts changed). An affected-edge
  // endpoint with only same-container records kept every count and its
  // level, so its mask is arithmetically unchanged — the old
  // endpoint-gather + sort + unique pass recomputed those for nothing.
  // Both inputs are already sorted (moves by v from the entry sort; live
  // by (u << 32 | e) from the grouped apply), so the union is one merge.
  auto& touched = scratch_.moved_touched;
  touched.clear();
  touched.reserve(moves.size() + live.size());
  const auto push = [&touched](Vertex u) {
    if (touched.empty() || touched.back() != u) touched.push_back(u);
  };
  size_t mi = 0, li = 0;
  while (mi < moves.size() || li < live.size()) {
    const Vertex mu = mi < moves.size() ? moves[mi].v : kNoVertex;
    const Vertex lu = li < live.size() ? live[li].u : kNoVertex;
    if (mu <= lu) {
      push(mu);
      ++mi;
    } else {
      push(lu);
      ++li;
    }
  }
  refresh_s_membership_all(touched);
}

// ---------------------------------------------------------------------------
// Matching bookkeeping
// ---------------------------------------------------------------------------

void DynamicMatcher::set_matched(EdgeId e, Level l) {
  PDMM_DASSERT(!(eflags_[e] & kMatched));
  eflags_[e] |= kMatched;
  ++matching_size_;
  for (Vertex u : reg_.endpoints(e)) {
    PDMM_DASSERT(vhot_.matched(u) == kNoEdge);
    vhot_.set_matched(u, e);
    const Level lv = vhot_.level(u);
    if (lv >= 0) undecided_[static_cast<size_t>(lv)].erase(u);
  }
  if (cfg_.collect_epoch_stats) {
    epochs_.created[static_cast<size_t>(l)]++;
  }
  epoch_d_deleted_[e] = 0;
  batch_journal_.emplace_back(e, int8_t{+1});
}

void DynamicMatcher::set_unmatched(EdgeId e, bool natural) {
  PDMM_DASSERT(eflags_[e] & kMatched);
  const Level l = elevel_[e];
  eflags_[e] &= static_cast<uint8_t>(~kMatched);
  --matching_size_;
  for (Vertex u : reg_.endpoints(e)) {
    if (vhot_.matched(u) != e) continue;
    vhot_.set_matched(u, kNoEdge);
    PDMM_DASSERT(vhot_.level(u) >= 0);
    undecided_[static_cast<size_t>(vhot_.level(u))].insert(u);
  }
  if (cfg_.collect_epoch_stats) {
    auto& ended = natural ? epochs_.ended_natural : epochs_.ended_induced;
    ended[static_cast<size_t>(l)]++;
    epochs_.d_budget_consumed[static_cast<size_t>(l)] += epoch_d_deleted_[e];
  }
  epoch_d_deleted_[e] = 0;
  batch_journal_.emplace_back(e, int8_t{-1});
}

void DynamicMatcher::dissolve_d(EdgeId e) {
  IndexedSet* d = edge_d_[e].get();
  if (!d || d->empty()) return;
  for (EdgeId f : d->items()) {
    PDMM_DASSERT(eflags_[f] & kTempDeleted);
    eflags_[f] &= static_cast<uint8_t>(~kTempDeleted);
    eresp_[f] = kNoEdge;
    reinsert_queue_.push_back(f);
    ++stats_.reinserted;
  }
  cost_.round(d->size());
  d->clear();
}

void DynamicMatcher::temp_delete_bookkeep(EdgeId f, EdgeId responsible) {
  PDMM_DASSERT(!(eflags_[f] & (kMatched | kTempDeleted)));
  eflags_[f] |= kTempDeleted;
  eresp_[f] = responsible;
  if (!edge_d_[responsible])
    edge_d_[responsible] = std::make_unique<IndexedSet>();
  edge_d_[responsible]->insert(f);
  ++stats_.temp_deleted;
  if (cfg_.collect_epoch_stats) {
    epochs_.d_size_at_creation[static_cast<size_t>(elevel_[responsible])]++;
  }
}

void DynamicMatcher::temp_delete(EdgeId f, EdgeId responsible) {
  PDMM_DASSERT(!(eflags_[f] & (kMatched | kTempDeleted)));
  remove_edge_from_structures(f);
  temp_delete_bookkeep(f, responsible);
}

// ---------------------------------------------------------------------------
// Deletion phases (§3.3.1 and the entry of §3.3.2)
// ---------------------------------------------------------------------------

void DynamicMatcher::phase_delete_unmatched(const std::vector<EdgeId>& edges) {
  if (edges.empty()) return;
  remove_edges_from_structures(edges);
}

void DynamicMatcher::phase_delete_temp(const std::vector<EdgeId>& edges) {
  if (edges.empty()) return;
  for (EdgeId e : edges) {
    const EdgeId resp = eresp_[e];
    PDMM_DASSERT(resp != kNoEdge && (eflags_[resp] & kMatched));
    edge_d_[resp]->erase(e);
    ++epoch_d_deleted_[resp];  // amortization budget of resp's epoch
    eflags_[e] &= static_cast<uint8_t>(~kTempDeleted);
    eresp_[e] = kNoEdge;
  }
  cost_.round(edges.size());
}

void DynamicMatcher::phase_delete_matched(const std::vector<EdgeId>& edges) {
  if (edges.empty()) return;
  // Matching bookkeeping (journal, undecided sets, D dissolution) is serial
  // and cheap; the structural removals — the expensive part — batch.
  for (EdgeId e : edges) {
    set_unmatched(e, /*natural=*/true);
    dissolve_d(e);
  }
  cost_.round(edges.size());
  remove_edges_from_structures(edges);
}

// ---------------------------------------------------------------------------
// The level sweep (§3.3.2)
// ---------------------------------------------------------------------------

void DynamicMatcher::level_sweep(bool with_step1) {
  for (Level l = scheme_.top_level(); l >= 0; --l) {
    if (with_step1) process_level_step1(l);
    grand_random_settle(l);
  }
}

void DynamicMatcher::process_level_step1(Level l) {
  IndexedSet& u_set = undecided_[static_cast<size_t>(l)];
  if (u_set.empty()) return;
  const std::vector<Vertex> u_nodes(u_set.items().begin(),
                                    u_set.items().end());

  // U_free: edges owned by an undecided node of this level whose endpoints
  // are all unmatched. Ownership makes the union duplicate-free.
  auto& candidates = scratch_.candidates;
  candidates.clear();
  size_t need = 0;
  for (Vertex v : u_nodes) need += verts_[v].owned.size();
  candidates.reserve(need);
  for (Vertex v : u_nodes) {
    PDMM_DASSERT(vhot_.matched(v) == kNoEdge && vhot_.level(v) == l);
    const auto items = verts_[v].owned.items();
    candidates.insert(candidates.end(), items.begin(), items.end());
  }
  cost_.round(candidates.size() + u_nodes.size());

  auto& u_free = scratch_.free_edges;
  pack_values_into(
      pool_, candidates,
      [&](size_t i) {
        for (Vertex u : reg_.endpoints(candidates[i])) {
          if (vhot_.matched(u) != kNoEdge) return false;
        }
        return true;
      },
      u_free, scratch_.pack_flags);
  cost_.round(candidates.size() * reg_.max_rank());

  auto& moves = scratch_.moves;
  moves.clear();
  if (!u_free.empty()) {
    StaticMMResult mm = static_maximal_matching(
        pool_, reg_, u_free,
        hash_mix(cfg_.seed, batch_counter_,
                 0xA11CE000ull + static_cast<uint64_t>(l)),
        &cost_);
    stats_.static_mm_rounds += mm.rounds;
    for (EdgeId e : mm.matched) {
      set_matched(e, 0);  // Step-1 matches land on level 0
      for (Vertex u : reg_.endpoints(e)) moves.push_back({u, 0});
    }
  }
  // Undecided nodes that stayed unmatched drop to level -1.
  for (Vertex v : u_nodes) {
    if (vhot_.matched(v) == kNoEdge) {
      moves.push_back({v, kUnmatchedLevel});
      u_set.erase(v);
    }
  }
  apply_level_moves(moves);
  PDMM_ASSERT(u_set.empty());
}

// ---------------------------------------------------------------------------
// Insertion phase (§3.3.3)
// ---------------------------------------------------------------------------

void DynamicMatcher::phase_insert(const std::vector<EdgeId>& ids) {
  if (ids.empty()) return;
  grow_edges(reg_.id_bound());

  // S_free: inserted edges whose endpoints are all currently unmatched.
  auto& s_free = scratch_.free_edges;
  pack_values_into(
      pool_, ids,
      [&](size_t i) {
        for (Vertex u : reg_.endpoints(ids[i])) {
          if (vhot_.matched(u) != kNoEdge) return false;
        }
        return true;
      },
      s_free, scratch_.pack_flags);
  cost_.round(ids.size() * reg_.max_rank());

  auto& moves = scratch_.moves;
  moves.clear();
  if (!s_free.empty()) {
    StaticMMResult mm = static_maximal_matching(
        pool_, reg_, s_free, hash_mix(cfg_.seed, batch_counter_, 0x1A5E47ull),
        &cost_);
    stats_.static_mm_rounds += mm.rounds;
    for (EdgeId e : mm.matched) {
      set_matched(e, 0);
      for (Vertex u : reg_.endpoints(e)) moves.push_back({u, 0});
    }
  }
  apply_level_moves(moves);

  insert_edges_into_structures(ids);
}

size_t DynamicMatcher::total_undecided() const {
  size_t n = 0;
  for (const auto& u : undecided_) n += u.size();
  return n;
}

void DynamicMatcher::drain_eager() {
  for (uint32_t it = 0; it < cfg_.max_eager_sweeps; ++it) {
    ++stats_.eager_sweeps;
    level_sweep(/*with_step1=*/true);
    if (reinsert_queue_.empty() && total_undecided() == 0) {
      // Clean only when no rising set survived either; kicks during the
      // sweep can have re-populated them via reinsertion below.
      bool any_rising = false;
      for (const auto& s : s_) any_rising |= !s.empty();
      if (!any_rising) return;
    }
    std::vector<EdgeId> q;
    q.swap(reinsert_queue_);
    phase_insert(q);
  }
  // Cap hit: Invariant 3.5(2) is handed to the next batch (as lazy mode
  // always does), but undecided nodes and kicked edges must not leak across
  // the batch boundary. Step-1 sweeps and insertions create neither, so one
  // extra pass resolves the residue without settling.
  ++stats_.eager_cap_hits;
  while (!reinsert_queue_.empty() || total_undecided() != 0) {
    std::vector<EdgeId> q;
    q.swap(reinsert_queue_);
    phase_insert(q);
    for (Level l = scheme_.top_level(); l >= 0; --l) process_level_step1(l);
  }
}

// ---------------------------------------------------------------------------
// Rebuild (§3.2.1 N-doubling)
// ---------------------------------------------------------------------------

void DynamicMatcher::reset_state() {
  // Journal the wholesale unmatching so callers' diffs stay correct, and
  // close the epochs of all matched edges.
  for (EdgeId e = 0; e < eflags_.size(); ++e) {
    if (eflags_[e] & kMatched) {
      if (cfg_.collect_epoch_stats) {
        epochs_.ended_induced[static_cast<size_t>(elevel_[e])]++;
        epochs_.d_budget_consumed[static_cast<size_t>(elevel_[e])] +=
            epoch_d_deleted_[e];
      }
      batch_journal_.emplace_back(e, int8_t{-1});
    }
  }
  verts_.clear();
  vhot_.clear();
  elevel_.clear();
  eowner_.clear();
  eflags_.clear();
  eresp_.clear();
  edge_d_.clear();
  epoch_d_deleted_.clear();
  s_.assign(static_cast<size_t>(scheme_.top_level()) + 1, {});
  undecided_.assign(static_cast<size_t>(scheme_.top_level()) + 1, {});
  reinsert_queue_.clear();
  matching_size_ = 0;
}

void DynamicMatcher::rebuild() {
  PDMM_ASSERT(static_cast<size_t>(scheme_.top_level()) + 1 < kMaxLevels);
  reset_state();
  grow_vertices(reg_.vertex_bound());
  grow_edges(reg_.id_bound());
  ++stats_.rebuilds;

  const std::vector<EdgeId> all = reg_.all_edges();
  cost_.round(all.size());
  // From scratch everything is free: one static MM seeds the matching (all
  // matched edges at level 0), then every edge enters the structures.
  auto& moves = scratch_.moves;
  moves.clear();
  if (!all.empty()) {
    StaticMMResult mm = static_maximal_matching(
        pool_, reg_, all, hash_mix(cfg_.seed, batch_counter_, 0x4eb01dull),
        &cost_);
    stats_.static_mm_rounds += mm.rounds;
    for (EdgeId e : mm.matched) {
      set_matched(e, 0);
      for (Vertex u : reg_.endpoints(e)) moves.push_back({u, 0});
    }
  }
  apply_level_moves(moves);
  insert_edges_into_structures(all);
}

void DynamicMatcher::maybe_rebuild(size_t incoming_updates) {
  if (!cfg_.auto_rebuild) return;
  if (updates_used_ + incoming_updates <= scheme_.n_bound()) return;
  const uint64_t new_n = 2 * std::max<uint64_t>(
      scheme_.n_bound(),
      updates_used_ + incoming_updates + reg_.vertex_bound());
  scheme_ = LevelScheme(cfg_.max_rank, new_n);
  updates_used_ = 0;
  rebuild();
}

// ---------------------------------------------------------------------------
// Batch update entry point (§3.3)
// ---------------------------------------------------------------------------

DynamicMatcher::BatchResult DynamicMatcher::update_by_endpoints(
    std::span<const std::vector<Vertex>> deletions,
    std::span<const std::vector<Vertex>> insertions) {
  // Lookups are read-only on the registry, so they resolve in parallel.
  std::vector<EdgeId> dels(deletions.size());
  parallel_for(pool_, deletions.size(), [&](size_t i) {
    dels[i] = reg_.find(deletions[i]);
    PDMM_ASSERT_MSG(dels[i] != kNoEdge,
                    "deletion of an absent edge (by endpoints)");
  });
  return update(dels, insertions);
}

DynamicMatcher::BatchResult DynamicMatcher::update(
    std::span<const EdgeId> deletions,
    std::span<const std::vector<Vertex>> insertions) {
  // Single-updater contract: exactly one thread drives updates at a time
  // (the class has no internal locking), so the calling thread holds the
  // updater role by construction. This assertion is the trust boundary
  // that lets the analysis check the updater-only state below (the
  // post-batch hook slot) without annotating every update() caller.
  updater_role_.assert_held();
  BatchResult res;
  const CostCounters cost_before = cost_;
  const uint64_t rebuilds_before = stats_.rebuilds;
  batch_journal_.clear();

  maybe_rebuild(deletions.size() + insertions.size());

  ++batch_counter_;
  ++stats_.batches;
  reinsert_queue_.clear();

  // --- classify deletions ---
  std::vector<EdgeId> dels(deletions.begin(), deletions.end());
  parallel_sort_by_key(pool_, dels, scratch_.sort_buf);
  dels.erase(std::unique(dels.begin(), dels.end()), dels.end());
  std::vector<EdgeId> del_unmatched, del_temp, del_matched;
  for (EdgeId e : dels) {
    PDMM_ASSERT_MSG(reg_.alive(e), "deletion of an absent edge");
    if (eflags_[e] & kMatched) {
      del_matched.push_back(e);
    } else if (eflags_[e] & kTempDeleted) {
      del_temp.push_back(e);
    } else {
      del_unmatched.push_back(e);
    }
  }
  updates_used_ += dels.size() + insertions.size();
  stats_.updates += dels.size() + insertions.size();

  // --- groups 1 & 2: deletions, then the level sweep ---
  phase_delete_temp(del_temp);
  phase_delete_unmatched(del_unmatched);
  phase_delete_matched(del_matched);
  // Retire all deleted ids in sorted order (the classification above
  // removed them from every structure already). A single sorted erase pass
  // keeps free-list id assignment identical across all matcher
  // implementations driven by the same stream.
  for (EdgeId e : dels) {
    reg_.erase(e);
    batch_journal_.emplace_back(e, int8_t{0});
  }
  level_sweep(/*with_step1=*/true);

  // --- group 3: insertions (user + kicked edges + dissolved D sets) ---
  res.inserted_ids.resize(insertions.size(), kNoEdge);
  std::vector<EdgeId> new_ids;
  for (size_t i = 0; i < insertions.size(); ++i) {
    const EdgeId id = reg_.insert(insertions[i]);
    res.inserted_ids[i] = id;
    if (id != kNoEdge) new_ids.push_back(id);
  }
  grow_vertices(reg_.vertex_bound());
  grow_edges(reg_.id_bound());
  cost_.round(insertions.size() * reg_.max_rank());

  new_ids.insert(new_ids.end(), reinsert_queue_.begin(),
                 reinsert_queue_.end());
  reinsert_queue_.clear();
  phase_insert(new_ids);

  // --- optional eager settle sweeps: Invariant 3.5(2) after every batch ---
  if (cfg_.settle_after_insertions) drain_eager();

  // --- replay the journal into a post-state-wins diff ---
  // Per edge-id identity tracking: a "retire" event (0) closes the current
  // identity (reporting its loss of matched status if it started matched),
  // and any later events under the same id belong to a fresh identity.
  {
    struct Track {
      bool seen = false;
      bool initial = false;  // matched at identity start
      bool cur = false;
    };
    FlatPosMap<uint32_t> index;
    std::vector<Track> tracks;
    std::vector<EdgeId> track_ids;
    for (const auto& [e, ev] : batch_journal_) {
      uint32_t* slot = index.find(e);
      if (!slot) {
        index.insert(e, static_cast<uint32_t>(tracks.size()));
        slot = index.find(e);
        tracks.push_back({});
        track_ids.push_back(e);
      }
      Track& t = tracks[*slot];
      if (ev == 0) {
        // Retirement: matched edges are always unmatched before deletion.
        PDMM_DASSERT(!t.seen || !t.cur);
        if (t.seen && t.initial) res.newly_unmatched.push_back(e);
        t = Track{};  // fresh identity for a possibly recycled id
      } else {
        const bool now = ev > 0;
        if (!t.seen) {
          t.seen = true;
          t.initial = !now;
          t.cur = !now;
        }
        PDMM_DASSERT(t.cur != now);
        t.cur = now;
      }
    }
    for (size_t i = 0; i < tracks.size(); ++i) {
      const Track& t = tracks[i];
      if (!t.seen) continue;
      if (!t.initial && t.cur) res.newly_matched.push_back(track_ids[i]);
      if (t.initial && !t.cur) res.newly_unmatched.push_back(track_ids[i]);
    }
  }

  res.rebuilt = stats_.rebuilds > rebuilds_before;
  res.work = cost_.work - cost_before.work;
  res.rounds = cost_.rounds - cost_before.rounds;

  if (cfg_.check_invariants) MatchingChecker::check(*this);
  if (post_batch_hook_) post_batch_hook_(res);
  return res;
}

// ---------------------------------------------------------------------------
// Concurrent read path: view export (src/serve)
// ---------------------------------------------------------------------------

MatchView DynamicMatcher::make_view() const {
  MatchView view;
  make_view_into(view);
  return view;
}

void DynamicMatcher::make_view_into(MatchView& view) const {
  view.epoch = batch_counter_;
  view.max_rank = reg_.max_rank();

  // Per-vertex arrays: the SoA lanes are exactly the view's layout, so the
  // fill is two bulk copies. assign() on an already-capacious recycled
  // view reuses its allocation.
  const auto levels = vhot_.levels();
  const auto matched = vhot_.matched_edges();
  view.vmatch.assign(matched.begin(), matched.end());
  view.vlevel.assign(levels.begin(), levels.end());

  // Matched edges (ascending, from matching()) with their endpoints packed
  // CSR-style so the view owns every byte a query touches.
  view.medges.clear();
  view.medges.reserve(matching_size_);
  for (EdgeId e = 0; e < eflags_.size(); ++e) {
    if (eflags_[e] & kMatched) view.medges.push_back(e);
  }
  view.moffset.resize(view.medges.size() + 1);
  size_t total = 0;
  for (size_t i = 0; i < view.medges.size(); ++i) {
    view.moffset[i] = static_cast<uint32_t>(total);
    total += reg_.rank(view.medges[i]);
  }
  view.moffset[view.medges.size()] = static_cast<uint32_t>(total);
  view.mendpoints.resize(total);
  parallel_for(pool_, view.medges.size(), [&](size_t i) {
    const auto eps = reg_.endpoints(view.medges[i]);
    std::copy(eps.begin(), eps.end(),
              view.mendpoints.begin() + view.moffset[i]);
  });
}

}  // namespace pdmm
