// DynamicMatcher: the paper's parallel dynamic maximal matching algorithm
// (Ghaffari & Trygub, SPAA 2024), §3.
//
// The matcher maintains a maximal matching M of a rank-r hypergraph under
// arbitrary batches of edge insertions and deletions. One `update()` call
// processes one batch:
//
//   1. unmatched / temporarily-deleted edge deletions   (§3.3.1)
//   2. matched edge deletions, then a level sweep  L..0 (§3.3.2)
//      - process-level step 1: static MM over the free edges owned by
//        undecided nodes of this level; winners drop to level 0,
//        unmatched undecided nodes drop to level -1
//      - process-level step 2: grand-random-settle of the rising set
//        B = S_l  (implemented in settle.cpp)
//   3. insertions, including reinsertion of kicked matched edges and of
//      dissolved temporarily-deleted sets D(e)           (§3.3.3)
//   4. optionally an extra settle sweep so Invariant 3.5(2) holds after
//      every batch (Config::settle_after_insertions)
//
// Leveling invariants maintained (checked exhaustively by MatchingChecker):
//   - matched e: all endpoints at level l(e); unmatched e: l(e) = max
//     endpoint level = owner level; owner is a max-level endpoint
//   - l(v) = -1 iff v unmatched (undecided nodes transiently violate this
//     *inside* a batch; never between batches)
//   - temp-deleted edges appear in exactly one D(e), e matched, and in no
//     other structure
//   - S_l = {v : l(v) < l and o~(v,l) >= alpha^l}
//
// Randomness: all random choices derive from (Config::seed, batch counter,
// phase counters, edge id) via stateless hashing, so a run is deterministic
// for a fixed seed regardless of thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/epoch_stats.h"
#include "core/level_scheme.h"
#include "core/vertex_soa.h"
#include "dict/batch_ops.h"
#include "graph/registry.h"
#include "graph/types.h"
#include "parallel/cost_model.h"
#include "parallel/thread_pool.h"
#include "util/indexed_set.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/rng.h"
#include "util/small_vector.h"

namespace pdmm {

class MatchingChecker;
struct MatchView;

// Outcome of DynamicMatcher::load(). Snapshot input is treated as
// untrusted: every malformed, truncated, out-of-bounds or inconsistent
// input is reported here as a recoverable error — load() never aborts the
// process and never performs an out-of-bounds access, whatever the bytes.
struct SnapshotError {
  // 1-based line of the offending snapshot line; 0 when the error is not
  // tied to a single line (stream-level failure, post-load verification).
  size_t line = 0;
  std::string message;  // empty <=> success

  bool ok() const { return message.empty(); }
  std::string to_string() const {
    if (ok()) return "ok";
    if (line == 0) return "snapshot: " + message;
    return "snapshot line " + std::to_string(line) + ": " + message;
  }
};

class DynamicMatcher {
 public:
  DynamicMatcher(const Config& cfg, ThreadPool& pool);
  ~DynamicMatcher();

  DynamicMatcher(const DynamicMatcher&) = delete;
  DynamicMatcher& operator=(const DynamicMatcher&) = delete;

  struct BatchResult {
    // One entry per insertion, aligned: the new EdgeId, or kNoEdge when the
    // insertion was rejected (duplicate of a present edge or of an earlier
    // insertion in the same batch).
    std::vector<EdgeId> inserted_ids;
    // Edges that entered / left M during this batch (post-state wins: an
    // edge that entered and left within the batch appears in neither).
    std::vector<EdgeId> newly_matched;
    std::vector<EdgeId> newly_unmatched;
    uint64_t work = 0;    // element operations spent on this batch
    uint64_t rounds = 0;  // parallel rounds spent on this batch (depth proxy)
    bool rebuilt = false;
  };

  // Processes one batch. Deletions are EdgeIds of present edges (duplicates
  // within the batch are ignored); insertions are endpoint lists of
  // 1..max_rank distinct vertices. Deletions apply before insertions (§3.3).
  //
  // Contract: after update() returns, M is a valid maximal matching of the
  // live edge set, and every structural invariant listed in the class
  // comment holds (MatchingChecker::check passes). Against an oblivious
  // adversary — update sequences fixed without seeing Config::seed — the
  // paper bounds, whp over the seed:
  //   * amortized work per update: O(alpha^8 L^2 log^2(alpha) log^7 N)
  //     (Theorem 4.16) — polylog(N) for fixed rank, and
  //   * depth per batch: O(L log(alpha) log^3 N) rounds regardless of the
  //     batch size (Theorem 4.4); BatchResult::rounds is that round count,
  //     BatchResult::work the element-operation count.
  // Determinism: for a fixed Config::seed and update sequence, the
  // resulting state and all counters are identical across thread counts
  // and schedules (all randomness is stateless indexed hashing).
  // An adaptive adversary (one that inspects the matching, e.g.
  // AdversarialMatchedDeleter) voids the work bound but never correctness.
  BatchResult update(std::span<const EdgeId> deletions,
                     std::span<const std::vector<Vertex>> insertions);

  // Convenience wrappers.
  BatchResult insert_batch(std::span<const std::vector<Vertex>> insertions) {
    return update({}, insertions);
  }
  BatchResult delete_batch(std::span<const EdgeId> deletions) {
    return update(deletions, {});
  }
  // Deletions given as endpoint sets instead of ids (resolved in canonical
  // sorted-unique id order, so id assignment stays deterministic across
  // matcher implementations fed the same stream). Every deletion must name
  // a present edge.
  BatchResult update_by_endpoints(
      std::span<const std::vector<Vertex>> deletions,
      std::span<const std::vector<Vertex>> insertions);

  // ---- inspection ----
  // All inspection accessors are O(1) unless noted, never allocate, and
  // are safe to call between updates (not from within parallel callbacks).
  const HyperedgeRegistry& graph() const { return reg_; }
  // O(r) expected hash lookup; endpoints need not be sorted.
  EdgeId find_edge(std::span<const Vertex> endpoints) const {
    return reg_.find(endpoints);
  }
  bool is_matched(EdgeId e) const {
    return e < eflags_.size() && (eflags_[e] & kMatched);
  }
  bool is_temp_deleted(EdgeId e) const {
    return e < eflags_.size() && (eflags_[e] & kTempDeleted);
  }
  size_t matching_size() const { return matching_size_; }
  // Materializes M, sorted ascending; O(edge capacity). Maximality makes
  // it a 1/r-approximation of the maximum matching (paper §2) — 1/2 for
  // ordinary graphs.
  std::vector<EdgeId> matching() const;
  // The endpoints of all matched hyperedges form a vertex cover of size at
  // most r times the minimum (paper §2). Sorted ascending.
  std::vector<Vertex> vertex_cover() const;
  Level vertex_level(Vertex v) const {
    return v < vhot_.size() ? vhot_.level(v) : kUnmatchedLevel;
  }
  EdgeId matched_edge_of(Vertex v) const {
    return v < vhot_.size() ? vhot_.matched(v) : kNoEdge;
  }
  Level edge_level(EdgeId e) const { return elevel_[e]; }
  Vertex edge_owner(EdgeId e) const { return eowner_[e]; }

  // ---- concurrent read path (src/serve) ----
  // Batches processed so far; the epoch stamped onto published MatchViews.
  uint64_t batch_epoch() const { return batch_counter_; }
  // Builds an immutable snapshot of the current matching (per-vertex
  // matched edge + level, sorted matched-edge list with endpoints), stamped
  // with batch_epoch(). O(V + E) with the per-vertex fill parallelized on
  // the pool. Must be called between updates (same rule as the other
  // inspection accessors); serve::MatchViewService calls it from the
  // post-batch hook, which satisfies that by construction.
  MatchView make_view() const;
  // Buffer-reusing variant: captures the same snapshot into `out`,
  // recycling its vector capacity — the pipelined engine's Scratch
  // handoff rebuilds views into retired buffers so the steady-state
  // publish path stops allocating. Same between-updates calling rule.
  void make_view_into(MatchView& out) const;
  // Installs `hook`, invoked at the very end of every update() — after all
  // invariants are restored (and after the optional invariant check), with
  // the batch's result — on the updater thread. One hook at a time; pass
  // nullptr to detach. MatchViewService uses this to publish a fresh view
  // per batch without the driver having to remember to.
  //
  // Hook registration is updater-thread-only (the hook slot is plain
  // state read by update()): the REQUIRES annotation makes every
  // registration site name the updater role explicitly.
  using PostBatchHook = std::function<void(const BatchResult&)>;
  void set_post_batch_hook(PostBatchHook hook) PDMM_REQUIRES(updater_role_) {
    post_batch_hook_ = std::move(hook);
  }

  // The single-updater capability: update()/update_by_endpoints(), hook
  // registration, and every other mutating entry point belong to one
  // logical updater thread at a time (the class has no internal locking).
  // update() asserts the role at entry — the documented trust boundary —
  // so code that merely drives updates needs no annotation; code that
  // touches updater-only state directly (the hook slot) must carry
  // PDMM_REQUIRES(updater_role()) and is machine-checked under `tidy`.
  const ThreadRole& updater_role() const
      PDMM_RETURN_CAPABILITY(updater_role_) {
    return updater_role_;
  }

  const Config& config() const { return cfg_; }
  const LevelScheme& scheme() const { return scheme_; }
  const MatcherStats& stats() const { return stats_; }
  const EpochStats& epoch_stats() const { return epochs_; }
  const CostCounters& cost() const { return cost_; }
  ThreadPool& pool() { return pool_; }

  // o~(v, l): edges v would own after rising to level l (§3.2.3).
  uint64_t o_tilde(Vertex v, Level l) const;

  // Forces the N-doubling rebuild now (also triggered automatically).
  void rebuild();

  // --- snapshot / restore (core/snapshot.cpp) ---
  // Serializes the complete matcher state (graph, matching, leveling
  // structures, temporarily-deleted sets, RNG counters) as versioned text.
  // A matcher constructed with the same Config that load()s the snapshot
  // continues *bit-identically* to the original instance. Cumulative
  // statistics (stats(), epoch_stats(), cost()) are not part of the state
  // and reset on load.
  //
  // save() returns false when the output stream failed (disk full, closed
  // pipe, ...) — the written bytes must then be discarded, they are not a
  // usable snapshot. load() validates its input exhaustively (see
  // SnapshotError); on failure the matcher is reset to the pristine empty
  // state of a freshly constructed instance, so it remains fully usable.
  // Known bound of that contract: hostile declared sizes are rejected by
  // domain caps and a bad_alloc guard, but an absurd in-domain bound can
  // still be OOM-killed (not reported) on kernels that overcommit —
  // checkpoint CRCs (src/persist) are the integrity layer that keeps
  // accidental corruption from ever reaching those bounds.
  [[nodiscard]] bool save(std::ostream& out) const;
  [[nodiscard]] SnapshotError load(std::istream& in);
  // Resets to the state of a freshly constructed instance (empty graph,
  // epoch 0, scheme from Config::initial_capacity). load() calls this on
  // failure; persist::recover() calls it to discard a checkpoint it
  // loaded but then rejected.
  void reset_to_empty();

 private:
  friend class MatchingChecker;

  // Per-edge flag bits.
  static constexpr uint8_t kMatched = 1;
  static constexpr uint8_t kTempDeleted = 2;

  struct LevelSet {
    Level level;
    IndexedSet set;
  };

  // Cold per-vertex containers. The hot scalars (level, matched edge,
  // S_l membership mask) live in the vhot_ SoA arrays (core/vertex_soa.h)
  // so the settle/refresh loops stream dense lanes; verts_ holds only what
  // those loops never touch. MatchingChecker cross-validates the two
  // layouts stay mirror-consistent.
  struct VertexState {
    IndexedSet owned;  // O(v)
    // Sparse A(v, l), non-empty levels only. The first two level sets live
    // inline in the VertexState (low-degree vertices almost never have
    // more), so the common structural update chases no heap pointer.
    SmallVector<LevelSet, 2> a_sets;

    const IndexedSet* find_a(Level l) const {
      for (const auto& ls : a_sets)
        if (ls.level == l) return &ls.set;
      return nullptr;
    }
    IndexedSet& ensure_a(Level l) {
      for (auto& ls : a_sets)
        if (ls.level == l) return ls.set;
      a_sets.push_back(LevelSet{l, {}});
      return a_sets.back().set;
    }
    void erase_a(Level l, EdgeId e) {
      for (size_t i = 0; i < a_sets.size(); ++i) {
        if (a_sets[i].level != l) continue;
        a_sets[i].set.erase(e);
        if (a_sets[i].set.empty()) {
          if (i + 1 != a_sets.size()) a_sets[i] = std::move(a_sets.back());
          a_sets.pop_back();
        }
        return;
      }
      PDMM_ASSERT_MSG(false, "erase_a: level set not found");
    }
  };

  struct LevelMove {
    Vertex v;
    Level to;
  };

  // One per-vertex container mutation of a batch-parallel structural phase:
  // add (insert phase) or drop (delete phases) edge e in u's owned set or
  // A(u, lvl). Keyed by (u << 32) | e — unique per record — so the grouped
  // application order is a pure function of the record set.
  struct StructMut {
    Vertex u = kNoVertex;
    EdgeId e = kNoEdge;
    Level lvl = 0;
    uint8_t is_owner = 0;

    uint64_t key() const {
      return (static_cast<uint64_t>(u) << 32) | e;
    }
  };

  // Mutation record of apply_level_moves: edge e moves between containers
  // of vertex u as levels change.
  struct MoveMut {
    Vertex u = kNoVertex;
    EdgeId e = kNoEdge;
    Level old_lvl = 0, new_lvl = 0;
    uint8_t was_owner = 0, now_owner = 0;

    uint64_t key() const {
      return (static_cast<uint64_t>(u) << 32) | e;
    }
  };

  // One S_l membership flip: vertex v enters (add) or leaves S_lvl. Keyed
  // by (lvl << 32) | v and grouped by level, so per-level applications run
  // in parallel with a deterministic in-level order.
  struct SMut {
    Level lvl = 0;
    Vertex v = kNoVertex;
    uint8_t add = 0;

    uint64_t key() const {
      return (static_cast<uint64_t>(static_cast<uint32_t>(lvl)) << 32) | v;
    }
  };

  // Batch-scoped scratch arena: every buffer a hot phase needs, reused
  // across calls so the steady-state update path allocates nothing. Buffers
  // are grouped by the (non-reentrant) routine that owns them; routines
  // that call each other use disjoint groups.
  struct Scratch {
    // apply_level_moves
    std::vector<EdgeId> affected;
    std::vector<MoveMut> move_muts, move_live;
    std::vector<Vertex> moved_touched;
    GroupScratch<MoveMut> move_groups;
    // insert_edges_into_structures / remove_edges_from_structures
    std::vector<StructMut> struct_muts, struct_live;
    std::vector<Vertex> struct_touched;
    GroupScratch<StructMut> struct_groups;
    // refresh_s_membership_all
    std::vector<uint64_t> s_deltas;
    std::vector<SMut> s_muts;
    DenseBucketScratch<SMut> s_buckets;
    // process_level_step1 / phase_insert
    std::vector<EdgeId> candidates, free_edges;
    std::vector<LevelMove> moves;
    std::vector<LevelMove> moves_sort_buf;  // apply_level_moves' sort
    // settle machinery (grand_random_settle / subsubsettle)
    std::vector<Vertex> settle_b, settle_kept;
    std::vector<EdgeId> settle_eprime, settle_marked, settle_lifted;
    std::vector<EdgeId> settle_eprime_buf;  // E'-filter double buffer
    std::vector<uint8_t> settle_in_b;       // B membership, |V|-indexed
    std::vector<EdgeId> adopted;  // E' edges temp-deleted this iteration
    // shared pack flag buffer (single pack in flight at a time)
    std::vector<uint8_t> pack_flags;
    // radix-sort ping-pong buffer for id/vertex sorts
    std::vector<uint32_t> sort_buf;
  };

  // ---- update pipeline phases (matcher.cpp) ----
  void phase_delete_unmatched(const std::vector<EdgeId>& edges);
  void phase_delete_temp(const std::vector<EdgeId>& edges);
  void phase_delete_matched(const std::vector<EdgeId>& edges);
  void level_sweep(bool with_step1);
  void process_level_step1(Level l);
  void phase_insert(const std::vector<EdgeId>& fresh_ids);

  // ---- settle machinery (settle.cpp) ----
  void grand_random_settle(Level l);
  // One subsubsettle iteration; returns number of edges lifted.
  size_t subsubsettle(Level l, uint32_t phase_i, uint64_t iter_salt,
                      std::vector<Vertex>& b,
                      std::vector<EdgeId>& e_prime,
                      FlatPosMap<uint32_t>& h_choice);
  // Refreshes B (drop settled/over-threshold vertices) and filters E' down
  // to the still-live owned edges of the surviving B. During a settle all
  // level moves are rises to l, so no edge ever *enters* an O~(v,l) — the
  // fresh E' is always a subset of the old one, and an order-preserving
  // filter of e_prime replaces the old full rebuild+sort. `kicked_set`
  // names the edges kicked out of M this iteration: their stale
  // elevel_/eowner_ would otherwise pass the filter predicate.
  void refresh_settle_sets(Level l, std::vector<Vertex>& b,
                           std::vector<EdgeId>& e_prime,
                           const FlatPosMap<uint32_t>& kicked_set);
  void sequential_settle_fallback(Level l, const std::vector<Vertex>& b);
  void random_settle_single(Vertex v, Level l);
  // Kicks the matched edges (other than `keep`) of keep's endpoints out of
  // M, queues them for reinsertion, and appends them to `kicked`. Shared by
  // the parallel lift and the sequential random-settle so the two paths
  // cannot diverge again.
  void kick_conflicting_matches(EdgeId keep, std::vector<EdgeId>& kicked);
  // Adds e to M at level l — or, when e is already matched and merely rises
  // with its endpoints, restarts its epoch accounting at l.
  void lift_edge(EdgeId e, Level l);
  // Eager mode: alternate settle sweeps with reinsertion of the edges those
  // sweeps kicked, until no residue remains (bounded by max_eager_sweeps).
  void drain_eager();
  size_t total_undecided() const;

  // ---- structural primitives ----
  // Moves each (v, to) to its new level, then restores edge ownership and
  // level invariants for every affected edge (batch set-level, Claim 3.4).
  // `moves` is consumed as working storage (sorted, then left unspecified);
  // callers pass scratch_.moves.
  void apply_level_moves(std::vector<LevelMove>& moves);
  // Batch-parallel insertion/removal of many edges: a read-only parallel
  // pass computes one StructMut per (edge, endpoint), the records apply
  // grouped per vertex (lock-free EREW), and S_l membership refreshes once
  // over the touched vertex set.
  void insert_edges_into_structures(const std::vector<EdgeId>& ids);
  void remove_edges_from_structures(const std::vector<EdgeId>& ids);
  // Shared tail of the two batch phases above: pack the live records of
  // scratch_.struct_muts, apply them grouped per vertex, refresh S_l.
  void apply_struct_muts(bool insert);
  void insert_edge_into_structures(EdgeId e);
  void remove_edge_from_structures(EdgeId e);
  std::vector<EdgeId> collect_o_tilde(Vertex v, Level l) const;
  void append_o_tilde(Vertex v, Level l, std::vector<EdgeId>& out) const;

  // ---- matching bookkeeping ----
  void set_matched(EdgeId e, Level l);      // epoch create
  void set_unmatched(EdgeId e, bool natural);  // epoch end; marks undecided
  void dissolve_d(EdgeId e);                // queue D(e) for reinsertion
  void temp_delete(EdgeId e, EdgeId responsible);
  // temp_delete minus the structural removal, for callers that batch the
  // removals (the subsubsettle adoption step).
  void temp_delete_bookkeep(EdgeId e, EdgeId responsible);

  // ---- misc ----
  // o~(v, l) profile of v folded into the S_l membership bitmask.
  uint64_t compute_s_mask(Vertex v) const;
  void refresh_s_membership(Vertex v);
  // Grouped-parallel refresh over a sorted, duplicate-free vertex set: one
  // parallel pass recomputes the masks (disjoint per-vertex writes), the
  // rare flips expand into SMut records applied grouped per level.
  void refresh_s_membership_all(const std::vector<Vertex>& touched);
  void grow_vertices(Vertex bound);
  void grow_edges(size_t bound);
  void maybe_rebuild(size_t incoming_updates);
  void reset_state();
  // Snapshot-loader internals (core/snapshot.cpp).
  SnapshotError load_validated(std::istream& in);
  SnapshotError verify_loaded_state(size_t declared_alive);
  void reset_cumulative_stats();
  uint64_t settle_rng_stream() const;

  Config cfg_;
  ThreadPool& pool_;
  LevelScheme scheme_;
  IndexedRng rng_;
  HyperedgeRegistry reg_;

  std::vector<VertexState> verts_;
  VertexHotSoA vhot_;  // hot scalars, resized in lockstep with verts_
  std::vector<Level> elevel_;
  std::vector<Vertex> eowner_;
  std::vector<uint8_t> eflags_;
  std::vector<EdgeId> eresp_;  // temp-deleted -> responsible matched edge
  std::vector<std::unique_ptr<IndexedSet>> edge_d_;  // D(e) for matched e
  std::vector<uint32_t> epoch_d_deleted_;  // budget consumed this epoch

  std::vector<IndexedSet> s_;          // S_l, index 0..L
  std::vector<IndexedSet> undecided_;  // undecided nodes by level, 0..L

  // Batch-scoped scratch.
  std::vector<EdgeId> reinsert_queue_;  // kicked edges + dissolved D members
  // Journal of matching transitions this batch: +1 matched, -1 unmatched,
  // 0 id retired (edge deleted, id recyclable). Replayed at batch end to
  // produce the newly_matched / newly_unmatched diff with correct handling
  // of ids recycled within the batch.
  std::vector<std::pair<EdgeId, int8_t>> batch_journal_;
  uint64_t batch_counter_ = 0;
  uint64_t settle_counter_ = 0;

  size_t matching_size_ = 0;
  uint64_t updates_used_ = 0;

  Scratch scratch_;

  ThreadRole updater_role_;
  PostBatchHook post_batch_hook_ PDMM_GUARDED_BY(updater_role_);

  MatcherStats stats_;
  EpochStats epochs_;
  CostCounters cost_;
};

}  // namespace pdmm
