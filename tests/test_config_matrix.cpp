// Configuration-matrix fuzzing: every supported combination of the
// behavioural knobs drives a churn stream with the invariant oracle active.
// This is the compatibility net that keeps rare-path interactions (lazy
// settling x fallback x hypergraphs x threads x rebuilds) honest.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/checker.h"
#include "param_name.h"
#include "core/matcher.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

// gtest prints a parameter without a PrintTo as its raw bytes, and those
// bytes are part of every discovered test name. Padding bytes are never
// initialised, so the struct has none: flags are uint32_t and `threads`
// is widened to fill the slot before `seed`. The byte image is the same
// as a padded struct whose padding happened to be zero.
struct MatrixParams {
  uint32_t eager;
  uint32_t iter_factor;
  uint32_t max_repeats;   // 0 = always fallback
  uint32_t max_eager;     // 0 = always cap
  uint32_t auto_rebuild;
  uint32_t rank;
  uint64_t threads;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<MatrixParams>,
              "padding bytes would make the test names build-dependent");

std::string matrix_name(const testing::TestParamInfo<MatrixParams>& info) {
  const auto& p = info.param;
  return testing_util::name_cat(
      p.eager ? "eager" : "lazy", "_if", p.iter_factor, "_mr", p.max_repeats,
      "_me", p.max_eager, p.auto_rebuild ? "_rb" : "_norb", "_r", p.rank,
      "_t", p.threads, "_s", p.seed);
}

class ConfigMatrix : public testing::TestWithParam<MatrixParams> {};

TEST_P(ConfigMatrix, ChurnStaysSound) {
  const auto p = GetParam();
  ThreadPool pool(static_cast<unsigned>(p.threads),
                  /*allow_oversubscribe=*/true);
  Config cfg;
  cfg.max_rank = p.rank;
  cfg.seed = p.seed;
  cfg.check_invariants = true;
  cfg.settle_after_insertions = p.eager != 0;
  cfg.subsettle_iter_factor = p.iter_factor;
  cfg.max_settle_repeats = p.max_repeats;
  cfg.max_eager_sweeps = p.max_eager;
  cfg.auto_rebuild = p.auto_rebuild != 0;
  cfg.initial_capacity = p.auto_rebuild ? 200 : (1 << 15);
  DynamicMatcher m(cfg, pool);

  ChurnStream::Options so;
  so.n = 96;
  so.rank = p.rank;
  so.target_edges = 220;
  so.zipf_s = 0.5;
  so.seed = p.seed + 1000;
  ChurnStream stream(so);

  for (int i = 0; i < 35; ++i) {
    const Batch b = stream.next(24);
    std::vector<EdgeId> dels;
    for (const auto& eps : b.deletions) {
      const EdgeId e = m.find_edge(eps);
      ASSERT_NE(e, kNoEdge);
      dels.push_back(e);
    }
    m.update(dels, b.insertions);
    ASSERT_EQ(m.graph().num_edges(), stream.live().size());
  }
  if (p.auto_rebuild) {
    EXPECT_GT(m.stats().rebuilds, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ConfigMatrix,
    testing::Values(
        // default-ish configurations across ranks and threads
        MatrixParams{true, 2, 64, 8, false, 2, 1, 1},
        MatrixParams{true, 2, 64, 8, false, 2, 4, 2},
        MatrixParams{false, 2, 64, 8, false, 2, 1, 3},
        MatrixParams{false, 2, 64, 8, false, 3, 2, 4},
        MatrixParams{true, 2, 64, 8, false, 5, 1, 5},
        // stressed knobs
        MatrixParams{true, 1, 0, 8, false, 2, 1, 6},   // always fallback
        MatrixParams{false, 1, 0, 8, false, 3, 1, 7},
        MatrixParams{true, 2, 64, 0, false, 2, 1, 8},  // always eager cap
        MatrixParams{true, 1, 64, 1, false, 2, 2, 9},
        MatrixParams{true, 4, 64, 8, false, 2, 1, 10},
        // rebuild interactions
        MatrixParams{true, 2, 64, 8, true, 2, 1, 11},
        MatrixParams{false, 2, 64, 8, true, 2, 1, 12},
        MatrixParams{true, 2, 0, 8, true, 3, 2, 13},
        MatrixParams{false, 1, 64, 0, true, 2, 1, 14},
        MatrixParams{true, 2, 64, 8, true, 4, 4, 15},
        MatrixParams{false, 2, 0, 0, true, 2, 1, 16}),
    matrix_name);

}  // namespace
}  // namespace pdmm
