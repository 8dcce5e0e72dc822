// Phase entry points of the benchmark (see perf_phases.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "parallel/thread_pool.h"
#include "perf.h"

namespace pdmm::perf {

// Options of the workload's update stream (generator side only; the
// matcher sees the generated batches).
ChurnStream::Options stream_options(const WorkloadSpec& w, uint64_t seed);

size_t batch_updates(const Batch& b);
// DynamicMatcher::save() bytes (empty on a stream failure).
std::string save_bytes(const DynamicMatcher& m);

// Constructs a matcher and bulk-loads `load` `reps` times, adding each
// time to `setup_s`; returns the last matcher.
std::unique_ptr<DynamicMatcher> run_setup(Run& run, ThreadPool& pool,
                                          const std::vector<Batch>& load,
                                          int reps, PercentileStats& setup_s);

// Applies `warm` untimed, running MatchingChecker::check before it and
// after every spec.check_every-th batch.
void run_warm(Run& run, DynamicMatcher& m, const std::vector<Batch>& warm);

// Closed loop straight into update_by_endpoints: `count` batches, or
// until `seconds` pass when count is 0. Adds to `r`.
void run_direct(Run& run, DynamicMatcher& m,
                const std::function<const Batch&()>& next, size_t count,
                double seconds, DirectResult& r);

// The pdmm_serve deployment: a pipelined UpdateEngine with an fsync'd
// group-commit journal, a checkpoint series and a view service; readers
// on the primary's views; an in-process follower started after the
// journal opened. Runs `count` batches (or `seconds` when count is 0),
// then lets the follower catch up and compares its state with the
// primary's. Adds to `r`; each call uses its own journal and series.
void run_deploy(Run& run, DynamicMatcher& m,
                const std::function<const Batch&()>& next, size_t count,
                double seconds, DeployResult& r);

// A cold restart from the current state: a checkpoint series plus a fresh
// journal segment of spec.restart_tail batches from `next`, then
// `recoveries` persist::recover() calls into fresh matchers and a fresh
// follower that catches up, each compared byte-for-byte with `m`.
void run_restart(Run& run, DynamicMatcher& m, ThreadPool& pool,
                 const std::function<const Batch&()>& next, int recoveries,
                 RestartResult& r);

// Traced probe: `batches` from the `snapshot` state at 1 thread (update
// only) and at pool.num_threads() (the engine's stage order called inline);
// counters and final state must agree exactly.
void run_probe(Run& run, const std::string& snapshot,
               const std::vector<Batch>& batches, ThreadPool& pool,
               ProbeResult& r);

// SequentialDynamicMatcher over the same history, then timed over
// `batches`; returns microseconds per update.
double run_sequential(const Run& run,
                      const std::vector<const std::vector<Batch>*>& history,
                      const std::vector<Batch>& batches);

}  // namespace pdmm::perf
