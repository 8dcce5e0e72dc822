// Shared pieces of the end-to-end benchmark: workload specs, the batch
// cycle, sample sets, the span log, and the per-phase result records.
//
// Every layer is measured from outside: the benchmark records a span
// around each call it makes into a layer's public function (or reads a
// public stamp the engine already provides), and nothing under src/ is
// instrumented.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "graph/types.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace pdmm::perf {

using Clock = std::chrono::steady_clock;

inline double us_since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// In-memory span log. A span is one call the benchmark made into a
// layer's public function: (name, start, end) on a common clock. None of
// the benchmark's spans nest, so a span's self time is its duration.
// Thread-safe; appends take a mutex (a few thousand spans per second).
class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point t0, t1;
  };

  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }

  void record(const char* name, Clock::time_point t0, Clock::time_point t1) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, t0, t1});
  }
  // Durations (us) of every span named `name`, in the order recorded.
  std::vector<double> durations_us(const char* name) const;
  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

 private:
  const bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// A pre-generated batch list replayed forward, then as exact inverses in
// reverse order (each inverse deletes what its batch inserted and
// re-inserts what it deleted), then forward again. Every element is a
// valid update against the state the previous one left, so a time-bounded
// closed loop never runs out of input and memory stays bounded.
class BatchCycle {
 public:
  explicit BatchCycle(std::vector<Batch> forward);
  const Batch& next();

 private:
  std::vector<Batch> fwd_, inv_;
  size_t pos_ = 0;
};

enum class TimedPhase { kDirect, kDeploy };

struct WorkloadSpec {
  const char* name = "";
  Vertex n = 0;
  size_t target_edges = 0;
  size_t batch = 0;         // updates per batch in the workload's phases
  size_t load_batch = 0;    // updates per batch of the set-up bulk load
  TimedPhase timed = TimedPhase::kDirect;
  // Short direct passes (when not timed): direct_batches played forward,
  // inverted and forward before the timed pass, so it ends where they
  // lead, and 2 x direct_batches of the timed pass's cycle after it.
  size_t direct_batches = 0;
  size_t deploy_batches = 0;  // each short deployment pass (when not timed)
  size_t cycle_batches = 0;   // forward length of the timed phase's cycle
  double rate = 0;            // deployment batches/s; 0 = closed loop
  unsigned readers = 0;
  double reader_rate = 0;     // requests/s per reader; 0 = closed loop
  size_t queries = 0;         // point queries per read request
  size_t group_commit = 0;
  uint64_t checkpoint_every = 0;
  size_t restart_tail = 0;    // batches journaled past each restart checkpoint
  size_t probe_batches = 0;   // traced inline pass / 1-vs-N-thread probe
  size_t check_every = 0;     // MatchingChecker period in the warm pass
  size_t warm_batches = 0;
  // Fixed tail percentiles, so one metric keeps one meaning across
  // commits; each leaves >= 10 samples beyond it in every chunk of
  // timed_pct at the sizes above (METHODOLOGY.md gives the choice).
  double tail_batch = 90, tail_publish = 90, tail_durable = 75,
         tail_read = 90, tail_lag = 90;
};

// Shared run context.
struct Run {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;
  std::string tmp;  // per-run scratch directory (journals, checkpoints)
  unsigned threads = 1;
  Config cfg;
  std::string stream_fp;
  SpanLog* spans = nullptr;

  // Operation accounting for error_rate.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Cleared by a failed correctness check (the run then prints no result).
  bool correct = true;
  std::vector<std::string> errors;
  void fail(uint64_t n, std::string why) {
    failed += n;
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
};

// ---- phase results ----

// Timing samples are kept in time order (see timed_pct in perf_main.cpp)
// and accumulate over every direct pass of the run.
struct DirectResult {
  std::vector<double> batch_ms;
  uint64_t updates = 0;
  double seconds = 0;
};

// Samples and counts accumulate over every deployment pass of the run;
// rates and per-pass figures are those of the last pass.
struct DeployResult {
  int passes = 0;
  uint64_t updates = 0;
  double seconds = 0;
  double updates_per_s = 0;  // of the last pass
  std::vector<double> publish_ms, durable_ms, read_us, lag_ms;
  uint64_t read_requests = 0;  // every reader request of the pass
  // engine
  std::vector<double> submit_block_us;
  PercentileStats settled_ms, publish_after_settle_ms;
  uint64_t backlog_max = 0;
  double generator_late_max_ms = 0;
  double batches_per_commit = 0;
  double journal_bytes_per_update = 0;
  // serve
  uint64_t staleness_max = 0;
  uint64_t unreclaimed_views_max = 0;
  // replicate
  PercentileStats records_per_step;
  uint64_t polls = 0, idle_polls = 0;
  uint64_t bytes_behind_max = 0;
  double bootstrap_ms = 0;
  uint64_t checkpoints_verified = 0;
};

// The cold restarts of one run (run_restart, called twice).
struct RestartResult {
  int restarts = 0;
  PercentileStats recover_s;  // every recover() of the run
  // persist and replicate, from the last restart
  double checkpoint_load_ms = 0;
  double replay_records_per_s = 0;
  double catch_up_records_per_s = 0;
};

struct ProbeResult {
  PercentileStats update_us_1t, update_us_nt;  // per batch
  PercentileStats commit_ms, view_build_us, encode_ms, write_ms;
  double view_bytes = 0, checkpoint_bytes = 0;
  uint64_t updates = 0, batches = 0;
  // Exact counters of the probe batches (identical at 1 and N threads).
  uint64_t work = 0, rounds = 0, settles = 0, subsubsettles = 0,
           kicked = 0, reinserted = 0, settle_fallbacks = 0,
           static_mm_rounds = 0;
  double region_us = 0;
  double sequential_update_us = 0;  // per update
};

}  // namespace pdmm::perf
