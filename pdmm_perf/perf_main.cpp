// pdmm_perf: the end-to-end benchmark program.
//
//   pdmm_perf --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//             [--tiny]
//
// Runs one workload against the pdmm library's public API and prints one
// tab-separated line per metric ("M", name, value, unit, note) and per
// figure that is not a metric ("I", same fields), then a "R" line
// (correct, attempted, failed). run.py turns these into the
// benchmark's JSON result. --trace 0 prints the end-to-end metrics;
// --trace 1 prints the per-layer metrics of a traced run. A failed
// correctness check prints the failure to stderr, no metrics, and exits 3.
// --reader-rate R overrides the workload's reader rate (requests/s per
// reader; 0 runs the readers closed-loop), to re-measure the read capacity
// the rate is derived from (METHODOLOGY.md).
// METHODOLOGY.md describes the workloads and what each metric means.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>

#include "core/checker.h"
#include "perf_phases.h"

namespace pdmm::perf {
namespace {

// recover() calls per cold restart; each run restarts twice.
constexpr int kRecoveries = 3;

std::optional<WorkloadSpec> lookup(const std::string& name, bool tiny) {
  WorkloadSpec w;
  w.n = 1 << 16;
  w.target_edges = 2 * w.n;
  w.load_batch = 8192;
  w.readers = 2;
  w.reader_rate = 900;
  w.queries = 65536;
  w.group_commit = 8;
  w.checkpoint_every = 500;
  w.check_every = 4;
  w.warm_batches = 8;
  if (name == "bulk_churn") {
    w.name = "bulk_churn";
    w.batch = 8192;
    w.timed = TimedPhase::kDirect;
    w.deploy_batches = 200;
    w.cycle_batches = 48;
    w.restart_tail = 16;
    w.probe_batches = 16;
    w.tail_batch = w.tail_publish = w.tail_lag = w.tail_read = 75;
  } else if (name == "serve_paced") {
    w.name = "serve_paced";
    w.batch = 256;
    w.timed = TimedPhase::kDeploy;
    w.direct_batches = 1000;
    w.cycle_batches = 1024;
    w.rate = 150;
    w.restart_tail = 512;
    w.probe_batches = 256;
    w.tail_publish = 99;
    w.tail_lag = 95;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    // Same shape, ~1/64 of the size: every phase and metric still runs.
    w.n = 1 << 10;
    w.target_edges = 2 * w.n;
    w.load_batch = 512;
    w.batch = std::max<size_t>(32, w.batch / 32);
    w.deploy_batches = std::min<size_t>(w.deploy_batches, 16);
    w.direct_batches = std::min<size_t>(w.direct_batches, 16);
    w.cycle_batches = std::min<size_t>(w.cycle_batches, 16);
    w.restart_tail = 8;
    w.probe_batches = 8;
    w.checkpoint_every = 16;
    w.warm_batches = 4;
    w.check_every = 2;
  }
  return w;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void metric(const char* name, double value, const char* unit,
            const std::string& note = "", const char* kind = "M") {
  std::printf("%s\t%s\t%.17g\t%s\t%s\n", kind, name, value, unit, note.c_str());
}

void info(const char* name, double value, const char* unit,
          const std::string& note = "") {
  metric(name, value, unit, note, "I");
}

// Seconds per repetition of a fixed integer loop run on `threads` threads
// at once, median of 5: the machine's own speed at the time of the run, so
// that two sets of runs taken at different times can be told apart from a
// change in code. It is printed beside the metrics, not as one.
double reference_loop_s(unsigned threads) {
  std::atomic<uint64_t> sink{0};  // keeps the loop from being elided
  PercentileStats reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
      ts.emplace_back([&sink, t] {
        uint64_t x = 0x9e3779b97f4a7c15ULL + t;
        for (int i = 0; i < (1 << 24); ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        // mo: relaxed — only the value matters, read by nobody.
        sink.fetch_xor(x, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : ts) t.join();
    reps.add(us_since(t0, Clock::now()) / 1e6);
  }
  return reps.median();
}

// The p-th percentile of `v` (samples in time order), taken within each of
// up to 8 consecutive chunks that each leave >= 10 samples beyond it; the
// median over the chunks. A burst of load from other tenants of the
// machine that covers less than half of the run moves the figure little.
// A stall of the program's own that recurs through the run (a checkpoint,
// a prune) is in every chunk and shows in full; one confined to fewer
// than half of the chunks does not show.
double timed_pct(const std::vector<double>& v, double p, size_t* chunks) {
  const auto min_chunk =
      static_cast<size_t>(std::ceil(10.0 / std::max(1.0 - p / 100.0, 1e-6)));
  const size_t k = std::clamp<size_t>(v.size() / min_chunk, 1, 8);
  *chunks = k;
  std::vector<double> per_chunk;
  for (size_t c = 0; c < k; ++c) {
    PercentileStats s;
    for (size_t i = c * v.size() / k; i < (c + 1) * v.size() / k; ++i) s.add(v[i]);
    per_chunk.push_back(s.percentile(p));
  }
  return min_med_max(per_chunk).median;
}

// A timing's p50 and tail (timed_pct); the note records the percentile,
// the chunk count and the sample count. Kind "M" prints a metric, "I" a
// figure that is not one (the ungated end-to-end figures, METHODOLOGY.md).
void timing(const char* p50_name, const char* tail_name,
            const std::vector<double>& v, double tail_p, const char* unit,
            const char* p50_kind = "M", const char* tail_kind = "M") {
  for (const auto& [name, p, kind] :
       {std::tuple{p50_name, 50.0, p50_kind}, {tail_name, tail_p, tail_kind}}) {
    size_t chunks = 0;
    const double value = timed_pct(v, p, &chunks);
    char note[96];
    std::snprintf(note, sizeof(note), "p%g, median of %zu chunks; %zu samples",
                  p, chunks, v.size());
    metric(name, value, unit, note, kind);
  }
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<Batch> generate(ChurnStream& st, size_t batches, size_t k) {
  std::vector<Batch> out;
  out.reserve(batches);
  for (size_t i = 0; i < batches; ++i) out.push_back(st.next(k));
  return out;
}

// Cost of recording one span, for the traced run's overhead estimate.
double span_cost_us() {
  SpanLog log(true);
  const int n = 100000;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) log.record("calibrate", Clock::now(), Clock::now());
  return us_since(t0, Clock::now()) / n;
}

int run_main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it as large blocks are
  // freed, so whether a later view or checkpoint buffer lands in the heap
  // (and stays resident) would depend on thread timing, and peak_rss_mb
  // with it.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  std::string workload, tmp;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  double reader_rate = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pdmm_perf: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") workload = val();
    else if (a == "--seed") seed = std::strtoull(val(), nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(val(), nullptr);
    else if (a == "--trace") trace = std::atoi(val());
    else if (a == "--tmp") tmp = val();
    else if (a == "--tiny") tiny = true;
    else if (a == "--reader-rate") reader_rate = std::strtod(val(), nullptr);
    else {
      std::fprintf(stderr, "pdmm_perf: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const std::optional<WorkloadSpec> spec = lookup(workload, tiny);
  if (!spec || tmp.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: pdmm_perf --workload bulk_churn|serve_paced "
                 "--seed N --seconds S --trace 0|1 --tmp DIR [--tiny]\n");
    return 2;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double ref_before_s = reference_loop_s(nproc);
  Run run;
  run.spec = *spec;
  if (reader_rate >= 0) run.spec.reader_rate = reader_rate;
  run.seed = seed;
  run.seconds = tiny ? std::min(seconds, 1.0) : seconds;
  run.tmp = tmp;
  run.threads = nproc;
  run.cfg.max_rank = 2;
  run.cfg.seed = seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
  run.cfg.initial_capacity = uint64_t{1} << (tiny ? 16 : 23);
  run.cfg.auto_rebuild = false;
  run.stream_fp = std::string("pdmm_perf ") + run.spec.name + " seed " +
                  std::to_string(seed);
  SpanLog spans(trace == 1);
  run.spans = &spans;
  const WorkloadSpec& w = run.spec;
  const bool direct_timed = w.timed == TimedPhase::kDirect;

  // ---- inputs, all generated before any timed segment ----
  // One seed gives each workload its own stream.
  ChurnStream stream(stream_options(w, seed * 1000003 + (direct_timed ? 1 : 2)));
  std::vector<Batch> load;
  for (size_t ups = 0; ups < 3 * w.target_edges;) {
    load.push_back(stream.next(w.load_batch));
    ups += batch_updates(load.back());
  }
  const std::vector<Batch> warm = generate(stream, w.warm_batches, w.batch);
  const std::vector<Batch> pre = generate(
      stream, direct_timed ? w.deploy_batches : w.direct_batches, w.batch);
  const std::vector<Batch> early = generate(stream, w.restart_tail, w.batch);
  std::vector<Batch> cycle_fwd = generate(stream, w.cycle_batches, w.batch);
  const std::vector<Batch> probe_batches(
      cycle_fwd.begin(),
      cycle_fwd.begin() + std::min(w.probe_batches, cycle_fwd.size()));
  BatchCycle cycle(std::move(cycle_fwd));
  size_t pre_pos = 0, early_pos = 0;
  const std::function<const Batch&()> next_pre = [&]() -> const Batch& {
    return pre[pre_pos++ % pre.size()];
  };
  const std::function<const Batch&()> next_early = [&]() -> const Batch& {
    return early[early_pos++ % early.size()];
  };
  const std::function<const Batch&()> next_cycle = [&]() -> const Batch& {
    return cycle.next();
  };

  ThreadPool pool(run.threads);
  PercentileStats setup_s;
  std::unique_ptr<DynamicMatcher> m = run_setup(run, pool, load, 3, setup_s);
  run_warm(run, *m, warm);

  DirectResult direct;
  DeployResult deploy;
  RestartResult restart;
  std::string snapshot;
  double timed_s = 0, updates_per_s = 0;
  // Spans recorded and view-validation time spent during the timed pass.
  size_t timed_spans = 0;
  double timed_validate_us = 0;
  auto validate_us = [&] { return sum(spans.durations_us("serve.validate")); };
  auto timed_pass = [&](const std::function<void()>& pass) {
    const size_t spans_before = spans.size();
    const double validate_before = validate_us();
    pass();
    timed_spans = spans.size() - spans_before;
    timed_validate_us = validate_us() - validate_before;
  };
  // The untimed side pass runs in two parts, one before and one after the
  // timed pass, and a cold restart follows the first part and ends the
  // run: a burst of load from other tenants that covers one of them moves
  // the medians little.
  if (direct_timed) {
    run_deploy(run, *m, next_pre, w.deploy_batches, 0, deploy);
    run_restart(run, *m, pool, next_early, kRecoveries, restart);
    if (spans.on()) snapshot = save_bytes(*m);
    timed_pass([&] { run_direct(run, *m, next_cycle, 0, run.seconds, direct); });
    timed_s = direct.seconds;
    updates_per_s = static_cast<double>(direct.updates) / direct.seconds;
    run_deploy(run, *m, next_cycle, w.deploy_batches, 0, deploy);
  } else {
    BatchCycle pre_cycle(pre);
    run_direct(run, *m, [&]() -> const Batch& { return pre_cycle.next(); },
               3 * pre.size(), 0, direct);
    run_restart(run, *m, pool, next_early, kRecoveries, restart);
    if (spans.on()) snapshot = save_bytes(*m);
    timed_pass([&] { run_deploy(run, *m, next_cycle, 0, run.seconds, deploy); });
    timed_s = deploy.seconds;
    updates_per_s = deploy.updates_per_s;
    run_direct(run, *m, next_cycle, 2 * pre.size(), 0, direct);
  }
  run_restart(run, *m, pool, next_cycle, kRecoveries, restart);
  MatchingChecker::check(*m);
  const double matched_frac =
      2.0 * static_cast<double>(m->matching_size()) / static_cast<double>(w.n);

  ProbeResult probe;
  double seq_us = 0;
  if (spans.on()) {
    run_probe(run, snapshot, probe_batches, pool, probe);
    if (run.failed == 0) {
      seq_us = run_sequential(run, {&load, &warm, &pre, &early}, probe_batches);
    }
  }
  m.reset();
  // Two more set-ups at the end of the run, so setup_s (the median of
  // five) is not one short burst at the start.
  run_setup(run, pool, load, 2, setup_s);

  if (!run.correct) {
    for (const std::string& e : run.errors) {
      std::fprintf(stderr, "pdmm_perf: correctness: %s\n", e.c_str());
    }
    return 3;
  }
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "pdmm_perf: counted failure: %s\n", e.c_str());
  }

  if (trace == 0) {
    metric("updates_per_s", updates_per_s, "updates/s",
           direct_timed ? "whole direct pass" : "whole deployment pass");
    // Tails, durable and publish latency are printed, not gated: on a
    // shared 4-vCPU VM their run-to-run spread exceeds any bound the
    // benchmark may set (METHODOLOGY.md, "Gated and ungated figures").
    timing("batch_p50_ms", "batch_tail_ms", direct.batch_ms, w.tail_batch, "ms",
           "M", "I");
    timing("publish_p50_ms", "publish_tail_ms", deploy.publish_ms,
           w.tail_publish, "ms", "I", "I");
    timing("durable_p50_ms", "durable_tail_ms", deploy.durable_ms,
           w.tail_durable, "ms", "I", "I");
    timing("read_p50_us", "read_tail_us", deploy.read_us, w.tail_read, "us",
           "M", "I");
    timing("lag_p50_ms", "lag_tail_ms", deploy.lag_ms, w.tail_lag, "ms", "M", "I");
    metric("recover_s", restart.recover_s.median(), "s",
           "median of " + std::to_string(restart.recover_s.count()) +
               " over 2 restarts; " + std::to_string(w.restart_tail) +
               " records past the checkpoint");
    metric("setup_s", setup_s.median(), "s",
           "median of 5 set-ups, 3 at the start and 2 at the end");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    metric("matched_vertex_frac", matched_frac, "ratio");
    metric("success_rate",
           1.0 - static_cast<double>(run.failed) /
                     static_cast<double>(std::max<uint64_t>(1, run.attempted)),
           "ratio", "1 - error_rate");
  } else {
    const std::vector<double> core_us = spans.durations_us("core.update");
    const double probe_batches_n =
        static_cast<double>(std::max<uint64_t>(1, probe.batches));
    const double probe_updates =
        static_cast<double>(std::max<uint64_t>(1, probe.updates));
    const double rounds_per_batch =
        static_cast<double>(probe.rounds) / probe_batches_n;
    const double upd_nt = probe.update_us_nt.median();
    timing("core.update_us_p50", "core.update_us_tail", core_us, w.tail_batch,
           "us");
    metric("core.span_share", sum(core_us) / 1e6 / direct.seconds, "ratio",
           "core span time / direct pass wall time");
    metric("core.work_per_update", static_cast<double>(probe.work) / probe_updates,
           "count");
    metric("core.rounds_per_batch", rounds_per_batch, "count");
    metric("core.settles_per_batch",
           static_cast<double>(probe.settles) / probe_batches_n, "count");
    metric("core.subsubsettles_per_batch",
           static_cast<double>(probe.subsubsettles) / probe_batches_n, "count");
    metric("core.kicked_per_update",
           static_cast<double>(probe.kicked) / probe_updates, "count");
    metric("core.reinserted_per_update",
           static_cast<double>(probe.reinserted) / probe_updates, "count");
    metric("core.settle_fallbacks", static_cast<double>(probe.settle_fallbacks),
           "count");
    metric("static_mm.rounds_per_batch",
           static_cast<double>(probe.static_mm_rounds) / probe_batches_n, "count");
    metric("parallel.speedup", probe.update_us_1t.median() / upd_nt, "ratio",
           "p50 update at 1 thread / at " + std::to_string(run.threads));
    metric("parallel.region_us", probe.region_us, "us");
    metric("parallel.dispatch_share", rounds_per_batch * probe.region_us / upd_nt,
           "ratio", "upper-bound estimate");
    timing("engine.submit_block_us_p50", "engine.submit_block_us_tail",
           deploy.submit_block_us, w.tail_publish, "us");
    metric("engine.backlog_max", static_cast<double>(deploy.backlog_max), "count");
    metric("engine.settled_ms", deploy.settled_ms.median(), "ms", "p50");
    metric("engine.publish_after_settle_ms", deploy.publish_after_settle_ms.median(),
           "ms", "p50");
    metric("engine.generator_late_max_ms", deploy.generator_late_max_ms, "ms");
    metric("persist.commit_ms", probe.commit_ms.median(), "ms",
           "p50, fsync on the host file system, not a device");
    timing("persist.durable_p50_ms", "persist.durable_tail_ms", deploy.durable_ms,
           w.tail_durable, "ms");
    metric("persist.batches_per_commit", deploy.batches_per_commit, "count");
    metric("persist.journal_bytes_per_update", deploy.journal_bytes_per_update,
           "bytes");
    metric("persist.checkpoint_encode_ms", probe.encode_ms.median(), "ms", "p50");
    metric("persist.checkpoint_write_ms", probe.write_ms.median(), "ms", "p50");
    metric("persist.checkpoint_bytes", probe.checkpoint_bytes, "bytes");
    metric("persist.checkpoint_load_ms", restart.checkpoint_load_ms, "ms");
    metric("persist.replay_records_per_s", restart.replay_records_per_s,
           "records/s");
    metric("serve.view_build_us", probe.view_build_us.median(), "us", "p50");
    metric("serve.view_bytes", probe.view_bytes, "bytes");
    metric("serve.acquire_us", min_med_max(spans.durations_us("serve.acquire")).median,
           "us",
           "p50");
    metric("serve.staleness_max", static_cast<double>(deploy.staleness_max),
           "epochs");
    metric("serve.unreclaimed_views_max",
           static_cast<double>(deploy.unreclaimed_views_max), "count");
    metric("replicate.step_us", min_med_max(spans.durations_us("replicate.step")).median,
           "us", "p50 of delivering steps");
    metric("replicate.records_per_step",
           deploy.records_per_step.mean(), "count");
    metric("replicate.idle_poll_frac",
           static_cast<double>(deploy.idle_polls) /
               static_cast<double>(std::max<uint64_t>(1, deploy.polls)),
           "ratio");
    metric("replicate.bytes_behind_max", static_cast<double>(deploy.bytes_behind_max),
           "bytes");
    metric("replicate.bootstrap_ms", deploy.bootstrap_ms, "ms");
    metric("replicate.catch_up_records_per_s", restart.catch_up_records_per_s,
           "records/s");
    metric("replicate.checkpoints_verified",
           static_cast<double>(deploy.checkpoints_verified), "count");
    const double pdmm_us = upd_nt / (probe_updates / probe_batches_n);
    metric("baselines.sequential_update_us", seq_us, "us");
    metric("baselines.pdmm_over_sequential", seq_us / pdmm_us, "ratio",
           "pdmm updates/s / sequential updates/s, same batches");
    // Work only the traced run does in its timed pass: recording spans and
    // validating views. As a share of the pass's wall time it bounds the
    // traced run's slowdown against the untraced run.
    metric("trace.overhead_frac",
           (static_cast<double>(timed_spans) * span_cost_us() + timed_validate_us) /
               (timed_s * 1e6),
           "ratio", "(spans x calibrated span cost + view validation) / timed pass");
  }
  info("reader_requests_per_s",
       static_cast<double>(deploy.read_requests) / deploy.seconds, "1/s",
       "all readers, deployment pass");
  info("ref_loop_s", ref_before_s, "s", "machine reference, before the run");
  info("ref_loop_after_s", reference_loop_s(nproc), "s",
       "machine reference, after the run");
  std::printf("R\t%d\t%llu\t%llu\n", run.correct ? 1 : 0,
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  return 0;
}

}  // namespace
}  // namespace pdmm::perf

int main(int argc, char** argv) { return pdmm::perf::run_main(argc, argv); }
