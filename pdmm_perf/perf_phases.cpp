// The benchmark's phases: set-up, warm-up, the direct (closed-loop,
// engine-less) pass, the pipelined deployment with readers and a live
// follower plus its cold restart, and the traced probes.
#include "perf_phases.h"

#include <condition_variable>
#include <filesystem>
#include <sstream>
#include <thread>

#include "baselines/sequential_dynamic.h"
#include "core/checker.h"
#include "engine/update_engine.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "replicate/replica_engine.h"
#include "serve/view_service.h"
#include "util/backoff.h"
#include "util/rng.h"

namespace pdmm::perf {

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> s;
  for (const Span& sp : spans_) {
    if (std::string_view(sp.name) == name) s.push_back(us_since(sp.t0, sp.t1));
  }
  return s;
}

BatchCycle::BatchCycle(std::vector<Batch> forward) : fwd_(std::move(forward)) {
  inv_.reserve(fwd_.size());
  for (const Batch& b : fwd_) inv_.push_back(Batch{b.insertions, b.deletions});
}

const Batch& BatchCycle::next() {
  const size_t k = fwd_.size();
  const size_t i = pos_++ % (2 * k);
  return i < k ? fwd_[i] : inv_[2 * k - 1 - i];
}

ChurnStream::Options stream_options(const WorkloadSpec& w, uint64_t seed) {
  ChurnStream::Options o;
  o.n = w.n;
  o.rank = 2;
  o.target_edges = w.target_edges;
  o.seed = seed;
  return o;
}

size_t batch_updates(const Batch& b) {
  return b.deletions.size() + b.insertions.size();
}

std::string save_bytes(const DynamicMatcher& m) {
  std::ostringstream os;
  if (!m.save(os)) return {};
  return os.str();
}

std::unique_ptr<DynamicMatcher> run_setup(Run& run, ThreadPool& pool,
                                          const std::vector<Batch>& load,
                                          int reps, PercentileStats& setup_s) {
  std::unique_ptr<DynamicMatcher> m;
  for (int rep = 0; rep < reps; ++rep) {
    m.reset();
    const auto t0 = Clock::now();
    m = std::make_unique<DynamicMatcher>(run.cfg, pool);
    for (const Batch& b : load) m->update_by_endpoints(b.deletions, b.insertions);
    setup_s.add(us_since(t0, Clock::now()) / 1e6);
  }
  return m;
}

void run_warm(Run& run, DynamicMatcher& m, const std::vector<Batch>& warm) {
  MatchingChecker::check(m);
  for (size_t i = 0; i < warm.size(); ++i) {
    m.update_by_endpoints(warm[i].deletions, warm[i].insertions);
    ++run.attempted;
    if ((i + 1) % run.spec.check_every == 0) MatchingChecker::check(m);
  }
}

void run_direct(Run& run, DynamicMatcher& m,
                const std::function<const Batch&()>& next, size_t count,
                double seconds, DirectResult& r) {
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration<double>(seconds);
  for (size_t i = 0;; ++i) {
    if (count > 0 ? i >= count : Clock::now() >= t_end) break;
    const Batch& b = next();
    const auto a = Clock::now();
    m.update_by_endpoints(b.deletions, b.insertions);
    const auto z = Clock::now();
    run.spans->record("core.update", a, z);
    r.batch_ms.push_back(us_since(a, z) / 1e3);
    r.updates += batch_updates(b);
    ++run.attempted;
  }
  r.seconds += us_since(t0, Clock::now()) / 1e6;
}

namespace {

constexpr size_t kMaxEpochs = size_t{1} << 18;  // stamped per deployment
// A closed-loop deployment keeps at most this many batches submitted but
// not yet retired (applied, durable and published) by the primary, one per
// pipeline stage. Without the bound the submitter fills every stage queue
// and latency would measure queue depth instead of the system.
constexpr uint64_t kClosedWindow = 3;
// Share of a closed-loop deployment's batches bounded only by the
// primary's retirement (the rest is follower-paced): lag repeats from few
// samples, the publish and read figures need more.
constexpr double kPrimaryShare = 0.75;

// Follower progress, for the follower-paced part of a closed loop.
struct FollowProgress {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t applied = 0;   // batches applied past the deployment's start
  bool stopped = false;   // the follower thread has exited
};

bool stamped(Clock::time_point t) { return t != Clock::time_point{}; }

double view_bytes(const MatchView& v) {
  return static_cast<double>(
      v.vmatch.size() * sizeof(EdgeId) + v.vlevel.size() * sizeof(Level) +
      v.medges.size() * sizeof(EdgeId) + v.moffset.size() * sizeof(uint32_t) +
      v.mendpoints.size() * sizeof(Vertex));
}

struct ReaderStats {
  std::vector<std::pair<Clock::time_point, double>> read_us;  // (due, us)
  uint64_t attempted = 0, failed = 0, invalid = 0;
  uint64_t staleness_max = 0;
  std::string invalid_msg;
  uint64_t sink = 0;  // folds the query answers so they are not elided
};

// One open-loop reader: request k is due at t_start + (k + phase) / rate;
// each acquires the current view, runs `queries` point lookups, releases.
// Timed from the due time, so a stalled reader charges its lateness to
// every request it delays.
void reader_loop(const Run& run, MatchViewService& svc, unsigned id,
                 Clock::time_point t_start, const std::atomic<bool>& stop,
                 ReaderStats& st) {
  const WorkloadSpec& w = run.spec;
  Xoshiro256 rng(run.seed * 0x9e3779b97f4a7c15ULL + id + 1);
  const bool open_loop = w.reader_rate > 0;
  const double period_s = open_loop ? 1.0 / w.reader_rate : 0.0;
  const double phase = static_cast<double>(id) / w.readers;
  uint64_t last_validated = UINT64_MAX;
  for (uint64_t k = 0;; ++k) {
    // mo: relaxed — a stop request only needs to be seen eventually.
    if (stop.load(std::memory_order_relaxed)) break;
    const auto due =
        open_loop ? t_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>((k + phase) * period_s))
                  : Clock::now();
    // lint:allow(raw-sleep) open-loop request schedule, not a retry loop
    if (open_loop) std::this_thread::sleep_until(due);
    ++st.attempted;
    const auto a = Clock::now();
    ViewHandle h = svc.acquire();
    run.spans->record("serve.acquire", a, Clock::now());
    if (!h) {
      ++st.failed;
      continue;
    }
    if (run.spans->on()) {
      const uint64_t pub = svc.published_epoch();
      st.staleness_max = std::max(st.staleness_max, pub - h->epoch);
      if (h->epoch != last_validated) {
        last_validated = h->epoch;
        std::string err;
        const auto v0 = Clock::now();
        if (!h->validate(&err)) {
          ++st.invalid;
          if (st.invalid_msg.empty()) st.invalid_msg = err;
        }
        run.spans->record("serve.validate", v0, Clock::now());
      }
    }
    for (size_t q = 0; q < w.queries; ++q) {
      const auto v = static_cast<Vertex>(rng() % w.n);
      st.sink += h->matched_edge_of(v) + static_cast<uint64_t>(h->level_of(v));
    }
    h = ViewHandle();
    st.read_us.emplace_back(due, us_since(due, Clock::now()));
  }
}

}  // namespace

void run_deploy(Run& run, DynamicMatcher& m,
                const std::function<const Batch&()>& next, size_t count,
                double seconds, DeployResult& r) {
  const WorkloadSpec& w = run.spec;
  SpanLog& spans = *run.spans;
  // Each pass gets its own series and journal.
  const std::string dir = run.tmp + "/deploy" + std::to_string(r.passes++);
  const std::string prefix = dir + "/ck";
  const std::string wal = dir + "/wal";
  const uint64_t e0 = m.batch_epoch();
  std::string err;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    run.fail(1, "deployment directory: " + ec.message());
    return;
  }

  // Lineage base: the journal starts at e0 + 1, so the series must hold a
  // checkpoint at e0 for the follower and recovery to chain onto.
  if (!persist::write_checkpoint_series(prefix, m, 3, &err, true,
                                        run.stream_fp)) {
    run.fail(1, "base checkpoint: " + err);
    return;
  }
  persist::Journal::Options jo;
  jo.fsync_each = true;
  jo.stream = run.stream_fp;
  auto journal = persist::Journal::open(wal, jo, &err);
  if (!journal) {
    run.fail(1, "journal open: " + err);
    return;
  }

  std::vector<Clock::time_point> due(kMaxEpochs), call(kMaxEpochs),
      settled(kMaxEpochs), durable(kMaxEpochs), applied(kMaxEpochs);
  auto slot = [e0](uint64_t epoch) { return static_cast<size_t>(epoch - e0 - 1); };

  // ---- follower: started after the primary opened its journal ----
  std::atomic<bool> follower_ready{false};
  std::atomic<uint64_t> follow_until{UINT64_MAX};
  std::string follower_err, follower_state;
  uint64_t follower_epoch = e0;
  FollowProgress follow;
  auto follower_body = [&] {
    // The follower is one thread: its matcher runs on a 1-thread pool.
    ThreadPool fpool(1);
    DynamicMatcher fm(run.cfg, fpool);
    MatchViewService::Options so;
    so.install_hook = false;
    so.max_readers = 4;
    MatchViewService fsvc(fm, so);
    replicate::ReplicaOptions ro;
    ro.journal_path = wal;
    ro.checkpoint_prefix = prefix;
    ro.expected_stream = run.stream_fp;
    ro.verify_checkpoints = true;
    replicate::ReplicaEngine rep(fm, &fsvc, ro);
    const auto tb = Clock::now();
    const bool ok = rep.bootstrap(&follower_err);
    r.bootstrap_ms = us_since(tb, Clock::now()) / 1e3;
    spans.record("replicate.bootstrap", tb, Clock::now());
    // mo: release — publishes bootstrap_ms/follower_err to the waiter.
    follower_ready.store(true, std::memory_order_release);
    if (!ok) return;
    util::Backoff::Options bo;
    bo.initial_us = 50;
    bo.max_us = 1000;
    bo.seed = run.seed + 7;
    util::Backoff poll(bo);
    uint64_t done = fm.batch_epoch();
    Clock::time_point deadline{};
    while (true) {
      // mo: acquire — pairs with the release store of the final target.
      const uint64_t until = follow_until.load(std::memory_order_acquire);
      if (done >= until) break;
      if (until != UINT64_MAX && !stamped(deadline)) {
        deadline = Clock::now() + std::chrono::seconds(60);
      }
      const auto a = Clock::now();
      const replicate::TailStatus s = rep.step();
      const auto z = Clock::now();
      ++r.polls;
      if (s == replicate::TailStatus::kFailed) {
        follower_err = rep.error();
        break;
      }
      if (spans.on()) {
        r.bytes_behind_max = std::max(r.bytes_behind_max, rep.health().bytes_behind);
      }
      if (s == replicate::TailStatus::kRecord) {
        const uint64_t now_applied = rep.applied_epoch();
        for (uint64_t e = done + 1; e <= now_applied; ++e) {
          if (slot(e) < kMaxEpochs) applied[slot(e)] = z;
        }
        spans.record("replicate.step", a, z);
        r.records_per_step.add(static_cast<double>(now_applied - done));
        done = now_applied;
        {
          std::lock_guard<std::mutex> lk(follow.mu);
          follow.applied = done - e0;
        }
        follow.cv.notify_one();
        poll.reset();
        continue;
      }
      ++r.idle_polls;
      if (stamped(deadline) && z > deadline) {
        follower_err = "follower timed out at epoch " + std::to_string(done);
        break;
      }
      poll.sleep();
    }
    r.checkpoints_verified = rep.health().checkpoints_verified;
    follower_epoch = done;
    if (done == follow_until.load(std::memory_order_acquire)) {
      follower_state = save_bytes(fm);
    }
  };
  std::thread follower([&] {
    follower_body();
    {
      std::lock_guard<std::mutex> lk(follow.mu);
      follow.stopped = true;
    }
    follow.cv.notify_one();
  });
  // mo: acquire — pairs with the follower's release after bootstrap.
  while (!follower_ready.load(std::memory_order_acquire)) {
    // lint:allow(raw-sleep) start-up wait for the follower's bootstrap
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ---- primary: view service, readers, pipelined engine ----
  MatchViewService::Options so;
  so.install_hook = false;
  so.max_readers = w.readers + 2;
  MatchViewService svc(m, so);
  m.updater_role().assert_held();
  m.set_post_batch_hook([&](const DynamicMatcher::BatchResult&) {
    const uint64_t e = m.batch_epoch();
    if (slot(e) < kMaxEpochs) settled[slot(e)] = Clock::now();
  });

  uint64_t durable_mark = e0, commits = 0;
  engine::UpdateEngine::Options eo;
  eo.pipelined = true;
  eo.group_commit = w.group_commit;
  eo.checkpoint_every = w.checkpoint_every;
  eo.checkpoint_keep = 3;
  eo.checkpoint_durable = true;
  eo.checkpoint_prefix = prefix;
  eo.stream_fp = run.stream_fp;
  eo.record_latency = true;
  eo.on_durable = [&](uint64_t e) {
    const auto now = Clock::now();
    for (uint64_t k = durable_mark + 1; k <= e; ++k) {
      if (slot(k) < kMaxEpochs) durable[slot(k)] = now;
    }
    durable_mark = e;
    ++commits;
  };

  std::atomic<bool> readers_stop{false};
  std::vector<ReaderStats> rstats(w.readers);
  std::vector<std::thread> readers;
  std::vector<engine::LatencySample> lat;
  uint64_t timed_epochs = 0, updates = 0;
  // A closed loop runs in two parts: the first kPrimaryShare of it
  // bounded by the primary's own retirement (throughput, publish, durable
  // and read figures come from there; the follower does not pace the
  // primary), the rest paced by the follower too (lag comes from there:
  // behind a saturated primary, lag measures the 1-thread follower's
  // backlog, which swings between runs). An open loop is one segment that
  // gives every figure.
  const bool closed = w.rate <= 0;
  size_t paced_from = closed ? SIZE_MAX : 0;
  Clock::time_point t_mid = Clock::time_point::max();
  {
    engine::UpdateEngine eng(m, &svc, journal.get(), eo);
    const auto t0 = Clock::now();
    for (unsigned k = 0; k < w.readers; ++k) {
      readers.emplace_back([&, k] {
        reader_loop(run, svc, k, t0, readers_stop, rstats[k]);
      });
    }
    const auto t_end = t0 + std::chrono::duration<double>(seconds);
    const auto n_paced =
        static_cast<size_t>(static_cast<double>(count) * kPrimaryShare);
    const size_t open_loop_batches =
        static_cast<size_t>(w.rate * seconds + 0.5);
    size_t i = 0;
    for (;; ++i) {
      if (count > 0) {
        if (i >= count) break;
      } else if (w.rate > 0 ? i >= open_loop_batches : Clock::now() >= t_end) {
        break;
      }
      if (i + w.restart_tail + 1 >= kMaxEpochs) break;
      Batch b = next();
      Clock::time_point d = t0;
      if (w.rate > 0) {
        d = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(i / w.rate));
        // lint:allow(raw-sleep) open-loop submit schedule, not a retry loop
        std::this_thread::sleep_until(d);
      } else {
        if (paced_from == SIZE_MAX &&
            i >= n_paced) {
          paced_from = i;
          t_mid = Clock::now();
        }
        // Batch i is due once the primary has retired i - kClosedWindow
        // and, in the paced part, the follower has applied i - 1: each
        // record then reaches an idle follower, and lag is one record's
        // trip rather than the length of a queue.
        while (e0 + i - eng.retired_epoch() >= kClosedWindow && !eng.failed()) {
          // lint:allow(raw-sleep) closed-loop window poll, not a retry loop
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        if (paced_from != SIZE_MAX) {
          std::unique_lock<std::mutex> lk(follow.mu);
          follow.cv.wait(lk, [&] {
            return follow.stopped || i <= follow.applied;
          });
          if (follow.stopped) {
            run.fail(1, "closed loop: the follower stopped");
            break;
          }
        }
        d = Clock::now();
      }
      const size_t ups = batch_updates(b);
      const auto tc = Clock::now();
      r.generator_late_max_ms =
          std::max(r.generator_late_max_ms, us_since(d, tc) / 1e3);
      r.backlog_max =
          std::max(r.backlog_max, eng.submitted_epoch() - eng.retired_epoch());
      r.unreclaimed_views_max =
          std::max(r.unreclaimed_views_max,
                   svc.channel().published_count() - svc.channel().freed_count());
      ++run.attempted;
      const bool ok = eng.submit(std::move(b));
      const auto tr = Clock::now();
      spans.record("engine.submit", tc, tr);
      if (!ok) {
        run.fail(1, "submit refused: " + eng.error());
        break;
      }
      due[i] = d;
      call[i] = tc;
      updates += ups;
    }
    timed_epochs = i;
    if (!eng.drain()) run.fail(1, "engine drain: " + eng.error());
    const double seconds_run = us_since(t0, Clock::now()) / 1e6;
    r.seconds += seconds_run;
    r.updates += updates;
    r.updates_per_s = static_cast<double>(updates) / seconds_run;
    // mo: relaxed — readers poll it; joined right below.
    readers_stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();
    if (!eng.stop()) run.fail(1, "engine stop: " + eng.error());
    lat = eng.latency_samples();
  }
  std::vector<std::pair<Clock::time_point, double>> reads;
  for (const ReaderStats& st : rstats) {
    reads.insert(reads.end(), st.read_us.begin(), st.read_us.end());
  }
  std::sort(reads.begin(), reads.end());
  for (const auto& [due_t, us] : reads) {
    if (due_t < t_mid) r.read_us.push_back(us);
  }
  for (const ReaderStats& st : rstats) {
    run.attempted += st.attempted;
    r.read_requests += st.attempted;
    if (st.failed) run.fail(st.failed, "reader acquire returned no view");
    if (st.invalid) {
      run.correct = false;
      run.errors.push_back("invalid view: " + st.invalid_msg);
    }
    r.staleness_max = std::max(r.staleness_max, st.staleness_max);
  }
  for (const engine::LatencySample& s : lat) {
    const size_t i = slot(s.epoch);
    if (i >= timed_epochs || (closed && i >= paced_from)) continue;
    const double wait_ms = us_since(due[i], call[i]) / 1e3;
    r.publish_ms.push_back(wait_ms + s.published_us / 1e3);
    r.durable_ms.push_back(wait_ms + s.durable_us / 1e3);
    r.settled_ms.add(us_since(call[i], settled[i]) / 1e3);
    r.publish_after_settle_ms.add(
        s.published_us / 1e3 - us_since(call[i], settled[i]) / 1e3);
  }
  r.submit_block_us = spans.durations_us("engine.submit");

  m.set_post_batch_hook(nullptr);
  if (commits > 0) {
    r.batches_per_commit =
        static_cast<double>(durable_mark - e0) / static_cast<double>(commits);
  }
  {
    const auto bytes = std::filesystem::file_size(wal, ec);
    if (!ec && updates > 0) {
      r.journal_bytes_per_update =
          static_cast<double>(bytes) / static_cast<double>(updates);
    }
  }

  // ---- follower: catch up to the primary's final epoch, compare state ----
  const uint64_t f = m.batch_epoch();
  // mo: release — pairs with the follower's acquire of its target.
  follow_until.store(f, std::memory_order_release);
  follower.join();
  run.attempted += f - e0;
  if (follower_epoch < f) {
    run.fail(f - follower_epoch, "follower stopped at epoch " +
                                     std::to_string(follower_epoch) + ": " +
                                     follower_err);
  } else if (follower_state != save_bytes(m)) {
    run.correct = false;
    run.errors.push_back("follower state differs from the primary at epoch " +
                         std::to_string(f));
  }
  for (size_t i = paced_from; i < timed_epochs; ++i) {
    if (!stamped(applied[i]) || !stamped(durable[i])) continue;
    // The tailer can see a flushed record before the commit callback
    // stamps it; those count as zero lag.
    r.lag_ms.push_back(std::max(0.0, us_since(durable[i], applied[i]) / 1e3));
  }
}

void run_restart(Run& run, DynamicMatcher& m, ThreadPool& pool,
                 const std::function<const Batch&()>& next, int recoveries,
                 RestartResult& r) {
  const WorkloadSpec& w = run.spec;
  SpanLog& spans = *run.spans;
  // Each restart gets its own series and journal segment.
  const std::string dir = run.tmp + "/restart" + std::to_string(r.restarts++);
  const std::string prefix = dir + "/ck";
  const std::string wal = dir + "/wal";
  std::string err;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  // ---- a checkpoint at the current epoch, then a fresh journal segment
  // of exactly restart_tail records, so every restart replays (and scans)
  // the same amount however long the run's passes ran ----
  persist::Journal::Options jo;
  jo.fsync_each = true;
  jo.stream = run.stream_fp;
  std::unique_ptr<persist::Journal> journal;
  if (ec ||
      !persist::write_checkpoint_series(prefix, m, 3, &err, true, run.stream_fp) ||
      !(journal = persist::Journal::open(wal, jo, &err))) {
    run.fail(1, "restart segment: " + (ec ? ec.message() : err));
    return;
  }
  {
    engine::UpdateEngine::Options to;
    to.group_commit = w.group_commit;
    to.stream_fp = run.stream_fp;
    engine::UpdateEngine tail(m, nullptr, journal.get(), to);
    for (size_t j = 0; j < w.restart_tail; ++j) {
      ++run.attempted;
      if (!tail.submit(next())) {
        run.fail(1, "tail submit refused: " + tail.error());
        break;
      }
    }
    if (!tail.stop()) run.fail(1, "tail engine: " + tail.error());
  }
  journal.reset();
  const uint64_t final_epoch = m.batch_epoch();
  const std::string primary_state = save_bytes(m);

  // ---- cold restart: recover() from the series + journal segment into
  // fresh matchers ----
  persist::RecoveryReport rep;
  double recover_s = 0;
  for (int k = 0; k < recoveries; ++k) {
    ++run.attempted;
    DynamicMatcher rm(run.cfg, pool);
    persist::RecoveryOptions ro;
    ro.checkpoint_prefix = prefix;
    ro.journal_path = wal;
    ro.expected_stream = run.stream_fp;
    const auto a = Clock::now();
    rep = persist::recover(rm, ro);
    const auto z = Clock::now();
    spans.record("persist.recover", a, z);
    if (!rep.ok) {
      run.fail(1, "recover: " + rep.error);
      continue;
    }
    recover_s = us_since(a, z) / 1e6;
    r.recover_s.add(recover_s);
    if (rep.final_epoch != final_epoch || save_bytes(rm) != primary_state) {
      run.correct = false;
      run.errors.push_back("recovered state differs from the primary");
    }
  }
  if (rep.ok && spans.on()) {
    // Checkpoint load alone, to split recover_s into load and replay.
    persist::CheckpointData ck;
    DynamicMatcher lm(run.cfg, pool);
    const auto la = Clock::now();
    bool ok = persist::read_checkpoint_file(rep.checkpoint_path, ck, &err);
    if (ok) {
      std::istringstream is(ck.snapshot);
      ok = lm.load(is).ok();
    }
    const auto lz = Clock::now();
    if (!ok) run.fail(1, "checkpoint load: " + err);
    r.checkpoint_load_ms = us_since(la, lz) / 1e3;
    const double replay_s = recover_s - r.checkpoint_load_ms / 1e3;
    r.replay_records_per_s =
        static_cast<double>(rep.replayed_batches) / std::max(replay_s, 1e-6);
  }

  // ---- a fresh follower catches up from the series + journal segment ----
  ++run.attempted;
  DynamicMatcher cm(run.cfg, pool);
  replicate::ReplicaOptions ro;
  ro.journal_path = wal;
  ro.checkpoint_prefix = prefix;
  ro.expected_stream = run.stream_fp;
  ro.verify_checkpoints = false;
  replicate::ReplicaEngine fresh(cm, nullptr, ro);
  std::string cerr;
  if (!fresh.bootstrap(&cerr)) {
    run.fail(1, "catch-up bootstrap: " + cerr);
    return;
  }
  const uint64_t from = fresh.applied_epoch();
  const auto a = Clock::now();
  for (int guard = 0; fresh.applied_epoch() < final_epoch && guard < 1000; ++guard) {
    if (fresh.step() == replicate::TailStatus::kFailed) break;
  }
  const auto z = Clock::now();
  if (fresh.applied_epoch() != final_epoch) {
    run.fail(1, "catch-up stopped at epoch " +
                    std::to_string(fresh.applied_epoch()) + ": " + fresh.error());
  } else if (save_bytes(cm) != primary_state) {
    run.correct = false;
    run.errors.push_back("caught-up follower state differs from the primary");
  } else {
    r.catch_up_records_per_s = static_cast<double>(final_epoch - from) /
                               std::max(us_since(a, z) / 1e6, 1e-9);
  }
}

void run_probe(Run& run, const std::string& snapshot,
               const std::vector<Batch>& batches, ThreadPool& pool,
               ProbeResult& r) {
  const WorkloadSpec& w = run.spec;
  std::string err;
  ThreadPool pool1(1);
  DynamicMatcher a(run.cfg, pool1);
  DynamicMatcher b(run.cfg, pool);
  {
    std::istringstream ia(snapshot), ib(snapshot);
    const SnapshotError ea = a.load(ia), eb = b.load(ib);
    if (!ea.ok() || !eb.ok()) {
      run.fail(1, "probe snapshot load: " + ea.to_string() + " / " + eb.to_string());
      return;
    }
  }
  // 1 thread: update only.
  std::vector<std::pair<uint64_t, uint64_t>> cost1;
  for (const Batch& x : batches) {
    const auto t0 = Clock::now();
    const auto res = a.update_by_endpoints(x.deletions, x.insertions);
    r.update_us_1t.add(us_since(t0, Clock::now()));
    cost1.emplace_back(res.work, res.rounds);
  }
  // nproc threads: the engine's stage order, called inline — journal
  // append (+ group commit), settle, view build, checkpoint capture.
  persist::Journal::Options jo;
  jo.fsync_each = true;
  auto journal = persist::Journal::open(run.tmp + "/probe.wal", jo, &err);
  if (!journal) {
    run.fail(1, "probe journal: " + err);
    return;
  }
  journal->appender_role().assert_held();
  MatchView view;
  std::string ck;
  const size_t ck_period = std::max<size_t>(1, batches.size() / 4);
  for (size_t j = 0; j < batches.size(); ++j) {
    const Batch& x = batches[j];
    const uint64_t epoch = b.batch_epoch() + 1;
    if (!journal->append_buffered(epoch, x, &err)) {
      run.fail(1, "probe append: " + err);
      return;
    }
    if ((j + 1) % w.group_commit == 0 || j + 1 == batches.size()) {
      const auto c0 = Clock::now();
      if (!journal->commit(&err)) {
        run.fail(1, "probe commit: " + err);
        return;
      }
      const auto c1 = Clock::now();
      r.commit_ms.add(us_since(c0, c1) / 1e3);
    }
    const auto u0 = Clock::now();
    const auto res = b.update_by_endpoints(x.deletions, x.insertions);
    const auto u1 = Clock::now();
    r.update_us_nt.add(us_since(u0, u1));
    if (res.work != cost1[j].first || res.rounds != cost1[j].second) {
      run.correct = false;
      run.errors.push_back("work/rounds differ between 1 and " +
                           std::to_string(pool.num_threads()) +
                           " threads at probe batch " + std::to_string(j));
    }
    b.make_view_into(view);
    r.view_build_us.add(us_since(u1, Clock::now()));
    if ((j + 1) % ck_period == 0) {
      const auto e0 = Clock::now();
      if (!persist::encode_checkpoint(b, ck, &err, run.stream_fp)) {
        run.fail(1, "probe encode: " + err);
        return;
      }
      const auto e1 = Clock::now();
      if (!persist::write_checkpoint_series_bytes(run.tmp + "/probe_ck",
                                                  b.batch_epoch(), ck, 2, &err,
                                                  true)) {
        run.fail(1, "probe checkpoint write: " + err);
        return;
      }
      r.encode_ms.add(us_since(e0, e1) / 1e3);
      r.write_ms.add(us_since(e1, Clock::now()) / 1e3);
      r.checkpoint_bytes = static_cast<double>(ck.size());
    }
    r.updates += batch_updates(x);
  }
  r.view_bytes = view_bytes(view);
  r.batches = batches.size();

  const MatcherStats& sa = a.stats();
  const MatcherStats& sb = b.stats();
  if (sa.settles != sb.settles || sa.subsubsettles != sb.subsubsettles ||
      sa.edges_kicked != sb.edges_kicked || sa.reinserted != sb.reinserted ||
      a.cost().work != b.cost().work || a.cost().rounds != b.cost().rounds ||
      save_bytes(a) != save_bytes(b)) {
    run.correct = false;
    run.errors.push_back("probe state or counters differ across thread counts");
  }
  // load() resets cumulative statistics, so these cover the probe batches.
  r.work = b.cost().work;
  r.rounds = b.cost().rounds;
  r.settles = sb.settles;
  r.subsubsettles = sb.subsubsettles;
  r.kicked = sb.edges_kicked;
  r.reinserted = sb.reinserted;
  r.settle_fallbacks = sb.settle_fallbacks;
  r.static_mm_rounds = sb.static_mm_rounds;

  // One empty parallel region over 64 chunks.
  PercentileStats region;
  const std::function<void(size_t, size_t)> empty = [](size_t, size_t) {};
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    pool.run_blocked(64, 1, empty);
    region.add(us_since(t0, Clock::now()));
  }
  r.region_us = region.median();
}

double run_sequential(const Run& run,
                      const std::vector<const std::vector<Batch>*>& history,
                      const std::vector<Batch>& batches) {
  SequentialDynamicMatcher::Options o;
  o.max_rank = run.cfg.max_rank;
  o.seed = run.cfg.seed;
  o.initial_capacity = run.cfg.initial_capacity;
  o.auto_rebuild = run.cfg.auto_rebuild;
  SequentialDynamicMatcher s(o);
  for (const auto* list : history) {
    for (const Batch& b : *list) apply_batch(s, b);
  }
  uint64_t ups = 0;
  const auto t0 = Clock::now();
  for (const Batch& b : batches) {
    apply_batch(s, b);
    ups += batch_updates(b);
  }
  return us_since(t0, Clock::now()) / static_cast<double>(std::max<uint64_t>(1, ups));
}

}  // namespace pdmm::perf
