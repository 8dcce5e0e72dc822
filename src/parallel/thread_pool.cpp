#include "parallel/thread_pool.h"

#include <algorithm>

#include "util/assert.h"

namespace pdmm {

thread_local bool ThreadPool::in_parallel_region_ = false;

ThreadPool::ThreadPool(unsigned num_threads, bool allow_oversubscribe) {
  // hardware_concurrency() may legitimately return 0 ("unknown"); only
  // clamp against it when it reported a real value, otherwise honor the
  // caller's explicit count.
  const unsigned hw = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = std::max(1u, hw);
  // A fork-join pool is CPU-bound by construction: threads beyond the
  // hardware's parallelism can only preempt each other (and the
  // coordinator), which measurably *slows down* parallel regions. Matcher
  // results do not depend on the pool size (value-level determinism), so
  // clamping is invisible except in wall-clock. Tests opt out to get
  // preemption-diverse schedules even on small machines.
  num_threads_ = (hw && !allow_oversubscribe) ? std::min(num_threads, hw)
                                              : num_threads;
  workers_.reserve(num_threads_ - 1);
  for (unsigned t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::default_pool() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::run_region(size_t n, size_t grain, RegionBody body) {
  const size_t chunks = (n + grain - 1) / grain;
  // Runs of consecutive chunks, one per claim. The run length depends on
  // the pool size, but only the claiming does: every chunk is still one
  // aligned body call, so callers see the same chunk structure.
  const size_t run = std::max<size_t>(
      1, chunks / (kClaimsPerThread * static_cast<size_t>(num_threads_)));
  const size_t runs = (chunks + run - 1) / run;
  PDMM_ASSERT_MSG(runs <= 0xffffffffull,
                  "run_blocked: claim count exceeds the claim-word capacity");
  uint32_t epoch32;
  unsigned parked;
  {
    MutexLock lk(mu_);
    body_ = body;
    job_n_ = n;
    job_grain_ = grain;
    job_chunks_ = chunks;
    job_run_ = run;
    job_runs_ = runs;
    // mo: relaxed — the release store of claim_ below publishes this zero
    // (and the descriptor fields) before any participant can claim a run
    // of the new job, and the coordinator's own later loads are
    // program-ordered after it.
    done_runs_.store(0, std::memory_order_relaxed);
    epoch32 = ++job_epoch_;
    // mo: release — pairs with the acquire loads in work_on_job; a
    // participant that observes the new epoch in the claim word must also
    // observe the descriptor fields written above.
    claim_.store((static_cast<uint64_t>(epoch32) << 32) | runs,
                 std::memory_order_release);
    parked = parked_;
  }
  // Wake only workers that are parked (one still returning from the last
  // region sees the new epoch when it takes mu_), and no more than there
  // are runs beyond the coordinator's own — surplus wakeups would only
  // burn scheduler time re-parking.
  const size_t wake = std::min<size_t>(parked, runs - 1);
  if (wake == parked) {
    if (wake > 0) job_cv_.notify_all();
  } else {
    for (size_t i = 0; i < wake; ++i) job_cv_.notify_one();
  }

  work_on_job(epoch32);

  // Wait until every run has been *executed*. Workers that hold no run are
  // irrelevant here — only claimed-but-unfinished runs keep the region
  // open.
  MutexLock lk(mu_);
  // mo: acquire — pairs with the acq_rel fetch_add in work_on_job so the
  // coordinator observes every write the chunk bodies made before their
  // completion was counted.
  while (done_runs_.load(std::memory_order_acquire) != runs) {
    done_cv_.wait(mu_);
  }
}

// tsa: deliberately lock-free — participants read the job descriptor
// (body_, job_n_, job_grain_, job_chunks_, job_run_, job_runs_) without
// holding mu_. This is safe because (a) the descriptor is written under
// mu_ *before* the coordinator's claim_.store(release) publishes the job,
// (b) a read here happens only behind a successful CAS on claim_ whose
// acquire load observed that epoch, establishing happens-before with the
// writes, and (c) a successful claim implies the job is incomplete, so
// the coordinator is pinned inside run_region and cannot be overwriting
// the fields for a next job (it first waits for done_runs_ == runs).
void ThreadPool::work_on_job(uint32_t epoch32)
    PDMM_NO_THREAD_SAFETY_ANALYSIS {
  in_parallel_region_ = true;
  while (true) {
    // mo: acquire — observing the current epoch here must also make the
    // job descriptor writes (published by the paired release store in
    // run_region) visible before the claimed run dereferences them.
    uint64_t cur = claim_.load(std::memory_order_acquire);
    bool claimed = false;
    size_t remaining = 0;
    while ((cur >> 32) == epoch32 && (remaining = cur & 0xffffffffull) != 0) {
      // mo: acq_rel on success — the decrement both takes ownership of
      // run `remaining-1` (release: no later claimant may see a stale
      // descriptor) and re-validates the epoch (acquire). Failure reloads
      // with acquire for the same reason as the initial load.
      if (claim_.compare_exchange_weak(cur, cur - 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        claimed = true;
        break;
      }
    }
    if (!claimed) break;
    // Safe to read the job descriptor: a successful claim implies the job
    // is still incomplete, so the coordinator is pinned inside run_region
    // and the fields are stable. `total` must be a local: the done_runs_
    // increment below is what releases the coordinator, so reading
    // job_runs_ after it would race with the next job's setup.
    const size_t total = job_runs_;
    const size_t first = (remaining - 1) * job_run_;
    const size_t last = std::min(first + job_run_, job_chunks_);
    for (size_t k = first; k < last; ++k) {
      const size_t begin = k * job_grain_;
      body_.call(body_.obj, begin, std::min(begin + job_grain_, job_n_));
    }
    // mo: acq_rel — release publishes this run's writes to the
    // coordinator's paired acquire load in run_region; acquire orders
    // this thread's view behind the other runs' completions so the
    // last-run detection below is exact.
    if (done_runs_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      // Last run executed: release the coordinator in case it parked.
      // Taking the lock orders this notify after the coordinator parks
      // (or before it evaluates the predicate), so the wakeup cannot be
      // lost.
      MutexLock lk(mu_);
      done_cv_.notify_all();
    }
  }
  in_parallel_region_ = false;
}

void ThreadPool::worker_loop() {
  uint32_t seen = 0;  // epoch of the last job this worker joined
  while (true) {
    {
      MutexLock lk(mu_);
      // Counted as parked before the epoch check, under the mutex the
      // coordinator publishes under: either this check sees the new job,
      // or the coordinator sees this worker in parked_ and wakes it.
      ++parked_;
      while (!shutdown_ && job_epoch_ == seen) job_cv_.wait(mu_);
      --parked_;
      if (shutdown_) return;
      seen = job_epoch_;
    }
    work_on_job(seen);
  }
}

}  // namespace pdmm
