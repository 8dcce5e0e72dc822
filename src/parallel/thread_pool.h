// A fork-join thread pool implementing the work/depth execution model.
//
// The pool owns `num_threads - 1` persistent workers; the calling thread
// participates in every parallel region, so a pool of size 1 degenerates to
// inline serial execution with no synchronization. Parallel regions hand out
// grain-aligned chunks of an index range through an atomic claim word
// (self-scheduling), which keeps load balanced without work stealing.
//
// Batched claims: one CAS on the claim word takes a *run* of consecutive
// chunks (about chunks / (kClaimsPerThread * pool size) of them), so a
// region of thousands of grain-1 chunks costs a few dozen contended CASes,
// not thousands. Each chunk of a run is still executed as its own
// grain-aligned body call, so the chunk structure callers observe — and
// with it the determinism contract of cost_model.h — does not depend on
// how the chunks were claimed.
//
// Completion is claim-counted, not worker-counted: a region is done when
// every run has been executed, regardless of which threads ran them. A
// worker that is slow to wake (common when the machine has fewer cores than
// the pool has threads) simply finds nothing left and goes back to waiting
// — it never blocks the coordinating thread.
//
// The claim word packs (epoch, remaining runs), so a stale worker can
// never claim into a newer job, and job descriptors are only dereferenced
// behind a successful claim — which can only happen while the coordinator
// is still inside the region.
//
// Waiting: idle workers park on a condvar and count themselves as parked
// under mu_, so the coordinator signals only threads that are actually
// asleep, and never more than the region has claims for. There is no spin
// before parking: a matcher batch spends most of its time in serial
// stretches between regions, and a spinning worker burns a core there
// that other threads of the process (a server's readers) need.
//
// The pool is the single scheduling substrate for every parallel primitive
// in pdmm (parallel_for, scan, pack, sort, the dictionary's batch ops, and
// all phases of the dynamic matcher).
//
// Thread-safety contract (machine-checked under the `tidy` preset): the
// job descriptor fields are guarded by mu_ for the coordinator/worker
// handshake; the one deliberate lock-free access path — participants
// reading the descriptor behind a successful claim — is confined to
// work_on_job(), which carries the documented analysis exemption.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pdmm {

class ThreadPool {
 public:
  // num_threads == 0 means std::thread::hardware_concurrency(). Requests
  // beyond the hardware's parallelism are clamped to it — oversubscribing a
  // CPU-bound fork-join pool only adds preemption, and matcher results are
  // independent of the pool size, so the clamp never changes behaviour.
  // allow_oversubscribe disables the clamp: race/determinism tests use it
  // so thread counts above the core count still produce genuinely
  // concurrent (preemption-diverse) schedules on small machines.
  explicit ThreadPool(unsigned num_threads = 0,
                      bool allow_oversubscribe = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  // Runs body(begin, end) over disjoint grain-aligned chunks covering
  // [0, n): every call is [k*grain, min((k+1)*grain, n)) for some k, except
  // on the serial paths (n <= grain, a 1-thread pool, or a call from inside
  // a parallel region — there is no nested parallelism; the algorithms in
  // this library never need it), which make the single call body(0, n).
  // Blocks until all chunks complete. `body` is any callable taking
  // (size_t, size_t) — a lambda or a std::function lvalue; the pool keeps
  // only a non-owning reference for the duration of the call. Callers must
  // not hold mu_ (they cannot — it is private — but the annotation also
  // catches accidental re-entry from future pool-internal code).
  template <typename F>
  void run_blocked(size_t n, size_t grain, F&& body) PDMM_EXCLUDES(mu_) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    if (num_threads_ == 1 || n <= grain || in_parallel_region_) {
      body(0, n);
      return;
    }
    using Body = std::remove_reference_t<F>;
    run_region(n, grain,
               RegionBody{const_cast<void*>(static_cast<const void*>(
                              std::addressof(body))),
                          [](void* obj, size_t b, size_t e) {
                            (*static_cast<Body*>(obj))(b, e);
                          }});
  }

  // A process-wide default pool (lazily constructed with hardware
  // concurrency). Library entry points take an explicit pool; this default
  // exists for examples and tests.
  static ThreadPool& default_pool();

 private:
  // Non-owning, type-erased reference to a run_blocked body; valid for one
  // run_region call (the caller's body outlives it).
  struct RegionBody {
    void* obj = nullptr;
    void (*call)(void*, size_t, size_t) = nullptr;
  };

  // Target number of claims per pool thread in one region: enough runs for
  // load balancing when chunk costs are uneven, few enough that claim-word
  // contention stays a handful of CASes per thread.
  static constexpr size_t kClaimsPerThread = 4;

  void run_region(size_t n, size_t grain, RegionBody body)
      PDMM_EXCLUDES(mu_);
  void worker_loop() PDMM_EXCLUDES(mu_);
  void work_on_job(uint32_t epoch32);

  unsigned num_threads_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar job_cv_;
  CondVar done_cv_;

  // Job description. Written under mu_ by the coordinator before the claim
  // word publishes the job; read by participants only behind a successful
  // claim of that job's epoch, so the plain fields race with nothing. The
  // GUARDED_BY annotations cover every access except the claim-protected
  // reads inside work_on_job(), which is the single documented exemption.
  RegionBody body_ PDMM_GUARDED_BY(mu_);
  size_t job_n_ PDMM_GUARDED_BY(mu_) = 0;
  size_t job_grain_ PDMM_GUARDED_BY(mu_) = 1;
  size_t job_chunks_ PDMM_GUARDED_BY(mu_) = 0;
  size_t job_run_ PDMM_GUARDED_BY(mu_) = 1;   // chunks per claim
  size_t job_runs_ PDMM_GUARDED_BY(mu_) = 0;  // claims in the job
  // (epoch32 << 32) | remaining-run count. Claims decrement the low half;
  // run r = remaining - 1 covers chunks [r*job_run_, (r+1)*job_run_). A
  // mismatched epoch or a zero count means "nothing to claim here".
  std::atomic<uint64_t> claim_{0};
  // Runs executed in the current job; the coordinator's completion test.
  std::atomic<size_t> done_runs_{0};
  uint32_t job_epoch_ PDMM_GUARDED_BY(mu_) = 0;  // claim_'s high half
  // Workers blocked (or about to block) on job_cv_; the coordinator
  // notifies at most this many.
  unsigned parked_ PDMM_GUARDED_BY(mu_) = 0;
  bool shutdown_ PDMM_GUARDED_BY(mu_) = false;
  static thread_local bool in_parallel_region_;
};

}  // namespace pdmm
