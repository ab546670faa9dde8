// Minimal work-stealing-free thread pool used to parallelise independent
// fault-injection trials across cores.  Tasks are indexed [0, n) and the
// pool guarantees every index is executed exactly once; results are written
// by the caller into pre-sized buffers, so no synchronisation beyond the
// atomic cursor is needed.
//
// Thread-safety analysis (util/thread_annotations.hpp): this file holds
// no lockable capabilities on purpose — the only shared state is the
// task cursor (an atomic claimed with fetch_add, so each index runs
// exactly once), the first-exception slot (written only by the thread
// that wins an atomic exchange) and the thread-local nesting mark, none
// of which a mutex annotation can describe.  The join at the end of
// parallel_for_workers is the publication point for everything the
// workers wrote.
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/function_ref.hpp"

namespace rangerpp::util {

// Runs `fn(i)` for every i in [0, n) on up to `threads` workers.  Blocks
// until all indices complete.  `fn` must be safe to call concurrently for
// distinct indices.  If `fn` throws, workers stop claiming new indices
// and, once all have joined, the first exception caught is rethrown to
// the caller (which indices ran is then unspecified) — so a set-up loop
// that validates its inputs fails as its serial form would.
//
// Nesting: a parallel_for issued from inside a pool worker (e.g. a blocked
// kernel running within a trial that the campaign already parallelised)
// executes inline on the calling thread instead of spawning a second layer
// of threads — the outer loop already owns the cores, and oversubscribing
// would only add contention.  Results never depend on where tasks ran, so
// this is purely a scheduling decision.
//
// One-thread cap: a loop called with `threads == 1` runs inline under the
// same mark, so the loops nested in it stay on the calling thread too —
// `--threads 1` means one thread, kernels included.  A loop with any
// other cap that merely gets one worker (n == 1) leaves the mark alone,
// and its nested loops may still spread.
//
// `fn` is a non-owning FunctionRef rather than a std::function: both calls
// block until every index completes, so the callable outlives every
// invocation, and the per-call type-erasure allocation std::function could
// make is pure overhead on kernel hot paths (the blocked/simd kernels issue
// a parallel_for per operator invocation).
void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> fn,
                  unsigned threads = 0);

// As parallel_for, but `fn(worker, i)` also receives the executing
// worker's index in [0, worker_count(n, threads)), so callers can hand
// each worker private reusable state (e.g. an execution arena) without
// locking.
void parallel_for_workers(std::size_t n,
                          FunctionRef<void(unsigned, std::size_t)> fn,
                          unsigned threads = 0);

// Number of workers parallel_for{,_workers} will launch for `n` tasks with
// the given thread cap (0 = hardware concurrency); use it to size
// per-worker state.
unsigned worker_count(std::size_t n, unsigned threads = 0);

// Number of workers parallel_for will use by default.
unsigned default_thread_count();

// Marks the current thread as a pool worker for the scope's lifetime:
// parallel_for calls issued from it run inline (the nesting rule
// above).  Outer schedulers that own their worker threads use this so
// per-operator kernel parallelism never oversubscribes their pool —
// purely a scheduling decision, results are unchanged.
class ScopedPoolWorker {
 public:
  ScopedPoolWorker();
  ~ScopedPoolWorker();
  ScopedPoolWorker(const ScopedPoolWorker&) = delete;
  ScopedPoolWorker& operator=(const ScopedPoolWorker&) = delete;

 private:
  bool previous_;
};

}  // namespace rangerpp::util
