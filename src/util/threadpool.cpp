#include "util/threadpool.hpp"

#include <algorithm>
#include <exception>
#include <optional>

namespace rangerpp::util {

namespace {

// True while the current thread is a parallel_for worker; nested
// parallel_for calls run inline (see threadpool.hpp).
thread_local bool g_in_pool_worker = false;

}  // namespace

ScopedPoolWorker::ScopedPoolWorker() : previous_(g_in_pool_worker) {
  g_in_pool_worker = true;
}

ScopedPoolWorker::~ScopedPoolWorker() { g_in_pool_worker = previous_; }

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

unsigned worker_count(std::size_t n, unsigned threads) {
  if (n == 0) return 0;
  if (threads == 0) threads = default_thread_count();
  return static_cast<unsigned>(std::min<std::size_t>(threads, n));
}

void parallel_for_workers(std::size_t n,
                          FunctionRef<void(unsigned, std::size_t)> fn,
                          unsigned threads) {
  const unsigned workers = worker_count(n, threads);
  if (workers == 0) return;
  if (workers <= 1 || g_in_pool_worker) {
    // A loop capped at one thread owns just the calling thread, so its
    // nested loops must not spawn either (the one-thread-cap rule).
    std::optional<ScopedPoolWorker> capped;
    if (threads == 1) capped.emplace();
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the first thrower
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      g_in_pool_worker = true;
      try {
        for (;;) {
          const std::size_t i =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          fn(t, i);
        }
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
        cursor.store(n, std::memory_order_relaxed);  // claim nothing more
      }
    });
  }
  for (auto& w : pool) w.join();
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> fn,
                  unsigned threads) {
  parallel_for_workers(
      n, [fn](unsigned, std::size_t i) { fn(i); }, threads);
}

}  // namespace rangerpp::util
