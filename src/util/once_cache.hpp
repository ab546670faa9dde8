// util::OnceCache — the concurrent build-once map behind every engine
// cache (models::WorkloadCache and the fi::Engine entries).
//
// get(key, names, build) returns the value of `key`, calling build() to
// make it the first time any thread asks.  The map's shape is guarded by
// one mutex held only for find-or-insert; the build runs outside it
// under a per-entry once_flag, so callers needing the same entry build
// it exactly once (the others block on the flag) and entries for
// different keys build in parallel.  Entries are heap-allocated and
// never evicted, so returned references stay valid for the cache's
// lifetime; a built value is never written again, so reading it needs
// no lock.  A build that throws leaves its entry unbuilt (the next get
// retries).  A build may get() from other caches, but build chains must
// not cycle, or nested call_once deadlocks.
//
// Telemetry: every get() runs under a `names.get` trace span and counts
// `names.build` or `names.hit`; the build runs under a `names.build`
// span inside the call_once.  A get span's self time is therefore the
// lookup plus any wait on another thread's build, and a build is always
// charged to the thread that ran it.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "util/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/trace.hpp"

namespace rangerpp::util {

// A cache's telemetry names, e.g. {"cache.bounds.get",
// "cache.bounds.build", "cache.bounds.hit"}.
struct CacheNames {
  const char* get;
  const char* build;
  const char* hit;
};

template <typename Key, typename T>
class OnceCache {
 public:
  explicit OnceCache(CacheNames names) : names_(names) {}

  template <typename Build>
  const T& get(const Key& key, Build&& build) {
    trace::Span get_span(names_.get);
    Entry* e = nullptr;
    {
      MutexLock lk(mu_);
      std::unique_ptr<Entry>& slot = map_[key];
      if (!slot) slot = std::make_unique<Entry>();
      e = slot.get();
    }
    bool built_now = false;
    std::call_once(e->built, [&] {
      trace::Span build_span(names_.build);
      e->value = build();
      built_now = true;
    });
    metrics::counter_add(built_now ? names_.build : names_.hit);
    return e->value;
  }

  // Keys inserted so far (an entry whose build threw still counts).
  std::size_t size() const {
    MutexLock lk(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    std::once_flag built;
    T value;
  };

  const CacheNames names_;
  mutable Mutex mu_;  // guards the map's shape, never a build
  std::map<Key, std::unique_ptr<Entry>> map_ RANGERPP_GUARDED_BY(mu_);
};

}  // namespace rangerpp::util
