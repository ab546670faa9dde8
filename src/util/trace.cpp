#include "util/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "util/mutex.hpp"

namespace rangerpp::util::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  struct {
    const char* key;
    std::uint64_t value;
  } args[4] = {};
  int n_args = 0;
};

// One ring per thread.  The buffer outlives its thread (shared_ptr held
// by both the thread_local slot and the global registry), so a flush
// after the worker pool joins still sees every span.  The per-buffer
// mutex serialises the owning thread's appends against a flush from
// another thread — uncontended in steady state.
struct ThreadBuffer {
  util::Mutex mu;
  std::vector<Event> ring RANGERPP_GUARDED_BY(mu);
  std::size_t write RANGERPP_GUARDED_BY(mu) = 0;   // next slot
  std::size_t count RANGERPP_GUARDED_BY(mu) = 0;   // total appended
  std::string name RANGERPP_GUARDED_BY(mu);
  std::uint64_t tid = 0;
};

struct Global {
  util::Mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers RANGERPP_GUARDED_BY(mu);
  std::string path RANGERPP_GUARDED_BY(mu);
  std::uint64_t next_tid RANGERPP_GUARDED_BY(mu) = 1;
  // Lock-free on the span path: epoch origin and ring capacity are read
  // by every span, written only while tracing is disabled.
  std::atomic<std::int64_t> t0_ns{0};
  std::atomic<std::size_t> capacity{kDefaultEventsPerThread};
};

Global& global() {
  static Global g;
  return g;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Global& g = global();
    util::MutexLock lock(g.mu);
    b->tid = g.next_tid++;
    g.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_us() {
  const std::int64_t dt =
      steady_ns() - global().t0_ns.load(std::memory_order_relaxed);
  return dt > 0 ? static_cast<std::uint64_t>(dt) / 1000 : 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void append_event(ThreadBuffer& b, const Event& e, std::size_t capacity) {
  util::MutexLock lock(b.mu);
  if (b.ring.size() < capacity) {
    b.ring.push_back(e);
  } else if (!b.ring.empty()) {
    b.ring[b.write % b.ring.size()] = e;
  }
  ++b.write;
  ++b.count;
}

}  // namespace

bool start(const std::string& path, std::size_t events_per_thread) {
  if (enabled()) return false;
  Global& g = global();
  {
    util::MutexLock lock(g.mu);
    g.path = path;
    g.capacity.store(events_per_thread == 0 ? 1 : events_per_thread,
                     std::memory_order_relaxed);
    g.t0_ns.store(steady_ns(), std::memory_order_relaxed);
    for (const auto& b : g.buffers) {
      util::MutexLock blk(b->mu);
      b->ring.clear();
      b->write = 0;
      b->count = 0;
    }
  }
  g_enabled.store(true, std::memory_order_release);
  return true;
}

bool start_from_env() {
  if (enabled()) return true;
  const char* path = std::getenv("RANGERPP_TRACE");
  if (!path || !*path) return false;
  return start(path);
}

void set_thread_name(const std::string& name) {
  if (!enabled()) return;
  ThreadBuffer& b = local_buffer();
  util::MutexLock lock(b.mu);
  b.name = name;
}

bool stop_and_flush() {
  if (!enabled()) return false;
  g_enabled.store(false, std::memory_order_relaxed);
  Global& g = global();
  util::MutexLock lock(g.mu);
  std::FILE* f = std::fopen(g.path.c_str(), "wb");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  std::string threads;  // otherData.threads entries
  for (const auto& b : g.buffers) {
    util::MutexLock blk(b->mu);
    if (!b->name.empty()) {
      std::fprintf(f,
                   "%s\n  {\"ph\": \"M\", \"name\": \"thread_name\", "
                   "\"pid\": 1, \"tid\": %llu, \"args\": {\"name\": "
                   "\"%s\"}}",
                   first ? "" : ",",
                   static_cast<unsigned long long>(b->tid),
                   json_escape(b->name).c_str());
      first = false;
    }
    const std::size_t n = b->ring.size();
    // Oldest-first: when the ring wrapped, the oldest live event sits at
    // the write cursor.
    const std::size_t begin = b->count > n && n > 0 ? b->write % n : 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = b->ring[(begin + i) % n];
      std::fprintf(f,
                   "%s\n  {\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, "
                   "\"tid\": %llu, \"ts\": %llu, \"dur\": %llu",
                   first ? "" : ",", json_escape(e.name).c_str(),
                   static_cast<unsigned long long>(b->tid),
                   static_cast<unsigned long long>(e.ts_us),
                   static_cast<unsigned long long>(e.dur_us));
      if (e.n_args > 0) {
        std::fprintf(f, ", \"args\": {");
        for (int a = 0; a < e.n_args; ++a)
          std::fprintf(f, "%s\"%s\": %llu", a ? ", " : "", e.args[a].key,
                       static_cast<unsigned long long>(e.args[a].value));
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
      first = false;
    }
    // A wrapped ring dropped its oldest events; the metadata says how
    // many, so a consumer can tell a complete trace from a truncated one.
    char entry[160];
    std::snprintf(entry, sizeof entry,
                  "%s{\"tid\": %llu, \"recorded\": %llu, "
                  "\"overwritten\": %llu}",
                  threads.empty() ? "" : ", ",
                  static_cast<unsigned long long>(b->tid),
                  static_cast<unsigned long long>(b->count),
                  static_cast<unsigned long long>(b->count - n));
    threads += entry;
    // Rings hold memory only while tracing.
    std::vector<Event>().swap(b->ring);
    b->write = 0;
    b->count = 0;
    b->name.clear();
  }
  std::fprintf(f,
               "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
               "{\"events_per_thread\": %llu, \"threads\": [%s]}}\n",
               static_cast<unsigned long long>(
                   g.capacity.load(std::memory_order_relaxed)),
               threads.c_str());
  return std::fclose(f) == 0;
}

Span::Span(std::string name) : active_(enabled()) {
  if (!active_) return;
  name_ = std::move(name);
  start_us_ = now_us();
}

void Span::arg(const char* key, std::uint64_t value) {
  if (!active_ || n_args_ >= 4) return;
  args_[n_args_].key = key;
  args_[n_args_].value = value;
  ++n_args_;
}

Span::~Span() {
  // A span that began before stop_and_flush() still completes into the
  // (now idle) ring; the next start() clears it.
  if (!active_) return;
  Event e;
  e.name = std::move(name_);
  e.ts_us = start_us_;
  const std::uint64_t end = now_us();
  e.dur_us = end > start_us_ ? end - start_us_ : 0;
  e.n_args = n_args_;
  for (int a = 0; a < n_args_; ++a) {
    e.args[a].key = args_[a].key;
    e.args[a].value = args_[a].value;
  }
  append_event(local_buffer(), e,
               global().capacity.load(std::memory_order_relaxed));
}

}  // namespace rangerpp::util::trace
