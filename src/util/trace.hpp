// Scoped trace spans flushed as Chrome/Perfetto trace-event JSON — the
// "where does the time go" half of the telemetry layer (util/metrics.hpp
// holds the aggregate counters).
//
//   util::trace::start("out.json");          // or start_from_env()
//   { util::trace::Span s("compile.fuse"); ... }   // one "X" event
//   util::trace::stop_and_flush();
//
// Spans record into per-thread ring buffers (fixed capacity, oldest
// events overwritten), so tracing a long campaign costs two steady_clock
// reads and one ring write per span and never allocates on the hot
// path after warm-up.  stop_and_flush() walks every thread's buffer and
// writes one {"traceEvents":[...]} file loadable in chrome://tracing /
// Perfetto; `ts`/`dur` are microseconds since start().  Overwriting is
// never silent: the file's "otherData" metadata lists, per thread, the
// events recorded and how many of them the ring overwrote:
//
//   "otherData": {"events_per_thread": 131072,
//                 "threads": [{"tid": 1, "recorded": 9, "overwritten": 0}]}
//
// Pure-observer contract (shared with metrics): spans never feed back
// into execution, and record streams are byte-identical with tracing on
// vs off.  Arg keys must be string literals (the ring stores the
// pointers); span names are owned, so dynamic names ("compile.dce") are
// fine.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace rangerpp::util::trace {

inline std::atomic<bool> g_enabled{false};
inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

// Ring capacity per thread when start() is not given one.  Rings are
// allocated only while tracing, and grow as events arrive.
inline constexpr std::size_t kDefaultEventsPerThread = 1 << 17;

// Begins collecting spans; `events_per_thread` bounds each thread's ring
// buffer.  Returns false (and stays off) if tracing is already active.
bool start(const std::string& path,
           std::size_t events_per_thread = kDefaultEventsPerThread);

// start($RANGERPP_TRACE) when the variable is set and non-empty; returns
// whether tracing is now active.
bool start_from_env();

// Disables collection, writes the trace-event JSON to start()'s path and
// clears every buffer.  Returns false if tracing was off or the file
// cannot be written.
bool stop_and_flush();

// Names this thread in the trace (an "M" thread_name metadata event).
void set_thread_name(const std::string& name);

// RAII span: one complete ("X") event from construction to destruction.
// Constructing while tracing is off costs one relaxed atomic load.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attaches a numeric argument (up to 4; extras are dropped).  `key`
  // must be a string literal.
  void arg(const char* key, std::uint64_t value);

 private:
  std::string name_;
  std::uint64_t start_us_ = 0;
  bool active_;
  struct ArgKV {
    const char* key;
    std::uint64_t value;
  };
  ArgKV args_[4];
  int n_args_ = 0;
};

}  // namespace rangerpp::util::trace
