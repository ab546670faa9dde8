// util/trace: scoped spans → Chrome trace-event JSON.  Structural checks
// on the flushed file (tools/check_trace.py validates the same schema in
// CI), plus the off-by-default and ring-wrap contracts, including the
// per-thread overwritten counts in the file's metadata.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "util/trace.hpp"

namespace rangerpp::util::trace {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (!f) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string temp_trace_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = hay.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(Trace, OffByDefaultSpansAreFree) {
  ASSERT_FALSE(enabled());
  {
    Span s("should.not.record");
    s.arg("k", 1);
  }
  // Nothing was started, so there is nothing to flush.
  EXPECT_FALSE(stop_and_flush());
}

TEST(Trace, FlushWritesWellFormedTraceEvents) {
  const std::string path = temp_trace_path("rangerpp_trace_test.json");
  ASSERT_TRUE(start(path));
  EXPECT_FALSE(start(path));  // already active
  set_thread_name("test.main");
  {
    Span s("unit.outer");
    s.arg("items", 3);
    { Span inner("unit.inner"); }
  }
  std::thread worker([] {
    set_thread_name("test.worker");
    Span s("unit.worker_span");
  });
  worker.join();
  ASSERT_TRUE(stop_and_flush());
  EXPECT_FALSE(enabled());

  const std::string json = slurp(path);
  std::filesystem::remove(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Every span from both threads made it out as a complete event.
  EXPECT_NE(json.find("\"unit.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"items\": 3"), std::string::npos);
  // Thread-name metadata events for both threads.
  EXPECT_NE(json.find("\"test.main\""), std::string::npos);
  EXPECT_NE(json.find("\"test.worker\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 3u);
  // The metadata names the default ring size and reports, per thread,
  // that nothing was overwritten.
  EXPECT_NE(json.find("\"otherData\": {\"events_per_thread\": " +
                      std::to_string(kDefaultEventsPerThread)),
            std::string::npos);
  EXPECT_GE(count_occurrences(json, "\"overwritten\": 0}"), 2u);
  EXPECT_EQ(count_occurrences(json, "\"overwritten\": "),
            count_occurrences(json, "\"overwritten\": 0}"));
  // Balanced braces/brackets — the cheap well-formedness proxy (CI runs
  // the real JSON parser via tools/check_trace.py).
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(count_occurrences(json, "["), count_occurrences(json, "]"));
}

TEST(Trace, RingBufferKeepsNewestEvents) {
  const std::string path = temp_trace_path("rangerpp_trace_wrap.json");
  // Tiny ring: 4 events per thread, 10 spans recorded — only the newest
  // 4 survive.
  ASSERT_TRUE(start(path, /*events_per_thread=*/4));
  for (int i = 0; i < 10; ++i) Span s("wrap." + std::to_string(i));
  ASSERT_TRUE(stop_and_flush());
  const std::string json = slurp(path);
  std::filesystem::remove(path);
  EXPECT_EQ(json.find("\"wrap.0\""), std::string::npos);
  EXPECT_EQ(json.find("\"wrap.5\""), std::string::npos);
  EXPECT_NE(json.find("\"wrap.6\""), std::string::npos);
  EXPECT_NE(json.find("\"wrap.9\""), std::string::npos);
  // The wrap is reported, not silent: 10 recorded, the oldest 6 lost.
  EXPECT_NE(json.find("\"recorded\": 10, \"overwritten\": 6}"),
            std::string::npos)
      << json;
}

TEST(Trace, RestartAfterFlushCollectsFreshEvents) {
  const std::string path = temp_trace_path("rangerpp_trace_restart.json");
  ASSERT_TRUE(start(path));
  { Span s("first.run"); }
  ASSERT_TRUE(stop_and_flush());
  ASSERT_TRUE(start(path));
  { Span s("second.run"); }
  ASSERT_TRUE(stop_and_flush());
  const std::string json = slurp(path);
  std::filesystem::remove(path);
  // Buffers were cleared between runs.
  EXPECT_EQ(json.find("\"first.run\""), std::string::npos);
  EXPECT_NE(json.find("\"second.run\""), std::string::npos);
}

}  // namespace
}  // namespace rangerpp::util::trace
