// Unit tests of the benchmark's own measurement code: the tail-percentile
// rule, open-loop accounting and the failure denominator.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "measure.h"

namespace sfbench {
namespace {

using namespace std::chrono_literals;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_of(ramp(100)).percentile, 90.0);      // 10 beyond p90
  EXPECT_EQ(tail_of(ramp(999)).percentile, 90.0);      // p99 would leave 9
  EXPECT_EQ(tail_of(ramp(1000)).percentile, 99.0);     // 10 beyond p99
  EXPECT_EQ(tail_of(ramp(9999)).percentile, 99.0);
  EXPECT_EQ(tail_of(ramp(10000)).percentile, 99.9);
  EXPECT_EQ(tail_of(ramp(1000000)).percentile, 99.9);  // top of the ladder
}

TEST(TailRule, ReportsSampleCountAndSamplesBeyond) {
  const Tail t = tail_of(ramp(2500));
  EXPECT_EQ(t.count, 2500u);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 25u);
  EXPECT_GE(t.beyond, kTailMinBeyond);
}

TEST(TailRule, TooFewSamplesFallBackToMedian) {
  const Tail t = tail_of(ramp(99));  // p90 would leave 9 beyond
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 50.0);
  EXPECT_EQ(tail_of({}).count, 0u);
}

TEST(TailRule, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 90.0), 90.1);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(WindowedTail, KeepsTheRulesPercentileAndIgnoresOneDisturbedWindow) {
  // 4000 samples: p99 with 40 beyond, so four windows of 1000 (10 beyond
  // each). One window carries a stall that would own the global p99.
  std::vector<double> v(4000, 1.0);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1.0 + static_cast<double>(i % 100) * 0.01;
  for (std::size_t i = 1000; i < 1050; ++i) v[i] = 100.0;
  const Summary s = summarize(v);
  EXPECT_EQ(s.tail.percentile, 99.0);
  EXPECT_EQ(s.tail.count, 4000u);
  EXPECT_EQ(s.windows, 4u);
  EXPECT_GT(tail_of(v).value, 50.0);  // the plain estimate is the stall
  EXPECT_LT(s.tail.value, 2.0);       // three undisturbed windows win
}

TEST(WindowedTail, UsesFewerWindowsWhenTheTailIsThin) {
  EXPECT_EQ(summarize(ramp(100000)).windows, kTailWindows);  // capped
  EXPECT_EQ(summarize(ramp(2500)).windows, 2u);  // 25 beyond p99: 2 windows
  EXPECT_EQ(summarize(ramp(1500)).windows, 1u);  // 15 beyond: one window
  EXPECT_EQ(summarize(ramp(50)).windows, 1u);    // no tail at all
  EXPECT_DOUBLE_EQ(summarize(ramp(1500)).tail.value, tail_of(ramp(1500)).value);
}

std::vector<Clock::time_point> schedule(Clock::time_point t0, std::size_t n,
                                        Clock::duration every) {
  std::vector<Clock::time_point> dues;
  for (std::size_t i = 0; i < n; ++i) dues.push_back(t0 + every * static_cast<int>(i));
  return dues;
}

TEST(OpenLoop, StallInflatesLatencyOfLaterRequests) {
  // Requests every 5 ms; the "server" stalls 40 ms on request 2.
  const auto t0 = Clock::now() + 5ms;
  const auto records = run_open_loop(schedule(t0, 8, 5ms), [](std::size_t i) {
    if (i == 2) std::this_thread::sleep_for(40ms);
    return 202;
  });
  ASSERT_EQ(records.size(), 8u);
  // Request 3 was due 5 ms after request 2 but could only be sent once the
  // stall ended: its latency counts from its due time, so it carries the
  // wait even though the server answered it at once.
  EXPECT_GE(records[3].latency_ms(), 30.0);
  EXPECT_GE(records[3].lag_ms(), 30.0);
  EXPECT_LT(ms_between(records[3].sent, records[3].done), 5.0);
  EXPECT_GE(records[4].latency_ms(), 25.0);
  // The schedule did not slide: due times stay on the 5 ms grid.
  EXPECT_EQ(records[5].due - records[4].due, Clock::duration(5ms));
  // Requests after the stall were not idle at their due time, so their
  // lateness is the server's fault, not the generator's.
  EXPECT_TRUE(records[0].idle_at_due);
  EXPECT_FALSE(records[3].idle_at_due);
}

TEST(OpenLoop, GeneratorLagCountsOnlyIdleConnections) {
  std::vector<RequestRecord> records(20);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < records.size(); ++i) {
    RequestRecord& r = records[i];
    r.due = t0 + 10ms * static_cast<int>(i);
    // Even requests: the generator itself woke 3 ms late on an idle
    // connection. Odd requests: blocked 50 ms behind a slow response.
    r.idle_at_due = i % 2 == 0;
    r.sent = r.due + (r.idle_at_due ? 3ms : 50ms);
    r.done = r.sent + 1ms;
    r.status = 202;
  }
  const Summary lag = generator_lag(records);
  EXPECT_EQ(lag.tail.count, 10u);
  EXPECT_NEAR(lag.p50, 3.0, 1e-6);
}

TEST(FailedShare, DenominatorIncludesRefusedAndTimedOut) {
  const auto t0 = Clock::now();
  // 202, 503 (refused by admission control), 0 (timed out / connection
  // refused), 400, then six more 202s.
  const int statuses[] = {202, 503, 0, 400, 202, 202, 202, 202, 202, 202};
  const auto records = run_open_loop(schedule(t0, 10, 0ms),
                                     [&](std::size_t i) { return statuses[i]; });
  OpCounts counts;
  for (const auto& r : records) counts.record(status_ok(r.status));
  EXPECT_EQ(counts.attempted, 10u);
  EXPECT_EQ(counts.failed, 3u);
  EXPECT_DOUBLE_EQ(counts.failed_share(), 0.3);
  EXPECT_DOUBLE_EQ(counts.ok_share(), 0.7);
}

TEST(FailedShare, MergesStreams) {
  OpCounts a, b;
  a.record(true);
  a.record(false);
  b.record(true);
  b.record(true);
  a.merge(b);
  EXPECT_EQ(a.attempted, 4u);
  EXPECT_DOUBLE_EQ(a.failed_share(), 0.25);
  EXPECT_DOUBLE_EQ(OpCounts{}.failed_share(), 0.0);
}

TEST(ResultLine, HasExactlyTheFourKeys) {
  Metrics m;
  m["setup_s"] = {0.5, "s"};
  m["op_p50_ms"] = {1.25, "ms"};
  EXPECT_EQ(result_json(true, 10, 1, m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
            "{\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace sfbench
