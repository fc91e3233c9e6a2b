#pragma once

// Measurement primitives of the benchmark: latency summaries with the
// tail-percentile rule, failure accounting, open-loop request scheduling and
// the JSON result line. Everything here is independent of SmartFlux so the
// unit tests in tests/measure_test.cpp can exercise it directly.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace sfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double s_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// The tail of a latency distribution: the highest percentile of the ladder
/// p90 / p99 / p99.9 that still has at least kTailMinBeyond samples strictly
/// above its rank. With fewer than 10 samples beyond p90 the tail falls back
/// to p50, so a tiny sample never pretends to have a tail.
struct Tail {
  double percentile = 50.0;  ///< which percentile was reported
  double value = 0.0;
  std::size_t beyond = 0;    ///< samples ranked above that percentile
  std::size_t count = 0;     ///< total samples
};
inline constexpr std::size_t kTailMinBeyond = 10;
Tail tail_of(const std::vector<double>& values);

/// Tail of a series in time order, robust to one disturbed stretch of the
/// run: the percentile is the one tail_of() picks for the whole series, the
/// series is cut into up to kTailWindows consecutive windows that each keep
/// at least kTailMinBeyond samples beyond that percentile, and the value is
/// the median of the windows' values at it. `count`/`beyond` describe the
/// whole series.
inline constexpr std::size_t kTailWindows = 8;
Tail windowed_tail(const std::vector<double>& in_time_order);

/// Median plus windowed tail of one latency series, in time order.
struct Summary {
  double p50 = 0.0;
  Tail tail;
  std::size_t windows = 1;  ///< windows the tail value is the median of
};
Summary summarize(const std::vector<double>& in_time_order);

/// Failure accounting of one operation stream. Every operation the load
/// generator *tried* counts in `attempted`, including ones the system
/// refused (503), answered with any other non-2xx status, or that timed out
/// or could not connect: those all count as failed as well.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// failed ÷ attempted (0 when nothing was attempted).
  double failed_share() const;
  /// 1 − failed_share: the share of attempts that succeeded.
  double ok_share() const;
};

/// Status an open-loop send reports: an HTTP status, or 0 for a transport
/// failure (refused connection, reset, receive timeout).
inline bool status_ok(int status) { return status >= 200 && status < 300; }

/// One request of an open-loop schedule.
struct RequestRecord {
  Clock::time_point due{};   ///< when the schedule wanted it sent
  Clock::time_point sent{};  ///< when the generator actually sent it
  Clock::time_point done{};  ///< when its response (or failure) arrived
  int status = 0;
  /// True when the connection was idle at `due`, so any lateness of `sent`
  /// is the generator's own scheduling delay, not a wait on the server.
  bool idle_at_due = false;

  /// Latency counted from the due time: a server stall delays every later
  /// request on the connection and that wait is part of their latency.
  double latency_ms() const { return ms_between(due, done); }
  double lag_ms() const { return ms_between(due, sent); }
};

/// Runs one connection's share of an open-loop schedule: for each due time
/// (ascending) it sleeps until due, calls `send(i)` and records the request.
/// `send` blocks until the response arrives and returns its status. The
/// schedule never slows down when the system does: a late request is sent
/// immediately and its latency still counts from its due time.
std::vector<RequestRecord> run_open_loop(const std::vector<Clock::time_point>& dues,
                                         const std::function<int(std::size_t)>& send);

/// Generator lag over records: how late the generator itself sent requests
/// whose connection was idle at their due time.
Summary generator_lag(const std::vector<RequestRecord>& records);

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The benchmark's last stdout line:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{"name":{"value":..,"unit":".."}}}
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const Metrics& metrics);

/// %.17g rendering, the same digits the gateway writes for stored values.
std::string format_double(double v);

}  // namespace sfbench
