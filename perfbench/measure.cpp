#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace sfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

Tail tail_of(const std::vector<double>& values) {
  static constexpr double kLadder[] = {99.9, 99.0, 90.0};
  Tail tail;
  tail.count = values.size();
  tail.percentile = 50.0;
  for (double p : kLadder) {
    // Samples strictly above the percentile's rank: n·(1 − p/100), rounded
    // down so a fractional sample never counts.
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(values.size()) * (100.0 - p) / 100.0 + 1e-9));
    if (beyond >= kTailMinBeyond) {
      tail.percentile = p;
      tail.beyond = beyond;
      break;
    }
  }
  if (tail.percentile == 50.0) tail.beyond = values.size() / 2;
  tail.value = percentile(values, tail.percentile);
  return tail;
}

namespace {
std::size_t tail_windows(const Tail& tail) {
  if (tail.percentile == 50.0) return 1;
  return std::clamp<std::size_t>(tail.beyond / kTailMinBeyond, 1, kTailWindows);
}
}  // namespace

Tail windowed_tail(const std::vector<double>& in_time_order) {
  Tail tail = tail_of(in_time_order);
  const std::size_t windows = tail_windows(tail);
  if (windows == 1) return tail;
  std::vector<double> values;
  const std::size_t n = in_time_order.size();
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = in_time_order.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    const auto last = in_time_order.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    values.push_back(percentile(std::vector<double>(first, last), tail.percentile));
  }
  tail.value = median(values);
  return tail;
}

Summary summarize(const std::vector<double>& in_time_order) {
  Summary s;
  s.p50 = median(in_time_order);
  s.tail = windowed_tail(in_time_order);
  s.windows = tail_windows(s.tail);
  return s;
}

double OpCounts::failed_share() const {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

double OpCounts::ok_share() const { return attempted == 0 ? 0.0 : 1.0 - failed_share(); }

std::vector<RequestRecord> run_open_loop(const std::vector<Clock::time_point>& dues,
                                         const std::function<int(std::size_t)>& send) {
  std::vector<RequestRecord> records;
  records.reserve(dues.size());
  Clock::time_point free_at{};  // when the connection finished its last request
  for (std::size_t i = 0; i < dues.size(); ++i) {
    RequestRecord r;
    r.due = dues[i];
    r.idle_at_due = free_at <= r.due;
    if (Clock::now() < r.due) std::this_thread::sleep_until(r.due);
    r.sent = Clock::now();
    r.status = send(i);
    r.done = Clock::now();
    free_at = r.done;
    records.push_back(r);
  }
  return records;
}

Summary generator_lag(const std::vector<RequestRecord>& records) {
  std::vector<double> lag;
  for (const auto& r : records) {
    if (r.idle_at_due) lag.push_back(r.lag_ms());
  }
  return summarize(lag);
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    // Non-finite values are not JSON; report them as 0 (never expected).
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    out += "\"" + name + "\": {\"value\": " + format_double(v) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace sfbench
