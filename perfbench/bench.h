#pragma once

// The three workloads of the benchmark and what they report.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace sfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artifacts (WAL dirs, Chrome traces), inside the
  /// checkout; created on demand.
  std::string out_dir = ".bench_build/out";
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  /// User operations of the run (waves, ingest requests, reads).
  OpCounts ops;
  /// End-to-end metrics (untraced measurements).
  Metrics e2e;
  /// Per-layer metrics (traced run only).
  Metrics layers;
  /// Run metadata printed beside the result.
  std::map<std::string, std::string> meta;

  /// Records a failed check: the run exits non-zero and its operations
  /// count as failed.
  void fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

RunResult run_paper_lrb(const RunOptions& options);
RunResult run_serve_aqhi(const RunOptions& options);
RunResult run_read_mix(const RunOptions& options);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Median of `repeats` timed calls of `setup`, each discarding its product
/// except the last, which `keep` receives. Set-up time is reported as this
/// median so one slow construction does not move the metric.
template <class Setup, class Keep>
double median_setup_s(int repeats, Setup&& setup, Keep&& keep) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    auto product = setup();
    samples.push_back(s_between(start, Clock::now()));
    if (i + 1 == repeats) keep(std::move(product));
  }
  return median(samples);
}

}  // namespace sfbench
