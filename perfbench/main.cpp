// sfbench: runs one workload of the repository benchmark and prints its
// result as the last stdout line (see perfbench/README.md).
//
//   sfbench --workload <paper_lrb|serve_aqhi|read_mix> --seed <n> --seconds <s>
//           --trace <0|1> [--out-dir <dir>] [--git-rev <rev>]
//
// Exit code 0 when every check passed, 1 when a check failed (the result
// line is still printed, with "correct": false), 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "layers.h"

#ifndef SFBENCH_BUILD_TYPE
#define SFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sfbench;

/// End-to-end metrics: every workload reports each one (see README.md for
/// what "operation" and "result" mean per workload).
const std::vector<std::pair<std::string, std::string>>& e2e_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},      {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},      {"result_p50_ms", "ms"},   {"result_tail_ms", "ms"},
      {"ok_share", "ratio"},
  };
  return catalog;
}

/// Per-layer metrics. A layer a workload does not exercise reports 0.
std::vector<std::pair<std::string, std::string>> layer_catalog() {
  std::vector<std::pair<std::string, std::string>> catalog = {
      {"core.train_s", "s"},
      {"core.train_self_s", "s"},
      {"core.wave_self_ms", "ms"},
      {"ml.build_model_s", "s"},
      {"ml.cv_s", "s"},
      {"wms.steps_executed", "count"},
      {"wms.steps_skipped", "count"},
      {"smartflux.savings_pct", "%"},
      {"smartflux.min_confidence", "ratio"},
      {"net.bridge_drain_ms", "ms"},
      {"net.rows_per_wave", "count"},
      {"net.refusals", "count"},
      {"net.parse_errors", "count"},
      {"net.slow_disconnects", "count"},
      {"net.get_share_pct", "%"},
      {"net.scan_share_pct", "%"},
      {"ds.get_us", "us"},
      {"ds.snapshot_ms", "ms"},
      {"ds.snapshot_small_ms", "ms"},
      {"driver.busy_share", "ratio"},
      {"driver.backlog_max", "count"},
      {"gen.lag_tail_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.layer_sum_gap_pct", "%"},
      {"obs.spans", "count"},
  };
  for (const auto& id : all_step_ids()) catalog.emplace_back("workloads.step_s." + id, "s");
  for (const auto& id : all_step_ids()) {
    catalog.emplace_back("workloads.executions." + id, "count");
  }
  return catalog;
}

/// Keeps exactly the catalog's metrics, in catalog units; a missing one is
/// either filled with 0 (layers) or reported as a failure (end to end).
Metrics conform(const Metrics& measured,
                const std::vector<std::pair<std::string, std::string>>& catalog,
                bool missing_is_zero, RunResult& result) {
  Metrics out;
  for (const auto& [name, unit] : catalog) {
    const auto it = measured.find(name);
    if (it != measured.end()) {
      out[name] = {it->second.value, unit};
    } else if (missing_is_zero) {
      out[name] = {0.0, unit};
    } else {
      result.fail("workload did not measure " + name);
      out[name] = {0.0, unit};
    }
  }
  for (const auto& [name, metric] : measured) {
    if (out.find(name) == out.end()) result.fail("metric " + name + " is not in the catalog");
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sfbench: %s\nusage: sfbench --workload <paper_lrb|serve_aqhi|read_mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-rev <rev>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string git_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");

  RunResult result;
  try {
    if (options.workload == "paper_lrb") {
      result = run_paper_lrb(options);
    } else if (options.workload == "serve_aqhi") {
      result = run_serve_aqhi(options);
    } else if (options.workload == "read_mix") {
      result = run_read_mix(options);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
    if (result.ops.attempted == 0) result.ops.attempted = 1;
  }

  const Metrics metrics = options.trace ? conform(result.layers, layer_catalog(), true, result)
                                        : conform(result.e2e, e2e_catalog(), false, result);
  if (!result.correct) result.ops.failed = result.ops.attempted;

  result.meta["workload"] = options.workload;
  result.meta["seed"] = std::to_string(options.seed);
  result.meta["trace"] = options.trace ? "1" : "0";
  result.meta["seconds"] = format_double(options.seconds);
  result.meta["hardware_threads"] = std::to_string(std::thread::hardware_concurrency());
  result.meta["build_type"] = SFBENCH_BUILD_TYPE;
  result.meta["git_rev"] = git_rev;
  std::string meta = "meta:";
  for (const auto& [key, value] : result.meta) meta += " " + key + "=" + value;
  std::printf("%s\n", meta.c_str());
  for (const auto& why : result.failures) std::fprintf(stderr, "sfbench: check failed: %s\n", why.c_str());
  std::printf("%s\n",
              result_json(result.correct, result.ops.attempted, result.ops.failed, metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
