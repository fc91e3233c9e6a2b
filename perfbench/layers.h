#pragma once

// Layer timing from outside the system: StepFn wrappers, optional obs::Tracer
// spans around every call the benchmark makes into a layer, and the self-time
// arithmetic of the traced run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "obs/trace.h"
#include "wms/workflow_spec.h"

namespace sfbench {

namespace obs = smartflux::obs;
namespace wms = smartflux::wms;

/// Span categories, one per module the benchmark calls into.
namespace layer {
inline constexpr const char* kBench = "bench";  ///< the benchmark's own phases
inline constexpr const char* kCore = "core";
inline constexpr const char* kMl = "ml";
inline constexpr const char* kWorkloads = "workloads";
inline constexpr const char* kNet = "net";
inline constexpr const char* kDs = "ds";
}  // namespace layer

/// Spans of one run. Without a tracer every span is inert, so the untraced
/// run pays one branch per call site.
class Layers {
 public:
  explicit Layers(obs::Tracer* tracer) : tracer_(tracer) {}

  obs::Span span(const std::string& name, const char* category, std::uint64_t parent = 0) {
    return obs::start_span(tracer_, name, category, parent);
  }
  bool traced() const noexcept { return tracer_ != nullptr; }
  /// Switches tracing on (non-null) or off between phases of one run.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Parent of the step spans recorded next (the current wave or phase span).
  void set_parent(std::uint64_t id) noexcept { parent_ = id; }
  std::uint64_t parent() const noexcept { return parent_; }

 private:
  obs::Tracer* tracer_;
  std::uint64_t parent_ = 0;
};

/// Time and executions per step, filled by the wrappers of wrap_steps().
/// Steps run on the thread that drives the waves, so no locking.
struct StepTimes {
  std::vector<std::string> ids;
  std::vector<double> seconds;
  std::vector<std::uint64_t> executions;
  /// End of the most recent execution of each step (result-latency probes).
  std::vector<Clock::time_point> last_end;

  std::size_t index_of(const std::string& id) const;
  void reset();
};

/// Step time and executions summed over the traced part of a run.
struct StepTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, double> executions;

  /// Adds everything `times` recorded.
  void add(const StepTimes& times);
  /// Adds what `times` gained since `before` (same spec).
  void add_delta(const StepTimes& before, const StepTimes& after);
  /// Writes workloads.step_s.<id> and workloads.executions.<id>, each
  /// divided by `per` (e.g. the number of traced jobs).
  void report(Metrics& out, double per) const;
};

/// Rebuilds `spec` with every StepFn wrapped in a timer (and a span parented
/// to layers.parent() when traced). The wrapped spec has the same ids, DAG,
/// containers and bounds; the wrappers do not change what a step computes.
/// `times` and `layers` must outlive every engine running the result.
wms::WorkflowSpec wrap_steps(const wms::WorkflowSpec& spec, StepTimes& times, Layers& layers);

/// Self time of each span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once). Keyed by id.
std::map<std::uint64_t, double> self_seconds(const std::vector<obs::SpanRecord>& spans);

/// Sum of self seconds of the spans whose category is `category` and whose
/// name starts with `name_prefix`.
double sum_self(const std::vector<obs::SpanRecord>& spans,
                const std::map<std::uint64_t, double>& self, const std::string& category,
                const std::string& name_prefix = "");

/// Self seconds of each span matching category/prefix, in record order.
std::vector<double> each_self(const std::vector<obs::SpanRecord>& spans,
                              const std::map<std::uint64_t, double>& self,
                              const std::string& category, const std::string& name_prefix = "");

/// Every step id of the LRB and AQHI workflows (the per-step metric names).
const std::vector<std::string>& all_step_ids();

/// Writes the traced run's spans as a Chrome trace file.
void write_trace(const obs::Tracer& tracer, const std::string& path);

}  // namespace sfbench
