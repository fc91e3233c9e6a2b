// paper_lrb: the paper path as a closed batch job. LrbParams defaults at
// max_error 0.10, one in-memory shard, no WAL, no metrics registry: 300
// synchronous training waves, build_model, 10-fold CV, then 500 adaptive
// waves with an untimed synchronous shadow stepping in lockstep for the
// measured error (the protocol of core::Experiment::evaluate). The job is
// repeated until the run length is used up.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/change_metric.h"
#include "core/experiment.h"
#include "layers.h"
#include "workloads/lrb/lrb.h"

namespace sfbench {
namespace {

using namespace smartflux;

constexpr std::size_t kTrainWaves = 300;
constexpr std::size_t kEvalWaves = 500;
constexpr double kMaxError = 0.10;
constexpr int kMinJobs = 2;
/// Traced layer self times must add up to the job's end-to-end time within
/// this share (the residue is the benchmark's own timer and span overhead).
constexpr double kLayerSumTolerance = 0.03;

workloads::LrbParams lrb_params(std::uint64_t seed) {
  workloads::LrbParams p;
  p.seed = seed;
  p.max_error = kMaxError;
  return p;
}

/// The workload as built in set-up: the generator plus the raw (shadow) and
/// wrapped (measured) specs over the same precomputed traffic.
struct Setup {
  std::unique_ptr<workloads::LrbWorkload> workload;
  std::unique_ptr<wms::WorkflowSpec> raw;
  std::unique_ptr<wms::WorkflowSpec> wrapped;
};

/// What one job measured.
struct Job {
  double train_s = 0.0, build_s = 0.0, cv_s = 0.0, adaptive_s = 0.0;
  std::vector<double> wave_ms;    ///< SmartFluxEngine::run_wave per adaptive wave
  std::vector<double> result_ms;  ///< wave start -> 5b_travel answers written
  std::size_t adaptive_exec = 0, sync_exec = 0;
  std::size_t executed = 0, skipped = 0;
  std::size_t waves = 0, failed_waves = 0;
  std::map<wms::StepId, std::size_t> violations;

  double wall_s() const { return train_s + build_s + cv_s + adaptive_s; }
  double savings() const {
    return sync_exec == 0 ? 0.0
                          : 1.0 - static_cast<double>(adaptive_exec) /
                                      static_cast<double>(sync_exec);
  }
  double confidence(const wms::StepId& step) const {
    const auto it = violations.find(step);
    const std::size_t bad = it == violations.end() ? 0 : it->second;
    return 1.0 - static_cast<double>(bad) / static_cast<double>(kEvalWaves);
  }
};

Job run_job(const Setup& setup, StepTimes& times, Layers& layers) {
  const wms::WorkflowSpec& spec = *setup.wrapped;
  const std::size_t travel = times.index_of("5b_travel");
  const std::vector<std::size_t> tolerant = spec.error_tolerant_steps();
  const core::SmartFluxOptions options{};
  Job job;

  obs::Span job_span = layers.span("job", layer::kBench);
  ds::DataStore store;
  wms::WorkflowEngine engine(spec, store);
  core::SmartFluxEngine sf(engine, options);

  auto start = Clock::now();
  {
    obs::Span span = layers.span("train", layer::kCore, job_span.id());
    layers.set_parent(span.id());
    for (const auto& r : sf.train(1, kTrainWaves)) job.failed_waves += r.failed_count() > 0;
  }
  auto end = Clock::now();
  job.train_s = s_between(start, end);
  job.waves += kTrainWaves;

  start = Clock::now();
  {
    obs::Span span = layers.span("build_model", layer::kMl, job_span.id());
    sf.build_model();
  }
  end = Clock::now();
  job.build_s = s_between(start, end);

  start = Clock::now();
  {
    obs::Span span = layers.span("cv", layer::kMl, job_span.id());
    const std::size_t folds = std::min(options.cv_folds, sf.knowledge_base().size());
    if (folds >= 2) (void)sf.predictor().test(sf.knowledge_base(), folds);
  }
  end = Clock::now();
  job.cv_s = s_between(start, end);

  // Untimed synchronous shadow on its own store, as Experiment::evaluate.
  ds::DataStore shadow_store;
  wms::WorkflowEngine shadow(*setup.raw, shadow_store);
  wms::SyncController sync;
  shadow.run_waves(1, kTrainWaves, sync);
  const auto metric =
      core::make_error_metric(options.monitor.error, options.monitor.rmse_value_range);

  obs::Span phase = layers.span("adaptive", layer::kBench, job_span.id());
  for (std::size_t k = 0; k < kEvalWaves; ++k) {
    const ds::Timestamp wave = kTrainWaves + 1 + k;
    const wms::WaveResult shadow_result = shadow.run_wave(wave, sync);

    obs::Span wave_span = layers.span("wave", layer::kCore, phase.id());
    layers.set_parent(wave_span.id());
    start = Clock::now();
    const wms::WaveResult result = sf.run_wave(wave);
    end = Clock::now();
    wave_span.finish();
    job.adaptive_s += s_between(start, end);
    job.wave_ms.push_back(ms_between(start, end));
    if (result.executed[travel]) job.result_ms.push_back(ms_between(start, times.last_end[travel]));
    ++job.waves;
    job.failed_waves += result.failed_count() > 0;
    for (auto status : result.status) {
      job.executed += status == wms::StepStatus::kExecuted;
      job.skipped += status == wms::StepStatus::kSkipped;
    }

    for (std::size_t idx : tolerant) {
      job.adaptive_exec += result.executed[idx] ? 1 : 0;
      job.sync_exec += shadow_result.executed[idx] ? 1 : 0;
      const wms::StepSpec& step = spec.step_at(idx);
      double measured = 0.0;
      for (const auto& container : step.outputs) {
        measured = std::max(measured, core::compute_change(shadow_store.snapshot_flat(container),
                                                           store.snapshot_flat(container),
                                                           *metric));
      }
      if (measured > *step.max_error) ++job.violations[step.id];
    }
  }
  return job;
}

/// The reference the job's savings and confidences must equal.
core::ExperimentResult reference_run(const Setup& setup) {
  core::ExperimentOptions options;
  options.training_waves = kTrainWaves;
  options.eval_waves = kEvalWaves;
  core::Experiment experiment(*setup.raw, options);
  return experiment.run_smartflux();
}

}  // namespace

RunResult run_paper_lrb(const RunOptions& options) {
  RunResult out;
  StepTimes times;
  Layers layers(nullptr);
  Setup setup;
  const double setup_s = median_setup_s(
      kSetupRepeats,
      [&] {
        Setup s;
        s.workload = std::make_unique<workloads::LrbWorkload>(lrb_params(options.seed));
        s.raw = std::make_unique<wms::WorkflowSpec>(s.workload->make_workflow());
        s.wrapped = std::make_unique<wms::WorkflowSpec>(wrap_steps(*s.raw, times, layers));
        return s;
      },
      [&](Setup s) { setup = std::move(s); });

  // Untraced jobs give the end-to-end numbers; in a traced run every other
  // job is traced, so both kinds run under the same conditions.
  obs::Tracer tracer(1 << 18);
  std::vector<Job> plain, traced;
  std::vector<double> plain_wall, traced_wall;
  StepTotals traced_steps;
  const auto run_start = Clock::now();
  while (plain.size() < static_cast<std::size_t>(kMinJobs) ||
         (options.trace && traced.size() < static_cast<std::size_t>(kMinJobs)) ||
         s_between(run_start, Clock::now()) < options.seconds) {
    const bool trace_this = options.trace && traced.size() < plain.size();
    layers.set_tracer(trace_this ? &tracer : nullptr);
    const StepTimes before = times;
    Job job = run_job(setup, times, layers);
    if (trace_this) traced_steps.add_delta(before, times);
    (trace_this ? traced_wall : plain_wall).push_back(job.wall_s());
    (trace_this ? traced : plain).push_back(std::move(job));
  }
  layers.set_tracer(nullptr);
  const double run_s = s_between(run_start, Clock::now());

  // Checks: the job reproduces core::Experiment exactly, and the paper's
  // confidence bound holds.
  const core::ExperimentResult ref = reference_run(setup);
  double min_conf = 1.0;
  std::vector<const Job*> all;
  for (const Job& job : plain) all.push_back(&job);
  for (const Job& job : traced) all.push_back(&job);
  for (const Job* job_ptr : all) {
    const Job& job = *job_ptr;
    if (job.savings() != ref.savings_ratio()) {
      out.fail("savings " + format_double(job.savings()) + " != Experiment " +
               format_double(ref.savings_ratio()));
    }
    for (const auto& step : ref.tracked_steps) {
      if (job.confidence(step) != ref.confidence(step)) {
        out.fail("confidence of " + step + " differs from Experiment");
      }
      min_conf = std::min(min_conf, job.confidence(step));
    }
    if (job.failed_waves > 0) out.fail("waves with failed steps");
  }
  if (min_conf < 0.95) out.fail("min confidence " + format_double(min_conf) + " < 0.95");

  std::vector<double> wave_ms, result_ms, ops_per_s;
  for (const Job& job : plain) {
    wave_ms.insert(wave_ms.end(), job.wave_ms.begin(), job.wave_ms.end());
    result_ms.insert(result_ms.end(), job.result_ms.begin(), job.result_ms.end());
    ops_per_s.push_back(static_cast<double>(job.waves) / job.wall_s());
    out.ops.attempted += job.waves;
    out.ops.failed += job.failed_waves;
  }
  const Summary wave = summarize(wave_ms);
  const Summary result = summarize(result_ms);
  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["ops_per_s"] = {median(ops_per_s), "1/s"};
  out.e2e["op_p50_ms"] = {wave.p50, "ms"};
  out.e2e["op_tail_ms"] = {wave.tail.value, "ms"};
  out.e2e["result_p50_ms"] = {result.p50, "ms"};
  out.e2e["result_tail_ms"] = {result.tail.value, "ms"};
  out.e2e["ok_share"] = {out.ops.ok_share(), "ratio"};

  out.meta["jobs"] = std::to_string(plain.size());
  out.meta["run_s"] = format_double(run_s);
  out.meta["wall_s"] = format_double(median(plain_wall));
  out.meta["savings_pct"] = format_double(100.0 * ref.savings_ratio());
  out.meta["min_confidence"] = format_double(min_conf);
  out.meta["op_tail_pct"] = format_double(wave.tail.percentile);
  out.meta["op_tail_samples"] = std::to_string(wave.tail.count);
  out.meta["result_tail_pct"] = format_double(result.tail.percentile);
  out.meta["result_tail_samples"] = std::to_string(result.tail.count);

  if (!options.trace) return out;

  // Per-layer numbers from the traced jobs' spans.
  if (tracer.dropped() > 0) out.fail("tracer dropped " + std::to_string(tracer.dropped()));
  const auto spans = tracer.snapshot();
  const auto self = self_seconds(spans);
  const double n = static_cast<double>(traced.size());
  double traced_e2e = 0.0;
  for (const Job& job : traced) traced_e2e += job.wall_s();
  const double layer_sum = sum_self(spans, self, layer::kCore) +
                           sum_self(spans, self, layer::kMl) +
                           sum_self(spans, self, layer::kWorkloads);
  const double gap = std::abs(layer_sum - traced_e2e) / traced_e2e;
  if (gap > kLayerSumTolerance) {
    out.fail("layer self times sum to " + format_double(layer_sum) + " s, end-to-end " +
             format_double(traced_e2e) + " s");
  }
  auto& L = out.layers;
  std::vector<double> train_s;
  for (const Job& job : traced) train_s.push_back(job.train_s);
  L["core.train_s"] = {median(train_s), "s"};
  L["core.train_self_s"] = {sum_self(spans, self, layer::kCore, "train") / n, "s"};
  L["ml.build_model_s"] = {sum_self(spans, self, layer::kMl, "build_model") / n, "s"};
  L["ml.cv_s"] = {sum_self(spans, self, layer::kMl, "cv") / n, "s"};
  L["core.wave_self_ms"] = {1e3 * median(each_self(spans, self, layer::kCore, "wave")), "ms"};
  L["obs.layer_sum_gap_pct"] = {100.0 * gap, "%"};
  L["obs.trace_overhead_pct"] = {100.0 * (median(traced_wall) / median(plain_wall) - 1.0), "%"};
  L["obs.spans"] = {static_cast<double>(spans.size()), "count"};
  L["smartflux.savings_pct"] = {100.0 * ref.savings_ratio(), "%"};
  L["smartflux.min_confidence"] = {min_conf, "ratio"};
  L["wms.steps_executed"] = {static_cast<double>(traced.front().executed), "count"};
  L["wms.steps_skipped"] = {static_cast<double>(traced.front().skipped), "count"};
  traced_steps.report(L, n);
  write_trace(tracer, options.out_dir + "/trace-paper_lrb-" + std::to_string(options.seed) +
                          ".json");
  return out;
}

}  // namespace sfbench
