#include "wms/engine.h"

#include <condition_variable>
#include <map>
#include <thread>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/hashing.h"
#include "common/logging.h"
#include "datastore/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wms/journal.h"
#include "wms/watchdog.h"

namespace smartflux::wms {

namespace {

const char* status_label(StepStatus status) noexcept {
  switch (status) {
    case StepStatus::kNotEligible: return "not_eligible";
    case StepStatus::kSkipped: return "skipped";
    case StepStatus::kExecuted: return "executed";
    case StepStatus::kFailed: return "failed";
    case StepStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

constexpr std::size_t kStatusCount = 5;

double to_seconds(std::chrono::nanoseconds ns) noexcept {
  return static_cast<double>(ns.count()) * 1e-9;
}

}  // namespace

/// Handles resolved once at construction; the per-wave path only touches
/// lock-free instruments. Step series carry {workflow, step} labels, status
/// counters additionally {status}.
struct WorkflowEngine::EngineObs {
  obs::Counter* waves = nullptr;
  obs::Gauge* ingest_queue_depth = nullptr;
  obs::Histogram* wave_duration = nullptr;
  std::vector<std::array<obs::Counter*, kStatusCount>> status;  // [step][StepStatus]
  std::vector<obs::Counter*> retry_attempts;                    // attempts beyond the first
  std::vector<obs::Counter*> quarantine_opens;
  std::vector<obs::Histogram*> step_duration;

  EngineObs(obs::MetricsRegistry& registry, const WorkflowSpec& spec) {
    const obs::Labels wf{{"workflow", spec.name()}};
    waves = &registry.counter("sf_wms_waves_total", wf, "Waves run by the workflow engine");
    ingest_queue_depth = &registry.gauge("sf_wms_ingest_queue_depth", wf,
                                         "Ingested-not-yet-computed waves (pressured pipeline)");
    wave_duration = &registry.histogram("sf_wms_wave_duration_seconds", obs::duration_buckets(),
                                        wf, "Wall-clock duration of one wave");
    status.resize(spec.size());
    retry_attempts.resize(spec.size());
    quarantine_opens.resize(spec.size());
    step_duration.resize(spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
      const std::string& id = spec.step_at(i).id;
      for (std::size_t s = 0; s < kStatusCount; ++s) {
        status[i][s] = &registry.counter(
            "sf_wms_step_status_total",
            {{"workflow", spec.name()},
             {"step", id},
             {"status", status_label(static_cast<StepStatus>(s))}},
            "Per-step terminal status counts per wave");
      }
      retry_attempts[i] = &registry.counter(
          "sf_wms_step_retry_attempts_total", {{"workflow", spec.name()}, {"step", id}},
          "Step attempts beyond the first of each wave (retries)");
      quarantine_opens[i] = &registry.counter(
          "sf_wms_quarantine_opens_total", {{"workflow", spec.name()}, {"step", id}},
          "Times the step's circuit breaker opened");
      step_duration[i] = &registry.histogram(
          "sf_wms_step_duration_seconds", obs::duration_buckets(),
          {{"workflow", spec.name()}, {"step", id}},
          "Wall-clock step time per wave incl. failed attempts and backoff");
    }
  }
};

char step_status_char(StepStatus status) noexcept {
  switch (status) {
    case StepStatus::kNotEligible: return '-';
    case StepStatus::kSkipped: return 's';
    case StepStatus::kExecuted: return 'X';
    case StepStatus::kFailed: return 'F';
    case StepStatus::kQuarantined: return 'Q';
  }
  return '?';
}

std::optional<StepStatus> step_status_from_char(char c) noexcept {
  switch (c) {
    case '-': return StepStatus::kNotEligible;
    case 's': return StepStatus::kSkipped;
    case 'X': return StepStatus::kExecuted;
    case 'F': return StepStatus::kFailed;
    case 'Q': return StepStatus::kQuarantined;
    default: return std::nullopt;
  }
}

std::size_t WaveResult::executed_count() const noexcept {
  std::size_t n = 0;
  for (bool e : executed) n += e ? 1 : 0;
  return n;
}

std::size_t WaveResult::failed_count() const noexcept {
  std::size_t n = 0;
  for (bool f : failed) n += f ? 1 : 0;
  return n;
}

std::size_t WaveResult::quarantined_count() const noexcept {
  std::size_t n = 0;
  for (StepStatus s : status) n += s == StepStatus::kQuarantined ? 1 : 0;
  return n;
}

WorkflowEngine::WorkflowEngine(WorkflowSpec spec, ds::DataStore& store)
    : WorkflowEngine(std::move(spec), store, Options{}) {}

WorkflowEngine::WorkflowEngine(WorkflowSpec spec, ds::DataStore& store, Options options)
    : spec_(std::move(spec)),
      store_(&store),
      options_(std::move(options)),
      exec_counts_(spec_.size(), 0),
      failure_counts_(spec_.size(), 0),
      fault_states_(spec_.size()),
      step_hashes_(spec_.size(), 0),
      last_exec_wave_(spec_.size()),
      step_starts_(spec_.size()) {
  if (options_.worker_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  probe_gate_.reset(spec_.size());
  for (std::size_t i = 0; i < spec_.size(); ++i) {
    step_hashes_[i] = std::hash<std::string>{}(spec_.step_at(i).id);
  }
  if (options_.watchdog != nullptr) {
    watchdog_keys_.reserve(spec_.size());
    for (std::size_t i = 0; i < spec_.size(); ++i) {
      watchdog_keys_.push_back(spec_.name() + "/" + spec_.step_at(i).id);
    }
  }
  if (options_.tracer != nullptr) {
    step_span_names_.reserve(spec_.size());
    for (std::size_t i = 0; i < spec_.size(); ++i) {
      step_span_names_.push_back("step:" + spec_.step_at(i).id);
    }
  }
  if (options_.metrics != nullptr) {
    obs_ = std::make_unique<EngineObs>(*options_.metrics, spec_);
  }
}

WorkflowEngine::~WorkflowEngine() = default;

bool WorkflowEngine::eligible(std::size_t index) const {
  // Eligibility: all predecessors must have completed at least one execution
  // ever (paper §2 triggering semantics).
  for (std::size_t pred : spec_.predecessors(index)) {
    if (exec_counts_[pred] == 0) return false;
  }
  return true;
}

const RetryPolicy& WorkflowEngine::policy_for(std::size_t index) const {
  const StepSpec& step = spec_.step_at(index);
  return step.retry ? *step.retry : options_.retry;
}

WaveResult WorkflowEngine::make_result(ds::Timestamp wave, std::size_t steps) {
  WaveResult result;
  result.wave = wave;
  result.executed.assign(steps, false);
  result.durations.assign(steps, std::chrono::nanoseconds{0});
  result.status.assign(steps, StepStatus::kNotEligible);
  result.failed.assign(steps, false);
  result.stale.assign(steps, false);
  result.errors.assign(steps, std::string{});
  result.attempts.assign(steps, 0);
  return result;
}

WaveResult WorkflowEngine::run_wave(ds::Timestamp wave, TriggerController& controller) {
  if (last_wave_ && wave <= *last_wave_) {
    throw InvalidArgument("waves must be strictly increasing (got " + std::to_string(wave) +
                          " after " + std::to_string(*last_wave_) + ")");
  }
  last_wave_ = wave;
  ++waves_run_;
  const bool observed = obs_ != nullptr || options_.tracer != nullptr;
  std::chrono::steady_clock::time_point wave_start{};
  if (observed) wave_start = std::chrono::steady_clock::now();
  WaveResult result =
      pool_ ? run_wave_parallel(wave, controller) : run_wave_serial(wave, controller);
  mark_stale(result);
  // Wave-boundary consistency: stamp the datastore's wave commit (fsyncing
  // the WAL) *before* the journal record, so every journaled wave also has
  // durable data. Resume takes min(journal wave, WAL durable wave); a crash
  // between the two stamps just re-runs one wave.
  store_->commit_wave(result.wave);
  if (journal_ != nullptr) journal_->append(WaveRecord{result.wave, result.status});
  if (observed) record_wave_observability(result, wave_start);
  return result;
}

void WorkflowEngine::record_wave_observability(
    const WaveResult& result, std::chrono::steady_clock::time_point wave_start) {
  const auto wave_end = std::chrono::steady_clock::now();
  if (options_.tracer != nullptr) {
    // One batch per wave: ids are drawn in a block and all spans land under
    // a single tracer lock instead of one lock + ordinal lookup per span.
    obs::Tracer& tracer = *options_.tracer;
    const auto since_epoch = [&tracer](std::chrono::steady_clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - tracer.epoch());
    };
    trace_batch_.reserve(spec_.size() + 1);
    const std::uint64_t wave_span = tracer.allocate_ids(spec_.size() + 1);
    obs::SpanRecord wave_record;
    wave_record.id = wave_span;
    wave_record.name = "wave:" + std::to_string(result.wave);
    wave_record.category = "wms";
    wave_record.start = since_epoch(wave_start);
    wave_record.duration = wave_end - wave_start;
    trace_batch_.push_back(std::move(wave_record));
    for (std::size_t i = 0; i < spec_.size(); ++i) {
      if (result.attempts[i] == 0) continue;
      obs::SpanRecord step_record;
      step_record.id = wave_span + 1 + i;
      step_record.parent = wave_span;
      step_record.name = step_span_names_[i];
      step_record.category = "wms";
      step_record.start = since_epoch(step_starts_[i]);
      step_record.duration = result.durations[i];
      trace_batch_.push_back(std::move(step_record));
    }
    tracer.record_all(trace_batch_);
  }
  if (obs_ == nullptr) return;
  // The rollup runs serially after each wave and the engine's {workflow,
  // step} series have no other writers, so the single-writer (plain
  // load+store) instrument path is safe and skips ~3 locked RMWs per step.
  obs_->waves->inc_single_writer();
  obs_->wave_duration->observe_single_writer(to_seconds(wave_end - wave_start));
  for (std::size_t i = 0; i < spec_.size(); ++i) {
    obs_->status[i][static_cast<std::size_t>(result.status[i])]->inc_single_writer();
    if (result.attempts[i] > 1) {
      obs_->retry_attempts[i]->inc_single_writer(result.attempts[i] - 1);
    }
    if (result.attempts[i] > 0) {
      obs_->step_duration[i]->observe_single_writer(to_seconds(result.durations[i]));
    }
  }
}

WaveResult WorkflowEngine::run_wave_serial(ds::Timestamp wave, TriggerController& controller) {
  WaveResult result = make_result(wave, spec_.size());
  controller.begin_wave(wave);
  for (std::size_t index : spec_.topological_order()) {
    process_step(index, wave, result, controller);
  }
  controller.end_wave(wave);
  return result;
}

void WorkflowEngine::process_step(std::size_t index, ds::Timestamp wave, WaveResult& result,
                                  TriggerController& controller) {
  bool probe = false;
  if (quarantine_gate(index, &probe)) {
    result.status[index] = StepStatus::kQuarantined;
    apply_status(index, StepStatus::kQuarantined, wave, false);
    return;
  }
  if (!eligible(index)) {  // status stays kNotEligible
    if (probe) probe_gate_.release(index);
    return;
  }
  const StepSpec& step = spec_.step_at(index);
  const bool run = !step.tolerates_error() || controller.should_execute(spec_, index, wave);
  if (!run) {
    result.status[index] = StepStatus::kSkipped;
    if (probe) probe_gate_.release(index);
    return;
  }
  AttemptOutcome outcome;
  try {
    outcome = run_step_attempts(index, wave, probe ? 1 : 0);
  } catch (...) {
    if (probe) probe_gate_.release(index);
    throw;  // propagating policy: the claim must not outlive the wave
  }
  if (outcome.success) {
    record_execution(index, wave, result, outcome, controller);
  } else {
    record_outcome(index, result, StepStatus::kFailed, outcome);
    apply_status(index, StepStatus::kFailed, wave, false);
  }
  // The probe's outcome is folded into the breaker state above; only now may
  // the next wave claim a fresh probe.
  if (probe) probe_gate_.release(index);
}

WaveResult WorkflowEngine::run_wave_parallel(ds::Timestamp wave, TriggerController& controller) {
  WaveResult result = make_result(wave, spec_.size());

  controller.begin_wave(wave);
  for (const auto& level : spec_.levels()) {
    // Phase 1 (serial, spec order): quarantine gates and triggering
    // decisions. Same-level steps cannot depend on one another, so their
    // inputs are already final.
    std::vector<std::size_t> to_run;
    std::vector<bool> probes;
    for (std::size_t index : level) {
      bool probe = false;
      if (quarantine_gate(index, &probe)) {
        result.status[index] = StepStatus::kQuarantined;
        apply_status(index, StepStatus::kQuarantined, wave, false);
        continue;
      }
      if (!eligible(index)) {
        if (probe) probe_gate_.release(index);
        continue;
      }
      const StepSpec& step = spec_.step_at(index);
      if (!step.tolerates_error() || controller.should_execute(spec_, index, wave)) {
        to_run.push_back(index);
        probes.push_back(probe);
      } else {
        result.status[index] = StepStatus::kSkipped;
        if (probe) probe_gate_.release(index);
      }
    }

    // Phase 2 (parallel): execute the approved steps of this level. The
    // retry loop runs inside each task; under a propagating policy the first
    // exhausted step's exception surfaces from run_all after the level
    // completes (failure counters are already recorded by then).
    std::vector<AttemptOutcome> outcomes(to_run.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(to_run.size());
    for (std::size_t k = 0; k < to_run.size(); ++k) {
      tasks.push_back([this, wave, index = to_run[k], cap = probes[k] ? std::size_t{1} : 0,
                       &outcomes, k] { outcomes[k] = run_step_attempts(index, wave, cap); });
    }
    try {
      pool_->run_all(std::move(tasks));
    } catch (...) {
      // Propagating failure aborts the wave: don't leave probe claims behind.
      for (std::size_t k = 0; k < to_run.size(); ++k) {
        if (probes[k]) probe_gate_.release(to_run[k]);
      }
      throw;
    }

    // Phase 3 (serial, spec order): bookkeeping and notifications.
    for (std::size_t k = 0; k < to_run.size(); ++k) {
      const std::size_t index = to_run[k];
      if (outcomes[k].success) {
        record_execution(index, wave, result, outcomes[k], controller);
      } else {
        record_outcome(index, result, StepStatus::kFailed, outcomes[k]);
        apply_status(index, StepStatus::kFailed, wave, false);
      }
      if (probes[k]) probe_gate_.release(index);
    }
  }
  controller.end_wave(wave);
  return result;
}

bool WorkflowEngine::quarantine_gate(std::size_t index, bool* probe) {
  const StepFaultState& fs = fault_states_[index];
  if (!fs.quarantined) return false;
  // Half-open admission is a CAS, not a cooldown comparison alone: with
  // pipelined or overlapping waves two gate evaluations can both see the
  // cooldown elapsed, and only the CAS winner may probe — the loser sits
  // the wave out as still-quarantined.
  if (fs.waves_in_quarantine >= options_.quarantine.cooldown_waves &&
      probe_gate_.try_claim(index)) {
    *probe = true;  // half-open: one in-flight attempt, released by the caller
    return false;
  }
  return true;
}

WorkflowEngine::AttemptOutcome WorkflowEngine::run_step_attempts(std::size_t index,
                                                                 ds::Timestamp wave,
                                                                 std::size_t attempts_cap) {
  const StepSpec& step = spec_.step_at(index);
  const RetryPolicy& policy = policy_for(index);
  std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);
  if (attempts_cap > 0) max_attempts = std::min(max_attempts, attempts_cap);

  AttemptOutcome out;
  const auto start = std::chrono::steady_clock::now();
  out.start = start;
  // Closes the watchdog bracket on every exit path (success return, retry,
  // propagating throw) *before* the attempt's stack token dies — the
  // watchdog only dereferences the token while the bracket is open.
  struct WatchdogBracket {
    StallWatchdog* watchdog = nullptr;
    std::uint64_t ticket = 0;
    std::chrono::steady_clock::time_point attempt_start{};
    bool success = false;
    ~WatchdogBracket() {
      if (watchdog == nullptr) return;
      watchdog->end_attempt(ticket,
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - attempt_start),
                            success);
    }
  };
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      const auto pause =
          policy.backoff_before(attempt, options_.retry_seed, step_hashes_[index], wave);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
    ++out.attempts;

    CancellationToken token;
    if (policy.timeout.count() > 0) {
      token.set_deadline(CancellationToken::Clock::now() + policy.timeout);
    }
    WatchdogBracket bracket;  // declared after token: unregisters first
    if (options_.watchdog != nullptr) {
      bracket.watchdog = options_.watchdog;
      bracket.attempt_start = std::chrono::steady_clock::now();
      bracket.ticket = options_.watchdog->begin_attempt(watchdog_keys_[index], wave, &token);
    }
    FaultInjector* injector = options_.fault_injector;
    ds::Client client =
        injector != nullptr && injector->should_fail_put(step.id, wave, attempt)
            ? ds::Client(*store_, wave,
                         [id = step.id, wave, attempt](const ds::TableName& table,
                                                       const ds::RowKey& row,
                                                       const ds::ColumnKey& column) {
                           throw InjectedFault("injected datastore failure: put " + table + "/" +
                                               row + "/" + column + " (step '" + id + "', wave " +
                                               std::to_string(wave) + ", attempt " +
                                               std::to_string(attempt) + ")");
                         })
            : ds::Client(*store_, wave);
    StepContext ctx{client, wave, step.id, &token};
    try {
      if (injector != nullptr) injector->on_attempt(step.id, wave, attempt, &token);
      step.fn(ctx);
      if (token.expired()) {
        throw Timeout("step '" + step.id + "' exceeded its " +
                      std::to_string(policy.timeout.count()) + "ms deadline at wave " +
                      std::to_string(wave));
      }
      out.success = true;
      bracket.success = true;
      out.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start);
      return out;
    } catch (const std::exception& e) {
      out.error = e.what();
      SF_LOG_WARN("wms") << "step '" << step.id << "' failed at wave " << wave << " (attempt "
                         << attempt << "/" << max_attempts << "): " << e.what();
      if (attempt == max_attempts) {
        out.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start);
        {
          std::lock_guard lock(failure_mutex_);
          ++failure_counts_[index];
          last_failure_ = out.error;
        }
        if (policy.propagate) throw;
        return out;
      }
    } catch (...) {
      out.error = "unknown exception";
      SF_LOG_WARN("wms") << "step '" << step.id << "' failed at wave " << wave
                         << " with a non-std exception (attempt " << attempt << "/"
                         << max_attempts << ")";
      if (attempt == max_attempts) {
        out.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start);
        {
          std::lock_guard lock(failure_mutex_);
          ++failure_counts_[index];
          last_failure_ = out.error;
        }
        if (policy.propagate) throw;
        return out;
      }
    }
  }
  return out;  // unreachable; the loop always returns or throws
}

void WorkflowEngine::record_outcome(std::size_t index, WaveResult& result, StepStatus status,
                                    const AttemptOutcome& outcome) {
  result.status[index] = status;
  result.failed[index] = status == StepStatus::kFailed;
  result.durations[index] = outcome.elapsed;
  result.attempts[index] = outcome.attempts;
  result.errors[index] = outcome.error;
  if (options_.tracer != nullptr) step_starts_[index] = outcome.start;
}

void WorkflowEngine::record_execution(std::size_t index, ds::Timestamp wave, WaveResult& result,
                                      const AttemptOutcome& outcome,
                                      TriggerController& controller) {
  const StepSpec& step = spec_.step_at(index);
  result.executed[index] = true;
  result.status[index] = StepStatus::kExecuted;
  result.durations[index] = outcome.elapsed;
  result.attempts[index] = outcome.attempts;
  if (options_.tracer != nullptr) step_starts_[index] = outcome.start;
  apply_status(index, StepStatus::kExecuted, wave, false);

  controller.on_step_executed(spec_, index, wave);
  for (const auto& listener : listeners_) listener(step.id, wave);
  SF_LOG_DEBUG("wms") << "wave " << wave << ": executed step '" << step.id << "'";
}

void WorkflowEngine::apply_status(std::size_t index, StepStatus status, ds::Timestamp wave,
                                  bool count_failure) {
  StepFaultState& fs = fault_states_[index];
  switch (status) {
    case StepStatus::kExecuted:
      ++exec_counts_[index];
      ++total_executions_;
      last_exec_wave_[index] = wave;
      fs.consecutive_failures = 0;
      if (fs.quarantined) {
        SF_LOG_INFO("wms") << "step '" << spec_.step_at(index).id
                           << "' probe succeeded at wave " << wave << " — circuit closed";
      }
      fs.quarantined = false;
      fs.waves_in_quarantine = 0;
      break;
    case StepStatus::kFailed:
      if (count_failure) ++failure_counts_[index];  // live path counts in run_step_attempts
      ++fs.consecutive_failures;
      if (fs.quarantined) {
        // Half-open probe failed: the circuit stays open, cool-down restarts.
        fs.waves_in_quarantine = 0;
      } else if (options_.quarantine.enabled() &&
                 fs.consecutive_failures >= options_.quarantine.failure_threshold) {
        fs.quarantined = true;
        fs.waves_in_quarantine = 0;
        ++fs.times_quarantined;
        // Counted here (not in the wave rollup) so journal replay restores
        // the open count alongside the rest of the breaker state.
        if (obs_ != nullptr) obs_->quarantine_opens[index]->inc();
        SF_LOG_WARN("wms") << "step '" << spec_.step_at(index).id << "' quarantined at wave "
                           << wave << " after " << fs.consecutive_failures
                           << " consecutive failed waves";
      }
      break;
    case StepStatus::kQuarantined:
      ++fs.waves_in_quarantine;
      break;
    case StepStatus::kNotEligible:
    case StepStatus::kSkipped:
      break;
  }
}

void WorkflowEngine::mark_stale(WaveResult& result) const {
  for (std::size_t index : spec_.topological_order()) {
    for (std::size_t pred : spec_.predecessors(index)) {
      const StepStatus ps = result.status[pred];
      if (ps == StepStatus::kQuarantined || ps == StepStatus::kFailed || result.stale[pred]) {
        result.stale[index] = true;
        break;
      }
    }
  }
}

std::vector<WaveResult> WorkflowEngine::run_waves(ds::Timestamp first, std::size_t count,
                                                  TriggerController& controller) {
  std::vector<WaveResult> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) out.push_back(run_wave(first + k, controller));
  return out;
}

std::vector<WaveResult> WorkflowEngine::run_waves_pipelined(ds::Timestamp first,
                                                            std::size_t count,
                                                            TriggerController& controller,
                                                            const WaveIngest& ingest,
                                                            const PressureOptions& pressure,
                                                            PressureStats* stats_out) {
  SF_CHECK(static_cast<bool>(ingest), "ingest must be callable");
  if (!pressure.enabled()) {
    throw InvalidArgument("pipelining needs high_watermark >= 1");
  }
  if (pressure.overflow != OverflowPolicy::kBlock) {
    throw InvalidArgument("pipelining needs OverflowPolicy::kBlock: every admitted wave runs, "
                          "so refuse load at admission, before the engine");
  }
  if (pressure.high_watermark > store_->max_versions()) {
    throw InvalidArgument("high_watermark " + std::to_string(pressure.high_watermark) +
                          " needs a store with max_versions >= " +
                          std::to_string(pressure.high_watermark) + " (got " +
                          std::to_string(store_->max_versions()) +
                          "): a computing wave must still see its own version past the " +
                          "ingests admitted ahead of it");
  }
  std::vector<WaveResult> out;
  out.reserve(count);
  if (count == 0) return out;

  BoundedWaveQueue queue(pressure);
  std::mutex mutex;
  std::condition_variable cv;
  // Ingested waves not yet picked up by compute, with their ingest failure if
  // any. Each entry is a wave pushed and not yet popped, so the queue's high
  // watermark bounds the map too.
  std::map<ds::Timestamp, std::exception_ptr> done;
  bool stop = false;

  // One ingest worker doubles as the (fast) arrival producer: it races
  // through the waves as quickly as admission allows, serialized in wave
  // order.
  std::thread worker([&] {
    for (std::size_t k = 0; k < count; ++k) {
      const ds::Timestamp wave = first + static_cast<ds::Timestamp>(k);
      const bool admitted = queue.push(wave);  // waits for the drain
      {
        std::lock_guard lock(mutex);
        // kBlock refuses only once close() released the push: the run is over.
        if (stop || !admitted) return;
      }
      std::exception_ptr error;
      try {
        ds::Client client(*store_, wave);
        ingest(client, wave);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard lock(mutex);
        done.emplace(wave, std::move(error));
      }
      cv.notify_all();
    }
  });
  // Joins on every exit path (including a propagating step failure below).
  struct StopAndJoin {
    std::thread& worker;
    std::mutex& mutex;
    BoundedWaveQueue& queue;
    bool& stop;
    ~StopAndJoin() {
      {
        std::lock_guard lock(mutex);
        stop = true;
      }
      queue.close();  // releases a producer waiting in push()
      worker.join();
    }
  } join_guard{worker, mutex, queue, stop};

  for (std::size_t k = 0; k < count; ++k) {
    const ds::Timestamp wave = first + static_cast<ds::Timestamp>(k);
    std::exception_ptr error;
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return done.count(wave) != 0; });
      error = std::move(done.at(wave));
      done.erase(wave);
    }
    if (error) std::rethrow_exception(error);
    out.push_back(run_wave(wave, controller));
    queue.pop();  // compute done: release the admission slot
    if (obs_ != nullptr) obs_->ingest_queue_depth->set(static_cast<double>(queue.depth()));
  }
  if (stats_out != nullptr) *stats_out = queue.stats();
  return out;
}

std::size_t WorkflowEngine::execution_count(std::size_t step_index) const {
  SF_CHECK(step_index < spec_.size(), "step index out of range");
  return exec_counts_[step_index];
}

std::optional<ds::Timestamp> WorkflowEngine::last_executed_wave(std::size_t step_index) const {
  SF_CHECK(step_index < spec_.size(), "step index out of range");
  return last_exec_wave_[step_index];
}

std::size_t WorkflowEngine::failure_count(std::size_t step_index) const {
  SF_CHECK(step_index < spec_.size(), "step index out of range");
  return failure_counts_[step_index];
}

bool WorkflowEngine::is_quarantined(std::size_t step_index) const {
  SF_CHECK(step_index < spec_.size(), "step index out of range");
  return fault_states_[step_index].quarantined;
}

std::size_t WorkflowEngine::quarantine_count(std::size_t step_index) const {
  SF_CHECK(step_index < spec_.size(), "step index out of range");
  return fault_states_[step_index].times_quarantined;
}

void WorkflowEngine::add_completion_listener(StepCompletionListener listener) {
  SF_CHECK(static_cast<bool>(listener), "listener must be callable");
  listeners_.push_back(std::move(listener));
}

void WorkflowEngine::attach_journal(WaveJournal* journal) {
  if (journal != nullptr) {
    std::vector<std::string> ids;
    ids.reserve(spec_.size());
    for (const auto& step : spec_.steps()) ids.push_back(step.id);
    journal->bind(spec_.name(), std::move(ids));
  }
  journal_ = journal;
}

void WorkflowEngine::restore_from_journal(const WaveJournal& journal) {
  if (waves_run_ != 0) {
    throw StateError("restore_from_journal requires a freshly constructed engine");
  }
  if (journal.step_ids().size() != spec_.size()) {
    throw InvalidArgument("journal step count does not match the workflow");
  }
  for (std::size_t i = 0; i < spec_.size(); ++i) {
    if (journal.step_ids()[i] != spec_.step_at(i).id) {
      throw InvalidArgument("journal step '" + journal.step_ids()[i] +
                            "' does not match workflow step '" + spec_.step_at(i).id + "'");
    }
  }
  for (const WaveRecord& record : journal.records()) {
    if (last_wave_ && record.wave <= *last_wave_) {
      throw InvalidArgument("journal waves are not strictly increasing");
    }
    last_wave_ = record.wave;
    ++waves_run_;
    for (std::size_t i = 0; i < record.status.size(); ++i) {
      apply_status(i, record.status[i], record.wave, /*count_failure=*/true);
    }
  }
  SF_LOG_INFO("wms") << "restored " << waves_run_ << " waves from journal; resuming after wave "
                     << (last_wave_ ? std::to_string(*last_wave_) : std::string("none"));
}

void WorkflowEngine::reset_history() {
  std::fill(exec_counts_.begin(), exec_counts_.end(), std::size_t{0});
  std::fill(failure_counts_.begin(), failure_counts_.end(), std::size_t{0});
  std::fill(fault_states_.begin(), fault_states_.end(), StepFaultState{});
  probe_gate_.reset(spec_.size());
  last_failure_.clear();
  std::fill(last_exec_wave_.begin(), last_exec_wave_.end(), std::optional<ds::Timestamp>{});
  total_executions_ = 0;
  waves_run_ = 0;
  last_wave_.reset();
}

}  // namespace smartflux::wms
