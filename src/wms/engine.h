#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datastore/datastore.h"
#include "wms/backpressure.h"
#include "wms/probe_gate.h"
#include "wms/retry_policy.h"
#include "wms/workflow_spec.h"

namespace smartflux {
class FaultInjector;
}

namespace smartflux::obs {
class MetricsRegistry;
class Tracer;
struct SpanRecord;
}  // namespace smartflux::obs

namespace smartflux::ds {
class Client;
}

namespace smartflux::wms {

class WaveJournal;
class StallWatchdog;

/// Ingest callback for pipelined wave execution: writes wave w's input data
/// through a Client already bound to w. The engine calls it from a dedicated
/// ingest thread, one wave at a time (never two ingests concurrently), but
/// concurrently with the *compute* of earlier waves — so the tables an
/// ingest writes must be disjoint from the cells workflow steps write, or
/// per-cell timestamps could regress.
using WaveIngest = std::function<void(ds::Client&, ds::Timestamp)>;

/// Decides, per wave, whether an eligible error-tolerant step runs. This is
/// the integration point SmartFlux plugs into (the paper's "triggering
/// notification" API between the framework and the WMS, §4): the controller
/// receives wave begin/end and step completion callbacks and answers
/// triggering queries.
class TriggerController {
 public:
  virtual ~TriggerController() = default;

  virtual void begin_wave(ds::Timestamp wave) { (void)wave; }
  /// Queried once per eligible, error-tolerant step per wave.
  virtual bool should_execute(const WorkflowSpec& spec, std::size_t step_index,
                              ds::Timestamp wave) = 0;
  /// Notified after every step execution (tolerant or not).
  virtual void on_step_executed(const WorkflowSpec& spec, std::size_t step_index,
                                ds::Timestamp wave) {
    (void)spec;
    (void)step_index;
    (void)wave;
  }
  virtual void end_wave(ds::Timestamp wave) { (void)wave; }
};

/// The traditional Synchronous Data-Flow policy: every eligible step runs at
/// every wave (the paper's baseline "sync" model).
class SyncController final : public TriggerController {
 public:
  bool should_execute(const WorkflowSpec&, std::size_t, ds::Timestamp) override { return true; }
};

/// Terminal outcome of one step within one wave.
enum class StepStatus : std::uint8_t {
  kNotEligible = 0,  ///< a predecessor has never completed an execution
  kSkipped,          ///< the trigger controller deferred the execution (QoD)
  kExecuted,         ///< ran to completion
  kFailed,           ///< exhausted its retry budget this wave
  kQuarantined,      ///< circuit open: the engine did not attempt the step
};

/// One-character encoding used by the wave journal ('-', 's', 'X', 'F', 'Q').
char step_status_char(StepStatus status) noexcept;
std::optional<StepStatus> step_status_from_char(char c) noexcept;

/// Outcome of one wave of execution.
struct WaveResult {
  ds::Timestamp wave = 0;
  /// Per-step (spec order): did the step run this wave?
  std::vector<bool> executed;
  /// Per-step wall-clock time spent on the step this wave, including failed
  /// attempts and backoff pauses (zero for steps never attempted). Failed
  /// steps therefore report non-zero durations even though executed stays
  /// false, so wave-latency stats account retry time.
  std::vector<std::chrono::nanoseconds> durations;
  /// Per-step terminal status — distinguishes "skipped by controller" from
  /// "failed after retries" from "quarantined".
  std::vector<StepStatus> status;
  /// Convenience flags: status == kFailed.
  std::vector<bool> failed;
  /// Set for every (transitive) successor of a step that failed or was
  /// quarantined this wave: such steps saw no fresh input from that
  /// predecessor. Controller-deferred skips do NOT mark successors stale —
  /// deferral is the QoD trade, not a fault.
  std::vector<bool> stale;
  /// Last error message of each step this wave (empty if it did not fail).
  std::vector<std::string> errors;
  /// Attempts made per step this wave (0 = never attempted).
  std::vector<std::uint32_t> attempts;

  std::size_t executed_count() const noexcept;
  std::size_t failed_count() const noexcept;
  std::size_t quarantined_count() const noexcept;
};

/// Circuit breaker: after `failure_threshold` consecutive failed waves a step
/// is quarantined — skipped outright (downstream marked stale) for
/// `cooldown_waves` waves, then probed half-open with a single attempt;
/// success closes the circuit, failure restarts the cool-down. Requires a
/// non-propagating retry policy (a propagating failure aborts the wave before
/// the breaker can act).
struct QuarantineOptions {
  /// Consecutive exhausted waves before the circuit opens; 0 disables.
  std::size_t failure_threshold = 0;
  /// Waves the step sits out before a half-open probe.
  std::size_t cooldown_waves = 3;

  bool enabled() const noexcept { return failure_threshold > 0; }
};

/// Notified after a step finishes (the paper's Oozie notification scheme:
/// "Oozie only has to notify when a step finishes its execution").
using StepCompletionListener = std::function<void(const StepId&, ds::Timestamp)>;

/// The workflow management system: executes a WorkflowSpec against a
/// DataStore, wave by wave, delegating triggering decisions for
/// error-tolerant steps to a TriggerController.
///
/// Eligibility rule (§2): a step may run only when every predecessor has
/// completed at least one execution (in this or an earlier wave).
/// Error-intolerant steps run at every wave in which they are eligible.
class WorkflowEngine {
 public:
  struct Options {
    /// Number of worker threads for intra-wave parallelism. 0 = serial.
    /// With workers, steps of the same dependency level whose execution was
    /// approved run concurrently; controller queries and notifications stay
    /// serialized in spec order, so TriggerController implementations need
    /// no internal locking.
    std::size_t worker_threads = 0;
    /// Default retry/backoff/timeout policy; StepSpec::retry overrides it.
    RetryPolicy retry{};
    QuarantineOptions quarantine{};
    /// Seeds the deterministic backoff jitter.
    std::uint64_t retry_seed = 0;
    /// Optional deterministic fault-injection layer (not owned). Faults are
    /// injected at the start of every attempt and into the attempt's
    /// datastore writes.
    FaultInjector* fault_injector = nullptr;
    /// Optional metrics registry (not owned; see src/obs). When set, the
    /// engine records waves, per-step status counts, retry/quarantine
    /// counters, and wave/step duration histograms under sf_wms_*. When
    /// null (the default) the only cost is one pointer test per wave.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional tracer (not owned): one span per wave plus one per attempted
    /// step, parented to the wave span.
    obs::Tracer* tracer = nullptr;
    /// Optional stall watchdog (not owned; may be shared across engines).
    /// Every step attempt is bracketed begin/end so a wedged attempt gets
    /// its CancellationToken cancelled cooperatively.
    StallWatchdog* watchdog = nullptr;
  };

  WorkflowEngine(WorkflowSpec spec, ds::DataStore& store);
  WorkflowEngine(WorkflowSpec spec, ds::DataStore& store, Options options);
  ~WorkflowEngine();

  /// Runs one wave. Steps execute in topological order; each step receives a
  /// Client stamped with the wave timestamp. Waves must be strictly
  /// increasing.
  WaveResult run_wave(ds::Timestamp wave, TriggerController& controller);

  /// Convenience: runs waves [first, first+count) under one controller.
  std::vector<WaveResult> run_waves(ds::Timestamp first, std::size_t count,
                                    TriggerController& controller);

  /// Pipelined variant of run_waves: a dedicated ingest thread runs
  /// `ingest(client, w)` ahead of the wave currently computing, so wave
  /// w+1's feed lands in the store while wave w's steps execute. Wave w never
  /// starts before its own ingest completed, and ingests run strictly one at
  /// a time in wave order. Because steps read as-of their wave
  /// (Client::get/scan), compute at wave w is blind to later ingests — but
  /// the store must retain enough history.
  ///
  /// Admission into the ingested-not-yet-computed window (the computing wave
  /// included) is bounded by `pressure` (high/low watermarks):
  /// PressureOptions::ahead(d) runs d waves ahead, and the default is one.
  /// The producer stalls until compute drains the window to the low
  /// watermark, so every wave runs; refusing load is the job of admission in
  /// front of the engine (the HTTP front door's kShed queue), not of the
  /// engine itself.
  ///
  /// Requires pressure.enabled(), pressure.overflow == OverflowPolicy::kBlock
  /// and store.max_versions() >= pressure.high_watermark (throws
  /// InvalidArgument otherwise). An ingest
  /// failure for wave w surfaces from this call before wave w runs;
  /// already-completed waves' results are lost with the exception, matching
  /// run_waves. Lifetime queue counters land in *stats_out when given.
  std::vector<WaveResult> run_waves_pipelined(
      ds::Timestamp first, std::size_t count, TriggerController& controller,
      const WaveIngest& ingest,
      const PressureOptions& pressure = PressureOptions::ahead(1),
      PressureStats* stats_out = nullptr);

  const WorkflowSpec& spec() const noexcept { return spec_; }
  ds::DataStore& store() noexcept { return *store_; }

  /// Total executions of a step across all waves so far.
  std::size_t execution_count(std::size_t step_index) const;
  std::size_t total_executions() const noexcept { return total_executions_; }
  std::size_t waves_run() const noexcept { return waves_run_; }
  /// Wave of the most recent execution of a step; nullopt if never run.
  std::optional<ds::Timestamp> last_executed_wave(std::size_t step_index) const;
  /// Most recent wave run (or restored from a journal); nullopt if none.
  std::optional<ds::Timestamp> last_wave() const noexcept { return last_wave_; }

  void add_completion_listener(StepCompletionListener listener);

  /// Waves in which the step exhausted its retry budget, across all waves.
  std::size_t failure_count(std::size_t step_index) const;
  /// what() of the most recent recorded failure (empty if none).
  const std::string& last_failure_message() const noexcept { return last_failure_; }

  /// Circuit-breaker introspection.
  bool is_quarantined(std::size_t step_index) const;
  /// Times the step's circuit has opened so far.
  std::size_t quarantine_count(std::size_t step_index) const;

  /// Attaches an append-only journal: every completed wave's per-step
  /// statuses are recorded (and written through to the journal's sink, if
  /// one is open). The journal is bound to this workflow's step ids on
  /// attach. Pass nullptr to detach.
  void attach_journal(WaveJournal* journal);

  /// Crash recovery: replays a journal into a freshly constructed engine,
  /// restoring execution counts, failure counts, last-executed waves and
  /// quarantine state, so the next run_wave resumes after the last completed
  /// wave. Throws StateError if this engine already ran waves, and
  /// InvalidArgument if the journal does not match the workflow.
  void restore_from_journal(const WaveJournal& journal);

  /// Resets execution-history bookkeeping (not the data store).
  void reset_history();

 private:
  /// Per-step circuit-breaker state.
  struct StepFaultState {
    std::size_t consecutive_failures = 0;
    bool quarantined = false;
    /// Waves sat out since the circuit (re-)opened.
    std::size_t waves_in_quarantine = 0;
    std::size_t times_quarantined = 0;
  };

  /// Result of the retry loop for one step in one wave.
  struct AttemptOutcome {
    bool success = false;
    /// Wall clock across all attempts, including backoff pauses.
    std::chrono::nanoseconds elapsed{0};
    /// When the first attempt started (feeds step spans when tracing).
    std::chrono::steady_clock::time_point start{};
    std::uint32_t attempts = 0;
    std::string error;  ///< last failure message; empty on success
  };

  /// Pre-resolved metric handles (built once at construction when
  /// Options::metrics is set, so waves touch only lock-free atomics).
  struct EngineObs;

  WaveResult run_wave_serial(ds::Timestamp wave, TriggerController& controller);
  WaveResult run_wave_parallel(ds::Timestamp wave, TriggerController& controller);
  void process_step(std::size_t index, ds::Timestamp wave, WaveResult& result,
                    TriggerController& controller);
  bool eligible(std::size_t index) const;
  const RetryPolicy& policy_for(std::size_t index) const;
  /// Quarantine gate, evaluated before eligibility/triggering: returns true
  /// when the step must sit this wave out; sets *probe when a half-open
  /// probe is due instead. Probe admission is a CAS on probe_gate_ so
  /// concurrent gate evaluations (pipelined waves) admit exactly one probe;
  /// a caller that received *probe == true owns the claim and must release
  /// it once the probe's outcome is applied (or the step was not run).
  bool quarantine_gate(std::size_t index, bool* probe);
  /// Runs the retry loop. `attempts_cap` > 0 bounds the attempts (half-open
  /// probes use 1). On exhaustion the failure is recorded (failure_count,
  /// last_failure_message) and — under a propagating policy — the original
  /// exception is rethrown.
  AttemptOutcome run_step_attempts(std::size_t index, ds::Timestamp wave,
                                   std::size_t attempts_cap);
  /// Records a non-success terminal outcome into the result row.
  void record_outcome(std::size_t index, WaveResult& result, StepStatus status,
                      const AttemptOutcome& outcome);
  void record_execution(std::size_t index, ds::Timestamp wave, WaveResult& result,
                        const AttemptOutcome& outcome, TriggerController& controller);
  /// Folds one completed wave into the metric families and trace buffer.
  /// Runs serially after the wave (outside any worker), so no locking.
  void record_wave_observability(const WaveResult& result,
                                 std::chrono::steady_clock::time_point wave_start);
  /// Folds one step's terminal status into execution/failure bookkeeping and
  /// the circuit-breaker state machine. Shared verbatim by live execution
  /// and journal replay, so a restored engine lands in the exact state the
  /// crashed one was in.
  void apply_status(std::size_t index, StepStatus status, ds::Timestamp wave,
                    bool count_failure);
  void mark_stale(WaveResult& result) const;
  static WaveResult make_result(ds::Timestamp wave, std::size_t steps);

  WorkflowSpec spec_;
  ds::DataStore* store_;
  Options options_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::size_t> exec_counts_;
  std::vector<std::size_t> failure_counts_;
  std::vector<StepFaultState> fault_states_;
  ProbeGate probe_gate_;  ///< single-slot half-open probe admission per step
  std::vector<std::uint64_t> step_hashes_;  ///< per-step hash for jitter draws
  /// "workflow/step" history keys, built only when a watchdog is attached.
  std::vector<std::string> watchdog_keys_;
  std::mutex failure_mutex_;  ///< guards failure counts/message under parallel waves
  std::string last_failure_;
  std::vector<std::optional<ds::Timestamp>> last_exec_wave_;
  std::unique_ptr<EngineObs> obs_;  ///< null when Options::metrics is null
  /// Per-step attempt start times of the current wave (span starts).
  std::vector<std::chrono::steady_clock::time_point> step_starts_;
  /// Pre-built "step:<id>" span names (built only when a tracer is attached,
  /// so the per-wave trace batch never concatenates strings).
  std::vector<std::string> step_span_names_;
  /// Scratch batch reused across waves; record_all() consumes the records
  /// but leaves the capacity in place.
  std::vector<obs::SpanRecord> trace_batch_;
  std::vector<StepCompletionListener> listeners_;
  WaveJournal* journal_ = nullptr;
  std::size_t total_executions_ = 0;
  std::size_t waves_run_ = 0;
  std::optional<ds::Timestamp> last_wave_;
};

}  // namespace smartflux::wms
