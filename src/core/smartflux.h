#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/knowledge_base.h"
#include "core/monitoring.h"
#include "core/predictor.h"
#include "core/qod_engine.h"
#include "wms/engine.h"
#include "wms/journal.h"

namespace smartflux::core {

/// QoD degradation guard (§3.1: online re-training keeps the classifier's
/// >95% confidence bound honest). Every `audit_every` application waves the
/// engine runs a synchronous *audit wave*: every tolerant step is forced to
/// execute, the true accumulated ε is measured against max_ε, and the
/// classifier's own decision for that wave is recorded. An audit counts as a
/// violation when the classifier would have skipped a step whose true error
/// exceeded its bound (a false negative — the failure mode the paper tunes
/// recall against). When the violation rate over the sliding window exceeds
/// `max_violation_rate`, the engine gracefully degrades: it falls back to
/// synchronous execution, captures `retrain_waves` fresh knowledge-base
/// tuples, rebuilds the model, and re-enters adaptive mode.
struct AuditOptions {
  /// Run an audit wave every M application waves; 0 disables the guard.
  std::size_t audit_every = 0;
  /// Sliding window of most recent audit outcomes considered.
  std::size_t window = 8;
  /// Degrade when the windowed violation rate exceeds this bound.
  double max_violation_rate = 0.25;
  /// Never judge before this many audits are in the window.
  std::size_t min_audits = 2;
  /// Synchronous capture waves before the model is rebuilt.
  std::size_t retrain_waves = 12;

  bool enabled() const noexcept { return audit_every > 0; }
};

/// Framework-level configuration: metric choices, classifier options and
/// test-phase quality gates (§3.2: "if results are not satisfactory w.r.t.
/// defined thresholds, a training phase takes place again").
struct SmartFluxOptions {
  StepMonitor::Options monitor{};
  PredictorOptions predictor{};
  std::size_t cv_folds = 10;
  /// Minimum test-phase metrics to accept a model; 0 disables the gate.
  double min_accuracy = 0.0;
  double min_recall = 0.0;
  AuditOptions audit{};
  /// Observability sinks (neither owned; null = disabled). Reports skip vs
  /// execute decisions, audit outcomes, the windowed false-negative rate and
  /// phase transitions under sf_smartflux_* metrics. Propagated into
  /// predictor.forest at construction when those are unset, so the per-label
  /// forests report train/predict metrics to the same registry.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// The SmartFlux middleware façade (§4): couples a WorkflowEngine (the WMS)
/// with its DataStore, owns the Monitoring / Knowledge Base / Predictor / QoD
/// Engine components, and drives the operating modes:
///
///   training mode  — train(): synchronous execution, knowledge-base capture
///   test phase     — test(): k-fold cross-validation of the learned model
///   execution mode — run(): adaptive, classifier-gated triggering
///   degraded mode  — entered by the QoD degradation guard: synchronous
///                    execution + knowledge capture until the model rebuilds
///
/// Additional training waves may be appended at any time (online
/// re-training, §3.1) with train(); build_model() rebuilds the classifier
/// from the full accumulated knowledge base.
class SmartFluxEngine {
 public:
  enum class Phase { kIdle, kTraining, kReady, kApplication, kDegraded };

  /// Degradation-guard counters.
  struct AuditStats {
    std::size_t audits_run = 0;
    /// Audit waves where the classifier would have skipped a step whose true
    /// ε exceeded max_ε.
    std::size_t violations = 0;
    /// Times the guard degraded to synchronous capture.
    std::size_t degradations = 0;
    /// Synchronous capture waves still owed before the next model rebuild
    /// (> 0 while degraded).
    std::size_t retrain_waves_left = 0;
  };

  SmartFluxEngine(wms::WorkflowEngine& engine, SmartFluxOptions options = {});
  ~SmartFluxEngine();

  /// Runs `waves` synchronous waves starting at `first_wave`, appending to
  /// the knowledge base.
  std::vector<wms::WaveResult> train(ds::Timestamp first_wave, std::size_t waves);

  /// Builds the classification model from the accumulated knowledge base.
  /// Throws StateError if no training data was collected.
  void build_model();

  /// Test phase: cross-validates the configured classifier on the knowledge
  /// base. `passes_gates` tells whether the configured minimum accuracy /
  /// recall thresholds hold (more training is needed otherwise).
  Predictor::TestReport test() const;
  bool passes_gates(const Predictor::TestReport& report) const;

  /// Application mode: runs `waves` adaptive waves. Requires build_model().
  /// Audit waves and degraded (synchronous-capture) waves are interleaved
  /// transparently when the degradation guard is enabled.
  std::vector<wms::WaveResult> run(ds::Timestamp first_wave, std::size_t waves);
  wms::WaveResult run_wave(ds::Timestamp wave);

  /// Crash recovery, part 1: seeds the knowledge base from persisted state
  /// (KnowledgeBase::load_csv), enabling build_model() without re-running
  /// training waves. Monitors are anchored on the store's current state.
  void restore_knowledge_base(KnowledgeBase kb);

  /// Crash recovery, part 2: replays a wave journal into the (freshly
  /// constructed) underlying WorkflowEngine, re-anchors the QoD monitors on
  /// the surviving datastore state, and resumes the application phase after
  /// the journal's last completed wave. Requires build_model() first.
  void resume_from_journal(const wms::WaveJournal& journal);

  /// Crash-consistent resume alongside a durable datastore: restores the
  /// engine only through `data_durable_through` — pass the recovered store's
  /// last durable wave (RecoveryInfo::last_durable_wave, or 0 when none) —
  /// discarding journal records whose data did not survive the crash. This
  /// is the wave-boundary rule: a wave counts as recovered iff its data
  /// commit AND its journal record are both on disk, so both layers resume
  /// at the min of the two. Callers that keep appending to the same journal
  /// should truncate their copy too (WaveJournal::truncated_to) before
  /// re-attaching it.
  void resume_from_journal(const wms::WaveJournal& journal, ds::Timestamp data_durable_through);

  /// Safe to read from any thread (the network front-end's /status endpoint
  /// polls it while waves run on the driver thread).
  Phase phase() const noexcept { return phase_.load(std::memory_order_relaxed); }
  const KnowledgeBase& knowledge_base() const;
  const Predictor& predictor() const noexcept { return predictor_; }
  /// The live QoD engine; valid during the application phase.
  QodController& controller();
  wms::WorkflowEngine& workflow_engine() noexcept { return *engine_; }
  const SmartFluxOptions& options() const noexcept { return options_; }

  const AuditStats& audit_stats() const noexcept { return audit_stats_; }
  bool degraded() const noexcept { return audit_stats_.retrain_waves_left > 0; }

 private:
  struct SfObs;  ///< pre-resolved metric handles (smartflux.cpp)

  wms::WaveResult run_audit_wave(ds::Timestamp wave);
  wms::WaveResult run_degraded_wave(ds::Timestamp wave);
  void enter_degraded_mode(ds::Timestamp wave);
  /// Phase assignment funnel: counts the transition and updates the phase
  /// gauge when instrumentation is attached.
  void set_phase(Phase next);
  /// Folds the QoD controller's cumulative skip/execute decision counts into
  /// the registry counters (delta since the last call).
  void record_decision_deltas();
  /// An actual execution clears a step's deferred error: re-anchor its audit
  /// output monitor so only genuinely missed updates count as ε.
  void reset_executed_outputs(const wms::WaveResult& result);

  wms::WorkflowEngine* engine_;
  SmartFluxOptions options_;
  std::unique_ptr<SfObs> obs_;  ///< null unless options_.metrics is set
  /// Atomic only for cross-thread *reads* (phase()): all writes stay on the
  /// engine's single driver thread via set_phase.
  std::atomic<Phase> phase_{Phase::kIdle};
  std::unique_ptr<TrainingController> trainer_;
  Predictor predictor_;
  std::unique_ptr<QodController> qod_;

  // Degradation-guard state (valid after build_model when the guard is on).
  std::vector<StepMonitor> audit_monitors_;  ///< output-error trackers per tolerant ordinal
  std::vector<double> bounds_;               ///< max_ε per tolerant ordinal
  std::vector<bool> audit_window_;           ///< recent audit outcomes (true = violation)
  std::size_t waves_since_audit_ = 0;
  AuditStats audit_stats_;
};

/// Lower-case phase name ("idle", "training", ...), also the `phase` metric
/// label value.
const char* phase_name(SmartFluxEngine::Phase phase) noexcept;

}  // namespace smartflux::core
