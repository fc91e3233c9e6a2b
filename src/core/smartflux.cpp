#include "core/smartflux.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smartflux::core {

const char* phase_name(SmartFluxEngine::Phase phase) noexcept {
  switch (phase) {
    case SmartFluxEngine::Phase::kIdle: return "idle";
    case SmartFluxEngine::Phase::kTraining: return "training";
    case SmartFluxEngine::Phase::kReady: return "ready";
    case SmartFluxEngine::Phase::kApplication: return "application";
    case SmartFluxEngine::Phase::kDegraded: return "degraded";
  }
  return "unknown";
}

/// Handles resolved once at construction. Decision counters are fed by
/// deltas of the QoD controller's cumulative counts (the controller is
/// replaced on every model rebuild, so the engine tracks the last-seen
/// values and resets them alongside it).
struct SmartFluxEngine::SfObs {
  obs::Counter* skipped = nullptr;
  obs::Counter* executed = nullptr;
  obs::Counter* audit_clean = nullptr;
  obs::Counter* audit_violation = nullptr;
  obs::Counter* degradations = nullptr;
  obs::Gauge* false_negative_rate = nullptr;
  obs::Gauge* phase_gauge = nullptr;
  obs::Counter* transitions[5] = {};
  std::size_t last_skipped = 0;
  std::size_t last_triggered = 0;

  explicit SfObs(obs::MetricsRegistry& reg) {
    skipped = &reg.counter("sf_smartflux_steps_skipped_total", {},
                           "Tolerant-step decisions where the classifier skipped execution");
    executed = &reg.counter("sf_smartflux_steps_executed_total", {},
                            "Tolerant-step decisions where the classifier triggered execution");
    audit_clean = &reg.counter("sf_smartflux_audit_waves_total", {{"outcome", "clean"}},
                               "Audit waves by outcome");
    audit_violation = &reg.counter("sf_smartflux_audit_waves_total", {{"outcome", "violation"}},
                                   "Audit waves by outcome");
    degradations = &reg.counter("sf_smartflux_degradations_total", {},
                                "Times the QoD guard degraded to synchronous capture");
    false_negative_rate =
        &reg.gauge("sf_smartflux_false_negative_rate", {},
                   "Violation rate over the sliding audit window (the guard's trip signal)");
    phase_gauge = &reg.gauge("sf_smartflux_phase", {},
                             "Current phase: 0=idle 1=training 2=ready 3=application 4=degraded");
    for (int p = 0; p < 5; ++p) {
      transitions[p] = &reg.counter("sf_smartflux_phase_transitions_total",
                                    {{"phase", phase_name(static_cast<Phase>(p))}},
                                    "Phase entries by target phase");
    }
  }
};

namespace {

/// Audit-wave controller: records what the QoD classifier *would* decide for
/// every queried tolerant step, then forces execution anyway. Forwarding the
/// execution notifications keeps the QoD impact accumulators consistent with
/// the fact that the steps really ran.
class AuditController final : public wms::TriggerController {
 public:
  AuditController(QodController& qod, std::vector<int>& predicted)
      : qod_(&qod), predicted_(&predicted) {}

  void begin_wave(ds::Timestamp wave) override { qod_->begin_wave(wave); }

  bool should_execute(const wms::WorkflowSpec& spec, std::size_t step_index,
                      ds::Timestamp wave) override {
    const bool execute = qod_->should_execute(spec, step_index, wave);
    const std::size_t ord = qod_->index().ordinal_of(step_index);
    (*predicted_)[ord] = execute ? 1 : 0;
    return true;  // audit waves are synchronous: every queried step runs
  }

  void on_step_executed(const wms::WorkflowSpec& spec, std::size_t step_index,
                        ds::Timestamp wave) override {
    qod_->on_step_executed(spec, step_index, wave);
  }

  void end_wave(ds::Timestamp wave) override { qod_->end_wave(wave); }

 private:
  QodController* qod_;
  std::vector<int>* predicted_;
};

}  // namespace

namespace {

/// Pushes the engine-level sinks down into the forest options so the
/// per-label classifiers report to the same registry, unless the caller
/// already pointed them elsewhere.
SmartFluxOptions propagate_obs(SmartFluxOptions o) {
  if (o.predictor.forest.metrics == nullptr) o.predictor.forest.metrics = o.metrics;
  if (o.predictor.forest.tracer == nullptr) o.predictor.forest.tracer = o.tracer;
  return o;
}

}  // namespace

SmartFluxEngine::SmartFluxEngine(wms::WorkflowEngine& engine, SmartFluxOptions options)
    : engine_(&engine),
      options_(propagate_obs(std::move(options))),
      predictor_(options_.predictor) {
  if (options_.metrics != nullptr) {
    obs_ = std::make_unique<SfObs>(*options_.metrics);
    obs_->phase_gauge->set(static_cast<double>(phase_.load(std::memory_order_relaxed)));
  }
}

SmartFluxEngine::~SmartFluxEngine() = default;

void SmartFluxEngine::set_phase(Phase next) {
  if (obs_ && next != phase_) {
    obs_->transitions[static_cast<int>(next)]->inc();
    obs_->phase_gauge->set(static_cast<double>(next));
  }
  phase_ = next;
}

void SmartFluxEngine::record_decision_deltas() {
  if (!obs_ || !qod_) return;
  const std::size_t skipped = qod_->skipped_count();
  const std::size_t triggered = qod_->triggered_count();
  obs_->skipped->inc(skipped - obs_->last_skipped);
  obs_->executed->inc(triggered - obs_->last_triggered);
  obs_->last_skipped = skipped;
  obs_->last_triggered = triggered;
}

std::vector<wms::WaveResult> SmartFluxEngine::train(ds::Timestamp first_wave,
                                                    std::size_t waves) {
  SF_CHECK(waves > 0, "training needs at least one wave");
  if (!trainer_) {
    trainer_ = std::make_unique<TrainingController>(engine_->spec(), engine_->store(),
                                                    options_.monitor);
  }
  set_phase(Phase::kTraining);
  auto results = engine_->run_waves(first_wave, waves, *trainer_);
  SF_LOG_INFO("smartflux") << "training phase: knowledge base now has "
                           << trainer_->knowledge_base().size() << " examples";
  return results;
}

void SmartFluxEngine::build_model() {
  if (!trainer_ || trainer_->knowledge_base().empty()) {
    throw StateError("no training data collected — run train() first");
  }
  {
    obs::Span span = obs::start_span(options_.tracer, "build_model", "smartflux");
    predictor_.train(trainer_->knowledge_base());
  }
  // A fresh QoD controller: its impact baselines re-anchor on the current
  // store state at the first application wave.
  qod_ = std::make_unique<QodController>(engine_->spec(), engine_->store(), predictor_,
                                         options_.monitor);
  if (obs_) {
    // The new controller counts decisions from zero.
    obs_->last_skipped = 0;
    obs_->last_triggered = 0;
  }
  if (options_.audit.enabled()) {
    const TolerantIndex& index = qod_->index();
    audit_monitors_.clear();
    audit_monitors_.reserve(index.count());
    bounds_.clear();
    bounds_.reserve(index.count());
    for (std::size_t step_index : index.step_indices()) {
      const wms::StepSpec& step = engine_->spec().step_at(step_index);
      audit_monitors_.emplace_back(step, options_.monitor);
      // Anchor on the current outputs: only changes the steps write from now
      // on count as deferred error.
      audit_monitors_.back().reset_outputs(engine_->store());
      bounds_.push_back(*step.max_error);
    }
    audit_window_.clear();
    waves_since_audit_ = 0;
  }
  set_phase(Phase::kReady);
}

Predictor::TestReport SmartFluxEngine::test() const {
  if (!trainer_ || trainer_->knowledge_base().empty()) {
    throw StateError("no training data collected — run train() first");
  }
  return predictor_.test(trainer_->knowledge_base(), options_.cv_folds);
}

bool SmartFluxEngine::passes_gates(const Predictor::TestReport& report) const {
  return report.mean_accuracy >= options_.min_accuracy &&
         report.mean_recall >= options_.min_recall;
}

std::vector<wms::WaveResult> SmartFluxEngine::run(ds::Timestamp first_wave, std::size_t waves) {
  std::vector<wms::WaveResult> out;
  out.reserve(waves);
  for (std::size_t k = 0; k < waves; ++k) out.push_back(run_wave(first_wave + k));
  return out;
}

wms::WaveResult SmartFluxEngine::run_wave(ds::Timestamp wave) {
  if (!qod_) throw StateError("model not built — call build_model() after training");
  if (phase_ == Phase::kDegraded) return run_degraded_wave(wave);
  set_phase(Phase::kApplication);
  if (options_.audit.enabled() && ++waves_since_audit_ >= options_.audit.audit_every) {
    return run_audit_wave(wave);
  }
  wms::WaveResult result = engine_->run_wave(wave, *qod_);
  record_decision_deltas();
  if (options_.audit.enabled()) reset_executed_outputs(result);
  return result;
}

wms::WaveResult SmartFluxEngine::run_audit_wave(ds::Timestamp wave) {
  waves_since_audit_ = 0;
  const TolerantIndex& index = qod_->index();
  // Steps not queried this wave (ineligible) default to "execute" so they can
  // never register as a false negative below.
  std::vector<int> predicted(index.count(), 1);
  AuditController audit(*qod_, predicted);
  obs::Span audit_span =
      obs::start_span(options_.tracer, "audit_wave:" + std::to_string(wave), "smartflux");
  wms::WaveResult result = engine_->run_wave(wave, audit);
  audit_span.finish();
  record_decision_deltas();
  ++audit_stats_.audits_run;

  bool violation = false;
  for (std::size_t ord = 0; ord < index.count(); ++ord) {
    const std::size_t step_index = index.step_indices()[ord];
    // Quarantined/failed steps did not actually run: their deferred error is
    // still pending and will be measured at the next successful audit.
    if (result.status[step_index] != wms::StepStatus::kExecuted) continue;
    const double eps = audit_monitors_[ord].observe_outputs(engine_->store());
    audit_monitors_[ord].reset_outputs(engine_->store());
    if (predicted[ord] == 0 && eps > bounds_[ord]) {
      violation = true;
      SF_LOG_INFO("smartflux") << "audit wave " << wave << ": step '"
                               << engine_->spec().step_at(step_index).id
                               << "' would have been skipped with true error " << eps
                               << " > max_error " << bounds_[ord];
    }
  }
  if (violation) ++audit_stats_.violations;
  audit_window_.push_back(violation);
  if (audit_window_.size() > options_.audit.window) audit_window_.erase(audit_window_.begin());
  if (obs_) (violation ? obs_->audit_violation : obs_->audit_clean)->inc();

  const auto violations =
      static_cast<double>(std::count(audit_window_.begin(), audit_window_.end(), true));
  const double rate = violations / static_cast<double>(audit_window_.size());
  if (obs_) obs_->false_negative_rate->set(rate);
  if (audit_window_.size() >= options_.audit.min_audits &&
      rate > options_.audit.max_violation_rate) {
    enter_degraded_mode(wave);
  }
  return result;
}

wms::WaveResult SmartFluxEngine::run_degraded_wave(ds::Timestamp wave) {
  wms::WaveResult result = engine_->run_wave(wave, *trainer_);
  // Synchronous execution clears each executed step's deferred error; keep
  // the audit monitors anchored so post-recovery audits start clean.
  reset_executed_outputs(result);
  if (audit_stats_.retrain_waves_left > 0 && --audit_stats_.retrain_waves_left == 0) {
    SF_LOG_INFO("smartflux") << "degraded capture complete at wave " << wave
                             << ": rebuilding model from "
                             << trainer_->knowledge_base().size() << " examples";
    build_model();  // fresh predictor + QoD controller + audit anchors
    set_phase(Phase::kApplication);
  }
  return result;
}

void SmartFluxEngine::enter_degraded_mode(ds::Timestamp wave) {
  ++audit_stats_.degradations;
  if (obs_) obs_->degradations->inc();
  audit_stats_.retrain_waves_left = options_.audit.retrain_waves;
  audit_window_.clear();
  waves_since_audit_ = 0;
  // Keep everything learned so far and append fresh tuples that reflect the
  // drifted behaviour (§3.1 online re-training).
  trainer_ = std::make_unique<TrainingController>(engine_->spec(), engine_->store(),
                                                  options_.monitor,
                                                  trainer_->take_knowledge_base());
  trainer_->anchor(engine_->store());
  set_phase(Phase::kDegraded);
  SF_LOG_INFO("smartflux") << "QoD guard: violation rate exceeded bound at wave " << wave
                           << " — degrading to synchronous capture for "
                           << options_.audit.retrain_waves << " waves";
}

void SmartFluxEngine::reset_executed_outputs(const wms::WaveResult& result) {
  if (!options_.audit.enabled()) return;
  const TolerantIndex& index = qod_->index();
  for (std::size_t ord = 0; ord < index.count(); ++ord) {
    const std::size_t step_index = index.step_indices()[ord];
    if (result.status[step_index] == wms::StepStatus::kExecuted) {
      audit_monitors_[ord].reset_outputs(engine_->store());
    }
  }
}

void SmartFluxEngine::restore_knowledge_base(KnowledgeBase kb) {
  trainer_ = std::make_unique<TrainingController>(engine_->spec(), engine_->store(),
                                                  options_.monitor, std::move(kb));
  trainer_->anchor(engine_->store());
  if (phase_ == Phase::kIdle) set_phase(Phase::kTraining);
}

void SmartFluxEngine::resume_from_journal(const wms::WaveJournal& journal) {
  if (!qod_) throw StateError("model not built — call build_model() before resuming");
  engine_->restore_from_journal(journal);
  // The datastore is the durable layer: every accumulation restarts from its
  // surviving state, exactly as if the steps had just executed.
  qod_->anchor(engine_->store());
  for (auto& monitor : audit_monitors_) monitor.reset_outputs(engine_->store());
  audit_window_.clear();
  waves_since_audit_ = 0;
  set_phase(Phase::kApplication);
}

void SmartFluxEngine::resume_from_journal(const wms::WaveJournal& journal,
                                          ds::Timestamp data_durable_through) {
  resume_from_journal(journal.truncated_to(data_durable_through));
}

const KnowledgeBase& SmartFluxEngine::knowledge_base() const {
  if (!trainer_) throw StateError("no training phase has run yet");
  return trainer_->knowledge_base();
}

QodController& SmartFluxEngine::controller() {
  if (!qod_) throw StateError("model not built — call build_model() after training");
  return *qod_;
}

}  // namespace smartflux::core
