#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "wms/engine.h"

namespace smartflux::wms {

/// Milliseconds on a simulated timeline. All scheduling in the repo is
/// driven by simulated time so experiments stay deterministic.
using SimTimeMs = std::uint64_t;

/// A deterministic, manually advanced clock.
class SimulatedClock {
 public:
  SimTimeMs now() const noexcept { return now_; }
  void advance(SimTimeMs delta) noexcept { now_ += delta; }

 private:
  SimTimeMs now_ = 0;
};

/// Decides when new waves are due — the paper's §1: "a WMS triggers the
/// execution of an entire workflow graph based on either time frequency
/// (e.g., every 20 minutes) or data availability (e.g., when new files show
/// up in a given folder)".
class WaveSource {
 public:
  virtual ~WaveSource() = default;
  /// Number of waves due at simulated time `now` (0 = nothing to do).
  virtual std::size_t waves_due(SimTimeMs now) = 0;
  /// Notified when a wave actually starts, so the source can re-arm.
  virtual void on_wave_started(SimTimeMs now) = 0;
};

/// Time-frequency triggering: one wave every `period` ms, catching up when
/// polled late (bounded by `max_backlog` to avoid unbounded catch-up storms).
class PeriodicWaveSource final : public WaveSource {
 public:
  explicit PeriodicWaveSource(SimTimeMs period, std::size_t max_backlog = 16);

  std::size_t waves_due(SimTimeMs now) override;
  void on_wave_started(SimTimeMs now) override;

 private:
  SimTimeMs period_;
  std::size_t max_backlog_;
  SimTimeMs next_deadline_;
};

/// Data-availability triggering: a wave becomes due when at least
/// `min_mutations` writes have landed in the watched container since the
/// last wave. Subscribes to the store's mutation stream.
class DataAvailabilityWaveSource final : public WaveSource {
 public:
  DataAvailabilityWaveSource(ds::DataStore& store, ds::ContainerRef container,
                             std::size_t min_mutations);
  ~DataAvailabilityWaveSource() override;

  DataAvailabilityWaveSource(const DataAvailabilityWaveSource&) = delete;
  DataAvailabilityWaveSource& operator=(const DataAvailabilityWaveSource&) = delete;

  std::size_t waves_due(SimTimeMs now) override;
  void on_wave_started(SimTimeMs now) override;

  std::size_t pending_mutations() const noexcept { return pending_; }

 private:
  ds::DataStore* store_;
  ds::ContainerRef container_;
  std::size_t min_mutations_;
  std::size_t token_;
  std::size_t pending_ = 0;
};

/// Deadline-aware catch-up: when a poll finds more waves due than `budget`,
/// the oldest excess waves are shed (journaled as all-skipped via
/// WorkflowEngine::shed_wave) instead of replayed, so a driver that fell
/// behind converges on the present instead of grinding through stale
/// backlog. budget == 0 disables shedding (every due wave runs).
struct CatchupPolicy {
  std::size_t budget = 0;
};

/// Drives a WorkflowEngine from a WaveSource: each poll() runs every due
/// wave under the given controller. Wave numbers are allocated sequentially
/// starting from `first_wave`.
class WaveDriver {
 public:
  WaveDriver(WorkflowEngine& engine, TriggerController& controller,
             std::unique_ptr<WaveSource> source, ds::Timestamp first_wave = 1);

  /// Runs all waves due at the clock's current time; returns their results.
  /// Under a CatchupPolicy, stale excess waves are shed first and appear in
  /// the returned results as all-skipped WaveResults.
  std::vector<WaveResult> poll(const SimulatedClock& clock);

  void set_catchup(CatchupPolicy policy) noexcept { catchup_ = policy; }
  /// Waves shed by catch-up so far (not counted in waves_run()).
  std::size_t waves_shed() const noexcept { return waves_shed_; }

  ds::Timestamp next_wave() const noexcept { return next_wave_; }
  std::size_t waves_run() const noexcept { return waves_run_; }

 private:
  WorkflowEngine* engine_;
  TriggerController* controller_;
  std::unique_ptr<WaveSource> source_;
  ds::Timestamp next_wave_;
  std::size_t waves_run_ = 0;
  std::size_t waves_shed_ = 0;
  CatchupPolicy catchup_;
};

}  // namespace smartflux::wms
