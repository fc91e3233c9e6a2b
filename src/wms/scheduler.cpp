#include "wms/scheduler.h"

#include "common/error.h"

namespace smartflux::wms {

PeriodicWaveSource::PeriodicWaveSource(SimTimeMs period, std::size_t max_backlog)
    : period_(period), max_backlog_(max_backlog), next_deadline_(period) {
  SF_CHECK(period > 0, "period must be positive");
  SF_CHECK(max_backlog >= 1, "max_backlog must be >= 1");
}

std::size_t PeriodicWaveSource::waves_due(SimTimeMs now) {
  if (now < next_deadline_) return 0;
  const auto due = static_cast<std::size_t>((now - next_deadline_) / period_ + 1);
  return std::min(due, max_backlog_);
}

void PeriodicWaveSource::on_wave_started(SimTimeMs) { next_deadline_ += period_; }

DataAvailabilityWaveSource::DataAvailabilityWaveSource(ds::DataStore& store,
                                                       ds::ContainerRef container,
                                                       std::size_t min_mutations)
    : store_(&store), container_(std::move(container)), min_mutations_(min_mutations) {
  SF_CHECK(min_mutations >= 1, "min_mutations must be >= 1");
  token_ = store.subscribe([this](const ds::Mutation& m) {
    if (container_.matches(m.table, m.row, m.column)) ++pending_;
  });
}

DataAvailabilityWaveSource::~DataAvailabilityWaveSource() { store_->unsubscribe(token_); }

std::size_t DataAvailabilityWaveSource::waves_due(SimTimeMs) {
  return pending_ >= min_mutations_ ? 1 : 0;
}

void DataAvailabilityWaveSource::on_wave_started(SimTimeMs) { pending_ = 0; }

WaveDriver::WaveDriver(WorkflowEngine& engine, TriggerController& controller,
                       std::unique_ptr<WaveSource> source, ds::Timestamp first_wave)
    : engine_(&engine), controller_(&controller), source_(std::move(source)),
      next_wave_(first_wave) {
  SF_CHECK(source_ != nullptr, "WaveDriver needs a wave source");
  // Resume-awareness: an engine restored from a wave journal already has
  // history — continue after it instead of re-issuing journaled wave numbers.
  if (const auto last = engine.last_wave(); last && *last >= next_wave_) {
    next_wave_ = *last + 1;
  }
}

std::vector<WaveResult> WaveDriver::poll(const SimulatedClock& clock) {
  // Bound the batch by the count due on entry: a wave's own writes may re-arm
  // a data-availability source, which must surface at the *next* poll rather
  // than spin this one forever.
  std::size_t due = source_->waves_due(clock.now());
  std::vector<WaveResult> out;
  out.reserve(due);
  if (catchup_.budget > 0 && due > catchup_.budget) {
    // Shed the oldest excess waves: their deadline is long past, so running
    // them now only delays the waves that still matter. Each shed re-arms
    // the source like a started wave would.
    for (std::size_t excess = due - catchup_.budget; excess > 0; --excess) {
      source_->on_wave_started(clock.now());
      out.push_back(engine_->shed_wave(next_wave_++));
      ++waves_shed_;
    }
    due = catchup_.budget;
  }
  for (std::size_t k = 0; k < due; ++k) {
    source_->on_wave_started(clock.now());
    out.push_back(engine_->run_wave(next_wave_++, *controller_));
    ++waves_run_;
  }
  return out;
}

}  // namespace smartflux::wms
