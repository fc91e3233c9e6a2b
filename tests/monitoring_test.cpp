#include <gtest/gtest.h>

#include <cmath>

#include "core/monitoring.h"
#include "datastore/datastore.h"
#include "keys.h"
#include "snapshot_util.h"

namespace smartflux::core {
namespace {

wms::StepSpec make_step(std::vector<ds::ContainerRef> inputs,
                        std::vector<ds::ContainerRef> outputs) {
  wms::StepSpec s;
  s.id = "step";
  s.fn = [](wms::StepContext&) {};
  s.inputs = std::move(inputs);
  s.outputs = std::move(outputs);
  s.max_error = 0.1;
  return s;
}

TEST(CombineImpacts, SingleValuePassesThrough) {
  EXPECT_EQ(combine_impacts({3.5}, CombineMode::kGeometricMean), 3.5);
  EXPECT_EQ(combine_impacts({}, CombineMode::kGeometricMean), 0.0);
}

TEST(CombineImpacts, GeometricMean) {
  EXPECT_NEAR(combine_impacts({2.0, 8.0}, CombineMode::kGeometricMean), 4.0, 1e-6);
}

TEST(CombineImpacts, ArithmeticMean) {
  EXPECT_NEAR(combine_impacts({2.0, 8.0}, CombineMode::kArithmeticMean), 5.0, 1e-12);
}

TEST(CombineImpacts, Max) {
  EXPECT_EQ(combine_impacts({2.0, 8.0, 5.0}, CombineMode::kMax), 8.0);
}

TEST(CombineImpacts, GeometricMeanToleratesZeros) {
  // A single silent input must not erase the others entirely.
  const double v = combine_impacts({0.0, 100.0}, CombineMode::kGeometricMean);
  EXPECT_GE(v, 0.0);
  EXPECT_LT(v, 100.0);
}

TEST(ContainerTracker, CumulativeAccumulatesPerWaveDeltas) {
  ds::DataStore store;
  ContainerTracker tracker(ds::ContainerRef::whole_table("t"),
                           make_impact_metric(ImpactKind::kMagnitudeCount),
                           AccumulationMode::kCumulative);
  tracker.reset(store);  // empty baseline

  store.put("t", "r", "c", 1, 10.0);
  EXPECT_EQ(tracker.observe(store), 10.0);  // insert: |10-0| * 1
  store.put("t", "r", "c", 2, 12.0);
  EXPECT_EQ(tracker.observe(store), 12.0);  // + |12-10| * 1
  EXPECT_EQ(tracker.last_delta(), 2.0);
  EXPECT_EQ(tracker.accumulated(), 12.0);
}

TEST(ContainerTracker, CancellingModeCancelsOut) {
  ds::DataStore store;
  store.put("t", "r", "c", 1, 10.0);
  ContainerTracker tracker(ds::ContainerRef::whole_table("t"),
                           make_impact_metric(ImpactKind::kMagnitudeCount),
                           AccumulationMode::kCancelling);
  tracker.reset(store);  // baseline: 10

  store.put("t", "r", "c", 2, 15.0);
  EXPECT_EQ(tracker.observe(store), 5.0);
  store.put("t", "r", "c", 3, 10.0);  // back to the baseline value
  EXPECT_EQ(tracker.observe(store), 0.0);  // cancellation (paper §2.1)
}

TEST(ContainerTracker, CumulativeModeDoesNotCancel) {
  ds::DataStore store;
  store.put("t", "r", "c", 1, 10.0);
  ContainerTracker tracker(ds::ContainerRef::whole_table("t"),
                           make_impact_metric(ImpactKind::kMagnitudeCount),
                           AccumulationMode::kCumulative);
  tracker.reset(store);

  store.put("t", "r", "c", 2, 15.0);
  tracker.observe(store);
  store.put("t", "r", "c", 3, 10.0);
  EXPECT_EQ(tracker.observe(store), 10.0);  // 5 up + 5 down
}

TEST(ContainerTracker, ResetZeroesAccumulationAndRebaselines) {
  ds::DataStore store;
  ContainerTracker tracker(ds::ContainerRef::whole_table("t"),
                           make_impact_metric(ImpactKind::kMagnitudeCount),
                           AccumulationMode::kCumulative);
  store.put("t", "r", "c", 1, 10.0);
  tracker.observe(store);
  tracker.reset(store);
  EXPECT_EQ(tracker.accumulated(), 0.0);
  EXPECT_EQ(tracker.observe(store), 0.0);  // no change since reset
}

TEST(ContainerTracker, ScopedToColumn) {
  ds::DataStore store;
  ContainerTracker tracker(ds::ContainerRef::column("t", "a"),
                           make_impact_metric(ImpactKind::kMagnitudeCount),
                           AccumulationMode::kCumulative);
  tracker.reset(store);
  store.put("t", "r", "a", 1, 5.0);
  store.put("t", "r", "b", 1, 100.0);  // other column: invisible
  EXPECT_EQ(tracker.observe(store), 5.0);
}

TEST(ContainerTracker, FlatSeriesMatchesMapBasedSeries) {
  // The tracker (flat-snapshot path) must produce the exact per-wave series a
  // manual map-snapshot accumulation does, in both modes — byte-identical
  // doubles, not just near.
  for (auto mode : {AccumulationMode::kCumulative, AccumulationMode::kCancelling}) {
    ds::DataStore store;
    const auto container = ds::ContainerRef::whole_table("t");
    ContainerTracker tracker(container, make_impact_metric(ImpactKind::kRelative), mode);
    tracker.reset(store);

    auto metric = make_impact_metric(ImpactKind::kRelative);
    std::map<std::string, double> last_seen, baseline;
    double accumulated = 0.0;

    for (ds::Timestamp wave = 1; wave <= 8; ++wave) {
      for (int i = 0; i < 12; ++i) {
        if ((static_cast<int>(wave) + i) % 3 == 0) continue;  // some cells idle
        store.put("t", test::key("r", i), "c", wave,
                  static_cast<double>(wave * 7 + i) * 0.25);
      }
      if (wave == 4) store.erase("t", "r5", "c", wave);

      const auto current = test::keyed(store.snapshot_flat(container));
      double expected;
      if (mode == AccumulationMode::kCumulative) {
        accumulated += compute_change(current, last_seen, *metric);
        expected = accumulated;
      } else {
        expected = compute_change(current, baseline, *metric);
      }
      last_seen = current;
      EXPECT_EQ(tracker.observe(store), expected) << "wave " << wave;
    }
  }
}

TEST(StepMonitor, CombinesMultipleInputsGeometrically) {
  ds::DataStore store;
  StepMonitor::Options opts;
  auto spec = make_step({ds::ContainerRef::whole_table("in1"),
                         ds::ContainerRef::whole_table("in2")},
                        {ds::ContainerRef::whole_table("out")});
  StepMonitor monitor(spec, opts);

  store.put("in1", "r", "c", 1, 2.0);
  store.put("in2", "r", "c", 1, 8.0);
  EXPECT_NEAR(monitor.observe_inputs(store), 4.0, 1e-6);  // geometric mean
}

TEST(StepMonitor, OutputErrorIsMaxAcrossContainers) {
  ds::DataStore store;
  StepMonitor::Options opts;
  opts.error = ErrorKind::kRmse;
  opts.rmse_value_range = 1.0;
  auto spec = make_step({}, {ds::ContainerRef::whole_table("o1"),
                             ds::ContainerRef::whole_table("o2")});
  StepMonitor monitor(spec, opts);
  monitor.reset_outputs(store);

  store.put("o1", "r", "c", 1, 3.0);   // rmse 3
  store.put("o2", "r", "c", 1, 10.0);  // rmse 10
  EXPECT_NEAR(monitor.observe_outputs(store), 10.0, 1e-12);
}

TEST(StepMonitor, InputImpactWithoutObserveReturnsAccumulated) {
  ds::DataStore store;
  auto spec = make_step({ds::ContainerRef::whole_table("in")},
                        {ds::ContainerRef::whole_table("out")});
  StepMonitor monitor(spec, {});
  EXPECT_EQ(monitor.input_impact(), 0.0);
  store.put("in", "r", "c", 1, 4.0);
  monitor.observe_inputs(store);
  EXPECT_EQ(monitor.input_impact(), 4.0);
}

TEST(StepMonitor, ResetInputsClearsImpact) {
  ds::DataStore store;
  auto spec = make_step({ds::ContainerRef::whole_table("in")},
                        {ds::ContainerRef::whole_table("out")});
  StepMonitor monitor(spec, {});
  store.put("in", "r", "c", 1, 4.0);
  monitor.observe_inputs(store);
  monitor.reset_inputs(store);
  EXPECT_EQ(monitor.input_impact(), 0.0);
}

TEST(StepMonitor, LastOutputDeltaTracksLatestWave) {
  ds::DataStore store;
  auto spec = make_step({}, {ds::ContainerRef::whole_table("out")});
  StepMonitor::Options opts;
  opts.error = ErrorKind::kRmse;
  StepMonitor monitor(spec, opts);
  monitor.reset_outputs(store);
  store.put("out", "r", "c", 1, 4.0);
  monitor.observe_outputs(store);
  EXPECT_NEAR(monitor.last_output_delta(), 4.0, 1e-12);
  store.put("out", "r", "c", 2, 5.0);
  monitor.observe_outputs(store);
  EXPECT_NEAR(monitor.last_output_delta(), 1.0, 1e-12);
}

}  // namespace
}  // namespace smartflux::core
