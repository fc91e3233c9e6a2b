#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.h"
#include "datastore/client.h"
#include "wms/scheduler.h"

namespace smartflux::wms {
namespace {

WorkflowSpec counter_spec() {
  StepSpec s;
  s.id = "count";
  s.fn = [](StepContext& ctx) {
    const double n = ctx.client.get("t", "r", "executions").value_or(0.0);
    ctx.client.put("t", "r", "executions", n + 1.0);
  };
  return WorkflowSpec("counter", {s});
}

TEST(SimulatedClock, StartsAtZeroAndAdvances) {
  SimulatedClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(250);
  clock.advance(750);
  EXPECT_EQ(clock.now(), 1000u);
}

TEST(PeriodicWaveSource, NothingDueBeforeFirstPeriod) {
  PeriodicWaveSource source(1000);
  EXPECT_EQ(source.waves_due(0), 0u);
  EXPECT_EQ(source.waves_due(999), 0u);
  EXPECT_EQ(source.waves_due(1000), 1u);
}

TEST(PeriodicWaveSource, CatchesUpWhenPolledLate) {
  PeriodicWaveSource source(100);
  EXPECT_EQ(source.waves_due(350), 3u);  // deadlines at 100, 200, 300
  source.on_wave_started(350);
  EXPECT_EQ(source.waves_due(350), 2u);
}

TEST(PeriodicWaveSource, BacklogBounded) {
  PeriodicWaveSource source(10, /*max_backlog=*/4);
  EXPECT_EQ(source.waves_due(100000), 4u);
}

TEST(PeriodicWaveSource, RejectsZeroPeriod) {
  EXPECT_THROW(PeriodicWaveSource(0), smartflux::InvalidArgument);
}

TEST(WaveDriver, RunsPeriodicWaves) {
  ds::DataStore store;
  WorkflowEngine engine(counter_spec(), store);
  SyncController sync;
  WaveDriver driver(engine, sync, std::make_unique<PeriodicWaveSource>(1000));
  SimulatedClock clock;

  EXPECT_TRUE(driver.poll(clock).empty());
  clock.advance(3500);
  const auto results = driver.poll(clock);
  ASSERT_EQ(results.size(), 3u);  // waves at t=1000, 2000, 3000
  EXPECT_EQ(results[0].wave, 1u);
  EXPECT_EQ(results[2].wave, 3u);
  EXPECT_EQ(store.get("t", "r", "executions"), 3.0);
  EXPECT_TRUE(driver.poll(clock).empty());  // caught up

  clock.advance(1000);
  EXPECT_EQ(driver.poll(clock).size(), 1u);
  EXPECT_EQ(driver.waves_run(), 4u);
  EXPECT_EQ(driver.next_wave(), 5u);
}

TEST(DataAvailabilityWaveSource, TriggersOnEnoughMutations) {
  ds::DataStore store;
  DataAvailabilityWaveSource source(store, ds::ContainerRef::whole_table("inbox"), 3);
  EXPECT_EQ(source.waves_due(0), 0u);
  store.put("inbox", "f1", "c", 1, 1.0);
  store.put("inbox", "f2", "c", 1, 1.0);
  EXPECT_EQ(source.waves_due(0), 0u);
  store.put("inbox", "f3", "c", 1, 1.0);
  EXPECT_EQ(source.waves_due(0), 1u);
  EXPECT_EQ(source.pending_mutations(), 3u);
  source.on_wave_started(0);
  EXPECT_EQ(source.waves_due(0), 0u);
}

TEST(DataAvailabilityWaveSource, IgnoresOtherContainers) {
  ds::DataStore store;
  DataAvailabilityWaveSource source(store, ds::ContainerRef::whole_table("inbox"), 1);
  store.put("elsewhere", "r", "c", 1, 1.0);
  EXPECT_EQ(source.waves_due(0), 0u);
}

TEST(WaveDriver, DataAvailabilityDrivesWaves) {
  ds::DataStore store;
  WorkflowEngine engine(counter_spec(), store);
  SyncController sync;
  WaveDriver driver(engine, sync,
                    std::make_unique<DataAvailabilityWaveSource>(
                        store, ds::ContainerRef::whole_table("inbox"), 2));
  SimulatedClock clock;

  store.put("inbox", "f1", "c", 1, 1.0);
  EXPECT_TRUE(driver.poll(clock).empty());
  store.put("inbox", "f2", "c", 1, 1.0);
  EXPECT_EQ(driver.poll(clock).size(), 1u);
  EXPECT_TRUE(driver.poll(clock).empty());  // counter was reset
}

TEST(WaveDriver, SelfFeedingWorkflowDoesNotSpin) {
  // A workflow writing into its own watched container must not loop forever
  // within one poll: the re-armed trigger surfaces at the next poll.
  StepSpec s;
  s.id = "echo";
  s.fn = [](StepContext& ctx) { ctx.client.put("inbox", "echo", "c", 1.0); };
  ds::DataStore store;
  WorkflowEngine engine(WorkflowSpec("echo", {s}), store);
  SyncController sync;
  WaveDriver driver(engine, sync,
                    std::make_unique<DataAvailabilityWaveSource>(
                        store, ds::ContainerRef::whole_table("inbox"), 1));
  SimulatedClock clock;

  store.put("inbox", "seed", "c", 1, 1.0);
  EXPECT_EQ(driver.poll(clock).size(), 1u);  // one wave, not an infinite spin
  EXPECT_EQ(driver.poll(clock).size(), 1u);  // the echo write re-armed it
}

}  // namespace
}  // namespace smartflux::wms
