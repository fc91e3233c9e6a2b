#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/fault_injection.h"
#include "core/smartflux.h"
#include "datastore/client.h"
#include "datastore/datastore.h"
#include "keys.h"
#include "wms/backpressure.h"
#include "wms/engine.h"
#include "wms/journal.h"

namespace smartflux::wms {
namespace {

using smartflux::DiskFaultKind;
using smartflux::DiskFaultRule;
using smartflux::FaultInjector;
using smartflux::InjectedFault;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// BoundedWaveQueue invariants
// ---------------------------------------------------------------------------

TEST(BoundedWaveQueue, DepthNeverExceedsHighWatermarkUnderConcurrency) {
  BoundedWaveQueue queue(PressureOptions{.high_watermark = 5, .low_watermark = 2});
  constexpr std::size_t kWaves = 400;
  std::atomic<std::size_t> popped{0};
  std::thread consumer([&] {
    while (auto wave = queue.pop()) {
      ++popped;
      EXPECT_LE(queue.depth(), 5u);
    }
  });
  std::thread producer([&] {
    for (std::size_t w = 1; w <= kWaves; ++w) EXPECT_TRUE(queue.push(w));
  });
  producer.join();
  queue.close();
  consumer.join();

  const PressureStats stats = queue.stats();
  EXPECT_EQ(popped.load(), kWaves);
  EXPECT_EQ(stats.pushed, kWaves);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.peak_depth, 5u);
  // Conservation at quiescence: nothing admitted was lost.
  EXPECT_EQ(stats.pushed, popped.load() + queue.depth());
}

TEST(BoundedWaveQueue, BlockedProducerResumesOnceDrainedToLowWatermark) {
  BoundedWaveQueue queue(PressureOptions{.high_watermark = 4, .low_watermark = 2});
  for (ds::Timestamp w = 1; w <= 4; ++w) EXPECT_TRUE(queue.push(w));
  EXPECT_TRUE(queue.gated());

  std::atomic<bool> resumed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(5));
    resumed = true;
  });
  while (queue.stats().producer_blocks == 0) std::this_thread::sleep_for(milliseconds{1});
  EXPECT_FALSE(resumed.load());

  // Draining to depth 3 (> low watermark) must NOT reopen the gate.
  EXPECT_EQ(queue.pop().value(), 1u);
  std::this_thread::sleep_for(milliseconds{20});
  EXPECT_TRUE(queue.gated());
  EXPECT_FALSE(resumed.load());

  // Hitting the low watermark reopens it and the producer completes.
  EXPECT_EQ(queue.pop().value(), 2u);
  producer.join();
  EXPECT_TRUE(resumed.load());
  EXPECT_EQ(queue.depth(), 3u);

  const PressureStats stats = queue.stats();
  EXPECT_EQ(stats.pushed, 5u);
  EXPECT_EQ(stats.producer_blocks, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.peak_depth, 4u);
}

TEST(BoundedWaveQueue, ShedPolicyRefusesWhileGatedAndReopensAfterDrain) {
  BoundedWaveQueue queue(PressureOptions{
      .high_watermark = 3, .low_watermark = 1, .overflow = OverflowPolicy::kShed});
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  EXPECT_TRUE(queue.gated());
  EXPECT_FALSE(queue.push(4));  // refused immediately, never blocks
  EXPECT_FALSE(queue.push(5));

  EXPECT_EQ(queue.pop().value(), 1u);  // depth 2 > low: hysteresis holds
  EXPECT_FALSE(queue.push(6));
  EXPECT_EQ(queue.pop().value(), 2u);  // depth 1 == low: gate reopens
  EXPECT_TRUE(queue.push(7));

  const PressureStats stats = queue.stats();
  EXPECT_EQ(stats.pushed, 4u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.producer_blocks, 0u);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(stats.pushed, 2u /*popped*/ + queue.depth());
}

TEST(BoundedWaveQueue, CloseUnblocksProducersAndDrainsConsumers) {
  BoundedWaveQueue queue(PressureOptions{.high_watermark = 2});
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  std::thread producer([&] { EXPECT_FALSE(queue.push(3)); });
  while (queue.stats().producer_blocks == 0) std::this_thread::sleep_for(milliseconds{1});
  queue.close();
  producer.join();

  EXPECT_EQ(queue.pop().value(), 1u);
  EXPECT_EQ(queue.pop().value(), 2u);
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_FALSE(queue.push(9));  // closed: refused even with the gate open
}

TEST(BoundedWaveQueue, UnboundedByDefault) {
  BoundedWaveQueue queue;  // high_watermark 0 = pre-backpressure behaviour
  for (ds::Timestamp w = 1; w <= 100; ++w) EXPECT_TRUE(queue.push(w));
  EXPECT_FALSE(queue.gated());
  EXPECT_EQ(queue.depth(), 100u);
}

// ---------------------------------------------------------------------------
// Pressured pipelined execution
// ---------------------------------------------------------------------------

/// One step copying the wave's feed value, optionally slowed down so the
/// ingest producer outruns compute.
WorkflowSpec copy_spec(milliseconds compute_delay = milliseconds{0}) {
  StepSpec copy;
  copy.id = "copy";
  copy.fn = [compute_delay](StepContext& ctx) {
    if (compute_delay.count() > 0) std::this_thread::sleep_for(compute_delay);
    ctx.client.put("out", "r", "v", ctx.client.get("feed", "r", "v").value_or(-1.0));
  };
  return WorkflowSpec("bp", {copy});
}

WaveIngest feed_ingest() {
  return [](ds::Client& client, ds::Timestamp wave) {
    client.put("feed", "r", "v", static_cast<double>(wave));
  };
}

TEST(PressuredPipeline, BlockPolicyRunsEveryWaveWithinTheWatermark) {
  ds::DataStore store(4);
  WorkflowEngine engine(copy_spec(milliseconds{1}), store);
  SyncController sync;
  PressureStats stats;
  const auto results = engine.run_waves_pipelined(
      1, 24, sync, feed_ingest(), PressureOptions{.high_watermark = 4, .low_watermark = 2},
      &stats);

  ASSERT_EQ(results.size(), 24u);
  for (std::size_t k = 0; k < results.size(); ++k) {
    EXPECT_EQ(results[k].wave, k + 1);
    EXPECT_TRUE(results[k].executed[0]);
  }
  EXPECT_EQ(stats.pushed, 24u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.peak_depth, 4u);
  EXPECT_EQ(engine.waves_shed(), 0u);
  // As-of isolation: every computed wave saw exactly its own ingest.
  for (const ds::CellVersion& v : store.cell_versions("out", "r", "v")) {
    EXPECT_EQ(v.value, static_cast<double>(v.timestamp));
  }
}

TEST(PressuredPipeline, ShedPolicyJournalsRefusedWavesNeverLosesOne) {
  ds::DataStore store(2);
  WorkflowEngine engine(copy_spec(milliseconds{4}), store);
  WaveJournal journal;
  engine.attach_journal(&journal);
  SyncController sync;
  PressureStats stats;
  constexpr std::size_t kCount = 24;
  const auto results = engine.run_waves_pipelined(
      1, kCount, sync, feed_ingest(),
      PressureOptions{
          .high_watermark = 2, .low_watermark = 1, .overflow = OverflowPolicy::kShed},
      &stats);

  ASSERT_EQ(results.size(), kCount);
  EXPECT_EQ(stats.pushed + stats.shed, kCount);
  EXPECT_GT(stats.shed, 0u);  // compute is 4ms/wave, ingest ~instant: must shed
  EXPECT_EQ(engine.waves_shed(), stats.shed);

  // Every wave is journaled exactly once, in order; shed waves as all-skipped.
  ASSERT_EQ(journal.size(), kCount);
  std::size_t all_skipped_records = 0;
  for (std::size_t k = 0; k < kCount; ++k) {
    const WaveRecord& record = journal.records()[k];
    EXPECT_EQ(record.wave, k + 1);
    bool all_skipped = true;
    for (const StepStatus status : record.status) {
      if (status != StepStatus::kSkipped) all_skipped = false;
    }
    if (all_skipped) ++all_skipped_records;
    EXPECT_EQ(results[k].wave, k + 1);
    if (all_skipped) { EXPECT_EQ(results[k].executed_count(), 0u); }
  }
  EXPECT_EQ(all_skipped_records, stats.shed);
}

TEST(PressuredPipeline, ValidatesWatermarkAgainstStoreCapacity) {
  ds::DataStore store(2);
  WorkflowEngine engine(copy_spec(), store);
  SyncController sync;
  // high_watermark above max_versions: a computing wave could lose its own
  // version to the ingests admitted ahead of it.
  EXPECT_THROW(engine.run_waves_pipelined(1, 4, sync, feed_ingest(),
                                          PressureOptions{.high_watermark = 4}),
               InvalidArgument);
  // The pressured overload requires pressure to actually be enabled.
  EXPECT_THROW(engine.run_waves_pipelined(1, 4, sync, feed_ingest(), PressureOptions{}),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// shed_wave accounting and restore
// ---------------------------------------------------------------------------

TEST(ShedWave, JournaledAsAllSkippedAndRestorable) {
  ds::DataStore store;
  WorkflowEngine engine(copy_spec(), store);
  WaveJournal journal;
  engine.attach_journal(&journal);
  SyncController sync;

  engine.run_wave(1, sync);
  const WaveResult shed = engine.shed_wave(2);
  EXPECT_EQ(shed.wave, 2u);
  EXPECT_EQ(shed.executed_count(), 0u);
  for (const StepStatus status : shed.status) EXPECT_EQ(status, StepStatus::kSkipped);
  engine.run_wave(3, sync);

  EXPECT_EQ(engine.waves_run(), 3u);
  EXPECT_EQ(engine.waves_shed(), 1u);
  EXPECT_EQ(engine.execution_count(0), 2u);
  EXPECT_THROW(engine.shed_wave(3), InvalidArgument);  // strictly increasing

  // A fresh engine restored from the journal resumes past the shed wave.
  ds::DataStore store2;
  WorkflowEngine restored(copy_spec(), store2);
  restored.restore_from_journal(journal);
  EXPECT_EQ(restored.last_wave(), std::optional<ds::Timestamp>{3});
  EXPECT_EQ(restored.execution_count(0), 2u);
  const WaveResult next = restored.run_wave(4, sync);
  EXPECT_TRUE(next.executed[0]);
}

// ---------------------------------------------------------------------------
// Crash matrix entry: killed mid-shed
// ---------------------------------------------------------------------------

TEST(CrashRecovery, CrashMidShedRecoversWithoutLosingWaves) {
  const std::string dir = testing::TempDir() + "sf_crash_mid_shed";
  std::filesystem::remove_all(dir);
  const std::string journal_path = testing::TempDir() + "sf_crash_mid_shed.journal";
  std::filesystem::remove(journal_path);

  FaultInjector injector;
  {
    ds::DataStore store(2);
    store.enable_durability(dir, ds::DurabilityOptions{.fault_injector = &injector});
    WorkflowEngine engine(copy_spec(), store);
    WaveJournal journal;
    engine.attach_journal(&journal);
    journal.open_sink(journal_path);
    SyncController sync;
    for (ds::Timestamp wave = 1; wave <= 3; ++wave) {
      ds::Client client(store, wave);
      client.put("feed", "r", "v", static_cast<double>(wave));
      engine.run_wave(wave, sync);
    }
    // Kill the process at the shed wave's commit record: the store never
    // makes wave 4 durable and the journal never records it.
    injector.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal"});
    EXPECT_THROW(engine.shed_wave(4), InjectedFault);
  }  // crash: engine and store die

  ds::RecoveryInfo info;
  auto recovered = ds::DataStore::recover(dir, {}, /*max_versions=*/2, &info);
  ASSERT_EQ(info.last_durable_wave, std::optional<ds::Timestamp>{3});

  WaveJournal journal = WaveJournal::load_file(journal_path).truncated_to(3);
  EXPECT_EQ(journal.last_wave(), std::optional<ds::Timestamp>{3});  // shed record never landed

  WorkflowEngine engine(copy_spec(), *recovered);
  engine.restore_from_journal(journal);
  EXPECT_EQ(engine.last_wave(), std::optional<ds::Timestamp>{3});
  engine.attach_journal(&journal);
  journal.open_sink(journal_path);

  // Re-shedding the lost wave succeeds and is accounted, not lost.
  const WaveResult reshed = engine.shed_wave(4);
  EXPECT_EQ(reshed.executed_count(), 0u);
  EXPECT_EQ(engine.waves_shed(), 1u);

  const WaveJournal final_journal = WaveJournal::load_file(journal_path);
  ASSERT_EQ(final_journal.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(final_journal.records()[k].wave, k + 1);
  for (const StepStatus status : final_journal.records()[3].status) {
    EXPECT_EQ(status, StepStatus::kSkipped);
  }
}

}  // namespace
}  // namespace smartflux::wms

// ---------------------------------------------------------------------------
// SmartFlux health state machine
// ---------------------------------------------------------------------------

namespace smartflux::core {
namespace {

/// Deterministic ramp workflow: intolerant "src" feeding tolerant "agg".
wms::WorkflowSpec ramp_spec(double bound = 2.5) {
  wms::StepSpec src;
  src.id = "src";
  src.outputs = {ds::ContainerRef::whole_table("in")};
  src.fn = [](wms::StepContext& ctx) {
    ctx.client.put("in", "r", "v", 200.0 + static_cast<double>(ctx.wave));
  };
  wms::StepSpec agg;
  agg.id = "agg";
  agg.predecessors = {"src"};
  agg.inputs = {ds::ContainerRef::whole_table("in")};
  agg.outputs = {ds::ContainerRef::whole_table("out")};
  agg.max_error = bound;
  agg.fn = [](wms::StepContext& ctx) {
    ctx.client.put("out", "r", "v", ctx.client.get("in", "r", "v").value_or(0.0));
  };
  return wms::WorkflowSpec("ramp", {src, agg});
}

SmartFluxOptions overload_options(std::size_t catchup = 8, bool store_pressure = false) {
  SmartFluxOptions opts;
  opts.monitor.error = ErrorKind::kRmse;
  opts.monitor.rmse_value_range = 1.0;
  opts.overload = OverloadOptions{.pressured_backlog = 2,
                                  .shedding_backlog = 4,
                                  .halted_backlog = 6,
                                  .catchup_budget = catchup,
                                  .consider_store_pressure = store_pressure};
  return opts;
}

TEST(OverloadHealth, EscalatesImmediatelyDeescalatesOneLevelPerWave) {
  ds::DataStore store;
  wms::WorkflowEngine engine(ramp_spec(), store);
  SmartFluxEngine sf(engine, overload_options());
  sf.train(1, 30);
  sf.build_model();

  sf.run_wave(31);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kHealthy);

  // Backlog 4 jumps straight from healthy to shedding (escalation is
  // immediate, no intermediate pressured wave).
  sf.report_backlog(4);
  const wms::WaveResult shed = sf.run_wave(32);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kShedding);
  EXPECT_EQ(shed.executed_count(), 0u);
  EXPECT_EQ(sf.overload_stats().waves_shed, 1u);
  EXPECT_EQ(engine.waves_shed(), 1u);

  // Backlog cleared: one level down per wave (shedding -> pressured ->
  // healthy), never straight back.
  sf.report_backlog(0);
  const wms::WaveResult monitor = sf.run_wave(33);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kPressured);
  // Monitor-only wave: intolerant steps still run, tolerant ones are skipped.
  EXPECT_TRUE(monitor.executed[0]);
  EXPECT_EQ(monitor.status[1], wms::StepStatus::kSkipped);
  EXPECT_EQ(sf.overload_stats().monitor_only_waves, 1u);

  sf.run_wave(34);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kHealthy);
  EXPECT_EQ(sf.overload_stats().transitions, 3u);
}

TEST(OverloadHealth, HaltedRefusesWorkByThrowing) {
  ds::DataStore store;
  wms::WorkflowEngine engine(ramp_spec(), store);
  SmartFluxEngine sf(engine, overload_options());
  sf.train(1, 30);
  sf.build_model();

  sf.report_backlog(6);
  EXPECT_THROW(sf.run_wave(31), Overloaded);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kHalted);
  // The refused wave never ran: the engine can still take it later.
  sf.report_backlog(0);
  const wms::WaveResult result = sf.run_wave(31);  // de-escalates to shedding
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kShedding);
  EXPECT_EQ(result.executed_count(), 0u);
}

TEST(OverloadHealth, CatchupBudgetForcesAFullWave) {
  ds::DataStore store;
  wms::WorkflowEngine engine(ramp_spec(), store);
  SmartFluxEngine sf(engine, overload_options(/*catchup=*/2));
  sf.train(1, 30);
  sf.build_model();

  // Hold the backlog at "pressured" forever: every wave would be
  // monitor-only without the catch-up budget.
  sf.report_backlog(2);
  sf.run_wave(31);
  sf.report_backlog(2);
  sf.run_wave(32);
  EXPECT_EQ(sf.overload_stats().monitor_only_waves, 2u);
  sf.report_backlog(2);
  const wms::WaveResult forced = sf.run_wave(33);
  EXPECT_EQ(sf.overload_stats().forced_full_waves, 1u);
  EXPECT_EQ(sf.overload_stats().monitor_only_waves, 2u);  // not another reduced wave
  EXPECT_TRUE(forced.executed[0]);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kPressured);  // still pressured
}

TEST(OverloadHealth, StoreMemoryPressureElevatesHealth) {
  ds::DataStore store;
  wms::WorkflowEngine engine(ramp_spec(), store);
  SmartFluxEngine sf(engine, overload_options(/*catchup=*/8, /*store_pressure=*/true));
  sf.train(1, 30);
  sf.build_model();

  // An impossible soft ceiling: the next committed wave flips the pressure
  // flag, and the wave after that sees it through target_health().
  store.set_memory_options(ds::MemoryOptions{.soft_limit_bytes = 1});
  sf.report_backlog(0);
  sf.run_wave(31);  // commit samples the footprint -> pressure
  EXPECT_TRUE(store.memory_pressure());
  const wms::WaveResult monitor = sf.run_wave(32);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kPressured);
  EXPECT_EQ(monitor.status[1], wms::StepStatus::kSkipped);
  EXPECT_GE(sf.overload_stats().monitor_only_waves, 1u);
}

TEST(OverloadHealth, DisabledMachineNeverInterferes) {
  ds::DataStore store;
  wms::WorkflowEngine engine(ramp_spec(), store);
  SmartFluxOptions opts;
  opts.monitor.error = ErrorKind::kRmse;
  opts.monitor.rmse_value_range = 1.0;  // overload left default-disabled
  SmartFluxEngine sf(engine, opts);
  sf.train(1, 30);
  sf.build_model();
  sf.report_backlog(1000);  // ignored: machine disabled
  const wms::WaveResult result = sf.run_wave(31);
  EXPECT_EQ(sf.health(), SmartFluxEngine::Health::kHealthy);
  EXPECT_TRUE(result.executed[0]);
  EXPECT_EQ(sf.overload_stats().transitions, 0u);
}

}  // namespace
}  // namespace smartflux::core

// ---------------------------------------------------------------------------
// DataStore soft memory ceiling
// ---------------------------------------------------------------------------

namespace smartflux::ds {
namespace {

TEST(MemoryCeiling, PressureTrimsSupersededVersionsAndAccounts) {
  DataStore store(4);
  for (Timestamp wave = 1; wave <= 3; ++wave) {
    for (int r = 0; r < 8; ++r) {
      store.put("t", test::key("r", r), "c", wave, static_cast<double>(wave * 10 + r));
    }
    store.commit_wave(wave);
  }
  EXPECT_FALSE(store.memory_pressure());
  EXPECT_GT(store.approx_memory_bytes(), 0u);

  store.set_memory_options(MemoryOptions{
      .soft_limit_bytes = 1, .trim_keep_versions = 1, .checkpoint_on_pressure = false});
  for (int r = 0; r < 8; ++r) {
    store.put("t", test::key("r", r), "c", 4, static_cast<double>(40 + r));
  }
  store.commit_wave(4);

  EXPECT_TRUE(store.memory_pressure());
  MemoryStats stats = store.memory_stats();
  EXPECT_EQ(stats.pressure_events, 1u);
  EXPECT_EQ(stats.versions_trimmed, 8u * 3u);  // 4 versions -> 1 per cell
  EXPECT_GT(stats.tracked_bytes, 0u);
  EXPECT_GE(stats.peak_tracked_bytes, stats.tracked_bytes);

  // The logical history shrank to the newest version; reads are unharmed.
  const auto versions = store.cell_versions("t", "r0", "c");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].timestamp, 4u);
  EXPECT_EQ(versions[0].value, 40.0);

  // Staying above the ceiling is ONE pressure event, not one per wave.
  store.put("t", "r0", "c", 5, 50.0);
  store.commit_wave(5);
  stats = store.memory_stats();
  EXPECT_EQ(stats.pressure_events, 1u);
  EXPECT_TRUE(store.memory_pressure());
}

TEST(MemoryCeiling, TrimKeepsTheConfiguredAsOfWindow) {
  DataStore store(4);
  store.set_memory_options(MemoryOptions{
      .soft_limit_bytes = 1, .trim_keep_versions = 2, .checkpoint_on_pressure = false});
  for (Timestamp wave = 1; wave <= 4; ++wave) {
    store.put("t", "r", "c", wave, static_cast<double>(wave));
    store.commit_wave(wave);
  }
  const auto versions = store.cell_versions("t", "r", "c");
  ASSERT_EQ(versions.size(), 2u);  // the two newest survive for in-flight as-of reads
  Timestamp newest = 0, oldest = ~Timestamp{0};
  for (const CellVersion& v : versions) {
    newest = std::max(newest, v.timestamp);
    oldest = std::min(oldest, v.timestamp);
  }
  EXPECT_EQ(oldest, 3u);
  EXPECT_EQ(newest, 4u);
}

TEST(MemoryCeiling, DisabledByDefault) {
  DataStore store(2);
  for (Timestamp wave = 1; wave <= 3; ++wave) {
    store.put("t", "r", "c", wave, 1.0);
    store.commit_wave(wave);
  }
  EXPECT_FALSE(store.memory_pressure());
  const MemoryStats stats = store.memory_stats();
  EXPECT_EQ(stats.pressure_events, 0u);
  EXPECT_EQ(stats.versions_trimmed, 0u);
}

TEST(MemoryCeiling, PressureCheckpointBoundsRecoveryDebt) {
  const std::string dir = testing::TempDir() + "sf_memory_ceiling_ckpt";
  std::filesystem::remove_all(dir);
  {
    DataStore store(2);
    store.enable_durability(dir);
    store.put("t", "r", "c", 1, 1.0);
    store.commit_wave(1);
    store.set_memory_options(MemoryOptions{.soft_limit_bytes = 1});
    store.put("t", "r", "c", 2, 2.0);
    store.commit_wave(2);  // pressure transition: checkpoint + WAL rotation
  }
  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, 2, &info);
  EXPECT_TRUE(info.checkpoint_loaded);
  EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{2});
  Client reader(*recovered, 2);
  EXPECT_EQ(reader.get("t", "r", "c"), std::optional<double>{2.0});
}

}  // namespace
}  // namespace smartflux::ds
