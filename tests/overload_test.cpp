#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "datastore/client.h"
#include "datastore/datastore.h"
#include "keys.h"
#include "wms/backpressure.h"
#include "wms/engine.h"

namespace smartflux::wms {
namespace {

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
  // As-of isolation: every computed wave saw exactly its own ingest.
  for (const ds::CellVersion& v : store.cell_versions("out", "r", "v")) {
    EXPECT_EQ(v.value, static_cast<double>(v.timestamp));
  }
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
  // Every admitted wave runs: refusing load belongs to admission, not here.
  EXPECT_THROW(engine.run_waves_pipelined(
                   1, 4, sync, feed_ingest(),
                   PressureOptions{
                       .high_watermark = 2, .low_watermark = 1, .overflow = OverflowPolicy::kShed}),
               InvalidArgument);
}

}  // namespace
}  // namespace smartflux::wms

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
