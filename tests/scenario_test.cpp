#include <gtest/gtest.h>

#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "datastore/client.h"
#include "datastore/container_ref.h"
#include "datastore/datastore.h"
#include "scenario/scenario.h"
#include "wms/engine.h"
#include "wms/journal.h"

namespace smartflux::scenario {
namespace {

using smartflux::FaultRule;

constexpr std::size_t kRows = 4;

/// Base workload ingest: kRows cells per wave with wave-derived values.
wms::WaveIngest base_ingest() {
  return [](ds::Client& client, ds::Timestamp wave) {
    for (std::size_t i = 0; i < kRows; ++i) {
      client.put("feed", "r" + std::to_string(i), "v",
                 static_cast<double>(wave * 100 + i));
    }
  };
}

/// Canonical dump: every table, cell and version in deterministic order.
std::string dump(const ds::DataStore& store) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const ds::TableName& table : store.table_names()) {
    os << "table " << table << '\n';
    for (const ds::FlatEntry& e : store.snapshot_flat(ds::ContainerRef::whole_table(table))) {
      os << "  " << *e.row << '|' << *e.col << " =";
      for (const ds::CellVersion& v : store.cell_versions(table, *e.row, *e.col)) {
        os << ' ' << v.timestamp << ':' << v.value;
      }
      os << '\n';
    }
  }
  return os.str();
}

/// Runs `waves` waves of the wrapped base ingest into a fresh store.
std::string run_and_dump(const ScenarioOptions& options, std::size_t waves,
                         ScenarioStats* stats_out = nullptr) {
  ScenarioEngine engine(options);
  const wms::WaveIngest ingest = engine.wrap(base_ingest());
  ds::DataStore store(8);
  for (ds::Timestamp wave = 1; wave <= waves; ++wave) {
    ds::Client client(store, wave);
    ingest(client, wave);
  }
  if (stats_out != nullptr) *stats_out = engine.stats();
  return dump(store);
}

ScenarioOptions everything_enabled(std::uint64_t seed) {
  ScenarioOptions options;
  options.seed = seed;
  options.burst = BurstOptions{.period = 4, .length = 1, .factor = 3.0};
  options.late = LateOptions{.probability = 0.3, .delay = 2};
  options.drop = DropOptions{.probability = 0.2};
  options.hot_key = HotKeyOptions{.fraction = 0.3, .hot_keys = 2};
  FlashEvent flash;
  flash.first_wave = 3;
  flash.last_wave = 5;
  flash.scale = 2.0;
  options.flash.push_back(flash);
  return options;
}

TEST(ScenarioEngine, SameSeedReproducesTheExactMutationSchedule) {
  ScenarioStats stats_a, stats_b;
  const std::string a = run_and_dump(everything_enabled(11), 20, &stats_a);
  const std::string b = run_and_dump(everything_enabled(11), 20, &stats_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(stats_a.cells_dropped, stats_b.cells_dropped);
  EXPECT_EQ(stats_a.cells_deferred, stats_b.cells_deferred);
  EXPECT_EQ(stats_a.cells_emitted, stats_b.cells_emitted);
  EXPECT_EQ(stats_a.hot_key_redirects, stats_b.hot_key_redirects);

  const std::string c = run_and_dump(everything_enabled(12), 20);
  EXPECT_NE(a, c);  // a different seed reschedules the chaos
}

TEST(ScenarioEngine, DisabledScenarioIsAPassThrough) {
  ScenarioStats stats;
  const std::string wrapped = run_and_dump(ScenarioOptions{}, 6, &stats);

  ds::DataStore plain(8);
  const wms::WaveIngest ingest = base_ingest();
  for (ds::Timestamp wave = 1; wave <= 6; ++wave) {
    ds::Client client(plain, wave);
    ingest(client, wave);
  }
  EXPECT_EQ(wrapped, dump(plain));
  EXPECT_EQ(stats.cells_in, 6u * kRows);
  EXPECT_EQ(stats.cells_emitted, stats.cells_in);
  EXPECT_EQ(stats.cells_dropped, 0u);
  EXPECT_EQ(stats.cells_deferred, 0u);
  EXPECT_EQ(stats.burst_cells, 0u);
  EXPECT_EQ(stats.hot_key_redirects, 0u);
  EXPECT_EQ(stats.flash_cells, 0u);
}

TEST(ScenarioEngine, CellAccountingConservesEveryCell) {
  ScenarioStats stats;
  run_and_dump(everything_enabled(7), 25, &stats);
  // No cell is ever silently created or destroyed: everything captured or
  // replayed is either emitted, dropped, or parked for a later wave; burst
  // clones are the only additions and are counted.
  EXPECT_EQ(stats.cells_in + stats.cells_replayed + stats.burst_cells,
            stats.cells_emitted + stats.cells_dropped + stats.cells_deferred);
  EXPECT_GT(stats.cells_dropped, 0u);
  EXPECT_GT(stats.cells_deferred, 0u);
  EXPECT_GT(stats.burst_cells, 0u);
}

TEST(ScenarioEngine, DropSilencesCellsWithinTheWaveRange) {
  ScenarioOptions options;
  options.seed = 3;
  options.drop = DropOptions{.probability = 1.0, .first_wave = 2, .last_wave = 3};
  ScenarioStats stats;
  const std::string result = run_and_dump(options, 4, &stats);
  (void)result;
  EXPECT_EQ(stats.cells_dropped, 2u * kRows);
  EXPECT_EQ(stats.cells_emitted, 2u * kRows);

  // The surviving versions are exactly waves 1 and 4.
  ScenarioEngine engine(options);
  const wms::WaveIngest ingest = engine.wrap(base_ingest());
  ds::DataStore store(8);
  for (ds::Timestamp wave = 1; wave <= 4; ++wave) {
    ds::Client client(store, wave);
    ingest(client, wave);
  }
  std::set<ds::Timestamp> stamps;
  for (const ds::CellVersion& v : store.cell_versions("feed", "r0", "v")) {
    stamps.insert(v.timestamp);
  }
  EXPECT_EQ(stamps, (std::set<ds::Timestamp>{1, 4}));
}

TEST(ScenarioEngine, LateCellsArriveAtTheDeferredWaveWithArrivalTimestamps) {
  ScenarioOptions options;
  options.seed = 5;
  options.late = LateOptions{.probability = 1.0, .delay = 2};
  ScenarioEngine engine(options);
  const wms::WaveIngest ingest = engine.wrap(base_ingest());
  ds::DataStore store(8);
  for (ds::Timestamp wave = 1; wave <= 4; ++wave) {
    ds::Client client(store, wave);
    ingest(client, wave);
  }
  // Every fresh cell defers exactly once; deliveries carry the ARRIVAL
  // timestamp but the ORIGIN wave's value (a late report of old data).
  std::set<ds::Timestamp> stamps;
  for (const ds::CellVersion& v : store.cell_versions("feed", "r0", "v")) {
    stamps.insert(v.timestamp);
    if (v.timestamp == 3) { EXPECT_EQ(v.value, 100.0); }  // wave-1 report, 2 late
    if (v.timestamp == 4) { EXPECT_EQ(v.value, 200.0); }  // wave-2 report, 2 late
  }
  EXPECT_EQ(stamps, (std::set<ds::Timestamp>{3, 4}));

  const ScenarioStats& stats = engine.stats();
  EXPECT_EQ(stats.cells_in, 4u * kRows);
  EXPECT_EQ(stats.cells_deferred, 4u * kRows);  // every fresh cell, once
  EXPECT_EQ(stats.cells_replayed, 2u * kRows);  // waves 3 and 4 deliveries
  EXPECT_EQ(stats.cells_emitted, 2u * kRows);   // waves 5,6 deliveries never came
}

TEST(ScenarioEngine, HotKeySkewRedirectsOntoTheSharedRowPool) {
  ScenarioOptions options;
  options.seed = 9;
  options.hot_key = HotKeyOptions{.fraction = 1.0, .hot_keys = 2};
  ScenarioEngine engine(options);
  const wms::WaveIngest ingest = engine.wrap(base_ingest());
  ds::DataStore store(8);
  for (ds::Timestamp wave = 1; wave <= 2; ++wave) {
    ds::Client client(store, wave);
    ingest(client, wave);
  }
  std::set<std::string> rows;
  for (const ds::FlatEntry& e : store.snapshot_flat(ds::ContainerRef::whole_table("feed"))) {
    rows.insert(*e.row);
  }
  for (const std::string& row : rows) {
    EXPECT_EQ(row.rfind("hot~", 0), 0u) << "non-hot row survived full skew: " << row;
  }
  EXPECT_LE(rows.size(), 2u);
  EXPECT_EQ(engine.stats().hot_key_redirects, 2u * kRows);
}

TEST(ScenarioEngine, FlashEventRewritesMatchingCellValues) {
  ScenarioOptions options;
  options.seed = 2;
  FlashEvent flash;
  flash.first_wave = 2;
  flash.last_wave = 3;
  flash.table = "feed";
  flash.scale = 2.0;
  flash.offset = 10.0;
  options.flash.push_back(flash);

  ScenarioEngine engine(options);
  const wms::WaveIngest ingest = engine.wrap(base_ingest());
  ds::DataStore store(8);
  for (ds::Timestamp wave = 1; wave <= 4; ++wave) {
    ds::Client client(store, wave);
    ingest(client, wave);
  }
  for (const ds::CellVersion& v : store.cell_versions("feed", "r0", "v")) {
    const double base = static_cast<double>(v.timestamp * 100);
    const bool in_window = v.timestamp >= 2 && v.timestamp <= 3;
    EXPECT_EQ(v.value, in_window ? base * 2.0 + 10.0 : base);
  }
  EXPECT_EQ(engine.stats().flash_cells, 2u * kRows);
}

TEST(ScenarioEngine, BurstWavesCloneTheWaveIntoABoundedKeyPool) {
  ScenarioOptions options;
  options.seed = 4;
  options.burst = BurstOptions{.period = 3, .length = 1, .factor = 3.0};
  ScenarioEngine engine(options);
  EXPECT_FALSE(engine.burst_wave(1));
  EXPECT_FALSE(engine.burst_wave(2));
  EXPECT_TRUE(engine.burst_wave(3));  // wave % period < length

  const wms::WaveIngest ingest = engine.wrap(base_ingest());
  ds::DataStore store(8);
  for (ds::Timestamp wave = 1; wave <= 3; ++wave) {
    ds::Client client(store, wave);
    ingest(client, wave);
  }
  // Clones land beside the real rows under bounded "~b<i>" suffixes.
  std::set<ds::Timestamp> clone_stamps;
  for (const ds::CellVersion& v : store.cell_versions("feed", "r0~b0", "v")) {
    clone_stamps.insert(v.timestamp);
    EXPECT_EQ(v.value, 300.0);  // clone of wave 3's r0
  }
  EXPECT_EQ(clone_stamps, (std::set<ds::Timestamp>{3}));
  EXPECT_EQ(engine.stats().burst_cells, (3u - 1u) * kRows);  // one burst wave
}

TEST(Campaign, OneSeedReproducesInputChaosAndFaultSchedules) {
  CampaignOptions options;
  options.seed = 99;
  options.scenario.drop = DropOptions{.probability = 0.3};
  options.scenario.hot_key = HotKeyOptions{.fraction = 0.2, .hot_keys = 2};
  options.step_faults.push_back(FaultRule{.step_id = "flaky", .probability = 0.5});

  const auto run = [](const CampaignOptions& campaign_options) {
    Campaign campaign(campaign_options);
    ds::DataStore store(4);
    wms::StepSpec flaky;
    flaky.id = "flaky";
    flaky.fn = [](wms::StepContext& ctx) {
      ctx.client.put("out", "r", "v", static_cast<double>(ctx.wave));
    };
    wms::WorkflowEngine engine(
        wms::WorkflowSpec("camp", {flaky}), store,
        wms::WorkflowEngine::Options{.retry = wms::RetryPolicy::skip_failures(),
                                     .fault_injector = &campaign.faults()});
    wms::WaveJournal journal;
    engine.attach_journal(&journal);
    wms::SyncController sync;
    const wms::WaveIngest ingest = campaign.wrap(base_ingest());
    for (ds::Timestamp wave = 1; wave <= 30; ++wave) {
      ds::Client client(store, wave);
      ingest(client, wave);
      engine.run_wave(wave, sync);
    }
    return dump(store) + "\n" + journal.to_string();
  };

  const std::string a = run(options);
  const std::string b = run(options);
  EXPECT_EQ(a, b);  // one number reproduces the whole campaign

  CampaignOptions other = options;
  other.seed = 100;
  EXPECT_NE(a, run(other));

  // The derived streams are decorrelated from the master seed.
  Campaign campaign(options);
  EXPECT_NE(campaign.scenario().options().seed, options.seed);
}

TEST(ScenarioEngine, ComposesWithPressuredPipelinedExecution) {
  ScenarioOptions options;
  options.seed = 5;
  options.burst = BurstOptions{.period = 4, .length = 1, .factor = 3.0};
  options.hot_key = HotKeyOptions{.fraction = 0.3, .hot_keys = 2};
  ScenarioEngine scenario(options);

  ds::DataStore store(4);
  wms::StepSpec copy;
  copy.id = "copy";
  copy.fn = [](wms::StepContext& ctx) {
    ctx.client.put("out", "r", "v", ctx.client.get("feed", "r0", "v").value_or(-1.0));
  };
  wms::WorkflowEngine engine(wms::WorkflowSpec("chaos", {copy}), store);
  wms::WaveJournal journal;
  engine.attach_journal(&journal);
  wms::SyncController sync;
  wms::PressureStats stats;
  const auto results = engine.run_waves_pipelined(
      1, 12, sync, scenario.wrap(base_ingest()),
      wms::PressureOptions{.high_watermark = 2, .low_watermark = 1}, &stats);

  ASSERT_EQ(results.size(), 12u);
  ASSERT_EQ(journal.size(), 12u);
  for (std::size_t k = 0; k < 12; ++k) EXPECT_EQ(journal.records()[k].wave, k + 1);
  EXPECT_EQ(stats.pushed, 12u);
  EXPECT_GT(scenario.stats().cells_emitted, 0u);
  EXPECT_EQ(scenario.stats().cells_in, 12u * kRows);
}

}  // namespace
}  // namespace smartflux::scenario
