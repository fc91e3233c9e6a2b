#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/fault_injection.h"
#include "core/smartflux.h"
#include "datastore/datastore.h"
#include "datastore/wal.h"
#include "keys.h"
#include "wms/engine.h"
#include "wms/journal.h"

namespace smartflux::ds {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Canonical full-state dump of a store: every table (sorted), every cell in
/// scan order, with its complete version history. Two stores with equal
/// dumps are indistinguishable through the read API.
std::string dump_store(const DataStore& store) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const TableName& table : store.table_names()) {
    os << "table " << table << '\n';
    for (const FlatEntry& e : store.snapshot_flat(ContainerRef::whole_table(table))) {
      os << "  " << *e.row << '|' << *e.col << " =";
      for (const CellVersion& v : store.cell_versions(table, *e.row, *e.col)) {
        os << ' ' << v.timestamp << ':' << v.value;
      }
      os << '\n';
    }
  }
  return os.str();
}

/// Reference model of the store semantics, driven record-by-record — the
/// oracle the crash matrix compares recovered stores against.
struct ModelStore {
  std::size_t max_versions = 2;
  std::map<std::string, std::map<std::pair<std::string, std::string>, std::vector<CellVersion>>>
      tables;
  std::optional<Timestamp> last_wave;

  void create(const std::string& table) { tables.try_emplace(table); }
  void put(const std::string& table, const std::string& row, const std::string& column,
           Timestamp ts, double value) {
    auto& versions = tables[table][{row, column}];
    if (!versions.empty() && versions.front().timestamp == ts) {
      versions.front().value = value;
    } else {
      versions.insert(versions.begin(), CellVersion{ts, value});
      if (versions.size() > max_versions) versions.resize(max_versions);
    }
  }
  void erase(const std::string& table, const std::string& row, const std::string& column) {
    const auto it = tables.find(table);
    if (it != tables.end()) it->second.erase({row, column});
  }
  void drop(const std::string& table) { tables.erase(table); }
  void clear() { tables.clear(); }

  std::string dump() const {
    std::ostringstream os;
    os << std::setprecision(17);
    for (const auto& [table, cells] : tables) {
      os << "table " << table << '\n';
      for (const auto& [key, versions] : cells) {
        os << "  " << key.first << '|' << key.second << " =";
        for (const CellVersion& v : versions) os << ' ' << v.timestamp << ':' << v.value;
        os << '\n';
      }
    }
    return os.str();
  }
};

/// A deterministic workload whose WAL record sequence is known exactly: each
/// record i has a matching effect on the reference model, so "crash before
/// record N, recover" must reproduce records [0, N) applied in order.
struct Workload {
  std::vector<std::function<void(ModelStore&)>> record_effects;
  std::vector<std::function<void(DataStore&)>> calls;
  std::set<std::string> tables_seen;

  void ensure_create(const std::string& table) {
    if (tables_seen.insert(table).second) {
      record_effects.push_back([table](ModelStore& m) { m.create(table); });
    }
  }
  void put(const std::string& table, const std::string& row, const std::string& column,
           Timestamp ts, double value) {
    ensure_create(table);
    record_effects.push_back(
        [=](ModelStore& m) { m.put(table, row, column, ts, value); });
    calls.push_back([=](DataStore& s) { s.put(table, row, column, ts, value); });
  }
  void put_batch(const std::string& table, Timestamp ts,
                 std::vector<std::tuple<std::string, std::string, double>> cells) {
    ensure_create(table);
    record_effects.push_back([table, ts, cells](ModelStore& m) {
      for (const auto& [row, column, value] : cells) m.put(table, row, column, ts, value);
    });
    calls.push_back([table, ts, cells](DataStore& s) {
      std::vector<PutOp> ops;
      ops.reserve(cells.size());
      for (const auto& [row, column, value] : cells) ops.push_back({row, column, value});
      s.put_batch(table, ts, ops);
    });
  }
  void erase(const std::string& table, const std::string& row, const std::string& column,
             Timestamp ts) {
    record_effects.push_back([=](ModelStore& m) { m.erase(table, row, column); });
    calls.push_back([=](DataStore& s) { s.erase(table, row, column, ts); });
  }
  void drop(const std::string& table) {
    tables_seen.erase(table);  // the next put re-logs a create-table record
    record_effects.push_back([table](ModelStore& m) { m.drop(table); });
    calls.push_back([table](DataStore& s) { s.drop_table(table); });
  }
  void clear() {
    tables_seen.clear();
    record_effects.push_back([](ModelStore& m) { m.clear(); });
    calls.push_back([](DataStore& s) { s.clear(); });
  }
  void commit_wave(Timestamp wave) {
    record_effects.push_back([wave](ModelStore& m) { m.last_wave = wave; });
    calls.push_back([wave](DataStore& s) { s.commit_wave(wave); });
  }

  /// The model state after records [0, n) — what recovery must reproduce.
  ModelStore expected_after(std::size_t n) const {
    ModelStore model;
    for (std::size_t i = 0; i < n && i < record_effects.size(); ++i) record_effects[i](model);
    return model;
  }
};

/// Mixed workload exercising every record kind, wave commits interleaved.
Workload crash_workload() {
  Workload w;
  w.put("alpha", "r1", "c1", 1, 1.0);        // create + put
  w.put("alpha", "r1", "c2", 1, 1.5);
  w.put("beta", "r1", "c1", 1, -2.0);        // create + put
  w.put_batch("alpha", 2, {{"r1", "c1", 2.0}, {"r2", "c1", 2.5}, {"r3", "c3", 0.125}});
  w.commit_wave(1);
  w.put("alpha", "r1", "c1", 3, 3.0);        // third version: trims history
  w.erase("alpha", "r1", "c2", 3);
  w.put("gamma", "rX", "cX", 3, 9.0);        // create + put
  w.commit_wave(2);
  w.drop("beta");
  w.put("beta", "r9", "c9", 4, 4.75);        // re-create + put
  w.put_batch("gamma", 4, {{"rX", "cX", 10.0}, {"rY", "cY", 11.0}});
  w.commit_wave(3);
  w.clear();
  w.put("delta", "d", "d", 5, 5.0);          // create + put
  w.commit_wave(4);
  return w;
}

/// Runs `workload` against a durable store with a disk fault armed at record
/// `kill`, recovers the dir, and returns (recovered dump, recovery info).
std::pair<std::string, RecoveryInfo> run_and_recover(const Workload& workload,
                                                     const std::string& dir,
                                                     DiskFaultKind fault_kind,
                                                     std::uint64_t kill) {
  FaultInjector injector(42);
  injector.add_disk_rule(DiskFaultRule{
      .kind = fault_kind, .file_tag = "wal-s0", .first_record = kill, .last_record = kill});
  {
    DataStore store;
    DurabilityOptions options;
    options.flush = WalFlushPolicy::kEveryOp;
    options.fault_injector = &injector;
    store.enable_durability(dir, options);
    try {
      for (const auto& call : workload.calls) call(store);
    } catch (const InjectedFault&) {
      // The "crash": the store object dies here with a broken WAL.
    }
  }
  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, /*max_versions=*/2, &info);
  return {dump_store(*recovered), info};
}

TEST(CrashMatrix, RecoveredStateIsExactlyThePrefixAtEveryKillPoint) {
  const Workload workload = crash_workload();
  const std::size_t total = workload.record_effects.size();
  ASSERT_GE(total, 20u);
  // kill == total arms no fault: the full workload must round-trip too.
  for (std::size_t kill = 0; kill <= total; ++kill) {
    const std::string dir = fresh_dir("sf_crash_matrix_" + std::to_string(kill));
    const auto [dump, info] = run_and_recover(workload, dir, DiskFaultKind::kCrash, kill);
    const ModelStore expected = workload.expected_after(kill);
    EXPECT_EQ(dump, expected.dump()) << "kill point " << kill << " of " << total;
    EXPECT_EQ(info.last_durable_wave, expected.last_wave) << "kill point " << kill;
    EXPECT_FALSE(info.truncated_torn_tail) << "kill point " << kill;
    EXPECT_EQ(info.records_replayed, std::min(kill, total)) << "kill point " << kill;
    std::filesystem::remove_all(dir);
  }
}

TEST(CrashMatrix, TornWritesTruncateToThePrefixAtEveryKillPoint) {
  const Workload workload = crash_workload();
  const std::size_t total = workload.record_effects.size();
  for (std::size_t kill = 0; kill < total; ++kill) {
    const std::string dir = fresh_dir("sf_torn_matrix_" + std::to_string(kill));
    const auto [dump, info] = run_and_recover(workload, dir, DiskFaultKind::kTornWrite, kill);
    const ModelStore expected = workload.expected_after(kill);
    EXPECT_EQ(dump, expected.dump()) << "torn record " << kill << " of " << total;
    EXPECT_EQ(info.last_durable_wave, expected.last_wave) << "torn record " << kill;
    EXPECT_TRUE(info.truncated_torn_tail) << "torn record " << kill;
    std::filesystem::remove_all(dir);
  }
}

TEST(CrashMatrix, RecoveryIsIdempotentAndTheStoreContinues) {
  const Workload workload = crash_workload();
  const std::string dir = fresh_dir("sf_crash_continue");
  const auto [dump, info] = run_and_recover(workload, dir, DiskFaultKind::kTornWrite, 9);
  // The torn tail was physically truncated: a second recovery sees a clean
  // log and the same state.
  RecoveryInfo again;
  {
    auto recovered = DataStore::recover(dir, {}, 2, &again);
    EXPECT_EQ(dump_store(*recovered), dump);
    EXPECT_FALSE(again.truncated_torn_tail);
    // The recovered store keeps logging: mutate and commit a new wave.
    recovered->put("omega", "o", "o", 40, 40.0);
    recovered->commit_wave(40);
  }
  RecoveryInfo final_info;
  auto final_store = DataStore::recover(dir, {}, 2, &final_info);
  EXPECT_EQ(final_store->get("omega", "o", "o"), std::optional<double>{40.0});
  EXPECT_EQ(final_info.last_durable_wave, std::optional<Timestamp>{40});
}

// ---------------------------------------------------------------------------
// Sharded stores: the same crash matrix against interleaved per-shard WAL
// segment families.

/// Mirror of crash_workload for a sharded store: identical logical sequence,
/// but each put_batch is split per shard (one WAL record per shard hit,
/// applied in shard index order — DataStore::put_batch's serial split order),
/// so the model's record list again matches the store's global LSN sequence
/// 1:1. Broadcast records (create/drop/clear/commit) carry one LSN each,
/// exactly like the single-family layout.
Workload sharded_crash_workload(const ShardRing& ring) {
  Workload w;
  const auto put_batch_split =
      [&w, &ring](const std::string& table, Timestamp ts,
                  std::vector<std::tuple<std::string, std::string, double>> cells) {
        w.ensure_create(table);
        std::map<std::size_t, std::vector<std::tuple<std::string, std::string, double>>> split;
        for (const auto& cell : cells) split[ring.shard_of(std::get<0>(cell))].push_back(cell);
        for (const auto& [shard, sub] : split) {
          w.record_effects.push_back([table, ts, sub](ModelStore& m) {
            for (const auto& [row, column, value] : sub) m.put(table, row, column, ts, value);
          });
        }
        w.calls.push_back([table, ts, cells](DataStore& s) {
          std::vector<PutOp> ops;
          ops.reserve(cells.size());
          for (const auto& [row, column, value] : cells) ops.push_back({row, column, value});
          s.put_batch(table, ts, ops);
        });
      };
  w.put("alpha", "r1", "c1", 1, 1.0);
  w.put("alpha", "r1", "c2", 1, 1.5);
  w.put("beta", "r1", "c1", 1, -2.0);
  put_batch_split("alpha", 2, {{"r1", "c1", 2.0}, {"r2", "c1", 2.5}, {"r3", "c3", 0.125}});
  w.commit_wave(1);
  w.put("alpha", "r1", "c1", 3, 3.0);
  w.erase("alpha", "r1", "c2", 3);
  w.put("gamma", "rX", "cX", 3, 9.0);
  w.commit_wave(2);
  w.drop("beta");
  w.put("beta", "r9", "c9", 4, 4.75);
  put_batch_split("gamma", 4, {{"rX", "cX", 10.0}, {"rY", "cY", 11.0}});
  w.commit_wave(3);
  w.clear();
  w.put("delta", "d", "d", 5, 5.0);
  w.commit_wave(4);
  return w;
}

std::pair<std::string, RecoveryInfo> run_and_recover_sharded(const Workload& workload,
                                                             const ShardOptions& shard_options,
                                                             const std::string& dir,
                                                             DiskFaultKind fault_kind,
                                                             std::uint64_t kill) {
  FaultInjector injector(42);
  // Empty tag: matches every shard's WAL family. The record seq a sharded
  // writer reports is the store-global LSN, so `kill` selects one exact
  // record boundary across the interleaved families regardless of which
  // family that record lands in.
  injector.add_disk_rule(DiskFaultRule{
      .kind = fault_kind, .file_tag = "", .first_record = kill, .last_record = kill});
  {
    DataStore store(2, shard_options);
    DurabilityOptions options;
    options.flush = WalFlushPolicy::kEveryOp;
    options.fault_injector = &injector;
    store.enable_durability(dir, options);
    try {
      for (const auto& call : workload.calls) call(store);
    } catch (const InjectedFault&) {
      // The "crash": the store object dies here with one broken family.
    }
  }
  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, 2, &info, shard_options);
  return {dump_store(*recovered), info};
}

TEST(ShardedCrashMatrix, EveryLsnKillPointRecoversTheExactPrefix) {
  ShardOptions so;
  so.shards = 3;
  const ShardRing ring(so);
  const Workload workload = sharded_crash_workload(ring);
  const std::size_t total = workload.record_effects.size();
  ASSERT_GE(total, 20u);
  // kill == total arms no fault: the full workload must round-trip too.
  for (std::size_t kill = 0; kill <= total; ++kill) {
    const std::string dir = fresh_dir("sf_shard_crash_" + std::to_string(kill));
    const auto [dump, info] =
        run_and_recover_sharded(workload, so, dir, DiskFaultKind::kCrash, kill);
    const ModelStore expected = workload.expected_after(kill);
    EXPECT_EQ(dump, expected.dump()) << "kill point " << kill << " of " << total;
    EXPECT_EQ(info.last_durable_wave, expected.last_wave) << "kill point " << kill;
    EXPECT_FALSE(info.truncated_torn_tail) << "kill point " << kill;
    EXPECT_EQ(info.records_replayed, std::min(kill, total)) << "kill point " << kill;
    std::filesystem::remove_all(dir);
  }
}

TEST(ShardedCrashMatrix, TornWritesTruncateToThePrefixAcrossFamilies) {
  ShardOptions so;
  so.shards = 3;
  const ShardRing ring(so);
  const Workload workload = sharded_crash_workload(ring);
  const std::size_t total = workload.record_effects.size();
  for (std::size_t kill = 0; kill < total; ++kill) {
    const std::string dir = fresh_dir("sf_shard_torn_" + std::to_string(kill));
    const auto [dump, info] =
        run_and_recover_sharded(workload, so, dir, DiskFaultKind::kTornWrite, kill);
    const ModelStore expected = workload.expected_after(kill);
    EXPECT_EQ(dump, expected.dump()) << "torn record " << kill << " of " << total;
    EXPECT_EQ(info.last_durable_wave, expected.last_wave) << "torn record " << kill;
    EXPECT_TRUE(info.truncated_torn_tail) << "torn record " << kill;
    std::filesystem::remove_all(dir);
  }
}

/// Finds a row key the ring routes to `shard` (deterministic probe).
std::string row_on_shard(const ShardRing& ring, std::size_t shard) {
  for (int i = 0; i < 10000; ++i) {
    std::string row = "row" + std::to_string(i);
    if (ring.shard_of(row) == shard) return row;
  }
  ADD_FAILURE() << "no probe row found for shard " << shard;
  return {};
}

TEST(ShardedCrashMatrix, PartialCommitBroadcastLeavesNoShardAheadOfTheStamp) {
  ShardOptions so;
  so.shards = 3;
  const ShardRing ring(so);
  const std::string r0 = row_on_shard(ring, 0);
  const std::string r2 = row_on_shard(ring, 2);
  const std::string dir = fresh_dir("sf_shard_partial_commit");
  FaultInjector injector(7);
  {
    DataStore store(2, so);
    DurabilityOptions options;
    options.flush = WalFlushPolicy::kEveryOp;
    options.fault_injector = &injector;
    store.enable_durability(dir, options);
    store.put("t", r0, "c", 1, 1.0);
    store.put("t", r2, "c", 1, 2.0);
    store.commit_wave(1);
    store.put("t", r0, "c", 2, 3.0);
    // Family s1 dies on its next append: the wave-2 commit broadcast lands
    // in s0 but never reaches s1 or s2 — shard 0's log runs "ahead".
    injector.add_disk_rule(
        DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal-s1"});
    EXPECT_THROW(store.commit_wave(2), InjectedFault);
  }
  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, 2, &info, so);
  // The commit record exists in one family, not all — recovery refuses to
  // advance the stamp past wave 1, so no shard ends up ahead of it.
  EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{1});
  EXPECT_EQ(recovered->last_committed_wave(), std::optional<Timestamp>{1});
  // The wave-2 put was logged before the crash and replays; re-running wave
  // 2 with equal timestamps converges, per the wave-boundary contract.
  EXPECT_EQ(recovered->get("t", r0, "c"), std::optional<double>{3.0});
}

TEST(ShardedCheckpointing, CheckpointRotatesEveryFamilyAndBoundsReplay) {
  ShardOptions so;
  so.shards = 2;
  const ShardRing ring(so);
  const std::string r0 = row_on_shard(ring, 0);
  const std::string r1 = row_on_shard(ring, 1);
  const std::string dir = fresh_dir("sf_shard_ckpt");
  {
    DataStore store(2, so);
    store.enable_durability(dir);
    store.put("t", r0, "c", 1, 1.0);
    store.put("t", r1, "c", 1, 2.0);
    store.commit_wave(1);
    store.checkpoint();
    // The checkpoint cut every family's segment 1; appends continue in each
    // family's segment 2.
    EXPECT_TRUE(std::filesystem::exists(dir + "/checkpoint-000001.sfck"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + wal_segment_name(0, 1)));
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + wal_segment_name(1, 1)));
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + wal_segment_name(0, 2)));
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + wal_segment_name(1, 2)));
    store.put("t", r0, "c", 2, 3.0);
    store.commit_wave(2);
  }
  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, 2, &info, so);
  EXPECT_TRUE(info.checkpoint_loaded);
  EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{2});
  EXPECT_EQ(recovered->cell_versions("t", r0, "c"),
            (std::vector<CellVersion>{{2, 3.0}, {1, 1.0}}));
  EXPECT_EQ(recovered->get("t", r1, "c"), std::optional<double>{2.0});
}

TEST(Durability, FsyncFailureIsFatalButNotCorrupting) {
  const std::string dir = fresh_dir("sf_fsyncfail");
  FaultInjector injector(7);
  injector.add_disk_rule(DiskFaultRule{
      .kind = DiskFaultKind::kFsyncFail, .file_tag = "wal-s0", .first_record = 2,
      .last_record = 2});
  {
    DataStore store;
    DurabilityOptions options;
    options.flush = WalFlushPolicy::kEveryOp;
    options.fault_injector = &injector;
    store.enable_durability(dir, options);
    store.put("t", "r", "c", 1, 1.0);            // records 0 (create) + 1 (put)
    EXPECT_THROW(store.put("t", "r", "c", 2, 2.0), InjectedFault);  // fsync #2 fails
    // The WAL is broken; every further durable mutation is refused.
    EXPECT_THROW(store.put("t", "r", "c", 3, 3.0), Error);
  }
  // The record whose fsync failed was written (only its durability is
  // unknown); recovery replays whatever the disk retained — no corruption.
  auto recovered = DataStore::recover(dir);
  const auto versions = recovered->cell_versions("t", "r", "c");
  ASSERT_FALSE(versions.empty());
  EXPECT_EQ(versions.front().timestamp, 2u);
}

TEST(Durability, EveryWavePolicyLosesAtMostTheInFlightWave) {
  const std::string dir = fresh_dir("sf_everywave");
  FaultInjector injector(13);
  {
    DataStore store;
    DurabilityOptions options;
    options.flush = WalFlushPolicy::kEveryWave;
    options.fault_injector = &injector;
    store.enable_durability(dir, options);
    store.put("t", "w1", "c", 1, 1.0);
    store.commit_wave(1);  // fsyncs everything up to here
    store.put("t", "w2", "c", 2, 2.0);
    // Crash on the wave-2 commit: the buffered wave-2 records die unsynced.
    injector.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal-s0"});
    EXPECT_THROW(store.commit_wave(2), InjectedFault);
  }
  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, 2, &info);
  EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{1});
  EXPECT_EQ(recovered->get("t", "w1", "c"), std::optional<double>{1.0});
  // Wave 2's put never became durable — exactly the wave the boundary rule
  // re-runs.
  EXPECT_EQ(recovered->get("t", "w2", "c"), std::nullopt);
  // Re-running wave 2 with the same timestamps converges (equal-timestamp
  // puts overwrite in place), so a partial wave replay is safe.
  recovered->put("t", "w2", "c", 2, 2.0);
  recovered->commit_wave(2);
  auto again = DataStore::recover(dir);
  EXPECT_EQ(again->get("t", "w2", "c"), std::optional<double>{2.0});
  EXPECT_EQ(again->last_committed_wave(), std::optional<Timestamp>{2});
}

TEST(Durability, EnableRejectsNonEmptyStoreAndUsedDirs) {
  const std::string dir = fresh_dir("sf_enable_reject");
  {
    DataStore store;
    store.enable_durability(dir);
    store.put("t", "r", "c", 1, 1.0);
    EXPECT_THROW(store.enable_durability(dir), InvalidArgument);  // already durable
  }
  DataStore fresh;
  // The dir now holds a WAL: attaching a fresh store must go through
  // recover(), not enable_durability().
  EXPECT_THROW(fresh.enable_durability(dir), InvalidArgument);

  DataStore dirty;
  dirty.put("t", "r", "c", 1, 1.0);
  EXPECT_THROW(dirty.enable_durability(fresh_dir("sf_enable_dirty")), InvalidArgument);
}

TEST(Durability, RecoverOnAnEmptyDirYieldsAFreshDurableStore) {
  const std::string dir = fresh_dir("sf_recover_fresh");
  RecoveryInfo info;
  auto store = DataStore::recover(dir, {}, 2, &info);
  EXPECT_TRUE(store->durable());
  EXPECT_EQ(store->data_dir(), dir);
  EXPECT_FALSE(info.checkpoint_loaded);
  EXPECT_EQ(info.records_replayed, 0u);
  EXPECT_EQ(info.last_durable_wave, std::nullopt);
  EXPECT_EQ(store->last_committed_wave(), std::nullopt);
  store->put("t", "r", "c", 1, 1.0);
  store->sync_wal();
  store.reset();
  auto back = DataStore::recover(dir);
  EXPECT_EQ(back->get("t", "r", "c"), std::optional<double>{1.0});
}

TEST(Checkpointing, CheckpointRotatesTheLogAndBoundsReplay) {
  const std::string dir = fresh_dir("sf_ckpt_rotate");
  {
    DataStore store;
    store.enable_durability(dir);
    store.put("t", "r1", "c", 1, 1.0);
    store.put("t", "r1", "c", 2, 2.0);  // two versions retained
    store.put("t", "r2", "c", 2, 4.0);
    store.commit_wave(1);
    store.checkpoint();
    // The checkpoint replaced segment 1; appends continue in segment 2.
    EXPECT_TRUE(std::filesystem::exists(dir + "/checkpoint-000001.sfck"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/wal-s0-000001.sflog"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/wal-s0-000002.sflog"));
    store.put("t", "r2", "c", 3, 6.0);
    store.commit_wave(2);
  }
  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, 2, &info);
  EXPECT_TRUE(info.checkpoint_loaded);
  EXPECT_EQ(info.segments_replayed, 1u);
  EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{2});
  EXPECT_EQ(recovered->cell_versions("t", "r1", "c"),
            (std::vector<CellVersion>{{2, 2.0}, {1, 1.0}}));
  EXPECT_EQ(recovered->cell_versions("t", "r2", "c"),
            (std::vector<CellVersion>{{3, 6.0}, {2, 4.0}}));
}

TEST(Checkpointing, AutomaticCheckpointsKeepOnlyTheNewest) {
  const std::string dir = fresh_dir("sf_ckpt_auto");
  {
    DataStore store;
    DurabilityOptions options;
    options.checkpoint_every_waves = 2;
    store.enable_durability(dir, options);
    for (Timestamp wave = 1; wave <= 6; ++wave) {
      store.put("t", "r", "c", wave, static_cast<double>(wave));
      store.commit_wave(wave);
    }
  }
  // Three auto-checkpoints ran (waves 2, 4, 6); only the newest survives,
  // and only the live tail segment remains.
  std::size_t checkpoints = 0;
  std::size_t segments = 0;
  for (const auto& dirent : std::filesystem::directory_iterator(dir)) {
    const std::string name = dirent.path().filename().string();
    checkpoints += parse_checkpoint_file_name(name).has_value();
    segments += parse_wal_segment_name(name).has_value();
  }
  EXPECT_EQ(checkpoints, 1u);
  EXPECT_EQ(segments, 1u);

  RecoveryInfo info;
  auto recovered = DataStore::recover(dir, {}, 2, &info);
  EXPECT_TRUE(info.checkpoint_loaded);
  EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{6});
  EXPECT_EQ(recovered->get("t", "r", "c"), std::optional<double>{6.0});
}

TEST(Checkpointing, CorruptNewestCheckpointIsAHardError) {
  const std::string dir = fresh_dir("sf_ckpt_corrupt");
  {
    DataStore store;
    store.enable_durability(dir);
    store.put("t", "r", "c", 1, 1.0);
    store.commit_wave(1);
    store.checkpoint();
  }
  {
    std::fstream fs(dir + "/checkpoint-000001.sfck",
                    std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(-3, std::ios::end);
    fs.put('\x5a');
  }
  EXPECT_THROW(DataStore::recover(dir), Error);
}

TEST(Checkpointing, StaleTempFilesAreCleanedUpOnRecover) {
  const std::string dir = fresh_dir("sf_ckpt_tmp");
  {
    DataStore store;
    store.enable_durability(dir);
    store.put("t", "r", "c", 1, 1.0);
    store.sync_wal();
  }
  {
    // A crash mid-checkpoint leaves a half-written temp file behind.
    std::ofstream os(dir + "/checkpoint-000009.sfck.tmp", std::ios::binary);
    os << "partial";
  }
  auto recovered = DataStore::recover(dir);
  EXPECT_EQ(recovered->get("t", "r", "c"), std::optional<double>{1.0});
  EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint-000009.sfck.tmp"));
}

// ---------------------------------------------------------------------------
// Every store is a ring of N >= 1 shards with one WAL layout: a data dir
// written at any shard count recovers into any other.

/// One wave of mixed writes: point puts, a batch spanning shards, an erase,
/// a created-then-dropped table, and the wave commit.
void write_wave(DataStore& store, Timestamp wave) {
  for (std::size_t i = 0; i < 24; ++i) {
    store.put("t", test::key("r", i), "c", wave, static_cast<double>(wave * 100 + i));
  }
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < 16; ++i) rows.push_back(test::key("b", i));
  std::vector<PutOp> ops;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ops.push_back({rows[i], "x", static_cast<double>(wave) + 0.25 * static_cast<double>(i)});
  }
  store.put_batch("u", wave, ops);
  store.erase("t", test::key("r", wave % 24), "c", wave);
  const std::string scratch = test::key("scratch", wave);
  store.put(scratch, "r", "c", wave, 1.0);
  store.drop_table(scratch);
  store.commit_wave(wave);
}

TEST(Durability, AnyShardCountRecoversIntoAnyOther) {
  for (const bool checkpointed : {false, true}) {
    SCOPED_TRACE(checkpointed ? "after a checkpoint" : "WAL only");
    const std::string dir = fresh_dir(checkpointed ? "sf_width_ckpt" : "sf_width_wal");
    const ShardOptions one{.shards = 1};
    const ShardOptions three{.shards = 3};
    // Two waves per store, with a checkpoint between them when asked.
    const auto write_two = [checkpointed](DataStore& store, Timestamp first) {
      write_wave(store, first);
      if (checkpointed) store.checkpoint();
      write_wave(store, first + 1);
    };

    std::string expected;
    {
      DataStore writer(2, one);
      writer.enable_durability(dir);
      write_two(writer, 1);
      expected = dump_store(writer);
      // One shard writes one family under the same names as N shards do.
      const std::string live = checkpointed ? "/wal-s0-000002.sflog" : "/wal-s0-000001.sflog";
      EXPECT_TRUE(std::filesystem::exists(dir + live));
      EXPECT_FALSE(std::filesystem::exists(dir + "/wal-s1-000001.sflog"));
    }
    // 1 -> 3
    {
      RecoveryInfo info;
      auto store = DataStore::recover(dir, {}, 2, &info, three);
      EXPECT_EQ(dump_store(*store), expected);
      EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{2});
      write_two(*store, 3);
      expected = dump_store(*store);
    }
    // 3 -> 1
    FaultInjector injector(5);
    DurabilityOptions options;
    options.fault_injector = &injector;
    {
      RecoveryInfo info;
      auto store = DataStore::recover(dir, options, 2, &info, one);
      EXPECT_EQ(dump_store(*store), expected);
      EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{4});
      write_wave(*store, 5);
      expected = dump_store(*store);
      // Crash the reopened store on the first append of wave 6.
      injector.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal-s0"});
      EXPECT_THROW(write_wave(*store, 6), InjectedFault);
    }
    // The dir now holds generations of one and of three families; the lsn
    // merge replays them into the state the crashed store had made durable.
    for (const ShardOptions& width : {one, three}) {
      RecoveryInfo info;
      auto store = DataStore::recover(dir, {}, 2, &info, width);
      EXPECT_EQ(dump_store(*store), expected) << width.shards << " shards";
      EXPECT_EQ(info.last_durable_wave, std::optional<Timestamp>{5}) << width.shards << " shards";
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(Durability, RecoverAndEnableRefuseALegacyWalSegmentByName) {
  const std::string dir = fresh_dir("sf_legacy_wal");
  std::filesystem::create_directories(dir);
  {
    // The pre-shard "wal-%06d.sflog" layout, next to a current segment.
    std::ofstream os(dir + "/wal-000001.sflog", std::ios::binary);
    os << "legacy";
  }
  const auto expect_named_error = [](const std::function<void()>& open) {
    try {
      open();
      ADD_FAILURE() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("wal-000001.sflog"), std::string::npos) << e.what();
    }
  };
  expect_named_error([&dir] { DataStore::recover(dir); });
  expect_named_error([&dir] {
    DataStore store;
    store.enable_durability(dir);
  });
  expect_named_error(
      [&dir] { DataStore::recover(dir, {}, 2, nullptr, ShardOptions{.shards = 3}); });
  // Refusing is all recovery did: the file is still there, and nothing new
  // was written beside it.
  EXPECT_TRUE(std::filesystem::exists(dir + "/wal-000001.sflog"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/wal-s0-000001.sflog"));
  std::filesystem::remove_all(dir);
}

TEST(Durability, FailedBatchLogsExactlyItsAppliedPrefix) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const ShardOptions so{.shards = shards};
    const std::string dir = fresh_dir(test::key("sf_batch_prefix_", shards));
    std::string expected;
    {
      DataStore store(2, so);
      DurabilityOptions options;
      options.flush = WalFlushPolicy::kEveryOp;
      store.enable_durability(dir, options);
      store.put("t", "r1", "c", 5, 5.0);
      // r1 at ts 4 regresses its cell: the batch fails at its third op.
      const std::vector<PutOp> ops = {
          {"r0", "c", 1.0}, {"r2", "c", 2.0}, {"r1", "c", 3.0}, {"r3", "c", 4.0}};
      EXPECT_THROW(store.put_batch("t", 4, ops), Error);
      if (shards == 1) {
        // One shard applies the batch in place: exactly the prefix before r1.
        EXPECT_EQ(store.get("t", "r0", "c"), std::optional<double>{1.0});
        EXPECT_EQ(store.get("t", "r2", "c"), std::optional<double>{2.0});
        EXPECT_EQ(store.get("t", "r1", "c"), std::optional<double>{5.0});
        EXPECT_EQ(store.get("t", "r3", "c"), std::nullopt);
      }
      expected = dump_store(store);
    }
    auto recovered = DataStore::recover(dir, {}, 2, nullptr, so);
    EXPECT_EQ(dump_store(*recovered), expected) << shards << " shards";
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: engine + journal + durable store crash/resume

wms::WorkflowSpec pipeline_spec() {
  wms::StepSpec src;
  src.id = "src";
  src.fn = [](wms::StepContext& ctx) {
    ctx.client.put("in", "r", "v", static_cast<double>(ctx.wave));
  };
  wms::StepSpec agg;
  agg.id = "agg";
  agg.predecessors = {"src"};
  agg.fn = [](wms::StepContext& ctx) {
    ctx.client.put("out", "r", "v", 2.0 * ctx.client.get("in", "r", "v").value_or(0.0));
  };
  return wms::WorkflowSpec("pipeline", {src, agg});
}

TEST(EngineCrashRecovery, SigkillMidWaveResumesAtOneConsistentBoundary) {
  const std::string dir = fresh_dir("sf_e2e_engine");
  const std::string journal_path = dir + "-journal.log";
  std::filesystem::remove(journal_path);

  FaultInjector injector(21);
  {
    DataStore store;
    DurabilityOptions options;
    options.flush = WalFlushPolicy::kEveryWave;
    options.fault_injector = &injector;
    store.enable_durability(dir, options);
    wms::WorkflowEngine engine(pipeline_spec(), store);
    wms::WaveJournal journal;
    engine.attach_journal(&journal);
    journal.open_sink(journal_path);
    wms::SyncController sync;
    engine.run_waves(1, 3, sync);

    // "SIGKILL" mid-wave-4: the first WAL append of wave 4 crashes the log.
    // Steps fail, and the engine's commit_wave(4) — which runs *before* the
    // journal append — surfaces the broken WAL, so neither layer records
    // wave 4.
    injector.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal-s0"});
    EXPECT_THROW(engine.run_waves(4, 1, sync), Error);
  }

  // --- restart ---
  RecoveryInfo info;
  auto store = DataStore::recover(dir, {}, 2, &info);
  wms::WaveJournal journal = wms::WaveJournal::load_file(journal_path);
  ASSERT_EQ(info.last_durable_wave, std::optional<Timestamp>{3});
  ASSERT_EQ(journal.last_wave(), std::optional<Timestamp>{3});

  // The wave-boundary rule: both layers agree on wave 3; truncating is a
  // no-op here but is what makes a journal-ahead crash safe too.
  const Timestamp boundary = std::min(*info.last_durable_wave, *journal.last_wave());
  journal = journal.truncated_to(boundary);

  wms::WorkflowEngine engine(pipeline_spec(), *store);
  engine.restore_from_journal(journal);
  engine.attach_journal(&journal);
  journal.open_sink(journal_path);  // rewrites the file at the boundary
  EXPECT_EQ(engine.last_wave(), std::optional<Timestamp>{3});

  wms::SyncController sync;
  engine.run_waves(4, 3, sync);  // waves 4-6, no duplicate and no gap

  // The resumed run is indistinguishable from one that never crashed.
  DataStore reference;
  wms::WorkflowEngine ref_engine(pipeline_spec(), reference);
  wms::SyncController ref_sync;
  ref_engine.run_waves(1, 6, ref_sync);
  EXPECT_EQ(dump_store(*store), dump_store(reference));
  EXPECT_EQ(store->last_committed_wave(), std::optional<Timestamp>{6});

  const wms::WaveJournal final_journal = wms::WaveJournal::load_file(journal_path);
  ASSERT_EQ(final_journal.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(final_journal.records()[i].wave, i + 1);  // contiguous, exactly once
  }
}

}  // namespace
}  // namespace smartflux::ds

namespace smartflux::core {
namespace {

/// Ramp workflow matching the monitoring model's training regime.
wms::WorkflowSpec ramp_spec() {
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
  agg.max_error = 2.5;
  agg.fn = [](wms::StepContext& ctx) {
    ctx.client.put("out", "r", "v", ctx.client.get("in", "r", "v").value_or(0.0));
  };
  return wms::WorkflowSpec("ramp", {src, agg});
}

TEST(SmartFluxCrashRecovery, CrashedEngineResumesFromDurableStoreAndJournal) {
  const std::string dir = testing::TempDir() + "sf_e2e_smartflux";
  std::filesystem::remove_all(dir);
  const std::string journal_path = dir + "-journal.log";
  std::filesystem::remove(journal_path);

  std::string kb_csv;
  FaultInjector injector(33);
  {
    auto store = std::make_unique<ds::DataStore>();
    ds::DurabilityOptions options;
    options.flush = ds::WalFlushPolicy::kEveryWave;
    options.fault_injector = &injector;
    store->enable_durability(dir, options);

    wms::WorkflowEngine engine(ramp_spec(), *store);
    SmartFluxEngine sf(engine, SmartFluxOptions{});
    wms::WaveJournal journal;
    engine.attach_journal(&journal);
    journal.open_sink(journal_path, /*sync_on_append=*/true);

    sf.train(1, 30);
    std::ostringstream os;
    sf.knowledge_base().save_csv(os);
    kb_csv = os.str();
    sf.build_model();
    sf.run(31, 6);  // through wave 36

    // Crash mid-wave-37: the WAL dies on the first append of the wave.
    injector.add_disk_rule(
        DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal-s0"});
    EXPECT_THROW(sf.run(37, 1), Error);
  }

  // --- restart from disk only: data dir + journal file + persisted model ---
  ds::RecoveryInfo info;
  auto store = ds::DataStore::recover(dir, {}, 2, &info);
  ASSERT_EQ(info.last_durable_wave, std::optional<ds::Timestamp>{36});
  // Wave 36's data survived in full.
  EXPECT_EQ(store->get("in", "r", "v"), std::optional<double>{236.0});

  wms::WaveJournal journal = wms::WaveJournal::load_file(journal_path);
  ASSERT_EQ(journal.last_wave(), std::optional<ds::Timestamp>{36});

  wms::WorkflowEngine engine(ramp_spec(), *store);
  SmartFluxEngine sf(engine, SmartFluxOptions{});
  std::istringstream is(kb_csv);
  sf.restore_knowledge_base(KnowledgeBase::load_csv(is));
  sf.build_model();
  sf.resume_from_journal(journal, *info.last_durable_wave);
  EXPECT_EQ(sf.phase(), SmartFluxEngine::Phase::kApplication);
  EXPECT_EQ(engine.last_wave(), std::optional<ds::Timestamp>{36});

  journal = journal.truncated_to(*info.last_durable_wave);
  engine.attach_journal(&journal);
  journal.open_sink(journal_path);

  // Re-run the lost wave 37 and continue: wave numbers stay contiguous and
  // the durable store keeps accumulating.
  sf.run(37, 4);
  EXPECT_EQ(engine.last_wave(), std::optional<ds::Timestamp>{40});
  EXPECT_EQ(store->get("in", "r", "v"), std::optional<double>{240.0});
  EXPECT_EQ(store->last_committed_wave(), std::optional<ds::Timestamp>{40});

  const wms::WaveJournal final_journal = wms::WaveJournal::load_file(journal_path);
  ASSERT_EQ(final_journal.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(final_journal.records()[i].wave, i + 1);  // no duplicate, no gap
  }
}

}  // namespace
}  // namespace smartflux::core
