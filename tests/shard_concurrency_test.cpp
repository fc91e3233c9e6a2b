#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datastore/client.h"
#include "datastore/datastore.h"
#include "datastore/shard_ring.h"
#include "keys.h"
#include "snapshot_util.h"

namespace smartflux::ds {
namespace {

std::string row_name(std::size_t i) { return "row" + std::to_string(i); }

/// Canonical dump (same shape as the durability tests'): table -> cells in
/// scan order with full version history.
std::string dump_store(const DataStore& store) {
  std::ostringstream os;
  os.precision(17);
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

// ---------------------------------------------------------------------------
// Ring properties

TEST(ShardRingTest, RoutingIsDeterministicAcrossInstances) {
  ShardOptions so;
  so.shards = 4;
  const ShardRing a(so);
  const ShardRing b(so);
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::string row = row_name(i);
    EXPECT_EQ(a.shard_of(row), b.shard_of(row)) << row;
  }
}

TEST(ShardRingTest, SingleShardShortCircuitsToZero) {
  const ShardRing ring{ShardOptions{}};
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(ring.shard_of(row_name(i)), 0u);
}

TEST(ShardRingTest, KeysSpreadAcrossAllShards) {
  ShardOptions so;
  so.shards = 8;
  const ShardRing ring(so);
  std::vector<std::size_t> counts(so.shards, 0);
  const std::size_t keys = 20000;
  for (std::size_t i = 0; i < keys; ++i) ++counts[ring.shard_of(row_name(i))];
  const double mean = static_cast<double>(keys) / static_cast<double>(so.shards);
  for (std::size_t s = 0; s < so.shards; ++s) {
    // Consistent hashing with 64 vnodes/shard is not perfectly uniform, but
    // no shard should be starved or grossly overloaded.
    EXPECT_GT(counts[s], static_cast<std::size_t>(mean * 0.5)) << "shard " << s;
    EXPECT_LT(counts[s], static_cast<std::size_t>(mean * 1.7)) << "shard " << s;
  }
}

TEST(ShardRingTest, GrowingTheRingMovesOnlyAMinorityOfKeys) {
  ShardOptions before;
  before.shards = 4;
  ShardOptions after = before;
  after.shards = 5;
  const ShardRing old_ring(before);
  const ShardRing new_ring(after);
  const std::size_t keys = 20000;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys; ++i) {
    const std::string row = row_name(i);
    if (old_ring.shard_of(row) != new_ring.shard_of(row)) ++moved;
  }
  // Consistent hashing moves ~1/5 of keys to the new shard; a modulo split
  // would reshuffle ~4/5. Leave headroom for vnode placement variance.
  EXPECT_LT(moved, keys * 2 / 5) << "moved " << moved << " of " << keys;
  EXPECT_GT(moved, 0u);
}

// ---------------------------------------------------------------------------
// Split-batch equivalence

/// Applies the same op sequence to a sharded store (every batch split across
/// shards) and an unsharded one (every batch applied in place), and compares
/// full state, latest and as-of reads and previous versions — split
/// application must be invisible to every read surface.
TEST(ShardEquivalence, SplitBatchMatchesSerialBatchExactly) {
  ShardOptions so;
  so.shards = 4;
  DataStore sharded(3, so);
  DataStore plain(3);

  for (Timestamp wave = 1; wave <= 3; ++wave) {
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < 64; ++i) rows.push_back(row_name(i));
    std::vector<PutOp> ops;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ops.push_back({rows[i], "a", static_cast<double>(wave * 1000 + i)});
      ops.push_back({rows[i], "b", static_cast<double>(i) * 0.5});
    }
    sharded.put_batch("t", wave, ops);
    plain.put_batch("t", wave, ops);
  }

  EXPECT_EQ(dump_store(sharded), dump_store(plain));
  const auto s = test::table_state(sharded, "t", 3);
  const auto p = test::table_state(plain, "t", 3);
  EXPECT_EQ(s.latest, p.latest);
  EXPECT_EQ(s.as_of, p.as_of);
  EXPECT_EQ(s.previous, p.previous);
}

TEST(ShardEquivalence, ScanOrderAndSnapshotMatchUnshardedStore) {
  ShardOptions so;
  so.shards = 4;
  DataStore sharded(2, so);
  DataStore plain(2);
  for (std::size_t i = 0; i < 200; ++i) {
    sharded.put("t", row_name(i * 7), "c", 1, static_cast<double>(i));
    plain.put("t", row_name(i * 7), "c", 1, static_cast<double>(i));
  }

  // The merged snapshot keeps (row, col) order.
  const FlatSnapshot ss = sharded.snapshot_flat(ContainerRef::whole_table("t"));
  const FlatSnapshot ps = plain.snapshot_flat(ContainerRef::whole_table("t"));
  EXPECT_EQ(test::cells(ss), test::cells(ps));
  // Multi-slot snapshots mint ids in per-shard interner spaces, so they must
  // NOT advertise a shared keyspace (id equality across snapshots would lie);
  // single-slot stores keep the id fast path.
  EXPECT_EQ(ss.keyspace(), nullptr);
  EXPECT_NE(ps.keyspace(), nullptr);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target: cross-shard writers, readers, scanners)

TEST(ShardConcurrency, ConcurrentCrossShardWritersReadersAndScanners) {
  ShardOptions so;
  so.shards = 4;
  DataStore store(2, so);

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kRowsPerWriter = 64;
  constexpr std::size_t kWaves = 12;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  // Writers: disjoint row ranges (cells are single-writer; the shards they
  // land in interleave freely).
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      for (Timestamp wave = 1; wave <= kWaves; ++wave) {
        std::vector<std::string> rows;
        std::vector<PutOp> ops;
        for (std::size_t i = 0; i < kRowsPerWriter; ++i) {
          rows.push_back(row_name(w * kRowsPerWriter + i));
        }
        for (std::size_t i = 0; i < kRowsPerWriter; ++i) {
          ops.push_back({rows[i], "v", static_cast<double>(wave)});
        }
        store.put_batch("grid", wave, ops);
        store.put("solo", row_name(w), "v", wave, static_cast<double>(wave * 10 + w));
      }
    });
  }
  // Readers/scanners race the writers across every shard.
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &stop, r] {
      std::size_t laps = 0;
      while (!stop.load(std::memory_order_acquire) || laps < 1) {
        ++laps;
        double sink = 0.0;
        for (const FlatEntry& e : store.snapshot_flat(ContainerRef::whole_table("grid"))) {
          sink += e.value;
        }
        const auto v = store.get("grid", row_name(r * 17 % (kWriters * kRowsPerWriter)), "v");
        if (v) sink += *v;
        (void)store.cell_count("grid");
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Every cell converged to its final wave.
  for (std::size_t i = 0; i < kWriters * kRowsPerWriter; ++i) {
    EXPECT_EQ(store.get("grid", row_name(i), "v"),
              std::optional<double>{static_cast<double>(kWaves)});
  }
  for (std::size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(store.get("solo", row_name(w), "v"),
              std::optional<double>{static_cast<double>(kWaves * 10 + w)});
  }
}

// ---------------------------------------------------------------------------
// As-of-wave reads (what makes pipelined ingest invisible to older waves)

TEST(AsOfReads, ClientBoundToAWaveIsBlindToNewerIngest) {
  ShardOptions so;
  so.shards = 4;
  DataStore store(/*max_versions=*/3, so);
  store.put("t", "r", "c", 1, 10.0);
  store.put("t", "r", "c", 2, 20.0);

  Client old_wave(store, 2);
  Client new_wave(store, 3);
  // Wave 3's feed lands while wave 2 is (conceptually) still computing.
  new_wave.put("t", "r", "c", 30.0);

  EXPECT_EQ(old_wave.get("t", "r", "c"), std::optional<double>{20.0});
  EXPECT_EQ(old_wave.get_previous("t", "r", "c"), std::optional<double>{10.0});
  EXPECT_EQ(new_wave.get("t", "r", "c"), std::optional<double>{30.0});
  EXPECT_EQ(new_wave.get_previous("t", "r", "c"), std::optional<double>{20.0});

  EXPECT_EQ(test::cells(old_wave.snapshot(ContainerRef::whole_table("t"))),
            (std::vector<test::Cell>{{"r", "c", 20.0}}));
  EXPECT_EQ(test::cells(new_wave.snapshot(ContainerRef::whole_table("t"))),
            (std::vector<test::Cell>{{"r", "c", 30.0}}));

  // A cell first written after the bound wave does not exist for it yet.
  new_wave.put("t", "fresh", "c", 1.0);
  EXPECT_EQ(old_wave.get("t", "fresh", "c"), std::nullopt);
  EXPECT_EQ(new_wave.get("t", "fresh", "c"), std::optional<double>{1.0});
  EXPECT_EQ(test::cells(old_wave.snapshot(ContainerRef::whole_table("t"))),
            (std::vector<test::Cell>{{"r", "c", 20.0}}));
  EXPECT_EQ(test::cells(new_wave.snapshot(ContainerRef::whole_table("t"))),
            (std::vector<test::Cell>{{"fresh", "c", 1.0}, {"r", "c", 30.0}}));
}

TEST(AsOfReads, SnapshotMatchesAcrossShardCounts) {
  ShardOptions so;
  so.shards = 4;
  DataStore plain(/*max_versions=*/3);
  DataStore sharded(/*max_versions=*/3, so);
  for (DataStore* store : {&plain, &sharded}) {
    for (std::size_t i = 0; i < 60; ++i) {
      const std::string row = test::key(i % 3 == 0 ? "arow" : "brow", i);
      store->put("t", row, "x", 1, static_cast<double>(i));
      store->put("t", row, "y", 1, static_cast<double>(i) + 0.5);
      store->put("t", row, "x", 2, static_cast<double>(i) * 2.0);
    }
    store->put("t", "a_fresh", "x", 3, 99.0);  // first written after wave 2
  }
  const std::vector<ContainerRef> containers = {
      ContainerRef::whole_table("t"), ContainerRef::column("t", "x"), ContainerRef("t", "", "a")};
  for (const ContainerRef& container : containers) {
    for (Timestamp wave = 1; wave <= 3; ++wave) {
      const FlatSnapshot expected = plain.snapshot_flat(container, wave);
      const FlatSnapshot got = sharded.snapshot_flat(container, wave);
      EXPECT_EQ(test::cells(got), test::cells(expected)) << container.id() << " @" << wave;
      EXPECT_EQ(test::cells(Client(sharded, wave).snapshot(container)), test::cells(expected));
      // Same keyspace rule as the latest-version snapshot: only one slot
      // has table-wide ids.
      EXPECT_NE(expected.keyspace(), nullptr);
      EXPECT_EQ(got.keyspace(), nullptr);
    }
    // Nothing is newer than wave 3, so the as-of read is the latest read.
    EXPECT_EQ(test::cells(sharded.snapshot_flat(container, 3)),
              test::cells(plain.snapshot_flat(container)));
  }

  // Column x at wave 1 holds version 1 of every row; the fresh cell is absent.
  const auto wave1 = test::cells(sharded.snapshot_flat(ContainerRef::column("t", "x"), 1));
  ASSERT_EQ(wave1.size(), 60u);
  for (const auto& [row, column, value] : wave1) {
    EXPECT_NE(row, "a_fresh");
    EXPECT_EQ(value, std::stod(row.substr(4))) << row;
  }
  const auto wave2 = test::cells(sharded.snapshot_flat(ContainerRef("t", "", "a"), 2));
  EXPECT_EQ(wave2.size(), 40u);  // 20 "a" rows x {x, y}
  for (const auto& [row, column, value] : wave2) EXPECT_NE(row, "a_fresh");
  EXPECT_EQ(sharded.snapshot_flat(ContainerRef("t", "", "a"), 3).size(), 41u);

  // 8 shards (a 3-level merge of per-slot runs) equal 1 shard on seeded
  // random row prefixes, latest and as of every wave.
  so.shards = 8;
  DataStore eight(/*max_versions=*/3, so);
  for (const FlatEntry& e : plain.snapshot_flat(ContainerRef::whole_table("t"), 1)) {
    eight.put("t", *e.row, *e.col, 1, e.value);
  }
  for (const FlatEntry& e : plain.snapshot_flat(ContainerRef::whole_table("t"), 2)) {
    eight.put("t", *e.row, *e.col, 2, e.value);
  }
  eight.put("t", "a_fresh", "x", 3, 99.0);
  std::mt19937_64 rng(8);
  for (int i = 0; i < 100; ++i) {
    // Row number first, then the letter: keeps the seeded prefix sequence.
    const std::size_t n = rng() % 70;
    std::string prefix = test::key(rng() % 2 == 0 ? "arow" : "brow", n);
    prefix.resize(rng() % (prefix.size() + 1));
    const ContainerRef container("t", rng() % 3 == 0 ? "y" : "", prefix);
    EXPECT_EQ(test::cells(eight.snapshot_flat(container)),
              test::cells(plain.snapshot_flat(container)))
        << container.id();
    const Timestamp wave = 1 + rng() % 3;
    EXPECT_EQ(test::cells(eight.snapshot_flat(container, wave)),
              test::cells(plain.snapshot_flat(container, wave)))
        << container.id() << " @" << wave;
  }
}

TEST(AsOfReads, HistoryDeeperThanRetentionIsGone) {
  DataStore store(/*max_versions=*/2);
  store.put("t", "r", "c", 1, 1.0);
  store.put("t", "r", "c", 2, 2.0);
  store.put("t", "r", "c", 3, 3.0);  // evicts version 1
  EXPECT_EQ(store.get_at("t", "r", "c", 3), std::optional<double>{3.0});
  EXPECT_EQ(store.get_at("t", "r", "c", 2), std::optional<double>{2.0});
  // Version 1 fell out of the retained window: reads as-of wave 1 see nothing
  // (this is why pipeline depth d needs max_versions >= d + 1).
  EXPECT_EQ(store.get_at("t", "r", "c", 1), std::nullopt);
}

}  // namespace
}  // namespace smartflux::ds
