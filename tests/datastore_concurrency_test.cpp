#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "datastore/client.h"
#include "datastore/datastore.h"
#include "datastore/flat_snapshot.h"
#include "snapshot_util.h"

// Concurrency and batching semantics of the sharded datastore. The
// thread-heavy tests here are the ones the ThreadSanitizer CI job leans on
// (SMARTFLUX_SANITIZE=thread): they prove readers genuinely run in parallel
// with scans and with each other — no hidden global serialization — and that
// the table registry is race-free.

namespace smartflux::ds {
namespace {

std::string row_key(std::size_t i) { return "r" + std::to_string(i); }

void fill(DataStore& store, const TableName& table, std::size_t rows, Timestamp ts) {
  for (std::size_t i = 0; i < rows; ++i) {
    store.put(table, row_key(i), "c", ts, static_cast<double>(i));
  }
}

TEST(DataStoreConcurrency, ReadersRunDuringScansAndWrites) {
  DataStore store;
  constexpr std::size_t kRows = 256;
  fill(store, "t", kRows, 1);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0}, scans{0};

  std::thread writer([&] {
    Timestamp ts = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < kRows; i += 7) {
        store.put("t", row_key(i), "c", ts, static_cast<double>(ts));
      }
      ++ts;
    }
  });
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = store.snapshot_flat(ContainerRef::whole_table("t"));
      EXPECT_EQ(snap.size(), kRows);
      // Snapshot entries are in (row, column) string order.
      for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_LT(*snap.entries()[i - 1].row, *snap.entries()[i].row);
      }
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < kRows; ++i) {
        const auto v = store.get("t", row_key(i), "c");
        EXPECT_TRUE(v.has_value());
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  writer.join();
  scanner.join();
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(scans.load(), 0u);
}

TEST(DataStoreConcurrency, ConcurrentTableCreationIsRaceFree) {
  DataStore store;
  constexpr int kThreads = 4;
  constexpr int kTables = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kTables; ++i) {
        // All threads hit the same table names: creation must be idempotent.
        store.put("tab" + std::to_string(i), row_key(static_cast<std::size_t>(t)), "c",
                  1, static_cast<double>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.table_names().size(), static_cast<std::size_t>(kTables));
  for (int i = 0; i < kTables; ++i) {
    EXPECT_EQ(store.cell_count("tab" + std::to_string(i)),
              static_cast<std::size_t>(kThreads));
  }
}

TEST(DataStoreConcurrency, PutBatchMatchesPutLoop) {
  // Same ops through put_batch and a put() loop, over two waves that write
  // some cells twice within one batch: identical latest and as-of state and
  // identical previous versions.
  DataStore batched, looped;
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < 20; ++i) rows.push_back(row_key(i % 7));
  for (Timestamp wave = 1; wave <= 2; ++wave) {
    std::vector<PutOp> ops;
    for (std::size_t i = 0; i < 20; ++i) {
      ops.push_back({rows[i], i % 2 ? "a" : "b", static_cast<double>(i + wave * 100) * 1.5});
    }
    batched.put_batch("t", wave, ops);
    for (const auto& op : ops) {
      looped.put("t", RowKey(op.row), ColumnKey(op.column), wave, op.value);
    }
  }

  const auto b = test::table_state(batched, "t", 2);
  const auto l = test::table_state(looped, "t", 2);
  EXPECT_EQ(b.latest, l.latest);
  EXPECT_EQ(b.as_of, l.as_of);
  EXPECT_EQ(b.previous, l.previous);
  EXPECT_EQ(b.latest.size(), 14u);
}

TEST(DataStoreConcurrency, EmptyBatchIsANoop) {
  DataStore store;
  store.put_batch("t", 1, {});
  // An empty batch must not even create the table.
  EXPECT_FALSE(store.has_table("t"));
}

TEST(DataStoreConcurrency, InternerIdsStableAcrossSnapshots) {
  DataStore store;
  fill(store, "t", 32, 1);
  const auto before = store.snapshot_flat(ContainerRef::whole_table("t"));
  // Value updates and new cells must not disturb existing element ids.
  fill(store, "t", 48, 2);
  const auto after = store.snapshot_flat(ContainerRef::whole_table("t"));

  ASSERT_EQ(before.size(), 32u);
  ASSERT_EQ(after.size(), 48u);
  EXPECT_EQ(before.keyspace(), after.keyspace());
  std::size_t matched = 0;
  for (const auto& b : before) {
    for (const auto& a : after) {
      if (a.id == b.id) {
        EXPECT_EQ(*a.row, *b.row);
        EXPECT_EQ(*a.col, *b.col);
        ++matched;
      }
    }
  }
  EXPECT_EQ(matched, before.size());
}

TEST(DataStoreConcurrency, FlatSnapshotSurvivesDropTable) {
  DataStore store;
  fill(store, "t", 8, 1);
  const auto snap = store.snapshot_flat(ContainerRef::whole_table("t"));
  store.drop_table("t");
  store.clear();
  // The snapshot keeps the source table (and its interned keys) alive.
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(*snap.entries()[i].row, row_key(i));
    EXPECT_EQ(*snap.entries()[i].col, "c");
    EXPECT_EQ(snap.entries()[i].value, static_cast<double>(i));
  }
}

TEST(DataStoreConcurrency, ClientPutBatchRunsHookPerCell) {
  DataStore store;
  std::size_t hook_calls = 0;
  Client client(store, 1, [&](const TableName&, const RowKey&, const ColumnKey&) {
    if (++hook_calls == 3) throw std::runtime_error("injected");
  });
  std::vector<PutOp> ops{{"r0", "c", 0.0}, {"r1", "c", 1.0}, {"r2", "c", 2.0}, {"r3", "c", 3.0}};
  EXPECT_THROW(client.put_batch("t", ops), std::runtime_error);
  // Hook threw at cell 3: the first two cells still land (matching what a
  // put() loop would have applied before the failure).
  EXPECT_EQ(store.cell_count("t"), 2u);
  EXPECT_EQ(store.get("t", "r0", "c"), 0.0);
  EXPECT_EQ(store.get("t", "r1", "c"), 1.0);
  EXPECT_FALSE(store.get("t", "r2", "c").has_value());
}

TEST(DataStoreConcurrency, SnapshotFlatConsistentUnderConcurrentBatches) {
  // Batches are applied under one exclusive lock: a concurrent flat snapshot
  // must see each batch entirely or not at all (all cells carry the batch's
  // value, never a mix).
  DataStore store;
  constexpr std::size_t kRows = 64;
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < kRows; ++i) rows.push_back(row_key(i));
  std::vector<PutOp> ops;
  for (std::size_t i = 0; i < kRows; ++i) ops.push_back({rows[i], "c", 0.0});
  store.put_batch("t", 1, ops);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Timestamp ts = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& op : ops) op.value = static_cast<double>(ts);
      store.put_batch("t", ts, ops);
      ++ts;
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    const auto snap = store.snapshot_flat(ContainerRef::whole_table("t"));
    ASSERT_EQ(snap.size(), kRows);
    const double first = snap.entries().front().value;
    for (const auto& e : snap) EXPECT_EQ(e.value, first);
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace smartflux::ds
