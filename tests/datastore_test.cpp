#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "datastore/client.h"
#include "datastore/datastore.h"
#include "keys.h"
#include "snapshot_util.h"

namespace smartflux::ds {
namespace {

TEST(Table, PutAndGet) {
  Table t;
  EXPECT_FALSE(t.get("r", "c").has_value());
  t.put("r", "c", 1, 42.0);
  EXPECT_EQ(t.get("r", "c"), 42.0);
  EXPECT_EQ(t.cell_count(), 1u);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, PutReturnsPrevious) {
  Table t;
  EXPECT_FALSE(t.put("r", "c", 1, 1.0).has_value());
  const auto prev = t.put("r", "c", 2, 2.0);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 1.0);
}

TEST(Table, VersionsNewestFirst) {
  Table t(3);
  t.put("r", "c", 1, 1.0);
  t.put("r", "c", 2, 2.0);
  t.put("r", "c", 3, 3.0);
  const auto v = t.versions("r", "c");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], (CellVersion{3, 3.0}));
  EXPECT_EQ(v[1], (CellVersion{2, 2.0}));
  EXPECT_EQ(v[2], (CellVersion{1, 1.0}));
}

TEST(Table, MaxVersionsTrimsOldest) {
  Table t(2);
  t.put("r", "c", 1, 1.0);
  t.put("r", "c", 2, 2.0);
  t.put("r", "c", 3, 3.0);
  const auto v = t.versions("r", "c");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1].timestamp, 2u);
}

TEST(Table, GetPreviousVersion) {
  Table t;
  t.put("r", "c", 1, 1.0);
  EXPECT_FALSE(t.get_previous("r", "c").has_value());
  t.put("r", "c", 2, 2.0);
  EXPECT_EQ(t.get_previous("r", "c"), 1.0);
}

TEST(Table, SameTimestampOverwritesInPlace) {
  Table t;
  t.put("r", "c", 5, 1.0);
  t.put("r", "c", 5, 9.0);
  EXPECT_EQ(t.get("r", "c"), 9.0);
  EXPECT_EQ(t.versions("r", "c").size(), 1u);
}

TEST(Table, DecreasingTimestampThrows) {
  Table t;
  t.put("r", "c", 5, 1.0);
  EXPECT_THROW(t.put("r", "c", 4, 2.0), smartflux::InvalidArgument);
}

TEST(Table, EraseRemovesAllVersions) {
  Table t(3);
  t.put("r", "c", 1, 1.0);
  t.put("r", "c", 2, 2.0);
  const auto removed = t.erase("r", "c");
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 2.0);
  EXPECT_FALSE(t.get("r", "c").has_value());
  EXPECT_EQ(t.cell_count(), 0u);
  EXPECT_TRUE(t.empty());
}

TEST(Table, EraseMissingReturnsNullopt) {
  Table t;
  EXPECT_FALSE(t.erase("r", "c").has_value());
}

TEST(Table, ScanVisitsInRowColumnOrder) {
  Table t;
  t.put("b", "y", 1, 2.0);
  t.put("a", "x", 1, 1.0);
  t.put("b", "x", 1, 3.0);
  std::vector<std::pair<RowKey, ColumnKey>> visited;
  t.scan_cells({}, [&](const Table::CellView& cv) { visited.emplace_back(*cv.row, *cv.col); });
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0], (std::pair<RowKey, ColumnKey>{"a", "x"}));
  EXPECT_EQ(visited[1], (std::pair<RowKey, ColumnKey>{"b", "x"}));
  EXPECT_EQ(visited[2], (std::pair<RowKey, ColumnKey>{"b", "y"}));
}

TEST(Table, RequiresAtLeastOneVersion) {
  EXPECT_THROW(Table t(0), smartflux::InvalidArgument);
}

// A container's scope is what a read of it returns.
void fill_scoped(DataStore& store) {
  store.put("t", "x1_s05", "temp", 1, 1.0);
  store.put("t", "x1_s05", "wind", 1, 2.0);
  store.put("t", "x2_s05", "temp", 1, 3.0);
  store.put("other", "r", "temp", 1, 4.0);
}

TEST(ContainerRef, WholeTableMatchesEverything) {
  DataStore store;
  fill_scoped(store);
  EXPECT_EQ(test::cells(store.snapshot_flat(ContainerRef::whole_table("t"))),
            (std::vector<test::Cell>{
                {"x1_s05", "temp", 1.0}, {"x1_s05", "wind", 2.0}, {"x2_s05", "temp", 3.0}}));
}

TEST(ContainerRef, ColumnScoped) {
  DataStore store;
  fill_scoped(store);
  EXPECT_EQ(test::cells(store.snapshot_flat(ContainerRef::column("t", "temp"))),
            (std::vector<test::Cell>{{"x1_s05", "temp", 1.0}, {"x2_s05", "temp", 3.0}}));
}

TEST(ContainerRef, RowPrefixScoped) {
  DataStore store;
  fill_scoped(store);
  EXPECT_EQ(test::cells(store.snapshot_flat(ContainerRef("t", "", "x1_"))),
            (std::vector<test::Cell>{{"x1_s05", "temp", 1.0}, {"x1_s05", "wind", 2.0}}));
}

TEST(ContainerRef, IdIsStable) {
  EXPECT_EQ(ContainerRef::column("t", "c").id(), "t/c/");
  EXPECT_EQ((ContainerRef{"t", "c", "p"}).id(), "t/c/p");
}

TEST(DataStore, PutGetAcrossTables) {
  DataStore store;
  store.put("t1", "r", "c", 1, 1.0);
  store.put("t2", "r", "c", 1, 2.0);
  EXPECT_EQ(store.get("t1", "r", "c"), 1.0);
  EXPECT_EQ(store.get("t2", "r", "c"), 2.0);
  EXPECT_FALSE(store.get("t3", "r", "c").has_value());
}

TEST(DataStore, PutKeepsOldValueAsPrevious) {
  DataStore store;
  store.put("t", "r", "c", 1, 5.0);
  EXPECT_FALSE(store.get_previous("t", "r", "c").has_value());
  store.put("t", "r", "c", 2, 7.0);
  EXPECT_EQ(store.get("t", "r", "c"), 7.0);
  EXPECT_EQ(store.get_previous("t", "r", "c"), 5.0);
  EXPECT_EQ(store.get_at("t", "r", "c", 1), 5.0);
  EXPECT_EQ(store.get_at("t", "r", "c", 2), 7.0);
}

TEST(DataStore, SnapshotKeyedByRowAndColumn) {
  DataStore store;
  store.put("t", "r1", "a", 1, 1.0);
  store.put("t", "r1", "b", 1, 2.0);
  store.put("t", "r2", "a", 1, 3.0);
  const auto snap = store.snapshot_flat(ContainerRef::column("t", "a"));
  EXPECT_EQ(test::cells(snap),
            (std::vector<test::Cell>{{"r1", "a", 1.0}, {"r2", "a", 3.0}}));
}

TEST(DataStore, ContainerCellCount) {
  DataStore store;
  store.put("t", "x1_a", "c", 1, 1.0);
  store.put("t", "x1_b", "c", 1, 1.0);
  store.put("t", "x2_a", "c", 1, 1.0);
  EXPECT_EQ(store.snapshot_flat(ContainerRef{"t", "", "x1_"}).size(), 2u);
  EXPECT_EQ(store.cell_count("t"), 3u);
}

TEST(DataStore, TableNamesAndDrop) {
  DataStore store;
  store.put("b", "r", "c", 1, 1.0);
  store.put("a", "r", "c", 1, 1.0);
  const auto names = store.table_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  store.drop_table("a");
  EXPECT_FALSE(store.has_table("a"));
  EXPECT_TRUE(store.has_table("b"));
  store.clear();
  EXPECT_TRUE(store.table_names().empty());
}

TEST(DataStore, GetPreviousDelegates) {
  DataStore store;
  store.put("t", "r", "c", 1, 1.0);
  store.put("t", "r", "c", 2, 2.0);
  EXPECT_EQ(store.get_previous("t", "r", "c"), 1.0);
}

TEST(DataStore, ConcurrentPutsAreAllApplied) {
  DataStore store;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.put(test::key("t", t), test::key("r", i), "c", 1, 1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(store.cell_count(test::key("t", t)), static_cast<std::size_t>(kPerThread));
  }
}

TEST(Client, WritesStampedWithWave) {
  DataStore store;
  Client client(store, 7);
  client.put("t", "r", "c", 1.5);
  EXPECT_EQ(store.get("t", "r", "c"), 1.5);
  // Stamped with wave 7: invisible as of wave 6, visible as of wave 7.
  EXPECT_FALSE(store.get_at("t", "r", "c", 6).has_value());
  EXPECT_EQ(store.get_at("t", "r", "c", 7), 1.5);
}

TEST(Client, PutColumnBulk) {
  DataStore store;
  Client client(store, 1);
  const std::vector<std::pair<RowKey, double>> cells{{"a", 1.0}, {"b", 2.0}};
  client.put_column("t", "c", cells);
  EXPECT_EQ(store.get("t", "a", "c"), 1.0);
  EXPECT_EQ(store.get("t", "b", "c"), 2.0);
}

TEST(Client, PreviousVersionPiggybacked) {
  DataStore store;
  Client w1(store, 1), w2(store, 2);
  w1.put("t", "r", "c", 1.0);
  w2.put("t", "r", "c", 2.0);
  EXPECT_EQ(w2.get("t", "r", "c"), 2.0);
  EXPECT_EQ(w2.get_previous("t", "r", "c"), 1.0);
}

}  // namespace
}  // namespace smartflux::ds
