#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "datastore/datastore.h"
#include "snapshot_util.h"

// Row-prefix scans seek into each slot's sorted index and merge the per-slot
// runs. Every case here compares the seeked snapshot against a brute-force
// filter of the whole-table snapshot taken at the same version, at 1 and 8
// shards, for the latest version and as of each wave.

namespace smartflux::ds {
namespace {

/// The cells of `container`, filtered by hand out of the whole-table
/// snapshot (latest, or as of `as_of`).
std::vector<test::Cell> brute_force(const DataStore& store, const ContainerRef& container,
                                    std::optional<Timestamp> as_of) {
  const auto whole = ContainerRef::whole_table(container.table());
  const FlatSnapshot all = as_of ? store.snapshot_flat(whole, *as_of) : store.snapshot_flat(whole);
  const std::vector<test::Cell> cells = test::cells(all);
  // The reference must itself be in strict (row, column) order, or a broken
  // merge would agree with itself.
  const auto out_of_order = [](const test::Cell& a, const test::Cell& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) >= std::tie(std::get<0>(b), std::get<1>(b));
  };
  EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end(), out_of_order), cells.end());
  std::vector<test::Cell> out;
  for (const auto& [row, column, value] : cells) {
    if (!row.starts_with(container.row_prefix())) continue;
    if (container.has_column() && column != container.column_key()) continue;
    out.emplace_back(row, column, value);
  }
  return out;
}

std::vector<test::Cell> seeked(const DataStore& store, const ContainerRef& container,
                               std::optional<Timestamp> as_of) {
  return test::cells(as_of ? store.snapshot_flat(container, *as_of)
                           : store.snapshot_flat(container));
}

/// Rows of the seek fixture: shared stems, keys that are prefixes of other
/// keys, keys differing only after a common prefix, and bytes >= 0x80 (which
/// std::string orders after every ASCII byte).
const std::vector<std::string>& fixture_rows() {
  static const std::vector<std::string> rows = {
      "a",       "ab",       "abc",         "abc1",      "abc2",     "abd",
      "b",       "row1",     "row10",       "row11",     "row2",     "zz",
      "\x80",    "\x80x",    "caf\xc3\xa9", "\xc3\xa9t", "\xff",     "\xff\x01"};
  return rows;
}

/// Fills `store` over waves 1..3: wave 1 writes every fixture row, wave 2
/// overwrites every other row, wave 3 adds a row no earlier wave had.
void fill(DataStore& store) {
  const auto& rows = fixture_rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    store.put("t", rows[i], "x", 1, static_cast<double>(i));
    store.put("t", rows[i], "y", 1, static_cast<double>(i) + 0.5);
    if (i % 2 == 0) store.put("t", rows[i], "x", 2, static_cast<double>(i) * 10.0);
  }
  store.put("t", "abc3", "x", 3, 99.0);
}

std::vector<ContainerRef> edge_containers() {
  return {
      ContainerRef("t", "", "m"),            // between keys: matches nothing
      ContainerRef("t", "", "\xff\xff"),     // past the last key
      ContainerRef("t", "", "{"),            // past every ASCII key, before 0x80
      ContainerRef("t", "", "row1"),         // a full row key that prefixes others
      ContainerRef("t", "", "zz"),           // the last ASCII key exactly
      ContainerRef("t", "", "abc"),          // rows differ only after the prefix
      ContainerRef("t", "x", "abc"),         // same, one column
      ContainerRef("t", "", "a"),            // the first key and its run
      ContainerRef("t", "", "\x80"),         // high bytes
      ContainerRef("t", "", "\xc3"),         //   a UTF-8 lead byte
      ContainerRef("t", "y", "\xff"),        //   the highest byte, one column
      ContainerRef("t", "", ""),             // whole table
  };
}

class ScanSeek : public ::testing::TestWithParam<std::size_t> {
 protected:
  ScanSeek() : store_(/*max_versions=*/3, ShardOptions{GetParam()}) {}
  DataStore store_;
};

TEST_P(ScanSeek, EdgePrefixesMatchBruteForce) {
  fill(store_);
  for (const ContainerRef& container : edge_containers()) {
    for (const std::optional<Timestamp> as_of :
         {std::optional<Timestamp>{}, std::optional<Timestamp>{1}, std::optional<Timestamp>{2},
          std::optional<Timestamp>{3}}) {
      EXPECT_EQ(seeked(store_, container, as_of), brute_force(store_, container, as_of))
          << container.id() << " @" << as_of.value_or(0);
    }
  }
  // Spot checks that the brute force itself sees what the fixture wrote.
  EXPECT_TRUE(store_.snapshot_flat(ContainerRef("t", "", "m")).empty());
  EXPECT_TRUE(store_.snapshot_flat(ContainerRef("t", "", "\xff\xff")).empty());
  EXPECT_EQ(store_.snapshot_flat(ContainerRef("t", "", "row1")).size(), 6u);  // row1, 10, 11
  EXPECT_EQ(store_.snapshot_flat(ContainerRef("t", "x", "abc"), 2).size(), 3u);
  EXPECT_EQ(store_.snapshot_flat(ContainerRef("t", "x", "abc"), 3).size(), 4u);
  EXPECT_EQ(store_.snapshot_flat(ContainerRef("t", "", "\xff")).size(), 4u);
}

TEST_P(ScanSeek, KeyInsertedAfterTheLastIndexRebuildIsSeen) {
  fill(store_);
  const ContainerRef abc("t", "", "abc");
  ASSERT_EQ(store_.snapshot_flat(abc).size(), 7u);  // builds every slot's index
  // New keys inside, at both ends of, and outside the prefix's run.
  store_.put("t", "abc0", "x", 4, 1.0);
  store_.put("t", "abc", "z", 4, 2.0);
  store_.put("t", "abcz", "x", 4, 3.0);
  store_.put("t", "abb", "x", 4, 4.0);
  for (const std::optional<Timestamp> as_of :
       {std::optional<Timestamp>{}, std::optional<Timestamp>{3}, std::optional<Timestamp>{4}}) {
    EXPECT_EQ(seeked(store_, abc, as_of), brute_force(store_, abc, as_of))
        << "@" << as_of.value_or(0);
  }
  EXPECT_EQ(store_.snapshot_flat(abc).size(), 10u);
  EXPECT_EQ(store_.snapshot_flat(abc, 3).size(), 7u);  // the new keys are wave 4's

  // An erase shrinks the run the next seek finds.
  store_.erase("t", "abc1", "x", 5);
  store_.erase("t", "abc1", "y", 5);
  EXPECT_EQ(seeked(store_, abc, std::nullopt), brute_force(store_, abc, std::nullopt));
  EXPECT_EQ(store_.snapshot_flat(abc).size(), 8u);
}

TEST_P(ScanSeek, SeededRandomPrefixesMatchBruteForce) {
  std::mt19937_64 rng(20261019);
  const auto& rows = fixture_rows();
  for (Timestamp wave = 1; wave <= 3; ++wave) {
    for (int i = 0; i < 300; ++i) {
      std::string row = rows[rng() % rows.size()] + std::to_string(rng() % 50);
      store_.put("t", row, (rng() % 2) != 0 ? "x" : "y", wave, static_cast<double>(rng() % 1000));
    }
  }
  for (int i = 0; i < 200; ++i) {
    std::string prefix = rows[rng() % rows.size()] + std::to_string(rng() % 50);
    prefix.resize(rng() % (prefix.size() + 1));
    // Sometimes nudge the last byte so the prefix falls between keys.
    if (!prefix.empty() && rng() % 3 == 0) prefix.back() = static_cast<char>(prefix.back() + 1);
    const ContainerRef container("t", rng() % 4 == 0 ? "x" : "", prefix);
    const std::optional<Timestamp> as_of =
        rng() % 2 == 0 ? std::nullopt : std::optional<Timestamp>{1 + rng() % 3};
    EXPECT_EQ(seeked(store_, container, as_of), brute_force(store_, container, as_of))
        << container.id() << " @" << as_of.value_or(0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ScanSeek, ::testing::Values(std::size_t{1}, std::size_t{8}));

}  // namespace
}  // namespace smartflux::ds
