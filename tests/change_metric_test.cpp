#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/hashing.h"
#include "core/change_metric.h"
#include "datastore/datastore.h"
#include "keys.h"
#include "snapshot_util.h"

namespace smartflux::core {
namespace {

using Map = std::map<std::string, double>;

double run_metric(ChangeMetric& m, const Map& current, const Map& previous) {
  return compute_change(current, previous, m);
}

TEST(Eq1MagnitudeCount, HandComputed) {
  // Two modified elements with |diff| 2 and 3: (2+3) * 2 = 10.
  MagnitudeCountImpact m;
  m.reset();
  m.update(5.0, 3.0);
  m.update(1.0, 4.0);
  EXPECT_EQ(m.compute(10, 100.0), 10.0);
}

TEST(Eq1MagnitudeCount, ZeroWhenNoChanges) {
  MagnitudeCountImpact m;
  m.reset();
  EXPECT_EQ(m.compute(10, 100.0), 0.0);
}

TEST(Eq1MagnitudeCount, InsertCountsFullMagnitude) {
  // Inserted element: previous state is 0 (paper §2.1).
  Map cur{{"a", 7.0}};
  MagnitudeCountImpact m;
  EXPECT_EQ(run_metric(m, cur, {}), 7.0);  // 7 * 1
}

TEST(Eq2Relative, HandComputed) {
  // One element 4 -> 6: num = 2*1, den = 6*2 (n=2) => 1/6.
  Map prev{{"a", 4.0}, {"b", 1.0}};
  Map cur{{"a", 6.0}, {"b", 1.0}};
  RelativeImpact m;
  EXPECT_NEAR(run_metric(m, cur, prev), 2.0 / 12.0, 1e-12);
}

TEST(Eq2Relative, BoundedByOne) {
  Map prev{{"a", 0.0}};
  Map cur{{"a", 100.0}};
  RelativeImpact m;
  EXPECT_LE(run_metric(m, cur, prev), 1.0);
  EXPECT_GT(run_metric(m, cur, prev), 0.0);
}

TEST(Eq2Relative, ZeroOnIdenticalStates) {
  Map state{{"a", 1.0}, {"b", 2.0}};
  RelativeImpact m;
  EXPECT_EQ(run_metric(m, state, state), 0.0);
}

TEST(Eq3RelativeError, HandComputed) {
  // One element 10 -> 13 in a container of 2 with previous sum 30:
  // num = 3*1, den = 30*2 => 0.05.
  Map prev{{"a", 10.0}, {"b", 20.0}};
  Map cur{{"a", 13.0}, {"b", 20.0}};
  RelativeError m;
  EXPECT_NEAR(run_metric(m, cur, prev), 0.05, 1e-12);
}

TEST(Eq3RelativeError, ClampsToOne) {
  Map prev{{"a", 1.0}};
  Map cur{{"a", 1000.0}};
  RelativeError m;
  EXPECT_EQ(run_metric(m, cur, prev), 1.0);
}

TEST(Eq3RelativeError, EmptyPreviousWithChangesIsOne) {
  Map cur{{"a", 5.0}};
  RelativeError m;
  EXPECT_EQ(run_metric(m, cur, {}), 1.0);
}

TEST(Eq4Rmse, HandComputed) {
  // Diffs 3 and 4 => sqrt((9+16)/2).
  RmseError m;
  m.reset();
  m.update(3.0, 0.0);
  m.update(0.0, 4.0);
  EXPECT_NEAR(m.compute(10, 0.0), std::sqrt(12.5), 1e-12);
}

TEST(Eq4Rmse, NormalizedByRange) {
  RmseError m(100.0);
  m.reset();
  m.update(50.0, 0.0);
  EXPECT_NEAR(m.compute(1, 0.0), 0.5, 1e-12);
}

TEST(Eq4Rmse, RejectsNonPositiveRange) {
  EXPECT_THROW(RmseError m(0.0), smartflux::InvalidArgument);
}

TEST(ComputeChange, DetectsInsertModifyDelete) {
  Map prev{{"keep", 1.0}, {"mod", 2.0}, {"del", 3.0}};
  Map cur{{"keep", 1.0}, {"mod", 5.0}, {"new", 4.0}};
  MagnitudeCountImpact m;
  // Changes: mod |5-2|=3, del |0-3|=3, new |4-0|=4 -> sum 10, m=3 -> 30.
  EXPECT_EQ(run_metric(m, cur, prev), 30.0);
}

TEST(ComputeChange, UnchangedElementsIgnored) {
  Map state{{"a", 1.0}, {"b", 2.0}, {"c", 3.0}};
  MagnitudeCountImpact m;
  EXPECT_EQ(run_metric(m, state, state), 0.0);
}

TEST(ComputeChange, UsesPreviousSizeWhenCurrentEmpty) {
  Map prev{{"a", 2.0}, {"b", 2.0}};
  RelativeError m;
  // All deleted: num = 4*2 = 8, den = 4*2 = 8 -> clamped 1.
  EXPECT_EQ(run_metric(m, {}, prev), 1.0);
}

TEST(Factories, ProduceRequestedKinds) {
  EXPECT_EQ(make_impact_metric(ImpactKind::kMagnitudeCount)->name(), "MagnitudeCountImpact(Eq1)");
  EXPECT_EQ(make_impact_metric(ImpactKind::kRelative)->name(), "RelativeImpact(Eq2)");
  EXPECT_EQ(make_error_metric(ErrorKind::kRelative)->name(), "RelativeError(Eq3)");
  EXPECT_EQ(make_error_metric(ErrorKind::kRmse, 10.0)->name(), "RmseError(Eq4)");
}

TEST(Factories, CloneIsIndependent) {
  MagnitudeCountImpact m;
  m.update(5.0, 0.0);
  auto clone = m.clone();
  EXPECT_EQ(clone->compute(1, 0.0), 0.0);  // fresh state
  EXPECT_EQ(m.compute(1, 0.0), 5.0);
}

// Property sweep: metric invariants over randomized snapshots.
class MetricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricProperty, NonNegativeAndZeroOnIdentical) {
  const std::uint64_t seed = GetParam();
  Map prev, cur;
  for (int i = 0; i < 30; ++i) {
    const auto key = test::key("k", i);
    prev[key] = 100.0 * hash_unit(seed, 1, static_cast<std::uint64_t>(i));
    cur[key] = hash_unit(seed, 2, static_cast<std::uint64_t>(i)) < 0.5
                   ? prev[key]
                   : 100.0 * hash_unit(seed, 3, static_cast<std::uint64_t>(i));
  }
  for (auto kind : {ImpactKind::kMagnitudeCount, ImpactKind::kRelative}) {
    auto m = make_impact_metric(kind);
    EXPECT_GE(compute_change(cur, prev, *m), 0.0);
    EXPECT_EQ(compute_change(prev, prev, *m), 0.0);
  }
  for (auto kind : {ErrorKind::kRelative, ErrorKind::kRmse}) {
    auto m = make_error_metric(kind, 100.0);
    EXPECT_GE(compute_change(cur, prev, *m), 0.0);
    EXPECT_EQ(compute_change(prev, prev, *m), 0.0);
  }
}

TEST_P(MetricProperty, RelativeMetricsBounded) {
  const std::uint64_t seed = GetParam();
  Map prev, cur;
  for (int i = 0; i < 20; ++i) {
    prev[test::key("k", i)] = 50.0 * hash_unit(seed, 10, static_cast<std::uint64_t>(i));
    cur[test::key("k", i)] = 50.0 * hash_unit(seed, 11, static_cast<std::uint64_t>(i));
  }
  auto eq2 = make_impact_metric(ImpactKind::kRelative);
  auto eq3 = make_error_metric(ErrorKind::kRelative);
  const double v2 = compute_change(cur, prev, *eq2);
  const double v3 = compute_change(cur, prev, *eq3);
  EXPECT_GE(v2, 0.0);
  EXPECT_LE(v2, 1.0);
  EXPECT_GE(v3, 0.0);
  EXPECT_LE(v3, 1.0);
}

TEST_P(MetricProperty, Eq1ScalesWithMagnitude) {
  // Doubling every diff doubles Eq. 1 (it is linear in the magnitudes).
  const std::uint64_t seed = GetParam();
  Map prev, cur1, cur2;
  for (int i = 0; i < 10; ++i) {
    const auto key = test::key("k", i);
    prev[key] = 10.0;
    const double d = hash_unit(seed, 20, static_cast<std::uint64_t>(i));
    cur1[key] = 10.0 + d;
    cur2[key] = 10.0 + 2.0 * d;
  }
  auto m = make_impact_metric(ImpactKind::kMagnitudeCount);
  const double v1 = compute_change(cur1, prev, *m);
  const double v2 = compute_change(cur2, prev, *m);
  EXPECT_NEAR(v2, 2.0 * v1, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Flat-snapshot equivalence -------------------------------------------
// The FlatSnapshot overload of compute_change must produce bit-identical
// values to the map overload: same element classification, same visit order
// (so even floating-point summation order matches).

class FlatEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatEquivalence, SameStoreMatchesMapPath) {
  const std::uint64_t seed = GetParam();
  ds::DataStore store;
  const auto container = ds::ContainerRef::whole_table("t");
  for (int i = 0; i < 40; ++i) {
    store.put("t", test::key("r", i % 13), test::key("c", i % 5), 1,
              100.0 * hash_unit(seed, 1, static_cast<std::uint64_t>(i)));
  }
  const auto prev_flat = store.snapshot_flat(container);
  const auto prev_map = test::keyed(prev_flat);
  // Second wave: modify some cells, insert new ones, delete a few.
  for (int i = 0; i < 25; ++i) {
    store.put("t", test::key("r", i % 17), test::key("c", i % 7), 2,
              100.0 * hash_unit(seed, 2, static_cast<std::uint64_t>(i)));
  }
  store.erase("t", "r1", "c1", 2);
  store.erase("t", "r2", "c2", 2);
  const auto cur_flat = store.snapshot_flat(container);
  const auto cur_map = test::keyed(cur_flat);
  ASSERT_EQ(cur_map.size(), cur_flat.size());

  for (auto kind : {ImpactKind::kMagnitudeCount, ImpactKind::kRelative}) {
    auto m = make_impact_metric(kind);
    EXPECT_EQ(compute_change(cur_flat, prev_flat, *m), compute_change(cur_map, prev_map, *m));
  }
  for (auto kind : {ErrorKind::kRelative, ErrorKind::kRmse}) {
    auto m = make_error_metric(kind, 100.0);
    EXPECT_EQ(compute_change(cur_flat, prev_flat, *m), compute_change(cur_map, prev_map, *m));
  }
}

TEST_P(FlatEquivalence, CrossStoreMatchesMapPath) {
  // Snapshots from two different stores (the experiment's shadow-vs-adaptive
  // comparison): no shared keyspace, so the merge-join uses string compares.
  const std::uint64_t seed = GetParam();
  ds::DataStore fresh_store, stale_store;
  const auto container = ds::ContainerRef::whole_table("t");
  for (int i = 0; i < 30; ++i) {
    const auto row = test::key("r", i);
    fresh_store.put("t", row, "c", 1, 10.0 * hash_unit(seed, 3, static_cast<std::uint64_t>(i)));
    if (i % 4 != 0) {
      stale_store.put("t", row, "c", 1,
                      10.0 * hash_unit(seed, 4, static_cast<std::uint64_t>(i)));
    }
  }
  stale_store.put("t", "z_extra", "c", 1, 5.0);  // only in stale (a delete)

  const auto fresh_flat = fresh_store.snapshot_flat(container);
  const auto stale_flat = stale_store.snapshot_flat(container);
  EXPECT_NE(fresh_flat.keyspace(), stale_flat.keyspace());
  const auto fresh_map = test::keyed(fresh_flat);
  const auto stale_map = test::keyed(stale_flat);

  for (auto kind : {ErrorKind::kRelative, ErrorKind::kRmse}) {
    auto m = make_error_metric(kind, 10.0);
    EXPECT_EQ(compute_change(fresh_flat, stale_flat, *m),
              compute_change(fresh_map, stale_map, *m));
  }
}

TEST(FlatEquivalence, HandComputedInsertModifyDelete) {
  ds::DataStore store;
  const auto container = ds::ContainerRef::whole_table("t");
  store.put("t", "a", "c", 1, 3.0);  // will be modified to 5.0 (diff 2)
  store.put("t", "b", "c", 1, 4.0);  // will be deleted (diff 4)
  const auto prev = store.snapshot_flat(container);
  store.put("t", "a", "c", 2, 5.0);
  store.erase("t", "b", "c", 2);
  store.put("t", "d", "c", 2, 7.0);  // inserted (diff 7)
  const auto cur = store.snapshot_flat(container);

  // Eq. 1: (2 + 4 + 7) * 3 modified = 39.
  MagnitudeCountImpact m;
  EXPECT_EQ(compute_change(cur, prev, m), 39.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatEquivalence, ::testing::Values(1, 2, 3, 7));

}  // namespace
}  // namespace smartflux::core
