#include <gtest/gtest.h>

#include "common/error.h"
#include "wms/engine.h"
#include "workloads/aqhi/aqhi.h"
#include "workloads/firerisk/firerisk.h"
#include "workloads/lrb/lrb.h"

namespace smartflux::workloads {
namespace {

// --- AQHI -------------------------------------------------------------------

TEST(Aqhi, SensorValuesInRange) {
  AqhiWorkload wl(AqhiParams{});
  for (ds::Timestamp w = 0; w < 200; w += 7) {
    for (std::size_t p = 0; p < 3; ++p) {
      const double v = wl.sensor(p, 3, 5, w);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 100.0);
    }
  }
}

TEST(Aqhi, DeterministicAcrossInstances) {
  AqhiWorkload a(AqhiParams{}), b(AqhiParams{});
  for (ds::Timestamp w = 0; w < 50; ++w) {
    EXPECT_EQ(a.sensor(0, 1, 2, w), b.sensor(0, 1, 2, w));
    EXPECT_EQ(a.concentration(4, 4, w), b.concentration(4, 4, w));
  }
}

TEST(Aqhi, SeedChangesData) {
  AqhiParams p1, p2;
  p2.seed = p1.seed + 1;
  AqhiWorkload a(p1), b(p2);
  int equal = 0;
  for (ds::Timestamp w = 0; w < 50; ++w) equal += a.sensor(0, 1, 2, w) == b.sensor(0, 1, 2, w);
  EXPECT_LT(equal, 5);
}

TEST(Aqhi, SmoothHourToHour) {
  AqhiWorkload wl(AqhiParams{});
  for (ds::Timestamp w = 0; w + 1 < 168; ++w) {
    EXPECT_LT(std::abs(wl.sensor(0, 5, 5, w + 1) - wl.sensor(0, 5, 5, w)), 15.0);
  }
}

TEST(Aqhi, WorkflowSpecShape) {
  AqhiWorkload wl(AqhiParams{});
  const auto spec = wl.make_workflow();
  EXPECT_EQ(spec.name(), "aqhi");
  EXPECT_EQ(spec.size(), 6u);
  EXPECT_EQ(spec.error_tolerant_steps().size(), 5u);  // all but 1_feed
  EXPECT_FALSE(spec.step("1_feed").tolerates_error());
  EXPECT_EQ(spec.sources().size(), 1u);
}

TEST(Aqhi, OneSyncWavePopulatesAllTables) {
  AqhiParams p;
  p.grid = 6;
  p.zone = 2;
  AqhiWorkload wl(p);
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);

  EXPECT_EQ(store.cell_count("sensors"), 36u * 3u);
  EXPECT_EQ(store.cell_count("concentration"), 36u);
  EXPECT_EQ(store.cell_count("zones"), 9u);
  EXPECT_EQ(store.cell_count("smoothmap"), 36u);
  EXPECT_EQ(store.cell_count("hotspots"), 9u * 3u);
  EXPECT_EQ(store.cell_count("index"), 2u);
  const auto index = store.get("index", "global", "aqhi");
  ASSERT_TRUE(index.has_value());
  EXPECT_GT(*index, 0.0);
  const auto klass = store.get("index", "global", "class");
  ASSERT_TRUE(klass.has_value());
  EXPECT_GE(*klass, 1.0);
  EXPECT_LE(*klass, 4.0);
}

TEST(Aqhi, RejectsBadParams) {
  AqhiParams p;
  p.zone = 3;
  p.grid = 14;  // not divisible
  EXPECT_THROW(AqhiWorkload{p}, smartflux::InvalidArgument);
  AqhiParams q;
  q.max_error = 0.0;
  EXPECT_THROW(AqhiWorkload{q}, smartflux::InvalidArgument);
}

// --- LRB --------------------------------------------------------------------

TEST(Lrb, VehicleStateWithinTrack) {
  LrbParams p;
  p.total_waves = 100;
  LrbWorkload wl(p);
  for (std::size_t v = 0; v < p.vehicles; v += 37) {
    for (ds::Timestamp w = 0; w < 100; w += 9) {
      const auto& st = wl.vehicle(v, w);
      EXPECT_GE(st.position, 0.0);
      EXPECT_LT(st.position, static_cast<double>(p.segments));
      EXPECT_GE(st.speed, 0.0);
      EXPECT_LE(st.speed, 130.0);
    }
  }
}

TEST(Lrb, XwayAssignmentStable) {
  LrbParams p;
  p.total_waves = 10;
  LrbWorkload wl(p);
  for (std::size_t v = 0; v < 20; ++v) {
    EXPECT_EQ(wl.xway_of(v), v % p.num_xways);
  }
}

TEST(Lrb, DeterministicAcrossInstances) {
  LrbParams p;
  p.total_waves = 50;
  LrbWorkload a(p), b(p);
  for (ds::Timestamp w = 0; w < 50; w += 5) {
    EXPECT_EQ(a.vehicle(3, w).position, b.vehicle(3, w).position);
    EXPECT_EQ(a.vehicle(3, w).speed, b.vehicle(3, w).speed);
  }
}

TEST(Lrb, AccidentsOccurAndClear) {
  LrbParams p;
  p.total_waves = 600;
  p.accident_probability = 0.05;
  LrbWorkload wl(p);
  std::size_t active_waves = 0;
  for (ds::Timestamp w = 0; w < 600; ++w) {
    for (std::size_t x = 0; x < p.num_xways; ++x) {
      for (std::size_t s = 0; s < p.segments; ++s) {
        active_waves += wl.accident_active(x, s, w) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(active_waves, 0u);
  // Accidents are rare events, not the norm.
  EXPECT_LT(active_waves, 600u * p.num_xways * p.segments / 10);
}

TEST(Lrb, AccidentsSlowNearbyVehicles) {
  LrbParams p;
  p.total_waves = 400;
  p.accident_probability = 0.05;
  LrbWorkload wl(p);
  double blocked_speed_sum = 0.0, free_speed_sum = 0.0;
  std::size_t blocked_n = 0, free_n = 0;
  for (ds::Timestamp w = 10; w < 400; w += 3) {
    for (std::size_t v = 0; v < p.vehicles; v += 11) {
      const auto& st = wl.vehicle(v, w);
      const auto seg = static_cast<std::size_t>(st.position);
      if (wl.accident_active(wl.xway_of(v), seg % p.segments, w)) {
        blocked_speed_sum += st.speed;
        ++blocked_n;
      } else {
        free_speed_sum += st.speed;
        ++free_n;
      }
    }
  }
  ASSERT_GT(blocked_n, 0u);
  ASSERT_GT(free_n, 0u);
  EXPECT_LT(blocked_speed_sum / blocked_n, 0.6 * free_speed_sum / free_n);
}

TEST(Lrb, WorkflowSpecShape) {
  LrbParams p;
  p.total_waves = 10;
  LrbWorkload wl(p);
  const auto spec = wl.make_workflow();
  EXPECT_EQ(spec.name(), "lrb");
  EXPECT_EQ(spec.size(), 9u);
  EXPECT_EQ(spec.error_tolerant_steps().size(), 6u);
  EXPECT_FALSE(spec.step("1_feed").tolerates_error());
  EXPECT_FALSE(spec.step("2b_queries").tolerates_error());
  EXPECT_FALSE(spec.step("5b_travel").tolerates_error());
}

TEST(Lrb, OneSyncWavePopulatesAllTables) {
  LrbParams p;
  p.total_waves = 10;
  p.num_xways = 2;
  p.segments = 10;
  p.vehicles = 40;
  LrbWorkload wl(p);
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);

  EXPECT_EQ(store.cell_count("reports"), 40u * 3u);
  EXPECT_EQ(store.cell_count("positions"), 2u * 10u * 3u);
  EXPECT_EQ(store.cell_count("avg_speed"), 20u);
  EXPECT_EQ(store.cell_count("num_cars"), 20u);
  EXPECT_EQ(store.cell_count("accidents"), 20u);
  EXPECT_EQ(store.cell_count("congestion"), 40u);
  EXPECT_EQ(store.cell_count("classes"), 2u * 10u * 2u + 2u);  // + per-xway summaries
  EXPECT_EQ(store.cell_count("queries"), p.queries_per_wave * 3u);
  EXPECT_EQ(store.cell_count("active_queries"), p.queries_per_wave * 4u);
  EXPECT_EQ(store.cell_count("travel"), p.queries_per_wave * 2u);
}

TEST(Lrb, VehicleCountConservedInPositions) {
  LrbParams p;
  p.total_waves = 10;
  p.num_xways = 2;
  p.segments = 10;
  p.vehicles = 40;
  LrbWorkload wl(p);
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);
  double total = 0.0;
  for (const ds::FlatEntry& e :
       store.snapshot_flat(ds::ContainerRef::column("positions", "count"))) {
    total += e.value;
  }
  EXPECT_EQ(total, 40.0);
}

TEST(Lrb, RejectsBadParams) {
  LrbParams p;
  p.segments = 2;
  EXPECT_THROW(LrbWorkload{p}, smartflux::InvalidArgument);
}

// --- Fire risk ---------------------------------------------------------------

TEST(FireRisk, NoSpellsByDefault) {
  FireRiskWorkload wl(FireRiskParams{});
  for (ds::Timestamp w = 0; w < 500; w += 3) {
    EXPECT_FALSE(wl.hot_spell(5, 5, w));
  }
}

TEST(FireRisk, SensorRangesPlausible) {
  FireRiskWorkload wl(FireRiskParams{});
  for (ds::Timestamp w = 0; w < 200; ++w) {
    const double t = wl.temperature(3, 3, w);
    EXPECT_GT(t, 15.0);
    EXPECT_LT(t, 40.0);
    EXPECT_GE(wl.precipitation(3, 3, w), 0.0);
    EXPECT_GE(wl.wind(3, 3, w), 0.0);
  }
}

TEST(FireRisk, SpellsRaiseTemperature) {
  FireRiskParams p;
  p.fire_probability = 0.05;
  FireRiskWorkload wl(p);
  bool found = false;
  for (ds::Timestamp w = 0; w < 2000 && !found; ++w) {
    for (std::size_t x = 0; x < p.grid && !found; ++x) {
      for (std::size_t y = 0; y < p.grid && !found; ++y) {
        if (wl.hot_spell(x, y, w)) {
          EXPECT_GT(wl.temperature(x, y, w), 38.0);
          found = true;
        }
      }
    }
  }
  EXPECT_TRUE(found) << "no hot spell scheduled in 2000 waves at p=0.05";
}

TEST(FireRisk, WorkflowSpecShape) {
  FireRiskWorkload wl(FireRiskParams{});
  const auto spec = wl.make_workflow();
  EXPECT_EQ(spec.name(), "firerisk");
  EXPECT_EQ(spec.size(), 7u);
  EXPECT_EQ(spec.error_tolerant_steps().size(), 4u);
  // Critical path never tolerates error (paper §2.4).
  EXPECT_FALSE(spec.step("4b_satellite").tolerates_error());
  EXPECT_FALSE(spec.step("5_dispatch").tolerates_error());
}

TEST(FireRisk, InteriorBoundsTighterThanSinks) {
  FireRiskParams p;
  p.max_error = 0.2;
  FireRiskWorkload wl(p);
  const auto spec = wl.make_workflow();
  EXPECT_LT(*spec.step("2a_areas").max_error, *spec.step("4a_overall").max_error);
  EXPECT_LT(*spec.step("3_area_risk").max_error, *spec.step("4a_overall").max_error);
  EXPECT_EQ(*spec.step("4a_overall").max_error, 0.2);
}

TEST(FireRisk, OneSyncWavePopulatesAllTables) {
  FireRiskParams p;
  p.grid = 8;
  p.area = 4;
  FireRiskWorkload wl(p);
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);

  EXPECT_EQ(store.cell_count("sensors"), 64u * 3u);
  EXPECT_EQ(store.cell_count("areas"), 4u * 3u);
  EXPECT_EQ(store.cell_count("thermal_map"), 64u);
  EXPECT_EQ(store.cell_count("risk"), 4u * 2u);
  EXPECT_EQ(store.cell_count("overall"), 3u);
  EXPECT_EQ(store.cell_count("dispatch"), 1u);
}

TEST(FireRisk, NoFireMeansNoDispatch) {
  FireRiskParams p;
  p.grid = 8;
  p.area = 4;
  FireRiskWorkload wl(p);
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_waves(1, 48, sync);
  EXPECT_EQ(store.get("dispatch", "order", "units"), 0.0);
}

TEST(FireRisk, FireTriggersDispatchUnderSync) {
  FireRiskParams p;
  p.grid = 8;
  p.area = 4;
  p.fire_probability = 0.2;  // spells certain within a few epochs
  FireRiskWorkload wl(p);
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  double max_units = 0.0;
  for (ds::Timestamp w = 1; w <= 300; ++w) {
    engine.run_wave(w, sync);
    max_units = std::max(max_units, store.get("dispatch", "order", "units").value_or(0.0));
  }
  EXPECT_GT(max_units, 0.0);
}

TEST(FireRisk, RejectsBadParams) {
  FireRiskParams p;
  p.area = 5;
  p.grid = 16;  // not divisible
  EXPECT_THROW(FireRiskWorkload{p}, smartflux::InvalidArgument);
}

}  // namespace
}  // namespace smartflux::workloads
