// Tests for the §2.3 generality workloads (PageRank and CyberShake) and
// their end-to-end behaviour under SmartFlux.

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "core/experiment.h"
#include "keys.h"
#include "wms/engine.h"
#include "workloads/cybershake/cybershake.h"
#include "workloads/pagerank/pagerank.h"

namespace smartflux::workloads {
namespace {

// --- PageRank ----------------------------------------------------------------

PageRankParams small_pagerank() {
  PageRankParams p;
  p.pages = 60;
  p.iterations = 15;
  return p;
}

TEST(PageRank, LinksDeterministicAndIrreflexive) {
  PageRankWorkload a(small_pagerank()), b(small_pagerank());
  for (ds::Timestamp w = 0; w < 40; w += 7) {
    for (std::size_t i = 0; i < 60; i += 5) {
      EXPECT_FALSE(a.has_link(i, i, w));
      for (std::size_t j = 0; j < 60; j += 3) {
        EXPECT_EQ(a.has_link(i, j, w), b.has_link(i, j, w));
      }
    }
  }
}

TEST(PageRank, LinkSetEvolvesOverTime) {
  PageRankWorkload wl(small_pagerank());
  std::size_t diffs = 0, total = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t j = 0; j < 60; ++j) {
      diffs += wl.has_link(i, j, 0) != wl.has_link(i, j, 200) ? 1 : 0;
      total += wl.has_link(i, j, 0) ? 1 : 0;
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(diffs, 0u);
}

TEST(PageRank, ReferenceRanksFormDistribution) {
  PageRankWorkload wl(small_pagerank());
  const auto ranks = wl.reference_ranks(5);
  ASSERT_EQ(ranks.size(), 60u);
  const double sum = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double r : ranks) EXPECT_GT(r, 0.0);
}

TEST(PageRank, WorkflowMatchesReferenceRanks) {
  const PageRankWorkload wl(small_pagerank());
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);

  const auto reference = wl.reference_ranks(1);
  for (std::size_t page = 0; page < 60; page += 7) {
    const auto stored = store.get("rank", test::key("p", page), "score");
    ASSERT_TRUE(stored.has_value());
    EXPECT_NEAR(*stored, 1000.0 * 60.0 * reference[page], 1e-6);
  }
}

TEST(PageRank, CrawlerMaintainsLinkTableIncrementally) {
  const PageRankWorkload wl(small_pagerank());
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_waves(1, 3, sync);
  // The links table must exactly mirror the generator at the last wave.
  std::size_t stored_links = store.cell_count("links");
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 60; ++i) expected += wl.out_links(i, 3).size();
  EXPECT_EQ(stored_links, expected);
}

TEST(PageRank, TopTableHasSlotsAndHistogram) {
  const PageRankWorkload wl(small_pagerank());
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);
  EXPECT_TRUE(store.get("top", "slot0", "score").has_value());
  EXPECT_TRUE(store.get("top", "hist0", "mass").has_value());
  EXPECT_TRUE(store.get("top", "summary", "top_mass").has_value());
  // Slot 0 is the best page: its score must be >= slot 1's.
  EXPECT_GE(*store.get("top", "slot0", "score"), *store.get("top", "slot1", "score"));
}

TEST(PageRank, SmartFluxSavesReRankings) {
  PageRankParams params = small_pagerank();
  params.max_error = 0.10;
  const PageRankWorkload wl(params);
  core::ExperimentOptions opts;
  opts.training_waves = 80;
  opts.eval_waves = 120;
  // Link churn touches *different* cells every wave, so per-wave error
  // deltas under the m-weighted relative metrics are sub-additive: summing
  // them (cumulative mode) underestimates the true divergence. The
  // cancelling mode (§2.1 — state versus last execution) measures the
  // direct deviation and is the right accumulation for sparse-change
  // workloads like a crawler.
  opts.smartflux.monitor.error_mode = core::AccumulationMode::kCancelling;
  opts.smartflux.monitor.impact_mode = core::AccumulationMode::kCancelling;
  core::Experiment ex(wl.make_workflow(), opts);
  const auto res = ex.run_smartflux();
  EXPECT_GT(res.savings_ratio(), 0.2);
  EXPECT_GE(res.confidence("2_linkstats"), 0.9);
  EXPECT_GE(res.confidence("3_pagerank"), 0.9);
  EXPECT_GE(res.confidence("4_topk"), 0.75);
}

TEST(PageRank, RejectsBadParams) {
  PageRankParams p;
  p.pages = 5;
  EXPECT_THROW(PageRankWorkload{p}, smartflux::InvalidArgument);
  PageRankParams q;
  q.top_k = 10000;
  EXPECT_THROW(PageRankWorkload{q}, smartflux::InvalidArgument);
}

// --- CyberShake ---------------------------------------------------------------

TEST(CyberShake, RatesPositiveAndDrifting) {
  CyberShakeWorkload wl(CyberShakeParams{});
  bool changed = false;
  for (std::size_t src = 0; src < 40; src += 5) {
    double first = wl.rupture_rate(src, 0);
    EXPECT_GT(first, 0.0);
    for (ds::Timestamp w = 1; w < 200; w += 13) {
      EXPECT_GT(wl.rupture_rate(src, w), 0.0);
      changed = changed || wl.rupture_rate(src, w) != first;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(CyberShake, MagnitudesInSeismicRange) {
  CyberShakeWorkload wl(CyberShakeParams{});
  for (std::size_t src = 0; src < 40; ++src) {
    for (ds::Timestamp w = 0; w < 100; w += 17) {
      const double m = wl.rupture_magnitude(src, w);
      EXPECT_GT(m, 5.0);
      EXPECT_LT(m, 8.0);
    }
  }
}

TEST(CyberShake, SourcesInsideMap) {
  CyberShakeWorkload wl(CyberShakeParams{});
  for (std::size_t src = 0; src < 40; ++src) {
    const auto [x, y] = wl.source_location(src);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 12.0);
    EXPECT_GE(y, 0.0);
    EXPECT_LT(y, 12.0);
  }
}

TEST(CyberShake, OneSyncWavePopulatesAllTables) {
  CyberShakeParams p;
  p.sources = 10;
  p.grid = 6;
  CyberShakeWorkload wl(p);
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);

  EXPECT_EQ(store.cell_count("ruptures"), 10u * 2u);
  EXPECT_EQ(store.cell_count("intensity"), 36u);
  EXPECT_EQ(store.cell_count("hazard"), 36u);
  EXPECT_EQ(store.cell_count("map"), 36u * 2u + 3u);
  const auto mean = store.get("map", "summary", "mean_p50");
  ASSERT_TRUE(mean.has_value());
  EXPECT_GT(*mean, 0.0);
  EXPECT_LE(*mean, 100.0);
}

TEST(CyberShake, HazardVariesSpatially) {
  CyberShakeWorkload wl(CyberShakeParams{});
  ds::DataStore store;
  wms::WorkflowEngine engine(wl.make_workflow(), store);
  wms::SyncController sync;
  engine.run_wave(1, sync);

  double lo = 1e9, hi = -1e9;
  for (const ds::FlatEntry& e : store.snapshot_flat(ds::ContainerRef::column("hazard", "p50"))) {
    lo = std::min(lo, e.value);
    hi = std::max(hi, e.value);
  }
  // Sites near faults must be markedly riskier than remote ones.
  EXPECT_GT(hi, 2.0 * lo);
  EXPECT_GE(lo, 0.0);
  EXPECT_LE(hi, 100.0);
}

TEST(CyberShake, SmartFluxSavesRecomputation) {
  CyberShakeParams params;
  params.max_error = 0.10;
  const CyberShakeWorkload wl(params);
  core::ExperimentOptions opts;
  opts.training_waves = 100;
  opts.eval_waves = 150;
  core::Experiment ex(wl.make_workflow(), opts);
  const auto res = ex.run_smartflux();
  EXPECT_GT(res.savings_ratio(), 0.2);
  for (const auto& step : res.tracked_steps) {
    EXPECT_GE(res.confidence(step), 0.8) << step;
  }
}

TEST(CyberShake, RejectsBadParams) {
  CyberShakeParams p;
  p.grid = 1;
  EXPECT_THROW(CyberShakeWorkload{p}, smartflux::InvalidArgument);
}

}  // namespace
}  // namespace smartflux::workloads
