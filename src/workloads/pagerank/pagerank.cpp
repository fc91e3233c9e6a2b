#include "workloads/pagerank/pagerank.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>
#include <string>

#include "common/error.h"
#include "common/hashing.h"
#include "workloads/row_key.h"

namespace smartflux::workloads {

namespace {

std::string page_row(std::size_t p) { return row_key("p", p); }

/// Power iteration over an out-link adjacency list.
std::vector<double> power_iterate(const std::vector<std::vector<std::size_t>>& out_links,
                                  double damping, std::size_t iterations) {
  const std::size_t n = out_links.size();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const double teleport = (1.0 - damping) / static_cast<double>(n);
    std::fill(next.begin(), next.end(), teleport);
    double dangling = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      if (out_links[p].empty()) {
        dangling += rank[p];
        continue;
      }
      const double share = damping * rank[p] / static_cast<double>(out_links[p].size());
      for (std::size_t q : out_links[p]) next[q] += share;
    }
    // Dangling mass is spread uniformly.
    const double dangling_share = damping * dangling / static_cast<double>(n);
    for (double& r : next) r += dangling_share;
    rank.swap(next);
  }
  return rank;
}

}  // namespace

PageRankWorkload::PageRankWorkload(PageRankParams params)
    : params_(std::make_shared<const PageRankParams>(params)) {
  SF_CHECK(params.pages >= 10, "need at least 10 pages");
  SF_CHECK(params.link_density > 0.0 && params.link_density < 1.0,
           "link_density must be in (0,1)");
  SF_CHECK(params.link_stability >= 1, "link_stability must be >= 1");
  SF_CHECK(params.churn >= 0.0 && params.churn <= 1.0, "churn must be in [0,1]");
  SF_CHECK(params.damping > 0.0 && params.damping < 1.0, "damping must be in (0,1)");
  SF_CHECK(params.iterations >= 1, "iterations must be >= 1");
  SF_CHECK(params.top_k >= 1 && params.top_k <= params.pages, "invalid top_k");
  SF_CHECK(params.max_error > 0.0 && params.max_error <= 1.0, "max_error must be in (0,1]");
}

bool PageRankWorkload::has_link(std::size_t from, std::size_t to, ds::Timestamp wave) const {
  const PageRankParams& p = *params_;
  if (from == to) return false;
  // Per-page epochs are phase-shifted so the whole web never flips at once.
  const std::uint64_t epoch = (wave + hash64(p.seed, 50, from) % p.link_stability) /
                              p.link_stability;

  // A page's popularity drifts slowly: popular pages attract more in-links.
  const double popularity =
      0.4 + 1.2 * hash_unit(p.seed, 51, to) +
      0.6 * smooth_noise(p.seed, 52 + to, wave, 4 * p.link_stability);

  // The rotating hot topic: a window of pages currently in the news.
  const std::size_t hot_start = (wave / (2 * p.link_stability) * 7) % p.pages;
  const bool hot = (to + p.pages - hot_start) % p.pages < p.pages / 20;

  double density = p.link_density * popularity * (hot ? 3.0 : 1.0);
  density = std::min(density, 0.9);

  // A stable core of links plus a churning fraction that re-rolls per epoch.
  const double roll_stable = hash_unit(p.seed, 53, from, to);
  if (roll_stable < density * (1.0 - p.churn)) return true;
  const double roll_churn = hash_unit(p.seed, 54, from, to, epoch);
  return roll_churn < density * p.churn;
}

std::vector<std::size_t> PageRankWorkload::out_links(std::size_t page,
                                                     ds::Timestamp wave) const {
  std::vector<std::size_t> out;
  for (std::size_t q = 0; q < params_->pages; ++q) {
    if (has_link(page, q, wave)) out.push_back(q);
  }
  return out;
}

std::vector<double> PageRankWorkload::reference_ranks(ds::Timestamp wave) const {
  std::vector<std::vector<std::size_t>> links(params_->pages);
  for (std::size_t p = 0; p < params_->pages; ++p) links[p] = out_links(p, wave);
  return power_iterate(links, params_->damping, params_->iterations);
}

wms::WorkflowSpec PageRankWorkload::make_workflow() const {
  const auto p = params_;
  const double bound = p->max_error;

  std::vector<wms::StepSpec> steps;

  // Step 1: the crawler — stores the current link structure. Always
  // executes (first updater of a data container).
  {
    wms::StepSpec s;
    s.id = "1_crawl";
    s.outputs = {ds::ContainerRef::whole_table("links")};
    s.fn = [p](wms::StepContext& ctx) {
      PageRankWorkload gen{*p};
      for (std::size_t from = 0; from < p->pages; ++from) {
        for (std::size_t to = 0; to < p->pages; ++to) {
          if (from == to) continue;
          const bool exists = gen.has_link(from, to, ctx.wave);
          const auto current = ctx.client.get("links", page_row(from), page_row(to));
          if (exists && !current) {
            ctx.client.put("links", page_row(from), page_row(to), 1.0);
          } else if (!exists && current) {
            ctx.client.erase("links", page_row(from), page_row(to));
          }
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 2: link statistics — in/out degree per page (the paper's
  // "histogram with the differences against previous states of links").
  {
    wms::StepSpec s;
    s.id = "2_linkstats";
    s.predecessors = {"1_crawl"};
    s.inputs = {ds::ContainerRef::whole_table("links")};
    s.outputs = {ds::ContainerRef::whole_table("degrees")};
    s.max_error = bound;
    s.fn = [p](wms::StepContext& ctx) {
      std::vector<double> out_deg(p->pages, 0.0), in_deg(p->pages, 0.0);
      for (const ds::FlatEntry& e : ctx.client.snapshot(ds::ContainerRef::whole_table("links"))) {
        const auto from = static_cast<std::size_t>(std::stoul(e.row->substr(1)));
        const auto to = static_cast<std::size_t>(std::stoul(e.col->substr(1)));
        if (from < p->pages && to < p->pages) {
          out_deg[from] += 1.0;
          in_deg[to] += 1.0;
        }
      }
      for (std::size_t page = 0; page < p->pages; ++page) {
        ctx.client.put("degrees", page_row(page), "out", out_deg[page]);
        ctx.client.put("degrees", page_row(page), "in", in_deg[page]);
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 3: PageRank power iteration — the expensive recomputation the QoD
  // model exists to avoid.
  {
    wms::StepSpec s;
    s.id = "3_pagerank";
    s.predecessors = {"2_linkstats"};
    // The QoD input is the container the step actually reads: the link set
    // itself (the paper: re-rank only when link differences are
    // significant). Declaring a downstream summary (e.g. the degrees) here
    // instead would gate the impact signal behind that summary step's own
    // skipping and starve this step.
    s.inputs = {ds::ContainerRef::whole_table("links")};
    s.outputs = {ds::ContainerRef::whole_table("rank")};
    s.max_error = bound;
    s.fn = [p](wms::StepContext& ctx) {
      std::vector<std::vector<std::size_t>> links(p->pages);
      for (const ds::FlatEntry& e : ctx.client.snapshot(ds::ContainerRef::whole_table("links"))) {
        const auto from = static_cast<std::size_t>(std::stoul(e.row->substr(1)));
        const auto to = static_cast<std::size_t>(std::stoul(e.col->substr(1)));
        if (from < p->pages && to < p->pages) links[from].push_back(to);
      }
      const auto ranks = power_iterate(links, p->damping, p->iterations);
      std::vector<std::pair<ds::RowKey, double>> cells;
      cells.reserve(p->pages);
      for (std::size_t page = 0; page < p->pages; ++page) {
        // Scaled to "rank points" (mean 1000) so relative error metrics see
        // values well above the float noise floor.
        cells.emplace_back(page_row(page),
                           1000.0 * static_cast<double>(p->pages) * ranks[page]);
      }
      // All rank scores in one batch: one lock acquisition for the table.
      ctx.client.put_column("rank", "score", cells);
    };
    steps.push_back(std::move(s));
  }

  // Step 4: the serving side — top-k pages and a rank histogram (what a
  // search frontend would consume).
  {
    wms::StepSpec s;
    s.id = "4_topk";
    s.predecessors = {"3_pagerank"};
    s.inputs = {ds::ContainerRef::whole_table("rank")};
    s.outputs = {ds::ContainerRef::whole_table("top")};
    s.max_error = bound;
    s.fn = [p](wms::StepContext& ctx) {
      std::vector<std::pair<double, std::size_t>> scored;
      for (const ds::FlatEntry& e : ctx.client.snapshot(ds::ContainerRef::whole_table("rank"))) {
        scored.emplace_back(e.value, std::stoul(e.row->substr(1)));
      }
      std::sort(scored.rbegin(), scored.rend());

      double top_mass = 0.0;
      for (std::size_t k = 0; k < p->top_k && k < scored.size(); ++k) {
        ctx.client.put("top", row_key("slot", k), "score", scored[k].first);
        top_mass += scored[k].first;
      }
      // Histogram of rank mass by decile of the page ordering.
      const std::size_t buckets = 10;
      std::vector<double> histogram(buckets, 0.0);
      for (std::size_t i = 0; i < scored.size(); ++i) {
        histogram[i * buckets / std::max<std::size_t>(1, scored.size())] += scored[i].first;
      }
      for (std::size_t b = 0; b < buckets; ++b) {
        ctx.client.put("top", row_key("hist", b), "mass", histogram[b]);
      }
      ctx.client.put("top", "summary", "top_mass", top_mass);
    };
    steps.push_back(std::move(s));
  }

  return wms::WorkflowSpec("pagerank", std::move(steps));
}

}  // namespace smartflux::workloads
