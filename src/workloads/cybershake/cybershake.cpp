#include "workloads/cybershake/cybershake.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/hashing.h"
#include "workloads/read_table.h"
#include "workloads/row_key.h"

namespace smartflux::workloads {

namespace {

std::string source_row(std::size_t s) { return row_key("f", s); }

std::string site_row(std::size_t x, std::size_t y) {
  return row_key("s", x, "_", y);
}

/// Simplified ground-motion attenuation: intensity at distance d from a
/// rupture of magnitude m.
double attenuation(double magnitude, double distance) {
  return std::exp(magnitude - 6.0) / (1.0 + 0.6 * distance * distance);
}

}  // namespace

CyberShakeWorkload::CyberShakeWorkload(CyberShakeParams params)
    : params_(std::make_shared<const CyberShakeParams>(params)) {
  SF_CHECK(params.sources >= 2, "need at least 2 rupture sources");
  SF_CHECK(params.grid >= 2, "need at least a 2x2 map");
  SF_CHECK(params.max_error > 0.0 && params.max_error <= 1.0, "max_error must be in (0,1]");
}

double CyberShakeWorkload::rupture_rate(std::size_t source, ds::Timestamp wave) const {
  const CyberShakeParams& p = *params_;
  // Base rate per source plus slow stress-accumulation drift; forecast
  // revisions land as step changes every ~60 waves, staggered per source.
  const double base = 0.002 + 0.012 * hash_unit(p.seed, 60, source);
  const std::uint64_t revision = (wave + hash64(p.seed, 61, source) % 60) / 60;
  const double revised = base * (0.7 + 0.6 * hash_unit(p.seed, 62, source, revision));
  const double drift = 1.0 + 0.25 * smooth_noise(p.seed, 63 + source, wave, 8);
  return std::max(1e-4, revised * drift);
}

double CyberShakeWorkload::rupture_magnitude(std::size_t source, ds::Timestamp wave) const {
  const CyberShakeParams& p = *params_;
  const double base = 5.5 + 2.0 * hash_unit(p.seed, 64, source);
  return base + 0.15 * smooth_noise(p.seed, 65 + source, wave, 12);
}

std::pair<double, double> CyberShakeWorkload::source_location(std::size_t source) const {
  const CyberShakeParams& p = *params_;
  return {hash_unit(p.seed, 66, source) * static_cast<double>(p.grid),
          hash_unit(p.seed, 67, source) * static_cast<double>(p.grid)};
}

wms::WorkflowSpec CyberShakeWorkload::make_workflow() const {
  const auto p = params_;
  const double bound = p->max_error;

  std::vector<wms::StepSpec> steps;

  // Step 1: the rupture forecast feed (always executes).
  {
    wms::StepSpec s;
    s.id = "1_forecast";
    s.outputs = {ds::ContainerRef::whole_table("ruptures")};
    s.fn = [p](wms::StepContext& ctx) {
      CyberShakeWorkload gen{*p};
      for (std::size_t src = 0; src < p->sources; ++src) {
        ctx.client.put("ruptures", source_row(src), "rate", gen.rupture_rate(src, ctx.wave));
        ctx.client.put("ruptures", source_row(src), "mag",
                       gen.rupture_magnitude(src, ctx.wave));
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 2: ground-motion computation — per-site intensity contribution of
  // all sources (the expensive simulation stage of the real CyberShake).
  {
    wms::StepSpec s;
    s.id = "2_gmpe";
    s.predecessors = {"1_forecast"};
    s.inputs = {ds::ContainerRef::whole_table("ruptures")};
    s.outputs = {ds::ContainerRef::whole_table("intensity")};
    s.max_error = bound;
    s.fn = [p](wms::StepContext& ctx) {
      CyberShakeWorkload gen{*p};
      const auto ruptures = read_table(ctx.client, "ruptures");
      for (std::size_t x = 0; x < p->grid; ++x) {
        for (std::size_t y = 0; y < p->grid; ++y) {
          double intensity = 0.0;
          for (std::size_t src = 0; src < p->sources; ++src) {
            auto it = ruptures.find(source_row(src));
            if (it == ruptures.end()) continue;
            const double rate = it->second.count("rate") ? it->second.at("rate") : 0.0;
            const double mag = it->second.count("mag") ? it->second.at("mag") : 0.0;
            const auto [sx, sy] = gen.source_location(src);
            const double dx = static_cast<double>(x) - sx;
            const double dy = static_cast<double>(y) - sy;
            intensity += rate * attenuation(mag, std::sqrt(dx * dx + dy * dy));
          }
          ctx.client.put("intensity", site_row(x, y), "gm", intensity);
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 3: hazard curves — annualized exceedance level per site.
  {
    wms::StepSpec s;
    s.id = "3_hazard";
    s.predecessors = {"2_gmpe"};
    s.inputs = {ds::ContainerRef::whole_table("intensity")};
    s.outputs = {ds::ContainerRef::whole_table("hazard")};
    s.max_error = bound;
    s.fn = [](wms::StepContext& ctx) {
      for (const ds::FlatEntry& e :
           ctx.client.snapshot(ds::ContainerRef::whole_table("intensity"))) {
        // Probability of exceeding the design intensity in a 10-year
        // horizon (Poissonian), scaled to percent.
        const double p50 = 1.0 - std::exp(-10.0 * e.value);
        ctx.client.put("hazard", *e.row, "p50", 100.0 * p50);
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 4: the hazard map — zones classified by risk plus map-wide
  // statistics (the workflow output decision makers consume).
  {
    wms::StepSpec s;
    s.id = "4_map";
    s.predecessors = {"3_hazard"};
    s.inputs = {ds::ContainerRef::whole_table("hazard")};
    s.outputs = {ds::ContainerRef::whole_table("map")};
    s.max_error = bound;
    s.fn = [p](wms::StepContext& ctx) {
      const auto hazard = read_table(ctx.client, "hazard");
      double total = 0.0, peak = 0.0;
      std::size_t high = 0;
      for (const auto& [row, cols] : hazard) {
        const double p50 = cols.count("p50") ? cols.at("p50") : 0.0;
        // Zone levels are 1-based and co-located with the continuous value
        // (the repo-wide QoD container design rule).
        double zone = 1.0;
        if (p50 >= 45.0) {
          zone = 4.0;
        } else if (p50 >= 25.0) {
          zone = 3.0;
        } else if (p50 >= 12.0) {
          zone = 2.0;
        }
        ctx.client.put("map", row, "zone", zone);
        ctx.client.put("map", row, "p50", p50);
        total += p50;
        peak = std::max(peak, p50);
        high += zone >= 3.0 ? 1 : 0;
      }
      const double n = static_cast<double>(p->grid * p->grid);
      ctx.client.put("map", "summary", "mean_p50", total / n);
      ctx.client.put("map", "summary", "peak_p50", peak);
      ctx.client.put("map", "summary", "high_zones", static_cast<double>(high));
    };
    steps.push_back(std::move(s));
  }

  return wms::WorkflowSpec("cybershake", std::move(steps));
}

}  // namespace smartflux::workloads
