#include "workloads/firerisk/firerisk.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>
#include <string>

#include "common/error.h"
#include "common/hashing.h"
#include "workloads/read_table.h"
#include "workloads/row_key.h"

namespace smartflux::workloads {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::string sensor_row(std::size_t x, std::size_t y) {
  return row_key("s", x, "_", y);
}

std::string area_row(std::size_t ax, std::size_t ay) {
  return row_key("a", ax, "_", ay);
}

}  // namespace

FireRiskWorkload::FireRiskWorkload(FireRiskParams params)
    : params_(std::make_shared<const FireRiskParams>(params)) {
  SF_CHECK(params.grid >= 2, "grid must be at least 2x2");
  SF_CHECK(params.area >= 1 && params.area <= params.grid, "invalid area size");
  SF_CHECK(params.grid % params.area == 0, "area size must divide the grid size");
  SF_CHECK(params.max_error > 0.0 && params.max_error <= 1.0, "max_error must be in (0,1]");
}

bool FireRiskWorkload::hot_spell(std::size_t x, std::size_t y, ds::Timestamp wave) const {
  const FireRiskParams& p = *params_;
  // Spell schedule in epochs of fire_duration waves: within an epoch, a spell
  // may start at a hashed wave offset and location, then grows around its
  // center for the rest of the epoch.
  const std::uint64_t epoch = wave / p.fire_duration;
  if (hash_unit(p.seed, 8100, epoch) >= p.fire_probability * static_cast<double>(p.fire_duration)) {
    return false;
  }
  const auto cx = hash64(p.seed, 8101, epoch) % p.grid;
  const auto cy = hash64(p.seed, 8102, epoch) % p.grid;
  const std::uint64_t start = hash64(p.seed, 8103, epoch) % (p.fire_duration / 2);
  const std::uint64_t offset = wave % p.fire_duration;
  if (offset < start) return false;
  // Radius grows from 1 to ~area as the spell matures.
  const double progress = static_cast<double>(offset - start) /
                          static_cast<double>(p.fire_duration - start);
  const double radius = 1.0 + progress * static_cast<double>(p.area);
  const double dx = static_cast<double>(x) - static_cast<double>(cx);
  const double dy = static_cast<double>(y) - static_cast<double>(cy);
  return dx * dx + dy * dy <= radius * radius;
}

double FireRiskWorkload::temperature(std::size_t x, std::size_t y, ds::Timestamp wave) const {
  const FireRiskParams& p = *params_;
  // Amazon-like diurnal curve (Fig. 3): 24–30 °C, smooth hour to hour.
  // Each sensor has a fixed microclimate offset (canopy cover, elevation,
  // rivers), so areas cross risk thresholds at staggered hours rather than
  // flipping in lockstep.
  const double hour = static_cast<double>(wave % 24);
  double t = 24.5 + 5.0 * hash_unit(p.seed, 103, x / 2, y / 2) +
             (2.2 + 1.2 * hash_unit(p.seed, 104, x, y)) *
                 std::sin(2.0 * kPi * (hour - 9.0) / 24.0);
  // Passing clouds and local convection give the field real hour-to-hour
  // movement (a perfectly slow field would let every step defer for many
  // waves and stack staleness across the pipeline).
  t += 2.0 * smooth_noise(p.seed, 100 + x * 64 + y, wave, 4);
  t += 0.5 * (2.0 * hash_unit(p.seed, 101, x, y, wave) - 1.0);
  if (hot_spell(x, y, wave)) t += 18.0 + 6.0 * hash_unit(p.seed, 102, x, y, wave);
  return t;
}

double FireRiskWorkload::precipitation(std::size_t x, std::size_t y, ds::Timestamp wave) const {
  const FireRiskParams& p = *params_;
  const double hour = static_cast<double>(wave % 24);
  // Afternoon showers; clamped at 0 most of the night (Fig. 3).
  double mm = 0.25 + 0.35 * std::sin(2.0 * kPi * (hour - 15.0) / 24.0);
  mm += 0.25 * smooth_noise(p.seed, 200 + x * 64 + y, wave, 4);
  if (hot_spell(x, y, wave)) mm *= 0.1;  // hot spells are dry
  return std::max(0.0, mm);
}

double FireRiskWorkload::wind(std::size_t x, std::size_t y, ds::Timestamp wave) const {
  const FireRiskParams& p = *params_;
  const double hour = static_cast<double>(wave % 24);
  double kmh = 5.0 + 2.5 * std::sin(2.0 * kPi * (hour - 13.0) / 24.0);
  kmh += 2.0 * smooth_noise(p.seed, 300 + x * 64 + y, wave, 4);
  kmh += 0.4 * (2.0 * hash_unit(p.seed, 301, x, y, wave) - 1.0);
  if (hot_spell(x, y, wave)) kmh += 4.0;  // fire-driven updrafts
  return std::max(0.0, kmh);
}

wms::WorkflowSpec FireRiskWorkload::make_workflow() const {
  const auto p = params_;
  const double bound = p->max_error;
  // Per-step error budget: QoD bounds do not compose — a sink's measured
  // deviation inherits every upstream step's allowed staleness. Deep
  // pipelines therefore give interior steps a tighter share of the
  // end-to-end budget (leaf/display steps keep the full bound).
  const double interior_bound = bound * 0.25;
  const double mid_bound = bound * 0.5;

  std::vector<wms::StepSpec> steps;

  // Step 1: updates the internal forest map with fresh sensor data (always
  // executes: first updater of a data container).
  {
    wms::StepSpec s;
    s.id = "1_map_update";
    s.outputs = {ds::ContainerRef::whole_table("sensors")};
    s.fn = [p](wms::StepContext& ctx) {
      FireRiskWorkload gen{*p};
      // Whole-grid ingest as one batch (one lock acquisition per shard).
      // Rows are materialized before the non-owning PutOps.
      std::vector<std::string> rows;
      rows.reserve(p->grid * p->grid);
      for (std::size_t x = 0; x < p->grid; ++x) {
        for (std::size_t y = 0; y < p->grid; ++y) rows.push_back(sensor_row(x, y));
      }
      std::vector<ds::PutOp> ops;
      ops.reserve(rows.size() * 3);
      std::size_t i = 0;
      for (std::size_t x = 0; x < p->grid; ++x) {
        for (std::size_t y = 0; y < p->grid; ++y) {
          const std::string& row = rows[i++];
          ops.push_back({row, "temp", gen.temperature(x, y, ctx.wave)});
          ops.push_back({row, "precip", gen.precipitation(x, y, ctx.wave)});
          ops.push_back({row, "wind", gen.wind(x, y, ctx.wave)});
        }
      }
      ctx.client.put_batch("sensors", ops);
    };
    steps.push_back(std::move(s));
  }

  // Step 2a: divides the forest into areas and combines sensor measures.
  {
    wms::StepSpec s;
    s.id = "2a_areas";
    s.predecessors = {"1_map_update"};
    s.inputs = {ds::ContainerRef::whole_table("sensors")};
    s.outputs = {ds::ContainerRef::whole_table("areas")};
    s.max_error = interior_bound;
    s.fn = [p](wms::StepContext& ctx) {
      const std::size_t as = p->area;
      const std::size_t areas = p->grid / as;
      const auto sensors = read_table(ctx.client, "sensors");
      for (std::size_t ax = 0; ax < areas; ++ax) {
        for (std::size_t ay = 0; ay < areas; ++ay) {
          double temp = 0.0, precip = 0.0, wind = 0.0;
          std::size_t n = 0;
          for (std::size_t dx = 0; dx < as; ++dx) {
            for (std::size_t dy = 0; dy < as; ++dy) {
              auto it = sensors.find(sensor_row(ax * as + dx, ay * as + dy));
              if (it == sensors.end()) continue;
              temp += it->second.count("temp") ? it->second.at("temp") : 0.0;
              precip += it->second.count("precip") ? it->second.at("precip") : 0.0;
              wind += it->second.count("wind") ? it->second.at("wind") : 0.0;
              ++n;
            }
          }
          const auto row = area_row(ax, ay);
          const double dn = n == 0 ? 1.0 : static_cast<double>(n);
          ctx.client.put("areas", row, "temp", temp / dn);
          ctx.client.put("areas", row, "precip", precip / dn);
          ctx.client.put("areas", row, "wind", wind / dn);
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 2b: thermal map for a monitoring station (display artifact:
  // temperatures quantized to 0.5 °C pixels).
  {
    wms::StepSpec s;
    s.id = "2b_thermal_map";
    s.predecessors = {"1_map_update"};
    s.inputs = {ds::ContainerRef::column("sensors", "temp")};
    s.outputs = {ds::ContainerRef::whole_table("thermal_map")};
    s.max_error = bound;
    s.fn = [](wms::StepContext& ctx) {
      for (const ds::FlatEntry& e :
           ctx.client.snapshot(ds::ContainerRef::column("sensors", "temp"))) {
        ctx.client.put("thermal_map", *e.row, "pixel", std::round(e.value * 2.0) / 2.0);
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 3: fire risk per area — a simplified fire-weather index from
  // temperature, dryness and wind, classified into levels 0–3.
  {
    wms::StepSpec s;
    s.id = "3_area_risk";
    s.predecessors = {"2a_areas"};
    s.inputs = {ds::ContainerRef::whole_table("areas")};
    // QoD is enforced on the whole risk table — the continuous FWI plus the
    // classified level. Keeping the continuous component in the tracked
    // container is what makes the paper's central premise hold for this
    // step: input impact (temperature change) correlates with FWI change,
    // whereas the quantized levels alone only move on threshold crossings.
    s.outputs = {ds::ContainerRef::whole_table("risk")};
    s.max_error = mid_bound;
    s.fn = [](wms::StepContext& ctx) {
      const auto areas = read_table(ctx.client, "areas");
      for (const auto& [row, cols] : areas) {
        const double temp = cols.count("temp") ? cols.at("temp") : 0.0;
        const double precip = cols.count("precip") ? cols.at("precip") : 0.0;
        const double wind = cols.count("wind") ? cols.at("wind") : 0.0;
        // Additive fire-weather index: heat and wind raise it, rain lowers
        // it. An additive combination keeps the relative variation of the
        // index comparable to its inputs' — the paper's application class
        // (§1) requires that changes attenuate, not amplify, along the
        // workflow.
        // Temperature-dominated additive index: the dominant term matches
        // the dominant term of the upstream container's error metric, so a
        // bounded upstream staleness translates into a comparably bounded
        // index staleness (no cross-unit amplification).
        const double fwi = std::max(0.0, temp + 0.5 * wind - 2.0 * precip);
        // Risk levels are 1-based (1 = low .. 4 = extreme): classification
        // further attenuates sensor jitter.
        double level = 1.0;
        if (fwi >= 42.0) {
          level = 4.0;  // extreme (hot spell / fire)
        } else if (fwi >= 34.0) {
          level = 3.0;
        } else if (fwi >= 30.0) {
          level = 2.0;
        }
        ctx.client.put("risk", row, "fwi", fwi);
        ctx.client.put("risk", row, "level", level);
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 4a: overall risk and contiguous risky areas (workflow output).
  {
    wms::StepSpec s;
    s.id = "4a_overall";
    s.predecessors = {"3_area_risk"};
    s.inputs = {ds::ContainerRef::column("risk", "level")};
    s.outputs = {ds::ContainerRef::whole_table("overall")};
    s.max_error = bound;
    s.fn = [p](wms::StepContext& ctx) {
      const auto risk = read_table(ctx.client, "risk");
      const std::size_t areas = p->grid / p->area;
      double total = 0.0, extreme = 0.0;
      std::size_t hotspots = 0;
      for (std::size_t ax = 0; ax < areas; ++ax) {
        for (std::size_t ay = 0; ay < areas; ++ay) {
          const auto row = area_row(ax, ay);
          auto it = risk.find(row);
          const double level =
              it != risk.end() && it->second.count("level") ? it->second.at("level") : 1.0;
          total += level;
          if (level >= 4.0) {
            extreme += 1.0;
            // A hotspot: an extreme area with an extreme right/down neighbour.
            auto right = risk.find(area_row(ax + 1, ay));
            auto down = risk.find(area_row(ax, ay + 1));
            const bool neighbour_extreme =
                (right != risk.end() && right->second.count("level") &&
                 right->second.at("level") >= 4.0) ||
                (down != risk.end() && down->second.count("level") &&
                 down->second.at("level") >= 4.0);
            if (neighbour_extreme) ++hotspots;
          }
        }
      }
      const double n = static_cast<double>(areas * areas);
      ctx.client.put("overall", "global", "mean_level", total / n);
      ctx.client.put("overall", "global", "extreme_areas", extreme);
      ctx.client.put("overall", "global", "hotspots", static_cast<double>(hotspots));
    };
    steps.push_back(std::move(s));
  }

  // Step 4b: gathers satellite images for areas on fire — critical, no error
  // tolerated.
  {
    wms::StepSpec s;
    s.id = "4b_satellite";
    s.predecessors = {"3_area_risk"};
    s.inputs = {ds::ContainerRef::whole_table("risk")};
    s.outputs = {ds::ContainerRef::whole_table("satellite")};
    s.fn = [](wms::StepContext& ctx) {
      const auto risk = read_table(ctx.client, "risk");
      for (const auto& [row, cols] : risk) {
        const double level = cols.count("level") ? cols.at("level") : 0.0;
        if (level >= 4.0) {
          // "Image analysis": confirm fire when the FWI is extreme enough.
          const double fwi = cols.count("fwi") ? cols.at("fwi") : 0.0;
          ctx.client.put("satellite", row, "confirmed", fwi >= 48.0 ? 1.0 : 0.0);
        } else {
          ctx.client.erase("satellite", row, "confirmed");
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 5: issues a displacement order to the fire department on confirmed
  // fires — critical, no error tolerated.
  {
    wms::StepSpec s;
    s.id = "5_dispatch";
    s.predecessors = {"4b_satellite"};
    s.inputs = {ds::ContainerRef::whole_table("satellite")};
    s.outputs = {ds::ContainerRef::whole_table("dispatch")};
    s.fn = [](wms::StepContext& ctx) {
      double confirmed = 0.0;
      for (const ds::FlatEntry& e :
           ctx.client.snapshot(ds::ContainerRef::whole_table("satellite"))) {
        confirmed += e.value > 0.5 ? 1.0 : 0.0;
      }
      ctx.client.put("dispatch", "order", "units", confirmed > 0.0 ? confirmed + 1.0 : 0.0);
    };
    steps.push_back(std::move(s));
  }

  return wms::WorkflowSpec("firerisk", std::move(steps));
}

}  // namespace smartflux::workloads
