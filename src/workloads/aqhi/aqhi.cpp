#include "workloads/aqhi/aqhi.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>
#include <string>

#include "common/error.h"
#include "common/hashing.h"
#include "datastore/client.h"
#include "workloads/read_table.h"
#include "workloads/row_key.h"

namespace smartflux::workloads {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::string detector_row(std::size_t x, std::size_t y) {
  return row_key("d", x, "_", y);
}

std::string zone_row(std::size_t zx, std::size_t zy) {
  return row_key("z", zx, "_", zy);
}

/// Weighted multiplicative model combining the three sensors (§5.1 step 2).
/// The exponents sum to 1, so the combined value keeps the same relative
/// sensitivity as its inputs (a plain cube root would divide it by three).
double combine_concentration(double o3, double pm25, double no2) {
  return 100.0 * std::pow(o3 / 100.0, 0.5) * std::pow(pm25 / 100.0, 0.3) *
         std::pow(no2 / 100.0, 0.2);
}

/// Writes one wave's full sensor grid as a single batch — shared by the
/// 1_feed step and the pipelined ingest path, so both produce identical
/// data. One batch for the whole grid: a single lock acquisition per shard
/// instead of 3·grid² (Client::put_batch). Rows are materialized first so
/// the non-owning PutOp views stay valid.
void put_sensor_batch(const AqhiParams& p, ds::Client& client, ds::Timestamp wave) {
  AqhiWorkload gen{p};
  std::vector<std::string> rows;
  rows.reserve(p.grid * p.grid);
  for (std::size_t x = 0; x < p.grid; ++x) {
    for (std::size_t y = 0; y < p.grid; ++y) rows.push_back(detector_row(x, y));
  }
  std::vector<ds::PutOp> ops;
  ops.reserve(rows.size() * 3);
  std::size_t i = 0;
  for (std::size_t x = 0; x < p.grid; ++x) {
    for (std::size_t y = 0; y < p.grid; ++y) {
      const std::string& row = rows[i++];
      ops.push_back({row, "o3", gen.sensor(0, x, y, wave)});
      ops.push_back({row, "pm25", gen.sensor(1, x, y, wave)});
      ops.push_back({row, "no2", gen.sensor(2, x, y, wave)});
    }
  }
  client.put_batch("sensors", ops);
}

}  // namespace

AqhiWorkload::AqhiWorkload(AqhiParams params)
    : params_(std::make_shared<const AqhiParams>(params)) {
  SF_CHECK(params.grid >= 2, "grid must be at least 2x2");
  SF_CHECK(params.zone >= 1 && params.zone <= params.grid, "invalid zone size");
  SF_CHECK(params.grid % params.zone == 0, "zone size must divide the grid size");
  SF_CHECK(params.max_error > 0.0 && params.max_error <= 1.0, "max_error must be in (0,1]");
}

std::size_t AqhiWorkload::num_detectors() const noexcept {
  return params_->grid * params_->grid;
}

std::size_t AqhiWorkload::zones_per_side() const noexcept {
  return params_->grid / params_->zone;
}

double AqhiWorkload::sensor(std::size_t pollutant, std::size_t x, std::size_t y,
                            ds::Timestamp wave) const {
  const AqhiParams& p = *params_;
  // Diurnal base curve per pollutant: O₃ peaks mid-afternoon, PM2.5 and NO₂
  // follow traffic rush hours (morning/evening), all smooth hour to hour.
  static constexpr double kBase[3] = {42.0, 36.0, 30.0};
  static constexpr double kDiurnalAmp[3] = {20.0, 15.0, 17.0};
  // Pollution co-varies with sun and traffic, so the three curves are only
  // mildly out of phase (a detector's combined concentration must actually
  // move hour to hour — the paper's first steps re-execute almost every wave
  // at a 5% bound).
  static constexpr double kPhase[3] = {-0.5 * kPi, -0.2 * kPi, 0.1 * kPi};
  const double hour = static_cast<double>(wave % 24);
  double v = kBase[pollutant] +
             kDiurnalAmp[pollutant] * std::sin(2.0 * kPi * hour / 24.0 + kPhase[pollutant]);

  // Weekly modulation (traffic is lighter on "weekend" waves), applied as a
  // smooth curve — city-wide traffic does not halve in a single hour.
  const double week_phase = 2.0 * kPi * static_cast<double>(wave % 168) / 168.0;
  v *= 0.94 + 0.06 * std::cos(week_phase + 0.4 * kPi);

  // Three fixed emission plumes whose intensity drifts slowly: the spatial
  // "smooth variation across space" of §5.1.
  static constexpr double kPlumeX[3] = {0.25, 0.70, 0.50};
  static constexpr double kPlumeY[3] = {0.30, 0.65, 0.85};
  const double fx = static_cast<double>(x) / static_cast<double>(p.grid - 1);
  const double fy = static_cast<double>(y) / static_cast<double>(p.grid - 1);
  for (std::size_t k = 0; k < 3; ++k) {
    const double dx = fx - kPlumeX[k];
    const double dy = fy - kPlumeY[k];
    const double dist2 = dx * dx + dy * dy;
    const double intensity =
        11.0 + 7.0 * std::sin(2.0 * kPi * static_cast<double>(wave) / (24.0 * 7.0) +
                              static_cast<double>(k) * 2.1) +
        5.0 * smooth_noise(p.seed, 900 + k * 3 + pollutant, wave, 12);
    v += intensity * std::exp(-dist2 / 0.045);
  }

  // Detector-local smooth jitter (slow) plus tiny per-hour noise.
  const std::uint64_t stream = pollutant * 100000 + x * 300 + y;
  v += 4.5 * smooth_noise(p.seed, stream, wave, 8);
  v += 1.5 * (2.0 * hash_unit(p.seed, stream, wave, 77) - 1.0);
  return std::clamp(v, 0.0, 100.0);
}

double AqhiWorkload::concentration(std::size_t x, std::size_t y, ds::Timestamp wave) const {
  return combine_concentration(sensor(0, x, y, wave), sensor(1, x, y, wave),
                               sensor(2, x, y, wave));
}

wms::WorkflowSpec AqhiWorkload::make_workflow() const { return make_workflow_impl(true); }

wms::WorkflowSpec AqhiWorkload::make_compute_workflow() const {
  return make_workflow_impl(false);
}

wms::WaveIngest AqhiWorkload::make_ingest() const {
  return [p = params_](ds::Client& client, ds::Timestamp wave) {
    put_sensor_batch(*p, client, wave);
  };
}

wms::WorkflowSpec AqhiWorkload::make_workflow_impl(bool with_feed) const {
  const auto p = params_;  // shared with every closure below

  std::vector<wms::StepSpec> steps;

  // Step 1: simulates asynchronous arrival of sensory data; always executes
  // (first updater of a data container, §2.4). In the compute-only variant
  // the same batch arrives via make_ingest() instead.
  if (with_feed) {
    wms::StepSpec s;
    s.id = "1_feed";
    s.outputs = {ds::ContainerRef::whole_table("sensors")};
    s.fn = [p](wms::StepContext& ctx) { put_sensor_batch(*p, ctx.client, ctx.wave); };
    steps.push_back(std::move(s));
  }

  // Step 2: combined concentration per detector (multiplicative model).
  {
    wms::StepSpec s;
    s.id = "2_concentration";
    if (with_feed) s.predecessors = {"1_feed"};
    s.inputs = {ds::ContainerRef::whole_table("sensors")};
    s.outputs = {ds::ContainerRef::whole_table("concentration")};
    s.max_error = p->max_error;
    s.fn = [](wms::StepContext& ctx) {
      const auto sensors = read_table(ctx.client, "sensors");
      std::vector<std::pair<ds::RowKey, double>> cells;
      cells.reserve(sensors.size());
      for (const auto& [row, cols] : sensors) {
        const double o3 = cols.count("o3") ? cols.at("o3") : 0.0;
        const double pm = cols.count("pm25") ? cols.at("pm25") : 0.0;
        const double no2 = cols.count("no2") ? cols.at("no2") : 0.0;
        cells.emplace_back(row, combine_concentration(o3, pm, no2));
      }
      ctx.client.put_column("concentration", "conc", cells);
    };
    steps.push_back(std::move(s));
  }

  // Step 3a: zone aggregation.
  {
    wms::StepSpec s;
    s.id = "3a_zones";
    s.predecessors = {"2_concentration"};
    s.inputs = {ds::ContainerRef::whole_table("concentration")};
    s.outputs = {ds::ContainerRef::whole_table("zones")};
    s.max_error = p->max_error;
    s.fn = [p](wms::StepContext& ctx) {
      const std::size_t zs = p->zone;
      const std::size_t zones = p->grid / zs;
      const auto conc = read_table(ctx.client, "concentration");
      for (std::size_t zx = 0; zx < zones; ++zx) {
        for (std::size_t zy = 0; zy < zones; ++zy) {
          double sum = 0.0;
          std::size_t n = 0;
          for (std::size_t dx = 0; dx < zs; ++dx) {
            for (std::size_t dy = 0; dy < zs; ++dy) {
              auto it = conc.find(detector_row(zx * zs + dx, zy * zs + dy));
              if (it != conc.end() && it->second.count("conc")) {
                sum += it->second.at("conc");
                ++n;
              }
            }
          }
          ctx.client.put("zones", zone_row(zx, zy), "conc",
                         n == 0 ? 0.0 : sum / static_cast<double>(n));
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 3b: inter-detector smoothing ("plots a chart ... for displaying
  // purposes", §5.1) — a display artifact with its own tolerance.
  {
    wms::StepSpec s;
    s.id = "3b_interzones";
    s.predecessors = {"2_concentration"};
    s.inputs = {ds::ContainerRef::whole_table("concentration")};
    s.outputs = {ds::ContainerRef::whole_table("smoothmap")};
    s.max_error = p->max_error;
    s.fn = [p](wms::StepContext& ctx) {
      const auto conc = read_table(ctx.client, "concentration");
      auto value_at = [&conc](std::size_t x, std::size_t y) -> double {
        auto it = conc.find(detector_row(x, y));
        return it != conc.end() && it->second.count("conc") ? it->second.at("conc") : 0.0;
      };
      const std::size_t g = p->grid;
      for (std::size_t x = 0; x < g; ++x) {
        for (std::size_t y = 0; y < g; ++y) {
          double sum = value_at(x, y);
          std::size_t n = 1;
          if (x > 0) { sum += value_at(x - 1, y); ++n; }
          if (x + 1 < g) { sum += value_at(x + 1, y); ++n; }
          if (y > 0) { sum += value_at(x, y - 1); ++n; }
          if (y + 1 < g) { sum += value_at(x, y + 1); ++n; }
          ctx.client.put("smoothmap", detector_row(x, y), "conc",
                         sum / static_cast<double>(n));
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 4: hotspot detection — zones above the reference concentration.
  {
    wms::StepSpec s;
    s.id = "4_hotspots";
    s.predecessors = {"3a_zones"};
    s.inputs = {ds::ContainerRef::whole_table("zones")};
    s.outputs = {ds::ContainerRef::whole_table("hotspots")};
    s.max_error = p->max_error;
    s.fn = [p](wms::StepContext& ctx) {
      const auto zones = read_table(ctx.client, "zones");
      for (const auto& [row, cols] : zones) {
        const double conc = cols.count("conc") ? cols.at("conc") : 0.0;
        const bool hotspot = conc > p->hotspot_threshold;
        ctx.client.put("hotspots", row, "flag", hotspot ? 1.0 : 0.0);
        // Excess concentration above the reference, smoothly ramping from 0:
        // keeping a continuous component beside the boolean flag keeps the
        // container's error correlated with the input impact (the paper's
        // central premise, §2.3) instead of flipping en masse when many
        // zones cross the reference in the same hour.
        ctx.client.put("hotspots", row, "level",
                       hotspot ? conc - p->hotspot_threshold : 0.0);
        ctx.client.put("hotspots", row, "conc", conc);
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 5: the AQHI index — additive model over hotspot count and mean
  // hotspot pollution (workflow output).
  {
    wms::StepSpec s;
    s.id = "5_index";
    s.predecessors = {"4_hotspots"};
    s.inputs = {ds::ContainerRef::whole_table("hotspots")};
    s.outputs = {ds::ContainerRef::whole_table("index")};
    s.max_error = p->max_error;
    s.fn = [](wms::StepContext& ctx) {
      const auto hotspots = read_table(ctx.client, "hotspots");
      double count = 0.0, level_sum = 0.0, conc_sum = 0.0;
      std::size_t zones = 0;
      for (const auto& [_, cols] : hotspots) {
        ++zones;
        conc_sum += cols.count("conc") ? cols.at("conc") : 0.0;
        if (cols.count("flag") && cols.at("flag") > 0.5) {
          count += 1.0;
          level_sum += cols.count("level") ? cols.at("level") : 0.0;
        }
      }
      const double avg_level = count > 0.0 ? level_sum / count : 0.0;
      const double mean_conc = zones > 0 ? conc_sum / static_cast<double>(zones) : 0.0;
      // Additive model (§5.1): pollution magnitude with hotspot count and
      // severity terms. The continuous term dominates so the index inherits
      // the smoothness of the concentrations; the count contributes steps of
      // a few percent.
      const double index = 1.0 + 0.12 * mean_conc + 0.15 * count + 0.1 * avg_level;
      // Health-risk class: low (1–3), moderate (4–6), high (7–10), very high.
      double risk_class = 1.0;
      if (index > 10.0) {
        risk_class = 4.0;
      } else if (index >= 7.0) {
        risk_class = 3.0;
      } else if (index >= 4.0) {
        risk_class = 2.0;
      }
      ctx.client.put("index", "global", "aqhi", index);
      ctx.client.put("index", "global", "class", risk_class);
    };
    steps.push_back(std::move(s));
  }

  return wms::WorkflowSpec("aqhi", std::move(steps));
}

}  // namespace smartflux::workloads
