#include "workloads/lrb/lrb.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/error.h"
#include "common/hashing.h"
#include "workloads/read_table.h"
#include "workloads/row_key.h"

namespace smartflux::workloads {

namespace {

constexpr double kFreeFlowKmh = 90.0;

std::string segment_row(std::size_t xway, std::size_t seg) {
  return row_key("x", xway, seg < 10 ? "_s0" : "_s", seg);
}

std::string vehicle_row(std::size_t v) { return row_key("v", v); }

}  // namespace

struct LrbWorkload::Impl {
  LrbParams params;
  // accidents[wave * num_xways * segments + xway * segments + seg]
  std::vector<char> accidents;
  // states[wave * vehicles + v]
  std::vector<VehicleState> states;

  explicit Impl(LrbParams p) : params(p) {
    SF_CHECK(p.num_xways >= 1, "need at least one expressway");
    SF_CHECK(p.segments >= 5, "need at least 5 segments");
    SF_CHECK(p.vehicles >= p.num_xways, "need at least one vehicle per expressway");
    SF_CHECK(p.total_waves >= 2, "need at least two waves");
    SF_CHECK(p.max_error > 0.0 && p.max_error <= 1.0, "max_error must be in (0,1]");
    precompute();
  }

  std::size_t xway_of(std::size_t v) const noexcept { return v % params.num_xways; }

  bool accident_at(ds::Timestamp wave, std::size_t xway, std::size_t seg) const {
    if (wave >= params.total_waves) wave = params.total_waves - 1;
    return accidents[(wave * params.num_xways + xway) * params.segments + seg] != 0;
  }

  const VehicleState& state_at(ds::Timestamp wave, std::size_t v) const {
    if (wave >= params.total_waves) wave = params.total_waves - 1;
    return states[wave * params.vehicles + v];
  }

  void precompute() {
    const LrbParams& p = params;
    accidents.assign(p.total_waves * p.num_xways * p.segments, 0);

    // Accident schedule: per expressway, new accidents start with a fixed
    // per-wave probability and block one segment for accident_duration waves.
    for (std::size_t xway = 0; xway < p.num_xways; ++xway) {
      for (std::size_t w = 0; w < p.total_waves; ++w) {
        if (hash_unit(p.seed, 1000 + xway, w) < p.accident_probability) {
          const auto seg = static_cast<std::size_t>(
              hash_unit(p.seed, 2000 + xway, w) * static_cast<double>(p.segments));
          for (std::size_t d = 0; d < p.accident_duration && w + d < p.total_waves; ++d) {
            accidents[((w + d) * p.num_xways + xway) * p.segments +
                      std::min(seg, p.segments - 1)] = 1;
          }
        }
      }
    }

    // Vehicle trajectories, wave by wave, with density and accident feedback
    // on speed (so congestion emerges from the simulation itself).
    states.assign(p.total_waves * p.vehicles, VehicleState{});
    std::vector<std::size_t> density(p.num_xways * p.segments, 0);

    for (std::size_t v = 0; v < p.vehicles; ++v) {
      auto& s0 = states[v];
      s0.position = hash_unit(p.seed, 3000, v) * static_cast<double>(p.segments);
      s0.speed = 60.0 + 30.0 * hash_unit(p.seed, 3001, v);
    }

    for (std::size_t w = 1; w < p.total_waves; ++w) {
      // Density of the previous wave.
      std::fill(density.begin(), density.end(), std::size_t{0});
      for (std::size_t v = 0; v < p.vehicles; ++v) {
        const auto& prev = states[(w - 1) * p.vehicles + v];
        const auto seg = static_cast<std::size_t>(prev.position) % p.segments;
        ++density[xway_of(v) * p.segments + seg];
      }
      const double expected_per_segment =
          static_cast<double>(p.vehicles) /
          static_cast<double>(p.num_xways * p.segments);

      for (std::size_t v = 0; v < p.vehicles; ++v) {
        const auto& prev = states[(w - 1) * p.vehicles + v];
        auto& cur = states[w * p.vehicles + v];
        const std::size_t xway = xway_of(v);
        const auto seg = static_cast<std::size_t>(prev.position) % p.segments;

        // Driver target speed varies per vehicle in short behaviour windows
        // (lane changes, platooning, ramps) so segment statistics keep real
        // wave-to-wave motion.
        double target = 55.0 + 40.0 * hash_unit(p.seed, 4000 + v, w / 12);
        target += 14.0 * smooth_noise(p.seed, 5000 + v, w, 6);

        // Congestion slows traffic quadratically with relative density.
        const double rel_density =
            static_cast<double>(density[xway * p.segments + seg]) /
            std::max(1.0, expected_per_segment);
        target /= 1.0 + 0.25 * rel_density * rel_density;

        // Accidents: vehicles in or just behind the accident segment crawl.
        bool blocked = accident_at(w, xway, seg);
        for (std::size_t back = 1; back <= 2 && !blocked; ++back) {
          blocked = accident_at(w, xway, (seg + back) % p.segments);
        }
        if (blocked) target = std::min(target, 4.0 + 6.0 * hash_unit(p.seed, 6000 + v, w));

        // First-order speed adaptation, then advance position. One wave is
        // 30 simulated seconds; a segment is 1 mile ≈ 1.6 km.
        cur.speed = 0.6 * prev.speed + 0.4 * target;
        const double seg_per_wave = cur.speed * (30.0 / 3600.0) / 1.6;
        cur.position = std::fmod(prev.position + seg_per_wave,
                                 static_cast<double>(p.segments));
      }
    }
  }
};

LrbWorkload::LrbWorkload(LrbParams params) : impl_(std::make_shared<const Impl>(params)) {}

std::size_t LrbWorkload::xway_of(std::size_t vehicle) const noexcept {
  return impl_->xway_of(vehicle);
}

const LrbWorkload::VehicleState& LrbWorkload::vehicle(std::size_t vehicle,
                                                      ds::Timestamp wave) const {
  SF_CHECK(vehicle < impl_->params.vehicles, "vehicle index out of range");
  return impl_->state_at(wave, vehicle);
}

bool LrbWorkload::accident_active(std::size_t xway, std::size_t segment,
                                  ds::Timestamp wave) const {
  SF_CHECK(xway < impl_->params.num_xways, "xway out of range");
  SF_CHECK(segment < impl_->params.segments, "segment out of range");
  return impl_->accident_at(wave, xway, segment);
}

const LrbParams& LrbWorkload::params() const noexcept { return impl_->params; }

wms::WorkflowSpec LrbWorkload::make_workflow() const {
  const auto impl = impl_;
  const LrbParams& p = impl->params;
  const double bound = p.max_error;

  std::vector<wms::StepSpec> steps;

  // Step 1: receives, separates and stores position reports and queries.
  {
    wms::StepSpec s;
    s.id = "1_feed";
    s.outputs = {ds::ContainerRef::whole_table("reports"),
                 ds::ContainerRef::whole_table("queries")};
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      for (std::size_t v = 0; v < prm.vehicles; ++v) {
        const auto& st = impl->state_at(ctx.wave, v);
        const auto row = vehicle_row(v);
        ctx.client.put("reports", row, "xway", static_cast<double>(impl->xway_of(v)));
        ctx.client.put("reports", row, "seg",
                       std::floor(std::fmod(st.position, static_cast<double>(prm.segments))));
        ctx.client.put("reports", row, "speed", st.speed);
      }
      for (std::size_t q = 0; q < prm.queries_per_wave; ++q) {
        const auto row = row_key("q", q);
        const auto xway = static_cast<double>(
            hash64(prm.seed, 7000, ctx.wave, q) % prm.num_xways);
        const auto from = static_cast<double>(
            hash64(prm.seed, 7001, ctx.wave, q) % prm.segments);
        double to = static_cast<double>(hash64(prm.seed, 7002, ctx.wave, q) % prm.segments);
        if (to == from) to = std::fmod(to + 5.0, static_cast<double>(prm.segments));
        ctx.client.put("queries", row, "xway", xway);
        ctx.client.put("queries", row, "from", from);
        ctx.client.put("queries", row, "to", to);
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 2a: per-segment aggregation of position reports.
  {
    wms::StepSpec s;
    s.id = "2a_positions";
    s.predecessors = {"1_feed"};
    s.inputs = {ds::ContainerRef::whole_table("reports")};
    s.outputs = {ds::ContainerRef::whole_table("positions")};
    s.max_error = bound;
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      const auto reports = read_table(ctx.client, "reports");
      std::map<std::string, std::pair<double, double>> agg;  // seg -> (count, speed_sum)
      std::map<std::string, double> min_speed;
      for (const auto& [_, cols] : reports) {
        const auto xway = static_cast<std::size_t>(cell(reports, _, "xway"));
        const auto seg = static_cast<std::size_t>(cell(reports, _, "seg"));
        const double speed = cols.count("speed") ? cols.at("speed") : 0.0;
        const auto key = segment_row(xway, seg % prm.segments);
        auto& a = agg[key];
        a.first += 1.0;
        a.second += speed;
        auto it = min_speed.find(key);
        min_speed[key] = it == min_speed.end() ? speed : std::min(it->second, speed);
      }
      for (std::size_t xway = 0; xway < prm.num_xways; ++xway) {
        for (std::size_t seg = 0; seg < prm.segments; ++seg) {
          const auto key = segment_row(xway, seg);
          const auto it = agg.find(key);
          const double count = it == agg.end() ? 0.0 : it->second.first;
          const double speed_sum = it == agg.end() ? 0.0 : it->second.second;
          ctx.client.put("positions", key, "count", count);
          ctx.client.put("positions", key, "speed_sum", speed_sum);
          ctx.client.put("positions", key, "min_speed",
                         min_speed.count(key) ? min_speed.at(key) : kFreeFlowKmh);
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 3a: average speed per segment over the last 5 minutes (exponential
  // smoothing over the stored previous average).
  {
    wms::StepSpec s;
    s.id = "3a_avgspeed";
    s.predecessors = {"2a_positions"};
    s.inputs = {ds::ContainerRef::whole_table("positions")};
    s.outputs = {ds::ContainerRef::whole_table("avg_speed")};
    s.max_error = bound;
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      const auto positions = read_table(ctx.client, "positions");
      for (std::size_t xway = 0; xway < prm.num_xways; ++xway) {
        for (std::size_t seg = 0; seg < prm.segments; ++seg) {
          const auto key = segment_row(xway, seg);
          const double count = cell(positions, key, "count");
          // Mean speed of the current report window. Computing it from the
          // present aggregates alone keeps the step stateless: a deferred
          // re-execution fully catches up with the synchronous output, as
          // the model assumes ("fresh data outdates, by overriding,
          // previous input", §2).
          const double now =
              count > 0.0 ? cell(positions, key, "speed_sum") / count : kFreeFlowKmh;
          ctx.client.put("avg_speed", key, "kmh", now);
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 3b: number of cars per segment (quantized — tolls react to coarse
  // occupancy, not to single-vehicle jitter).
  {
    wms::StepSpec s;
    s.id = "3b_numcars";
    s.predecessors = {"2a_positions"};
    s.inputs = {ds::ContainerRef::whole_table("positions")};
    s.outputs = {ds::ContainerRef::whole_table("num_cars")};
    s.max_error = bound;
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      const auto positions = read_table(ctx.client, "positions");
      for (std::size_t xway = 0; xway < prm.num_xways; ++xway) {
        for (std::size_t seg = 0; seg < prm.segments; ++seg) {
          const auto key = segment_row(xway, seg);
          const double count = cell(positions, key, "count");
          ctx.client.put("num_cars", key, "cars", std::floor(count / 3.0) * 3.0);
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 3c: accident detection — segments with several crawling vehicles.
  {
    wms::StepSpec s;
    s.id = "3c_accidents";
    s.predecessors = {"2a_positions"};
    s.inputs = {ds::ContainerRef::whole_table("positions")};
    s.outputs = {ds::ContainerRef::whole_table("accidents")};
    s.max_error = bound;
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      const auto positions = read_table(ctx.client, "positions");
      for (std::size_t xway = 0; xway < prm.num_xways; ++xway) {
        for (std::size_t seg = 0; seg < prm.segments; ++seg) {
          const auto key = segment_row(xway, seg);
          const bool accident =
              cell(positions, key, "count") >= 2.0 &&
              cell(positions, key, "min_speed", kFreeFlowKmh) < 15.0;
          ctx.client.put("accidents", key, "flag", accident ? 1.0 : 0.0);
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 4: congestion level / toll per segment from speed, occupancy and
  // nearby accidents (the toll calculation of the original benchmark).
  {
    wms::StepSpec s;
    s.id = "4_congestion";
    s.predecessors = {"3a_avgspeed", "3b_numcars", "3c_accidents"};
    s.inputs = {ds::ContainerRef::whole_table("avg_speed"),
                ds::ContainerRef::whole_table("num_cars"),
                ds::ContainerRef::whole_table("accidents")};
    s.outputs = {ds::ContainerRef::whole_table("congestion")};
    s.max_error = bound;
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      const auto speed = read_table(ctx.client, "avg_speed");
      const auto cars = read_table(ctx.client, "num_cars");
      const auto accidents = read_table(ctx.client, "accidents");
      for (std::size_t xway = 0; xway < prm.num_xways; ++xway) {
        for (std::size_t seg = 0; seg < prm.segments; ++seg) {
          const auto key = segment_row(xway, seg);
          const double kmh = cell(speed, key, "kmh", kFreeFlowKmh);
          const double n = cell(cars, key, "cars");
          bool accident_near = false;
          for (std::size_t d = 0; d < 5 && !accident_near; ++d) {
            accident_near =
                cell(accidents, segment_row(xway, (seg + d) % prm.segments), "flag") > 0.5;
          }
          // LRB toll: quadratic in occupancy when traffic is slow; no toll in
          // accident zones.
          double toll = 0.0;
          if (kmh < 40.0 && n > 5.0 && !accident_near) {
            toll = 0.02 * (n - 5.0) * (n - 5.0);
          }
          const double level =
              n * (kFreeFlowKmh - std::min(kmh, kFreeFlowKmh)) / kFreeFlowKmh +
              (accident_near ? 25.0 : 0.0);
          ctx.client.put("congestion", key, "level", level);
          ctx.client.put("congestion", key, "toll", toll);
        }
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 5a: classifies areas of the expressway system by congestion and
  // finds contiguous high-congestion hotspots.
  {
    wms::StepSpec s;
    s.id = "5a_classify";
    s.predecessors = {"4_congestion"};
    s.inputs = {ds::ContainerRef::whole_table("congestion")};
    s.outputs = {ds::ContainerRef::whole_table("classes")};
    s.max_error = bound;
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      const auto congestion = read_table(ctx.client, "congestion");
      for (std::size_t xway = 0; xway < prm.num_xways; ++xway) {
        std::size_t hotspots = 0;
        std::size_t run = 0;
        for (std::size_t seg = 0; seg < prm.segments; ++seg) {
          const auto key = segment_row(xway, seg);
          const double level = cell(congestion, key, "level");
          double klass = 1.0;  // low
          if (level >= 20.0) {
            klass = 3.0;  // high
          } else if (level >= 8.0) {
            klass = 2.0;  // medium
          }
          ctx.client.put("classes", key, "class", klass);
          // The classified area keeps its continuous congestion level: the
          // container's error then tracks the underlying signal (the paper's
          // impact-error correlation premise) instead of only class flips.
          ctx.client.put("classes", key, "level", level);
          if (klass == 3.0) {
            if (++run == 2) ++hotspots;  // a hotspot = ≥2 contiguous segments
          } else {
            run = 0;
          }
        }
        ctx.client.put("classes", row_key("x", xway, "_summary"), "hotspots",
                       static_cast<double>(hotspots));
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 2b: processes and prioritizes historical queries — replies feed
  // real-time answers, so no error is tolerated (synchronous).
  {
    wms::StepSpec s;
    s.id = "2b_queries";
    s.predecessors = {"1_feed"};
    s.inputs = {ds::ContainerRef::whole_table("queries")};
    s.outputs = {ds::ContainerRef::whole_table("active_queries")};
    s.fn = [](wms::StepContext& ctx) {
      const auto queries = read_table(ctx.client, "queries");
      for (const auto& [row, cols] : queries) {
        const double from = cols.count("from") ? cols.at("from") : 0.0;
        const double to = cols.count("to") ? cols.at("to") : 0.0;
        ctx.client.put("active_queries", row, "xway",
                       cols.count("xway") ? cols.at("xway") : 0.0);
        ctx.client.put("active_queries", row, "from", from);
        ctx.client.put("active_queries", row, "to", to);
        ctx.client.put("active_queries", row, "priority", std::abs(to - from));
      }
    };
    steps.push_back(std::move(s));
  }

  // Step 5b: travel time and cost estimation for journeys (synchronous:
  // answers real-time queries).
  {
    wms::StepSpec s;
    s.id = "5b_travel";
    s.predecessors = {"2b_queries", "4_congestion"};
    s.inputs = {ds::ContainerRef::whole_table("active_queries"),
                ds::ContainerRef::whole_table("avg_speed"),
                ds::ContainerRef::whole_table("congestion")};
    s.outputs = {ds::ContainerRef::whole_table("travel")};
    s.fn = [impl](wms::StepContext& ctx) {
      const LrbParams& prm = impl->params;
      const auto queries = read_table(ctx.client, "active_queries");
      const auto speed = read_table(ctx.client, "avg_speed");
      const auto congestion = read_table(ctx.client, "congestion");
      for (const auto& [row, cols] : queries) {
        const auto xway = static_cast<std::size_t>(cell(queries, row, "xway"));
        auto seg = static_cast<std::size_t>(cell(queries, row, "from"));
        const auto to = static_cast<std::size_t>(cell(queries, row, "to"));
        double hours = 0.0, cost = 0.0;
        while (seg != to) {
          const auto key = segment_row(xway, seg % prm.segments);
          hours += 1.6 / std::max(5.0, cell(speed, key, "kmh", kFreeFlowKmh));
          cost += cell(congestion, key, "toll");
          seg = (seg + 1) % prm.segments;
        }
        ctx.client.put("travel", row, "time_min", hours * 60.0);
        ctx.client.put("travel", row, "cost", cost);
      }
    };
    steps.push_back(std::move(s));
  }

  return wms::WorkflowSpec("lrb", std::move(steps));
}

}  // namespace smartflux::workloads
