#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "obs/export.h"

namespace sfbench {

std::size_t StepTimes::index_of(const std::string& id) const {
  const auto it = std::find(ids.begin(), ids.end(), id);
  return static_cast<std::size_t>(it - ids.begin());
}

void StepTimes::reset() {
  std::fill(seconds.begin(), seconds.end(), 0.0);
  std::fill(executions.begin(), executions.end(), 0);
  std::fill(last_end.begin(), last_end.end(), Clock::time_point{});
}

void StepTotals::add(const StepTimes& times) {
  for (std::size_t i = 0; i < times.ids.size(); ++i) {
    seconds[times.ids[i]] += times.seconds[i];
    executions[times.ids[i]] += static_cast<double>(times.executions[i]);
  }
}

void StepTotals::add_delta(const StepTimes& before, const StepTimes& after) {
  for (std::size_t i = 0; i < after.ids.size(); ++i) {
    seconds[after.ids[i]] += after.seconds[i] - before.seconds[i];
    executions[after.ids[i]] +=
        static_cast<double>(after.executions[i] - before.executions[i]);
  }
}

void StepTotals::report(Metrics& out, double per) const {
  for (const auto& [id, s] : seconds) out["workloads.step_s." + id] = {s / per, "s"};
  for (const auto& [id, n] : executions) out["workloads.executions." + id] = {n / per, "count"};
}

wms::WorkflowSpec wrap_steps(const wms::WorkflowSpec& spec, StepTimes& times, Layers& layers) {
  times.ids.clear();
  std::vector<wms::StepSpec> steps = spec.steps();
  for (auto& step : steps) times.ids.push_back(step.id);
  times.seconds.assign(steps.size(), 0.0);
  times.executions.assign(steps.size(), 0);
  times.last_end.assign(steps.size(), Clock::time_point{});
  for (std::size_t i = 0; i < steps.size(); ++i) {
    steps[i].fn = [inner = std::move(steps[i].fn), name = "step:" + steps[i].id, i, &times,
                   &layers](wms::StepContext& ctx) {
      obs::Span span = layers.span(name, layer::kWorkloads, layers.parent());
      const auto start = Clock::now();
      inner(ctx);
      const auto end = Clock::now();
      span.finish();
      times.seconds[i] += s_between(start, end);
      times.last_end[i] = end;
      ++times.executions[i];
    };
  }
  return wms::WorkflowSpec(spec.name(), std::move(steps));
}

std::map<std::uint64_t, double> self_seconds(const std::vector<obs::SpanRecord>& spans) {
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    children[s.parent].emplace_back(s.start.count(), (s.start + s.duration).count());
  }
  std::map<std::uint64_t, double> self;
  for (const auto& s : spans) {
    const std::int64_t begin = s.start.count();
    const std::int64_t end = begin + s.duration.count();
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      std::int64_t cursor = begin;
      for (const auto& [kb, ke] : kids) {
        const std::int64_t lo = std::max(kb, cursor);
        const std::int64_t hi = std::min(ke, end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[s.id] = static_cast<double>(end - begin - covered) * 1e-9;
  }
  return self;
}

namespace {
bool matches(const obs::SpanRecord& s, const std::string& category, const std::string& prefix) {
  return s.category == category && s.name.compare(0, prefix.size(), prefix) == 0;
}
}  // namespace

double sum_self(const std::vector<obs::SpanRecord>& spans,
                const std::map<std::uint64_t, double>& self, const std::string& category,
                const std::string& name_prefix) {
  double total = 0.0;
  for (const auto& s : spans) {
    if (matches(s, category, name_prefix)) total += self.at(s.id);
  }
  return total;
}

std::vector<double> each_self(const std::vector<obs::SpanRecord>& spans,
                              const std::map<std::uint64_t, double>& self,
                              const std::string& category, const std::string& name_prefix) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (matches(s, category, name_prefix)) out.push_back(self.at(s.id));
  }
  return out;
}

const std::vector<std::string>& all_step_ids() {
  static const std::vector<std::string> ids = {
      // Linear Road (paper_lrb)
      "1_feed", "2a_positions", "2b_queries", "3a_avgspeed", "3b_numcars", "3c_accidents",
      "4_congestion", "5a_classify", "5b_travel",
      // AQHI compute workflow (serve_aqhi)
      "2_concentration", "3a_zones", "3b_interzones", "4_hotspots", "5_index",
      // read_mix writer workflow
      "1_tally"};
  return ids;
}

void write_trace(const obs::Tracer& tracer, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  obs::write_text_file(path, obs::to_chrome_trace(tracer.snapshot()));
}

}  // namespace sfbench
