// Integration path: defining a QoD-enabled workflow in XML — the paper
// extends the Oozie workflow schema with data containers and error bounds
// per action (§4.2), and this repo's loader accepts the equivalent schema.
// Step implementations are registered by name, exactly like deployed action
// code in a real WMS.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/hashing.h"
#include "core/smartflux.h"
#include "wms/xml_loader.h"

namespace {

constexpr const char* kDefinition = R"(<?xml version="1.0"?>
<workflow-app name="river-monitor">
  <!-- Gauge stations along a river feed hourly level/flow readings. -->
  <action name="ingest">
    <impl>ingest</impl>
    <qod>
      <container role="output" table="gauges"/>
    </qod>
  </action>

  <!-- Basin aggregation tolerates a 5% deviation. -->
  <action name="basins">
    <impl>aggregate_basins</impl>
    <predecessors>ingest</predecessors>
    <qod>
      <container role="input"  table="gauges"/>
      <container role="output" table="basins"/>
      <max-error>0.05</max-error>
    </qod>
  </action>

  <!-- The flood bulletin tolerates 10%. -->
  <action name="bulletin">
    <impl>bulletin</impl>
    <predecessors>basins</predecessors>
    <qod>
      <container role="input"  table="basins"/>
      <container role="output" table="bulletin"/>
      <max-error>0.10</max-error>
    </qod>
  </action>
</workflow-app>)";

// Row keys are built by appending: g++ 12 at -O3 flags `"g" + std::to_string(n)`
// with a false -Wrestrict inside libstdc++'s string insert.
std::string gauge_row(std::uint64_t g) { return std::string("g").append(std::to_string(g)); }
std::string basin_row(std::uint64_t b) { return std::string("b").append(std::to_string(b)); }

}  // namespace

int main() {
  using namespace smartflux;

  // 1. Register the step implementations the XML refers to.
  wms::StepRegistry registry;
  registry.register_step("ingest", [](wms::StepContext& ctx) {
    for (std::uint64_t g = 0; g < 24; ++g) {
      const double level = 2.0 + 0.8 * std::sin(0.26 * static_cast<double>(ctx.wave) +
                                                static_cast<double>(g) * 0.4) +
                           0.3 * smooth_noise(3, g, ctx.wave, 6);
      ctx.client.put("gauges", gauge_row(g), "level", level);
    }
  });
  registry.register_step("aggregate_basins", [](wms::StepContext& ctx) {
    for (std::uint64_t basin = 0; basin < 4; ++basin) {
      double sum = 0.0;
      for (std::uint64_t g = basin * 6; g < (basin + 1) * 6; ++g) {
        sum += ctx.client.get("gauges", gauge_row(g), "level").value_or(0.0);
      }
      ctx.client.put("basins", basin_row(basin), "level", sum / 6.0);
    }
  });
  registry.register_step("bulletin", [](wms::StepContext& ctx) {
    double worst = 0.0;
    for (const ds::FlatEntry& e : ctx.client.snapshot(ds::ContainerRef::whole_table("basins"))) {
      worst = std::max(worst, e.value);
    }
    ctx.client.put("bulletin", "latest", "worst_level", worst);
    ctx.client.put("bulletin", "latest", "alert", worst > 2.6 ? 1.0 : 0.0);
  });

  // 2. Load the workflow definition.
  const wms::WorkflowSpec spec = wms::load_workflow_xml(kDefinition, registry);
  std::printf("loaded workflow '%s' with %zu actions (%zu error-tolerant)\n",
              spec.name().c_str(), spec.size(), spec.error_tolerant_steps().size());
  for (const auto& step : spec.steps()) {
    std::printf("  %-10s bound=%s\n", step.id.c_str(),
                step.max_error ? std::to_string(*step.max_error).substr(0, 4).c_str()
                               : "none (sync)");
  }

  // 3. Same lifecycle as any hand-built workflow.
  ds::DataStore store;
  wms::WorkflowEngine engine(spec, store);
  core::SmartFluxEngine smartflux(engine, {});
  smartflux.train(1, 96);
  smartflux.build_model();
  smartflux.run(97, 96);

  std::printf("\nafter %zu waves: %zu total step executions (sync would be %zu)\n",
              engine.waves_run(), engine.total_executions(), engine.waves_run() * spec.size());
  std::printf("latest bulletin: worst basin level %.2f m (alert=%s)\n",
              store.get("bulletin", "latest", "worst_level").value_or(0.0),
              store.get("bulletin", "latest", "alert").value_or(0.0) > 0.5 ? "yes" : "no");
  return 0;
}
