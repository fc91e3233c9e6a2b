// Linear Road variable tolling (paper §5.1, Fig. 5): the expressway
// statistics pipeline (positions → speed / car counts / accidents →
// congestion → classification) runs under QoD bounds, while the
// query-serving path (2b_queries → 5b_travel) stays synchronous because it
// answers real-time requests.

#include <cstdio>
#include <cstring>

#include "core/smartflux.h"
#include "obs/export.h"
#include "workloads/lrb/lrb.h"

int main(int argc, char** argv) {
  using namespace smartflux;

  // --metrics <file> dumps a Prometheus exposition page of the run ("-" =
  // stdout). This example also instruments the datastore, so the page
  // includes sf_ds_* op counts and sampled latencies.
  const char* metrics_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) metrics_path = argv[i + 1];
  }
  obs::MetricsRegistry registry;

  workloads::LrbParams params;
  params.num_xways = 4;
  params.segments = 50;
  params.vehicles = 600;
  params.total_waves = 900;
  params.max_error = 0.10;
  const workloads::LrbWorkload workload(params);
  const auto spec = workload.make_workflow();

  ds::DataStore store;
  wms::WorkflowEngine::Options engine_options;
  core::SmartFluxOptions smartflux_options;
  if (metrics_path != nullptr) {
    engine_options.metrics = &registry;
    smartflux_options.metrics = &registry;
    store.set_instrumentation(&registry);
  }
  wms::WorkflowEngine engine(spec, store, engine_options);
  core::SmartFluxEngine smartflux(engine, smartflux_options);

  // Training mode: the paper runs the workflow synchronously while the
  // Monitoring component fills the Knowledge Base.
  std::printf("training on 300 synchronous waves...\n");
  smartflux.train(1, 300);
  smartflux.build_model();
  const auto report = smartflux.test();
  std::printf("model: accuracy=%.3f precision=%.3f recall=%.3f (10-fold CV)\n\n",
              report.mean_accuracy, report.mean_precision, report.mean_recall);

  // Execution mode: 500 adaptive waves.
  const auto results = smartflux.run(301, 500);

  std::printf("%-16s %12s %10s\n", "step", "executions", "of waves");
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto count = engine.execution_count(i);  // total incl. training
    std::printf("%-16s %12zu %9.0f%%\n", spec.step_at(i).id.c_str(), count,
                100.0 * static_cast<double>(count) / static_cast<double>(engine.waves_run()));
  }
  (void)results;

  // The synchronous query path keeps answering every wave: print the travel
  // estimates produced in the final wave.
  std::printf("\ntravel-time answers from the last wave (always fresh):\n");
  for (const ds::FlatEntry& e :
       store.snapshot_flat(ds::ContainerRef::column("travel", "time_min"))) {
    const double cost = store.get("travel", *e.row, "cost").value_or(0.0);
    std::printf("  query %-4s -> %6.1f min, toll cost %5.2f\n", e.row->c_str(), e.value, cost);
  }

  std::printf("\ntolerant-step executions skipped in application phase: %zu\n",
              smartflux.controller().skipped_count());
  if (metrics_path != nullptr) {
    obs::write_text_file(metrics_path, obs::to_prometheus(registry.snapshot()));
  }
  return 0;
}
