// Air Quality Health Index monitoring (paper §5.1, Fig. 6): a detector grid
// feeds hourly waves through concentration → zones → hotspots → index. This
// example runs the full evaluation protocol with a synchronous shadow to
// report the same quantities the paper's figures use — savings, confidence,
// and the index trajectory — and then demonstrates on-demand re-training.
//
// With --serve <port> it instead exposes the live stack over HTTP
// (DESIGN.md §14): POST sensor readings to /ingest/sensors, trigger waves
// with POST /wave/run, read results via /get and /scan, scrape /metrics.
// Ctrl-C stops it.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/experiment.h"
#include "datastore/client.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/server.h"
#include "obs/export.h"
#include "wms/backpressure.h"
#include "wms/xml_loader.h"
#include "workloads/aqhi/aqhi.h"

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true, std::memory_order_release); }

/// --serve mode: the compute-only AQHI workflow behind the HTTP gateway.
/// Sensor rows arrive over POST /ingest/sensors; POST /wave/run admits wave
/// requests into a bounded queue that a driver thread drains wave by wave,
/// so overload turns into 503s at the front door.
/// --loops shards the front-end across that many SO_REUSEPORT event loops.
int serve(std::uint16_t port, std::size_t loops) {
  using namespace smartflux;

  ds::DataStore store(4);
  obs::MetricsRegistry registry;

  workloads::AqhiParams params;
  const workloads::AqhiWorkload workload(params);
  wms::WorkflowEngine::Options engine_options;
  engine_options.metrics = &registry;
  wms::WorkflowSpec compute_spec = workload.make_compute_workflow();
  // The same step implementations back POST /workflow validation: an
  // uploaded XML definition may reference any step of the compute workflow.
  wms::StepRegistry workflow_steps;
  for (const auto& step : compute_spec.steps()) {
    workflow_steps.register_step(step.id, step.fn);
  }
  wms::WorkflowEngine engine(std::move(compute_spec), store, engine_options);

  wms::PressureOptions pressure;
  pressure.high_watermark = 64;
  pressure.overflow = wms::OverflowPolicy::kShed;
  wms::BoundedWaveQueue queue(pressure);

  net::IngestBridge::Options bridge_options;
  bridge_options.queue = &queue;
  bridge_options.metrics = &registry;
  net::IngestBridge bridge(bridge_options);

  std::atomic<ds::Timestamp> next_wave{1};
  std::atomic<std::size_t> waves_completed{0};

  net::GatewayOptions gateway;
  gateway.store = &store;
  gateway.ingest = &bridge;
  gateway.metrics = &registry;
  gateway.run_waves = [&](std::size_t count) {
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (!queue.push(next_wave.fetch_add(1, std::memory_order_relaxed))) break;
      ++admitted;
    }
    return "{\"admitted\":" + std::to_string(admitted) +
           ",\"requested\":" + std::to_string(count) + "}";
  };
  gateway.status_extra = [&] {
    return "\"waves_completed\":" + std::to_string(waves_completed.load()) +
           ",\"queue_depth\":" + std::to_string(queue.depth());
  };
  gateway.workflow_steps = &workflow_steps;

  net::ServerOptions server_options;
  server_options.port = port;
  server_options.loop_threads = loops;
  server_options.metrics = &registry;
  // Hostile-client bounds: a request trickled for >10s is answered 408 and
  // closed, so a slow-loris peer cannot pin a connection slot.
  server_options.request_read_timeout_ms = 10'000;
  net::Server server(net::make_gateway_router(gateway), server_options);
  server.start();

  // One wave: the bridge's WaveIngest (replacing the 1_feed step) writes
  // everything staged so far at the wave's timestamp, then the steps run.
  const wms::WaveIngest ingest = bridge.make_ingest();
  const auto run_one_wave = [&](ds::Timestamp wave) {
    ds::Client client(store, wave);
    ingest(client, wave);
    wms::SyncController sync;
    engine.run_wave(wave, sync);
    waves_completed.fetch_add(1, std::memory_order_relaxed);
  };
  // Driver: drains admitted waves.
  std::thread driver([&] {
    while (const auto wave = queue.pop()) run_one_wave(*wave);
  });

  std::printf("serving AQHI stack on http://127.0.0.1:%u (%s backend, %zu loop%s%s); "
              "Ctrl-C stops\n",
              server.port(), server.backend_name(), server.loop_count(),
              server.loop_count() == 1 ? "" : "s",
              server.reuse_port_active() ? ", SO_REUSEPORT" : "");
  std::printf("  curl -d 'd0_0,o3,42.5' http://127.0.0.1:%u/ingest/sensors\n", server.port());
  std::printf("  curl -X POST http://127.0.0.1:%u/wave/run\n", server.port());
  std::printf("  curl 'http://127.0.0.1:%u/get?table=sensors&row=d0_0&col=o3'\n", server.port());
  std::printf("  curl 'http://127.0.0.1:%u/scan?table=concentration&stream=1&format=ndjson'\n",
              server.port());
  std::printf("  curl --data-binary @workflow.xml http://127.0.0.1:%u/workflow\n",
              server.port());
  std::printf("  curl http://127.0.0.1:%u/status\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Graceful drain (SIGTERM/SIGINT): stop accepting, answer in-flight
  // requests with Connection: close, then — with no loop thread left to
  // stage more — flush everything still staged into one final wave, so an
  // acked row never dies with the process.
  const bool drained = server.drain(5'000, [&] {
    queue.close();  // wakes the driver; remaining admitted waves drain first
    driver.join();
    if (bridge.staged_rows() > 0) {
      run_one_wave(next_wave.fetch_add(1, std::memory_order_relaxed));
    }
  });
  std::printf("stopped after %zu waves (%s)\n", waves_completed.load(),
              drained ? "drained cleanly" : "drain deadline hit; stragglers aborted");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smartflux;

  // --metrics <file> dumps a Prometheus exposition page of the run ("-" =
  // stdout). --serve <port> switches to live HTTP serving instead;
  // --loops <n> shards the server across n event loops (default 1).
  const char* metrics_path = nullptr;
  int serve_port = -1;
  int serve_loops = 1;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) metrics_path = argv[i + 1];
    if (std::strcmp(argv[i], "--serve") == 0) serve_port = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--loops") == 0) serve_loops = std::atoi(argv[i + 1]);
  }
  if (serve_port >= 0) {
    return serve(static_cast<std::uint16_t>(serve_port),
                 serve_loops > 0 ? static_cast<std::size_t>(serve_loops) : 1);
  }
  obs::MetricsRegistry registry;

  workloads::AqhiParams params;
  params.max_error = 0.05;  // the paper's strictest bound
  const workloads::AqhiWorkload workload(params);

  core::ExperimentOptions options;
  options.training_waves = 168;  // one week of hourly waves
  options.eval_waves = 336;      // two adaptive weeks
  if (metrics_path != nullptr) {
    options.engine.metrics = &registry;
    options.smartflux.metrics = &registry;
  }

  core::Experiment experiment(workload.make_workflow(), options);
  const auto result = experiment.run_smartflux();

  std::printf("AQHI monitoring, 5%% error bound\n");
  std::printf("--------------------------------\n");
  std::printf("adaptive executions: %zu of %zu synchronous (%.1f%% saved)\n",
              result.total_adaptive_executions, result.total_sync_executions,
              100.0 * result.savings_ratio());
  for (const auto& step : result.tracked_steps) {
    std::printf("  %-16s confidence %5.1f%%  (%zu violations)\n", step.c_str(),
                100.0 * result.confidence(step), result.violation_count(step));
  }

  // Daily digest of the health-risk index as decision makers would see it.
  std::printf("\nday  mean measured index error   decisions (executed steps/wave)\n");
  for (std::size_t day = 0; day < result.waves.size() / 24; ++day) {
    double err = 0.0;
    std::size_t executed = 0;
    for (std::size_t h = 0; h < 24; ++h) {
      const auto& w = result.waves[day * 24 + h];
      err += w.measured_error.at("5_index");
      executed += w.adaptive_executions;
    }
    std::printf("%3zu  %25.4f   %.1f\n", day + 1, err / 24.0,
                static_cast<double>(executed) / 24.0);
  }

  // On-demand re-training (§3.1): if data patterns drift, collect more
  // synchronous waves and rebuild the model without restarting the workflow.
  ds::DataStore store;
  wms::WorkflowEngine engine(workload.make_workflow(), store);
  core::SmartFluxEngine smartflux(engine, {});
  smartflux.train(1, 168);
  smartflux.build_model();
  smartflux.run(169, 100);
  smartflux.train(269, 72);  // fresh synchronous observations
  smartflux.build_model();   // rebuilt from the enlarged knowledge base
  std::printf("\nre-training: knowledge base grew to %zu examples; model rebuilt.\n",
              smartflux.knowledge_base().size());
  if (metrics_path != nullptr) {
    obs::write_text_file(metrics_path, obs::to_prometheus(registry.snapshot()));
  }
  return 0;
}
