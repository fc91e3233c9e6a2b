// serve_aqhi: the serving path, open loop. Hourly 14×14 AQHI grids (588
// sensor rows each) are posted as 8 POST /ingest/sensors requests per grid,
// evenly spaced, over 2 keep-alive connections. The store has 4 shards, a
// WAL with kEveryWave in a directory under the output dir, and a
// MetricsRegistry attached, as `aqhi_monitor --serve` runs it. SmartFlux
// trains on 168 waves fed through the same bridge ingest during set-up.
// Then one driver thread runs waves back to back whenever rows are staged:
// the bridge's WaveIngest into a Client bound to the wave, then
// SmartFluxEngine::run_wave.
//
// This workload runs by name but is not in BENCHMARK.json: its
// sub-millisecond latencies moved by 20-70% between identical runs on the
// shared 4-vCPU host it was built on (see README.md).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "core/smartflux.h"
#include "datastore/client.h"
#include "layers.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/server.h"
#include "net/testing.h"
#include "obs/metrics.h"
#include "workloads/aqhi/aqhi.h"

namespace sfbench {
namespace {

using namespace smartflux;

constexpr std::size_t kShards = 4;
constexpr std::size_t kTrainWaves = 168;
constexpr std::size_t kRequestsPerGrid = 8;
constexpr std::size_t kConnections = 2;
/// Offered load: hourly grids posted per second (8 requests each). 40
/// grids/s keeps a 30 s run under 10,000 requests (tail at p99) and the
/// driver busy about a quarter to a third of the time.
constexpr double kGridsPerSecond = 40.0;
constexpr double kLayerSumTolerance = 0.03;
/// Generator lateness (idle connection, p-tail) above which the run is not
/// a valid open-loop measurement.
constexpr double kMaxGeneratorLagMs = 25.0;

/// The 588 `row,col,value` lines of one hourly grid, cut into the request
/// bodies that carry it.
std::vector<std::string> grid_bodies(const workloads::AqhiWorkload& gen, ds::Timestamp hour) {
  static constexpr const char* kCols[3] = {"o3", "pm25", "no2"};
  std::vector<std::string> lines;
  const std::size_t g = gen.params().grid;
  for (std::size_t x = 0; x < g; ++x) {
    for (std::size_t y = 0; y < g; ++y) {
      for (std::size_t p = 0; p < 3; ++p) {
        std::string line = "d";
        line.append(std::to_string(x)).append("_").append(std::to_string(y));
        line.append(",").append(kCols[p]).append(",");
        line.append(format_double(gen.sensor(p, x, y, hour))).append("\n");
        lines.push_back(std::move(line));
      }
    }
  }
  std::vector<std::string> bodies(kRequestsPerGrid);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    bodies[i * kRequestsPerGrid / lines.size()] += lines[i];
  }
  return bodies;
}

std::size_t count_lines(const std::string& body) {
  return static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n'));
}

/// Removes its directory when the stack is torn down (after the store that
/// writes into it: declared first, destroyed last).
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

/// The served system: store + WAL, engine, SmartFlux, bridge, HTTP server.
struct Stack {
  DirGuard dir;
  obs::MetricsRegistry registry;
  std::unique_ptr<ds::DataStore> store;
  std::unique_ptr<wms::WorkflowEngine> engine;
  std::unique_ptr<core::SmartFluxEngine> sf;
  std::unique_ptr<net::IngestBridge> bridge;
  wms::WaveIngest ingest;
  std::unique_ptr<net::Server> server;
  ds::Timestamp next_wave = 1;
  double train_s = 0.0;

  ~Stack() {
    if (server) server->stop();
  }
};

std::unique_ptr<Stack> build_stack(const RunOptions& options, int attempt,
                                   const workloads::AqhiWorkload& gen,
                                   const std::vector<std::vector<std::string>>& training,
                                   StepTimes& times, Layers& layers) {
  auto s = std::make_unique<Stack>();
  s->dir.path = options.out_dir + "/serve_aqhi-wal-" + std::to_string(::getpid()) + "-" +
                std::to_string(attempt);
  std::filesystem::remove_all(s->dir.path);
  ds::ShardOptions shards;
  shards.shards = kShards;
  s->store = std::make_unique<ds::DataStore>(2, shards);
  ds::DurabilityOptions durability;
  durability.flush = ds::WalFlushPolicy::kEveryWave;
  durability.metrics = &s->registry;
  s->store->enable_durability(s->dir.path, durability);

  wms::WorkflowEngine::Options engine_options;
  engine_options.metrics = &s->registry;
  s->engine = std::make_unique<wms::WorkflowEngine>(
      wrap_steps(gen.make_compute_workflow(), times, layers), *s->store, engine_options);
  core::SmartFluxOptions sf_options;
  sf_options.metrics = &s->registry;
  s->sf = std::make_unique<core::SmartFluxEngine>(*s->engine, sf_options);

  net::IngestBridge::Options bridge_options;
  bridge_options.metrics = &s->registry;
  s->bridge = std::make_unique<net::IngestBridge>(bridge_options);
  s->ingest = s->bridge->make_ingest();

  // Training waves go through the same staging and drain as served rows.
  const auto train_start = Clock::now();
  for (const auto& bodies : training) {
    for (const auto& body : bodies) {
      std::string error;
      auto spans = net::parse_ingest_spans(body, &error);
      if (!spans) throw std::runtime_error("training body: " + error);
      s->bridge->stage_spans("sensors", body, std::move(*spans));
    }
    const ds::Timestamp w = s->next_wave++;
    ds::Client client(*s->store, w);
    s->ingest(client, w);
    s->sf->train(w, 1);
  }
  s->sf->build_model();
  s->train_s = s_between(train_start, Clock::now());

  net::GatewayOptions gateway;
  gateway.store = s->store.get();
  gateway.ingest = s->bridge.get();
  gateway.metrics = &s->registry;
  gateway.smartflux = s->sf.get();
  net::ServerOptions server_options;
  server_options.loop_threads = 1;
  server_options.metrics = &s->registry;
  s->server = std::make_unique<net::Server>(net::make_gateway_router(gateway), server_options);
  s->server->start();
  return s;
}

/// One driver wave: drain the bridge, then run_wave.
struct WaveRec {
  Clock::time_point start, end;
  /// The bridge's cumulative drained-row count after this wave's drain.
  std::uint64_t ingested_after = 0;
};

}  // namespace

RunResult run_serve_aqhi(const RunOptions& options) {
  RunResult out;
  std::filesystem::create_directories(options.out_dir);
  workloads::AqhiParams params;
  params.seed = options.seed;
  const workloads::AqhiWorkload gen(params);

  // Inputs, all generated from the seed before anything is timed.
  std::vector<std::vector<std::string>> training;
  for (ds::Timestamp h = 1; h <= kTrainWaves; ++h) training.push_back(grid_bodies(gen, h));
  const auto grids = static_cast<std::size_t>(kGridsPerSecond * options.seconds);
  std::vector<std::string> bodies;
  for (std::size_t g = 0; g < grids; ++g) {
    for (auto& body : grid_bodies(gen, kTrainWaves + 1 + g)) bodies.push_back(std::move(body));
  }

  StepTimes times;
  Layers layers(nullptr);
  std::unique_ptr<Stack> stack;
  int attempt = 0;
  const double setup_s = median_setup_s(
      kSetupRepeats,
      [&] { return build_stack(options, attempt++, gen, training, times, layers); },
      [&](std::unique_ptr<Stack> s) { stack = std::move(s); });
  Stack& s = *stack;
  times.reset();
  const std::uint16_t port = s.server->port();
  const net::IngestBridge::Stats bridge_before = s.bridge->stats();

  // Open-loop schedule: all 8 requests of grid g are due at t0 + g/rate;
  // request i goes out on connection i % 2.
  std::vector<std::unique_ptr<net::testing::Client>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<net::testing::Client>(port, "127.0.0.1", 5'000));
  }
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point mid = t0 + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(options.seconds / 2));
  auto due_of = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                    static_cast<double>(i) / (kGridsPerSecond * kRequestsPerGrid)));
  };

  obs::Tracer tracer(1 << 18);
  std::atomic<bool> generating{true};
  std::vector<std::vector<RequestRecord>> records(kConnections);
  /// Per request: the bridge's cumulative staged-row count read when its
  /// 202 arrived. Its rows are among the first that many rows staged.
  std::vector<std::vector<std::uint64_t>> staged_at_ack(kConnections);
  std::vector<WaveRec> waves;
  std::vector<wms::WaveResult> results;
  std::vector<bool> wave_traced;

  std::thread driver([&] {
    obs::Span phase;
    // Waves run whenever rows are staged; once the generators are done, one
    // final wave drains whatever is left.
    bool final_wave = false;
    while (!final_wave) {
      final_wave = !generating.load(std::memory_order_acquire);
      if (!final_wave && s.bridge->staged_rows() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (options.trace && !layers.traced() && Clock::now() >= mid) {
        layers.set_tracer(&tracer);
        phase = layers.span("serve", layer::kBench);
      }
      WaveRec rec;
      const ds::Timestamp w = s.next_wave++;
      obs::Span driver_span = layers.span("driver_wave", layer::kBench, phase.id());
      rec.start = Clock::now();
      {
        obs::Span drain = layers.span("drain", layer::kNet, driver_span.id());
        ds::Client client(*s.store, w);
        s.ingest(client, w);
      }
      rec.ingested_after = s.bridge->stats().rows_ingested;
      obs::Span wave_span = layers.span("wave", layer::kCore, driver_span.id());
      layers.set_parent(wave_span.id());
      results.push_back(s.sf->run_wave(w));
      rec.end = Clock::now();
      wave_traced.push_back(layers.traced());
      waves.push_back(rec);
    }
  });

  std::vector<std::thread> generators;
  for (std::size_t c = 0; c < kConnections; ++c) {
    generators.emplace_back([&, c] {
      std::vector<std::size_t> mine;
      std::vector<Clock::time_point> dues;
      for (std::size_t i = c; i < bodies.size(); i += kConnections) {
        mine.push_back(i);
        dues.push_back(due_of(i));
      }
      staged_at_ack[c].assign(mine.size(), 0);
      records[c] = run_open_loop(dues, [&](std::size_t j) {
        try {
          const auto response = clients[c]->request("POST", "/ingest/sensors", bodies[mine[j]]);
          if (status_ok(response.status)) staged_at_ack[c][j] = s.bridge->stats().rows_staged;
          return response.status;
        } catch (const std::exception&) {
          try {
            clients[c] = std::make_unique<net::testing::Client>(port, "127.0.0.1", 5'000);
          } catch (const std::exception&) {
          }
          return 0;
        }
      });
    });
  }
  for (auto& t : generators) t.join();
  generating.store(false, std::memory_order_release);
  driver.join();
  layers.set_tracer(nullptr);
  const Clock::time_point run_end = Clock::now();

  // Accounting. The bridge drains everything staged at each wave, in staging
  // order, so once its cumulative drained-row count reaches the staged-row
  // count read at a request's 202, that wave provably holds the request's
  // rows: its end is when the request's data became visible to the AQHI
  // index. A grid is acked when its last request is, and fresh when the
  // wave holding its last rows ends (both counted from the grid's due
  // time). Backlog: acked requests whose drain wave had not yet started,
  // sampled at each wave start.
  std::vector<double> ack_ms, fresh_ms, fresh_plain_ms, fresh_traced_ms;
  std::vector<Clock::time_point> acked_at;
  std::vector<std::size_t> drained_in(waves.size() + 1, 0);
  std::uint64_t rows_acked = 0;
  Clock::time_point last_done = t0;
  for (std::size_t i = 0; i < bodies.size(); ++i) {  // in due order
    const std::size_t c = i % kConnections, j = i / kConnections;
    const RequestRecord& r = records[c][j];
    const bool ok = status_ok(r.status);
    out.ops.record(ok);
    last_done = std::max(last_done, r.done);
    if (!ok) continue;
    rows_acked += count_lines(bodies[i]);
    const auto it = std::lower_bound(
        waves.begin(), waves.end(), staged_at_ack[c][j],
        [](const WaveRec& w, std::uint64_t staged) { return w.ingested_after < staged; });
    if (it == waves.end()) {
      out.fail("an acked request was never drained by a wave");
      continue;
    }
    const auto wave_index = static_cast<std::size_t>(it - waves.begin());
    const double fresh = ms_between(r.due, it->end);
    ack_ms.push_back(r.latency_ms());
    fresh_ms.push_back(fresh);
    (wave_traced[wave_index] ? fresh_traced_ms : fresh_plain_ms).push_back(fresh);
    acked_at.push_back(r.done);
    ++drained_in[wave_index + 1];
  }
  std::sort(acked_at.begin(), acked_at.end());
  std::size_t backlog_max = 0, drained_before = 0;
  for (std::size_t i = 0; i < waves.size(); ++i) {
    drained_before += drained_in[i];
    const auto acked_by_start = static_cast<std::size_t>(
        std::upper_bound(acked_at.begin(), acked_at.end(), waves[i].start) - acked_at.begin());
    if (acked_by_start > drained_before) {
      backlog_max = std::max(backlog_max, acked_by_start - drained_before);
    }
  }

  // Checks: every acked row drained, nothing left staged, spot read matches.
  const net::IngestBridge::Stats bridge_after = s.bridge->stats();
  const std::uint64_t rows_ingested = bridge_after.rows_ingested - bridge_before.rows_ingested;
  if (rows_ingested != rows_acked) {
    out.fail("rows ingested " + std::to_string(rows_ingested) + " != rows acked " +
             std::to_string(rows_acked));
  }
  if (s.bridge->staged_rows() != 0) out.fail("rows still staged after the final drain");
  {
    std::mt19937_64 rng(options.seed);
    const std::size_t x = rng() % params.grid, y = rng() % params.grid, p = rng() % 3;
    static constexpr const char* kCols[3] = {"o3", "pm25", "no2"};
    const std::string expected =
        "{\"value\":" + format_double(gen.sensor(p, x, y, kTrainWaves + grids)) + "}\n";
    net::testing::Client probe(port, "127.0.0.1", 5'000);
    const auto got = probe.request("GET", "/get?table=sensors&row=d" + std::to_string(x) + "_" +
                                              std::to_string(y) + "&col=" + kCols[p]);
    if (got.status != 200 || got.body != expected) {
      out.fail("spot /get returned '" + got.body + "', expected '" + expected + "'");
    }
  }
  std::vector<RequestRecord> all_records;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    all_records.push_back(records[i % kConnections][i / kConnections]);
  }
  const Summary lag = generator_lag(all_records);
  if (lag.tail.value > kMaxGeneratorLagMs) {
    out.fail("generator ran " + format_double(lag.tail.value) + " ms late (tail)");
  }
  for (const auto& r : results) {
    if (r.failed_count() > 0) out.fail("a served wave had failed steps");
  }

  const Summary ack = summarize(ack_ms);
  const Summary fresh = summarize(fresh_ms);
  const double gen_s = s_between(t0, last_done);
  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["ops_per_s"] = {static_cast<double>(out.ops.attempted - out.ops.failed) / gen_s, "1/s"};
  out.e2e["op_p50_ms"] = {ack.p50, "ms"};
  out.e2e["op_tail_ms"] = {ack.tail.value, "ms"};
  out.e2e["result_p50_ms"] = {fresh.p50, "ms"};
  out.e2e["result_tail_ms"] = {fresh.tail.value, "ms"};
  out.e2e["ok_share"] = {out.ops.ok_share(), "ratio"};

  double busy_s = 0.0;
  for (const WaveRec& w : waves) busy_s += s_between(w.start, w.end);
  const double busy_share = busy_s / s_between(t0, run_end);
  out.meta["offered_req_per_s"] = format_double(kGridsPerSecond * kRequestsPerGrid);
  out.meta["requests"] = std::to_string(bodies.size());
  out.meta["grids"] = std::to_string(grids);
  out.meta["run_s"] = format_double(s_between(t0, run_end));
  out.meta["waves"] = std::to_string(waves.size());
  out.meta["driver_busy_share"] = format_double(busy_share);
  out.meta["op_tail_pct"] = format_double(ack.tail.percentile);
  out.meta["op_tail_samples"] = std::to_string(ack.tail.count);
  out.meta["result_tail_pct"] = format_double(fresh.tail.percentile);
  out.meta["result_tail_samples"] = std::to_string(fresh.tail.count);
  out.meta["gen_lag_tail_ms"] = format_double(lag.tail.value);

  if (!options.trace) return out;

  auto& L = out.layers;
  const auto spans = tracer.snapshot();
  const auto self = self_seconds(spans);
  if (tracer.dropped() > 0) out.fail("tracer dropped " + std::to_string(tracer.dropped()));
  double traced_busy = 0.0;
  std::size_t executed = 0, skipped = 0, tolerant_exec = 0, tolerant_skip = 0;
  const auto tolerant = s.engine->spec().error_tolerant_steps();
  for (std::size_t i = 0; i < waves.size(); ++i) {
    if (wave_traced[i]) traced_busy += s_between(waves[i].start, waves[i].end);
    for (auto status : results[i].status) {
      executed += status == wms::StepStatus::kExecuted;
      skipped += status == wms::StepStatus::kSkipped;
    }
    for (std::size_t idx : tolerant) {
      tolerant_exec += results[i].status[idx] == wms::StepStatus::kExecuted;
      tolerant_skip += results[i].status[idx] == wms::StepStatus::kSkipped;
    }
  }
  const double layer_sum = sum_self(spans, self, layer::kNet) +
                           sum_self(spans, self, layer::kCore) +
                           sum_self(spans, self, layer::kWorkloads);
  const double gap = traced_busy > 0.0 ? std::abs(layer_sum - traced_busy) / traced_busy : 1.0;
  if (gap > kLayerSumTolerance) {
    out.fail("layer self times sum to " + format_double(layer_sum) + " s, driver busy " +
             format_double(traced_busy) + " s");
  }
  const net::ServerStats server = s.server->stats();
  L["core.train_s"] = {s.train_s, "s"};
  L["core.wave_self_ms"] = {1e3 * median(each_self(spans, self, layer::kCore, "wave")), "ms"};
  L["net.bridge_drain_ms"] = {1e3 * median(each_self(spans, self, layer::kNet, "drain")), "ms"};
  L["net.rows_per_wave"] = {
      static_cast<double>(rows_ingested) /
          static_cast<double>(bridge_after.waves_ingested - bridge_before.waves_ingested),
      "count"};
  L["net.refusals"] = {static_cast<double>(bridge_after.refusals), "count"};
  L["net.parse_errors"] = {static_cast<double>(server.parse_errors), "count"};
  L["net.slow_disconnects"] = {static_cast<double>(server.slow_disconnects), "count"};
  L["driver.busy_share"] = {busy_share, "ratio"};
  L["driver.backlog_max"] = {static_cast<double>(backlog_max), "count"};
  L["gen.lag_tail_ms"] = {lag.tail.value, "ms"};
  L["wms.steps_executed"] = {static_cast<double>(executed), "count"};
  L["wms.steps_skipped"] = {static_cast<double>(skipped), "count"};
  L["smartflux.savings_pct"] = {
      100.0 * static_cast<double>(tolerant_skip) /
          static_cast<double>(std::max<std::size_t>(1, tolerant_exec + tolerant_skip)),
      "%"};
  L["obs.trace_overhead_pct"] = {100.0 * (median(fresh_traced_ms) / median(fresh_plain_ms) - 1.0),
                                 "%"};
  L["obs.layer_sum_gap_pct"] = {100.0 * gap, "%"};
  L["obs.spans"] = {static_cast<double>(spans.size()), "count"};
  StepTotals steps;
  steps.add(times);
  steps.report(L, 1.0);
  write_trace(tracer, options.out_dir + "/trace-serve_aqhi-" + std::to_string(options.seed) +
                          ".json");
  return out;
}

}  // namespace sfbench
