// read_mix: the read path over the same ds + net layers serve_aqhi writes
// through. Before timing, a 4-shard in-memory store is preloaded with one
// table (262,144 reader cells plus the writer's rows). Three closed-loop
// reader connections mix GET /get on random keys with streamed GET /scan
// over a row prefix in two sizes (200 and 20,000 cells). One open-loop
// writer connection posts updates of its own rows in the same table (so the
// readers' expected values never change) at a low fixed rate, and each
// accepted post is committed by a wave under SyncController, so scans
// contend with writes on the same shards.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "bench.h"
#include "common/hashing.h"
#include "datastore/client.h"
#include "layers.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/server.h"
#include "net/testing.h"
#include "wms/engine.h"

namespace sfbench {
namespace {

using namespace smartflux;

constexpr std::size_t kShards = 4;
constexpr std::size_t kRows = 131'072;  ///< rows r000000 .. r131071
constexpr std::size_t kCols = 2;        ///< c0, c1: 262,144 cells in all
constexpr std::size_t kPreloadBatch = 4096;
constexpr std::size_t kReaders = 3;
/// Per cycle of 7 reader operations: 4 gets, 2 small scans, 1 large scan.
/// Scans dominate server time, so the mix keeps both the get and the scan
/// counts of a 30 s run inside one band of the tail rule (1,000..10,000
/// samples, p99) across the speeds this workload runs at.
constexpr std::size_t kCycle = 7, kSmallScans = 2, kLargeScans = 1;
/// Every kCheckEvery-th scan of a reader is compared with a direct snapshot.
constexpr std::size_t kCheckEvery = 16;
constexpr double kWriterPostsPerSecond = 20.0;
constexpr std::size_t kWriterRowsPerPost = 200;
/// The writer updates rows w00000 .. w19999, preloaded with the table. Only
/// updates, never new keys: inserting a key invalidates the shard's scan
/// order, and rebuilding it on the next scan made scan cost depend on how
/// writes and scans happened to interleave.
constexpr std::size_t kWriterRows = 20'000;
constexpr double kLayerSumTolerance = 0.03;
constexpr double kMaxGeneratorLagMs = 25.0;
constexpr const char* kTable = "readmix";

std::string row_key(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "r%06zu", i);
  return buf;
}

std::string writer_row_key(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "w%05zu", i);
  return buf;
}

std::string col_key(std::size_t c) { return "c" + std::to_string(c); }

double preload_value(std::uint64_t seed, std::size_t row, std::size_t col) {
  return 1000.0 * hash_unit(seed, row, col);
}

/// The served system: preloaded store, writer workflow, bridge, server.
struct Stack {
  std::unique_ptr<ds::DataStore> store;
  std::unique_ptr<wms::WorkflowEngine> engine;
  std::unique_ptr<net::IngestBridge> bridge;
  wms::WaveIngest ingest;
  std::unique_ptr<net::Server> server;
  ds::Timestamp next_wave = 2;  ///< wave 1 is the preload

  ~Stack() {
    if (server) server->stop();
  }
};

/// The writer's workflow: one step recording the wave it committed.
wms::WorkflowSpec tally_workflow() {
  wms::StepSpec step;
  step.id = "1_tally";
  step.outputs = {ds::ContainerRef::whole_table("rm_tally")};
  step.fn = [](wms::StepContext& ctx) {
    ctx.client.put("rm_tally", "waves", "last", static_cast<double>(ctx.wave));
  };
  return wms::WorkflowSpec("read_mix_writer", {std::move(step)});
}

std::unique_ptr<Stack> build_stack(std::uint64_t seed, StepTimes& times, Layers& layers) {
  auto s = std::make_unique<Stack>();
  ds::ShardOptions shards;
  shards.shards = kShards;
  s->store = std::make_unique<ds::DataStore>(2, shards);
  {
    ds::Client client(*s->store, 1);
    std::vector<std::string> rows;
    std::vector<ds::PutOp> ops;
    for (std::size_t base = 0; base < kRows; base += kPreloadBatch) {
      const std::size_t end = std::min(kRows, base + kPreloadBatch);
      rows.clear();
      for (std::size_t i = base; i < end; ++i) rows.push_back(row_key(i));
      ops.clear();
      for (std::size_t i = base; i < end; ++i) {
        for (std::size_t c = 0; c < kCols; ++c) {
          static const std::string cols[kCols] = {"c0", "c1"};
          ops.push_back({rows[i - base], cols[c], preload_value(seed, i, c)});
        }
      }
      client.put_batch(kTable, ops);
    }
    rows.clear();
    ops.clear();
    for (std::size_t i = 0; i < kWriterRows; ++i) rows.push_back(writer_row_key(i));
    for (std::size_t i = 0; i < kWriterRows; ++i) {
      for (std::size_t c = 0; c < kCols; ++c) ops.push_back({rows[i], c == 0 ? "c0" : "c1", 0.0});
    }
    client.put_batch(kTable, ops);
  }
  s->engine = std::make_unique<wms::WorkflowEngine>(wrap_steps(tally_workflow(), times, layers),
                                                    *s->store);
  s->bridge = std::make_unique<net::IngestBridge>();
  s->ingest = s->bridge->make_ingest();
  net::GatewayOptions gateway;
  gateway.store = s->store.get();
  gateway.ingest = s->bridge.get();
  net::ServerOptions server_options;
  server_options.loop_threads = 1;
  s->server = std::make_unique<net::Server>(net::make_gateway_router(gateway), server_options);
  s->server->start();
  return s;
}

/// CSV rendering of a direct snapshot, as GET /scan writes it.
std::string render_csv(const ds::FlatSnapshot& snapshot) {
  std::string out;
  for (const ds::FlatEntry& e : snapshot) {
    out += *e.row;
    out += ',';
    out += *e.col;
    out += ',';
    out += format_double(e.value);
    out += '\n';
  }
  return out;
}

enum class Op { kGet, kSmallScan, kLargeScan };

/// One reader's deterministic operation stream.
struct ReaderPlan {
  std::mt19937_64 rng;
  std::vector<Op> cycle;
  std::size_t pos = 0;

  explicit ReaderPlan(std::uint64_t seed) : rng(seed) {
    cycle.assign(kCycle - kSmallScans - kLargeScans, Op::kGet);
    cycle.insert(cycle.end(), kSmallScans, Op::kSmallScan);
    cycle.insert(cycle.end(), kLargeScans, Op::kLargeScan);
  }
  Op next() {
    if (pos == 0) std::shuffle(cycle.begin(), cycle.end(), rng);
    const Op op = cycle[pos];
    pos = (pos + 1) % cycle.size();
    return op;
  }
};

/// A reader's scan container for a size class, all columns of a row
/// prefix: small = 100 rows (200 cells), large = 10,000 rows (20,000 cells).
ds::ContainerRef scan_container(Op op, std::mt19937_64& rng) {
  char prefix[16];
  if (op == Op::kSmallScan) {
    std::snprintf(prefix, sizeof prefix, "r%04u", static_cast<unsigned>(rng() % 1'310));
  } else {
    std::snprintf(prefix, sizeof prefix, "r%02u", static_cast<unsigned>(rng() % 13));
  }
  return ds::ContainerRef(kTable, "", prefix);
}

/// One completed read: when it ended and how long it took.
struct Sample {
  Clock::time_point end;
  double ms = 0.0;
  bool operator<(const Sample& other) const { return end < other.end; }
};

struct ReaderLog {
  std::vector<Sample> get, small, large;
  OpCounts ops;
  std::vector<std::string> failures;
};

/// The latencies of several readers' samples, merged in completion order.
std::vector<double> in_time_order(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end());
  std::vector<double> ms;
  for (const Sample& s : samples) ms.push_back(s.ms);
  return ms;
}

}  // namespace

RunResult run_read_mix(const RunOptions& options) {
  RunResult out;
  StepTimes times;
  Layers layers(nullptr);
  std::unique_ptr<Stack> stack;
  const double setup_s = median_setup_s(
      kSetupRepeats, [&] { return build_stack(options.seed, times, layers); },
      [&](std::unique_ptr<Stack> s) { stack = std::move(s); });
  Stack& s = *stack;
  times.reset();
  const std::uint16_t port = s.server->port();
  const std::size_t preload_bytes = s.store->approx_memory_bytes();

  // Writer bodies: rows w<k>,c<j> in the readers' table, generated up front.
  const auto posts = static_cast<std::size_t>(kWriterPostsPerSecond * options.seconds);
  std::vector<std::string> writer_bodies;
  {
    std::mt19937_64 rng(options.seed ^ 0x5752495445ULL);
    for (std::size_t p = 0; p < posts; ++p) {
      std::string body;
      for (std::size_t r = 0; r < kWriterRowsPerPost; ++r) {
        body += writer_row_key(rng() % kWriterRows) + "," + col_key(rng() % kCols) + "," +
                format_double(static_cast<double>(rng() % 100'000) / 7.0) + "\n";
      }
      writer_bodies.push_back(std::move(body));
    }
  }

  obs::Tracer tracer(1 << 19);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point mid = t0 + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(options.seconds / 2));
  const Clock::time_point t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(options.seconds));
  // In a traced run the second half records spans (readers and writer).
  std::atomic<obs::Tracer*> live_tracer{nullptr};

  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLog& log = logs[r];
      ReaderPlan plan(options.seed * 7919 + r);
      std::optional<net::testing::Client> client;
      client.emplace(port, "127.0.0.1", 10'000);
      std::size_t scans = 0;
      std::this_thread::sleep_until(t0);
      while (Clock::now() < t_end) {
        const Op op = plan.next();
        std::string target, expected;
        ds::ContainerRef container;
        if (op == Op::kGet) {
          const std::size_t row = plan.rng() % kRows, col = plan.rng() % kCols;
          target = "/get?table=readmix&row=" + row_key(row) + "&col=" + col_key(col);
          expected = "{\"value\":" + format_double(preload_value(options.seed, row, col)) + "}\n";
        } else {
          container = scan_container(op, plan.rng);
          target = "/scan?table=readmix&prefix=" + container.row_prefix() + "&stream=1";
        }
        obs::Span span = obs::start_span(live_tracer.load(std::memory_order_acquire),
                                         op == Op::kGet ? "get" : "scan", layer::kNet);
        const auto start = Clock::now();
        std::optional<net::testing::ClientResponse> response;
        try {
          response = client->request("GET", target);
        } catch (const std::exception&) {
          client.reset();
          try {
            client.emplace(port, "127.0.0.1", 10'000);
          } catch (const std::exception&) {
          }
        }
        const auto end = Clock::now();
        span.finish();
        const bool ok = response && status_ok(response->status);
        log.ops.record(ok);
        if (!ok) continue;
        (op == Op::kGet ? log.get : op == Op::kSmallScan ? log.small : log.large)
            .push_back(Sample{end, ms_between(start, end)});
        // Checks run outside the timed interval.
        if (op == Op::kGet && response->body != expected) {
          log.failures.push_back(target + " returned " + response->body);
        }
        if (op != Op::kGet && ++scans % kCheckEvery == 0 &&
            response->body != render_csv(s.store->snapshot_flat(container))) {
          log.failures.push_back(target + " differs from a direct snapshot");
        }
      }
    });
  }

  // Writer: open loop at a low fixed rate; each accepted post is committed
  // by a wave (drain + run_wave) right away on the same thread.
  std::vector<RequestRecord> writer_records;
  std::vector<double> writer_wave_s;
  std::vector<bool> writer_wave_traced;
  std::uint64_t writer_rows_acked = 0;
  const net::IngestBridge::Stats bridge_before = s.bridge->stats();
  std::thread writer([&] {
    net::testing::Client client(port, "127.0.0.1", 10'000);
    wms::SyncController sync;
    std::vector<Clock::time_point> dues;
    for (std::size_t p = 0; p < posts; ++p) {
      dues.push_back(t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                              static_cast<double>(p) / kWriterPostsPerSecond)));
    }
    writer_records = run_open_loop(dues, [&](std::size_t p) {
      int status = 0;
      try {
        status = client.request("POST", std::string("/ingest/") + kTable, writer_bodies[p]).status;
      } catch (const std::exception&) {
        return 0;
      }
      if (!status_ok(status)) return status;
      writer_rows_acked += kWriterRowsPerPost;
      obs::Tracer* tracer_now = live_tracer.load(std::memory_order_acquire);
      layers.set_tracer(tracer_now);
      obs::Span wave_span = layers.span("writer_wave", layer::kBench);
      const ds::Timestamp w = s.next_wave++;
      const auto start = Clock::now();
      {
        obs::Span drain = layers.span("drain", layer::kNet, wave_span.id());
        ds::Client wave_client(*s.store, w);
        s.ingest(wave_client, w);
      }
      obs::Span run = layers.span("wave", layer::kCore, wave_span.id());
      layers.set_parent(run.id());
      const wms::WaveResult result = s.engine->run_wave(w, sync);
      run.finish();
      writer_wave_s.push_back(s_between(start, Clock::now()));
      writer_wave_traced.push_back(tracer_now != nullptr);
      return result.failed_count() == 0 ? status : 500;
    });
  });

  if (options.trace) {
    std::this_thread::sleep_until(mid);
    live_tracer.store(&tracer, std::memory_order_release);
  }
  for (auto& t : readers) t.join();
  writer.join();
  live_tracer.store(nullptr, std::memory_order_release);
  layers.set_tracer(nullptr);

  // Checks and accounting.
  std::vector<Sample> gets, scans, larges;
  std::size_t ops_plain = 0, ops_traced = 0;
  for (ReaderLog& log : logs) {
    out.ops.merge(log.ops);
    for (auto& f : log.failures) out.fail(std::move(f));
    gets.insert(gets.end(), log.get.begin(), log.get.end());
    scans.insert(scans.end(), log.small.begin(), log.small.end());
    scans.insert(scans.end(), log.large.begin(), log.large.end());
    larges.insert(larges.end(), log.large.begin(), log.large.end());
  }
  for (const auto* kind : {&gets, &scans}) {
    for (const Sample& s : *kind) (s.end < mid ? ops_plain : ops_traced) += 1;
  }
  const std::vector<double> get_ms = in_time_order(gets), scan_ms = in_time_order(scans),
                            large_ms = in_time_order(larges);
  const std::uint64_t reader_ok = out.ops.attempted - out.ops.failed;
  for (const RequestRecord& r : writer_records) out.ops.record(status_ok(r.status));
  const net::IngestBridge::Stats bridge_after = s.bridge->stats();
  if (bridge_after.rows_ingested - bridge_before.rows_ingested != writer_rows_acked) {
    out.fail("writer rows ingested differ from rows acked");
  }
  if (s.bridge->staged_rows() != 0) out.fail("writer rows left staged");
  if (get_ms.empty() || scan_ms.empty()) out.fail("a read kind never completed");
  const Summary lag = generator_lag(writer_records);
  if (lag.tail.value > kMaxGeneratorLagMs) {
    out.fail("writer ran " + format_double(lag.tail.value) + " ms late (tail)");
  }

  const Summary get = summarize(get_ms);
  const Summary scan = summarize(scan_ms);
  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["ops_per_s"] = {static_cast<double>(reader_ok) / options.seconds, "1/s"};
  out.e2e["op_p50_ms"] = {get.p50, "ms"};
  out.e2e["op_tail_ms"] = {get.tail.value, "ms"};
  out.e2e["result_p50_ms"] = {scan.p50, "ms"};
  out.e2e["result_tail_ms"] = {scan.tail.value, "ms"};
  out.e2e["ok_share"] = {out.ops.ok_share(), "ratio"};
  out.meta["preload_cells"] = std::to_string((kRows + kWriterRows) * kCols);
  out.meta["preload_bytes"] = std::to_string(preload_bytes);
  out.meta["readers"] = std::to_string(kReaders);
  out.meta["writer_offered_req_per_s"] = format_double(kWriterPostsPerSecond);
  out.meta["gets"] = std::to_string(get_ms.size());
  out.meta["scans"] = std::to_string(scan_ms.size());
  out.meta["large_scan_p50_ms"] = format_double(median(large_ms));
  out.meta["op_tail_pct"] = format_double(get.tail.percentile);
  out.meta["op_tail_samples"] = std::to_string(get.tail.count);
  out.meta["result_tail_pct"] = format_double(scan.tail.percentile);
  out.meta["result_tail_samples"] = std::to_string(scan.tail.count);

  if (!options.trace) return out;

  // Direct store probes on the same keys and containers the readers used.
  auto& L = out.layers;
  std::mt19937_64 rng(options.seed);
  std::vector<double> ds_get_us, ds_small_ms, ds_large_ms;
  layers.set_tracer(&tracer);
  for (int i = 0; i < 20'000; ++i) {
    const std::string row = row_key(rng() % kRows), col = col_key(rng() % kCols);
    obs::Span span = layers.span("get", layer::kDs);
    const auto start = Clock::now();
    const auto value = s.store->get(kTable, row, col);
    ds_get_us.push_back(1e3 * ms_between(start, Clock::now()));
    if (!value) out.fail("direct get missed a preloaded cell");
  }
  for (int i = 0; i < 200; ++i) {
    for (Op op : {Op::kSmallScan, Op::kLargeScan}) {
      const ds::ContainerRef container = scan_container(op, rng);
      obs::Span span = layers.span("snapshot_flat", layer::kDs);
      const auto start = Clock::now();
      const ds::FlatSnapshot snapshot = s.store->snapshot_flat(container);
      (op == Op::kSmallScan ? ds_small_ms : ds_large_ms).push_back(ms_between(start, Clock::now()));
      if (snapshot.size() != (op == Op::kSmallScan ? 100 : 10'000) * kCols) {
        out.fail("direct snapshot has the wrong size");
      }
    }
  }
  const auto spans = tracer.snapshot();
  const auto self = self_seconds(spans);
  if (tracer.dropped() > 0) out.fail("tracer dropped " + std::to_string(tracer.dropped()));
  double traced_wave_s = 0.0;
  for (std::size_t i = 0; i < writer_wave_s.size(); ++i) {
    if (writer_wave_traced[i]) traced_wave_s += writer_wave_s[i];
  }
  const double layer_sum = sum_self(spans, self, layer::kNet, "drain") +
                           sum_self(spans, self, layer::kCore) +
                           sum_self(spans, self, layer::kWorkloads);
  const double gap =
      traced_wave_s > 0.0 ? std::abs(layer_sum - traced_wave_s) / traced_wave_s : 1.0;
  if (gap > kLayerSumTolerance) {
    out.fail("writer layer self times sum to " + format_double(layer_sum) + " s, waves took " +
             format_double(traced_wave_s) + " s");
  }
  const double get_client_us = 1e3 * get.p50;
  const double large_client_ms = median(large_ms);
  L["ds.get_us"] = {median(ds_get_us), "us"};
  L["ds.snapshot_ms"] = {median(ds_large_ms), "ms"};
  L["ds.snapshot_small_ms"] = {median(ds_small_ms), "ms"};
  L["net.get_share_pct"] = {100.0 * (1.0 - median(ds_get_us) / get_client_us), "%"};
  L["net.scan_share_pct"] = {100.0 * (1.0 - median(ds_large_ms) / large_client_ms), "%"};
  L["core.wave_self_ms"] = {1e3 * median(each_self(spans, self, layer::kCore, "wave")), "ms"};
  L["net.bridge_drain_ms"] = {1e3 * median(each_self(spans, self, layer::kNet, "drain")), "ms"};
  L["net.rows_per_wave"] = {static_cast<double>(kWriterRowsPerPost), "count"};
  L["net.refusals"] = {static_cast<double>(bridge_after.refusals), "count"};
  const net::ServerStats server = s.server->stats();
  L["net.parse_errors"] = {static_cast<double>(server.parse_errors), "count"};
  L["net.slow_disconnects"] = {static_cast<double>(server.slow_disconnects), "count"};
  L["gen.lag_tail_ms"] = {lag.tail.value, "ms"};
  L["obs.trace_overhead_pct"] = {
      100.0 * (static_cast<double>(ops_plain) / std::max<double>(1.0, ops_traced) - 1.0), "%"};
  L["obs.layer_sum_gap_pct"] = {100.0 * gap, "%"};
  L["obs.spans"] = {static_cast<double>(spans.size()), "count"};
  L["wms.steps_executed"] = {static_cast<double>(s.engine->total_executions()), "count"};
  StepTotals steps;
  steps.add(times);
  steps.report(L, 1.0);
  write_trace(tracer, options.out_dir + "/trace-read_mix-" + std::to_string(options.seed) +
                          ".json");
  return out;
}

}  // namespace sfbench
