// Overload-resilience soak: the AQHI workload driven for hours of simulated
// waves under a deterministic chaos campaign — burst arrivals, late/missing
// sensors, hot-key skew, a flash event, one wedged step and one disk crash —
// on a durable (WAL + checkpoint) store with the soft memory ceiling and the
// stall watchdog armed.
//
//   ./bench/soak [app_waves] [train_waves] [grid] [seed] > docs/bench/soak.json
//   ./bench/soak net [requests_per_client] [clients] [seed]   (network leg)
//
// Defaults (1000 app waves, grid 20 = 1200 sensor cells/wave, burst factor 4)
// push ~2M cells through ingest. The bench exits non-zero when any resilience
// bound is violated:
//   - tracked memory exceeded the soft ceiling by more than 5%
//   - a wave is missing from the journal (every wave appears exactly once)
//   - the injected wedged step did not stall the watchdog, or stalled it
//     without a subsequent recovery
//   - the injected WAL crash did not recover
//
// Phases: (1) training — per wave, chaos ingest then a synchronous wave while
// the knowledge base captures; a training wave wedges one step, so the
// watchdog check never depends on what SmartFlux later decides to run;
// (2) model build; (3) adaptive application soak through bursts and a flash
// event; mid-soak a WAL crash is injected during ingest, the store is
// abandoned, recovered from disk, and the run resumes at the wave-boundary
// consistency cut. Every wave runs serially after its own ingest, so all
// non-timing output is a function of the arguments alone.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/qod_engine.h"
#include "core/smartflux.h"
#include "datastore/client.h"
#include "datastore/datastore.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/server.h"
#include "net/testing.h"
#include "scenario/scenario.h"
#include "wms/journal.h"
#include "wms/watchdog.h"
#include "workloads/aqhi/aqhi.h"

namespace {

using namespace smartflux;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double pctl(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct Config {
  std::size_t app_waves = 1000;
  std::size_t train_waves = 160;
  std::size_t grid = 20;
  std::uint64_t seed = 42;
  std::size_t checkpoint_every = 50;  ///< manual, timed checkpoints
  std::string dir = "soak_data";
};

// --------------------------------------------------------------------------
// Network leg: ./bench/soak net [requests_per_client] [clients] [seed]
//
// The ingest-reliability soak (DESIGN.md §14): a swarm of keyed HTTP clients
// feeds the AQHI compute workflow through the real server while the main
// thread paces waves, a WAL power cut is injected mid-run with one request
// per client parked in the kill-between-ack-and-commit window, the store is
// recovered, and the swarm replays every potentially-unacked request before
// wave driving resumes — the client retry contract. Runs twice: once with a
// quiet schedule and once under socket-level chaos (fragmented writes,
// mid-body resets, stalls past the 408 deadline, duplicate sends). Both
// passes end with Server::drain() and are self-checked for exact row
// conservation: every expected cell present, with the right value, exactly
// once — zero lost, zero duplicated.

constexpr std::size_t kNetRowsPerRequest = 4;

std::string net_row(std::size_t c, std::size_t r, std::size_t k) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "c%zu_s%zu_r%zu", c, r, k);
  return buf;
}

// Integer + 0.25: survives the %.2f print / from_chars parse round trip
// bit-exactly, so conservation can compare with ==.
double net_value(std::size_t c, std::size_t r, std::size_t k) {
  return static_cast<double>(c * 100000 + r * 100 + k) + 0.25;
}

std::string net_body(std::size_t c, std::size_t r) {
  std::string body;
  for (std::size_t k = 0; k < kNetRowsPerRequest; ++k) {
    char line[96];
    std::snprintf(line, sizeof line, "%s,o3,%.2f\n", net_row(c, r, k).c_str(),
                  net_value(c, r, k));
    body += line;
  }
  return body;
}

struct NetModeReport {
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t seeded_keys = 0;
  net::testing::ChaosStats chaos;  ///< summed over the swarm
  std::uint64_t bridge_duplicates = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t read_timeouts = 0;
  bool crashed = false;
  ds::Timestamp crash_wave = 0;
  ds::Timestamp resume_wave = 0;
  std::size_t expected_cells = 0;
  std::size_t found_cells = 0;
  std::size_t missing = 0;
  std::size_t wrong_value = 0;
  std::size_t multi_version = 0;
  bool drained = false;
  bool pass = false;
};

NetModeReport run_net_mode(bool chaos, std::size_t requests_per_client, std::size_t clients,
                           std::uint64_t seed) {
  namespace nt = net::testing;
  NetModeReport report;

  scenario::CampaignOptions copts;
  copts.seed = seed + (chaos ? 1 : 0);
  if (chaos) {
    copts.net_chaos.partial_write = 0.12;
    copts.net_chaos.reset = 0.08;
    copts.net_chaos.stall = 0.04;
    copts.net_chaos.duplicate = 0.08;
    copts.net_chaos.stall_for = std::chrono::milliseconds(120);
  }
  scenario::Campaign campaign(copts);
  const NetChaosSchedule quiet;  // zero probabilities: every draw is kNone
  const NetChaosSchedule& schedule = chaos ? campaign.net_chaos() : quiet;

  const std::string dir = std::string("soak_net_data/") + (chaos ? "chaos" : "normal");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string store_dir = dir + "/store";

  ds::DurabilityOptions dur;
  dur.flush = ds::WalFlushPolicy::kEveryWave;
  dur.fault_injector = &campaign.faults();
  const ds::ShardOptions shards{.shards = 2};
  constexpr std::size_t kMaxVersions = 4;

  workloads::AqhiParams params;
  params.grid = 6;  // small compute surface; the soak stresses ingest, not math
  params.seed = seed;
  const workloads::AqhiWorkload workload(params);
  const wms::WorkflowSpec spec = workload.make_compute_workflow();

  auto store = std::make_unique<ds::DataStore>(kMaxVersions, shards);
  store->enable_durability(store_dir, dur);
  auto engine = std::make_unique<wms::WorkflowEngine>(spec, *store);
  auto bridge = std::make_unique<net::IngestBridge>(net::IngestBridge::Options{});

  const auto make_server = [&] {
    net::GatewayOptions gateway;
    gateway.store = store.get();
    gateway.ingest = bridge.get();
    net::ServerOptions server_options;
    server_options.port = 0;
    // Under chaos the injected stalls (120ms) must overshoot the read
    // deadline, so every stall exercises the 408 sweep and a retry.
    if (chaos) server_options.request_read_timeout_ms = 40;
    auto server = std::make_unique<net::Server>(net::make_gateway_router(gateway),
                                                server_options);
    server->start();
    return server;
  };
  auto server = make_server();

  std::vector<nt::ChaosClient> swarm;
  swarm.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    swarm.emplace_back(server->port(), &schedule, /*stream=*/c);
  }

  ds::Timestamp next_wave = 1;
  // One wave: drain everything staged into the wave's timestamp, then run it.
  const auto drain_wave = [&] {
    ds::Client client(*store, next_wave);
    bridge->make_ingest()(client, next_wave);
    wms::SyncController sync;
    engine->run_wave(next_wave, sync);
    ++next_wave;
  };

  std::atomic<std::uint64_t> failed{0};
  const auto send_range = [&](std::size_t c, std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      char key[32];
      std::snprintf(key, sizeof key, "c%zu:%zu", c, r);
      if (swarm[c].post_ingest("sensors", key, net_body(c, r)) != 202) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  const auto run_phase = [&](std::size_t lo, std::size_t hi, bool drive_waves) {
    std::atomic<std::size_t> live{clients};
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        send_range(c, lo, hi);
        live.fetch_sub(1, std::memory_order_release);
      });
    }
    while (drive_waves && live.load(std::memory_order_acquire) > 0) {
      drain_wave();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (auto& worker : workers) worker.join();
  };

  // Phase A: the first half of every client's requests, waves pacing along.
  const std::size_t half = requests_per_client / 2;
  run_phase(0, half, /*drive_waves=*/true);
  while (bridge->staged_rows() > 0) drain_wave();  // phase-A keys now durable

  // The straddler: one request per client acked (202 = staged) but never
  // drained — parked squarely in the kill-between-ack-and-commit window.
  run_phase(half, half + 1, /*drive_waves=*/false);

  // Power cut: the next WAL append dies mid-wave, taking the straddler's
  // batch (and its key stamps) down with the process image.
  {
    DiskFaultRule crash;
    crash.kind = DiskFaultKind::kCrash;
    crash.file_tag = "wal-s0";
    crash.message = "soak-net: power cut";
    campaign.faults().add_disk_rule(crash);
  }
  report.crash_wave = next_wave;
  try {
    drain_wave();
  } catch (const InjectedFault&) {
    report.crashed = true;
  }

  // Abandon the wedged stack and recover from disk.
  const net::ServerStats server_stats_a = server->stats();
  server->stop();
  server.reset();
  const net::IngestBridge::Stats bridge_stats_a = bridge->stats();
  engine.reset();
  store.reset();
  campaign.faults().clear_rules();

  ds::RecoveryInfo info;
  store = ds::DataStore::recover(store_dir, dur, kMaxVersions, &info, shards);
  const ds::Timestamp durable = info.last_durable_wave.value_or(0);
  next_wave = durable + 1;
  report.resume_wave = next_wave;
  bridge = std::make_unique<net::IngestBridge>(net::IngestBridge::Options{});
  report.seeded_keys = bridge->seed_dedupe(*store);
  engine = std::make_unique<wms::WorkflowEngine>(spec, *store);
  server = make_server();
  for (auto& client : swarm) client.set_port(server->port());

  // Phase B, the client retry contract: first replay EVERY potentially
  // unacknowledged request (same keys, before wave driving resumes — keys
  // already durable re-ack as duplicates, torn ones re-stage), then drain
  // the orphans at exactly wave durable+1 so they overwrite any torn
  // pre-crash appends at the same timestamp. Only then does new traffic flow.
  run_phase(0, half + 1, /*drive_waves=*/false);
  drain_wave();
  run_phase(half + 1, requests_per_client, /*drive_waves=*/true);

  // Graceful end: drain answers stragglers, then the flush commits whatever
  // is still staged — an acked row must not die with the process.
  report.drained = server->drain(5'000, [&] {
    while (bridge->staged_rows() > 0) drain_wave();
  });
  const net::ServerStats server_stats_b = server->stats();

  // Conservation: every cell present, right value, exactly one version.
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t r = 0; r < requests_per_client; ++r) {
      for (std::size_t k = 0; k < kNetRowsPerRequest; ++k) {
        const auto versions = store->cell_versions("sensors", net_row(c, r, k), "o3");
        if (versions.empty()) {
          ++report.missing;
        } else {
          if (versions.size() != 1) ++report.multi_version;
          if (versions.front().value != net_value(c, r, k)) ++report.wrong_value;
        }
      }
    }
  }
  report.expected_cells = clients * requests_per_client * kNetRowsPerRequest;
  report.found_cells = store->cell_count("sensors");

  for (const auto& client : swarm) {
    const nt::ChaosStats& s = client.stats();
    report.acked += s.requests;
    report.chaos.attempts += s.attempts;
    report.chaos.partial_writes += s.partial_writes;
    report.chaos.resets += s.resets;
    report.chaos.stalls += s.stalls;
    report.chaos.duplicate_sends += s.duplicate_sends;
    report.chaos.duplicate_acks += s.duplicate_acks;
    report.chaos.refusals += s.refusals;
    report.chaos.reconnects += s.reconnects;
  }
  report.failed = failed.load();
  report.bridge_duplicates = bridge_stats_a.duplicates + bridge->stats().duplicates;
  report.http_requests = server_stats_a.requests + server_stats_b.requests;
  report.read_timeouts = server_stats_a.read_timeouts + server_stats_b.read_timeouts;

  const std::uint64_t faults_inflicted = report.chaos.partial_writes + report.chaos.resets +
                                         report.chaos.stalls + report.chaos.duplicate_sends;
  report.pass = report.crashed && report.failed == 0 && report.missing == 0 &&
                report.wrong_value == 0 && report.multi_version == 0 &&
                report.found_cells == report.expected_cells && report.drained &&
                report.bridge_duplicates > 0 && (!chaos || faults_inflicted > 0);
  return report;
}

void print_net_mode(const char* name, const NetModeReport& r) {
  std::printf("  \"%s\": {\n", name);
  std::printf("    \"acked\": %llu, \"failed\": %llu, \"attempts\": %llu,\n",
              static_cast<unsigned long long>(r.acked),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.chaos.attempts));
  std::printf("    \"faults\": {\"partial_writes\": %llu, \"resets\": %llu, \"stalls\": %llu, "
              "\"duplicate_sends\": %llu, \"reconnects\": %llu},\n",
              static_cast<unsigned long long>(r.chaos.partial_writes),
              static_cast<unsigned long long>(r.chaos.resets),
              static_cast<unsigned long long>(r.chaos.stalls),
              static_cast<unsigned long long>(r.chaos.duplicate_sends),
              static_cast<unsigned long long>(r.chaos.reconnects));
  std::printf("    \"duplicate_acks\": %llu, \"refusals_503\": %llu, "
              "\"bridge_duplicates\": %llu, \"seeded_keys\": %llu,\n",
              static_cast<unsigned long long>(r.chaos.duplicate_acks),
              static_cast<unsigned long long>(r.chaos.refusals),
              static_cast<unsigned long long>(r.bridge_duplicates),
              static_cast<unsigned long long>(r.seeded_keys));
  std::printf("    \"server\": {\"requests\": %llu, \"read_timeouts\": %llu},\n",
              static_cast<unsigned long long>(r.http_requests),
              static_cast<unsigned long long>(r.read_timeouts));
  std::printf("    \"crash_wave\": %llu, \"resume_wave\": %llu,\n",
              static_cast<unsigned long long>(r.crash_wave),
              static_cast<unsigned long long>(r.resume_wave));
  std::printf("    \"cells\": {\"expected\": %zu, \"found\": %zu, \"missing\": %zu, "
              "\"wrong_value\": %zu, \"multi_version\": %zu},\n",
              r.expected_cells, r.found_cells, r.missing, r.wrong_value, r.multi_version);
  std::printf("    \"drained\": %s, \"pass\": %s\n", r.drained ? "true" : "false",
              r.pass ? "true" : "false");
}

int run_net_leg(std::size_t requests_per_client, std::size_t clients, std::uint64_t seed) {
  if (requests_per_client < 2) requests_per_client = 2;
  if (clients == 0) clients = 1;

  const NetModeReport normal = run_net_mode(/*chaos=*/false, requests_per_client, clients, seed);
  const NetModeReport chaotic = run_net_mode(/*chaos=*/true, requests_per_client, clients, seed);
  const bool pass = normal.pass && chaotic.pass;

  std::printf("{\n");
  std::printf("  \"config\": {\"mode\": \"net\", \"requests_per_client\": %zu, "
              "\"clients\": %zu, \"rows_per_request\": %zu, \"seed\": %llu},\n",
              requests_per_client, clients, kNetRowsPerRequest,
              static_cast<unsigned long long>(seed));
  print_net_mode("normal", normal);
  std::printf("  },\n");
  print_net_mode("chaos", chaotic);
  std::printf("  },\n");
  std::printf("  \"pass\": %s\n", pass ? "true" : "false");
  std::printf("}\n");

  if (!pass) {
    const auto blame = [](const char* name, const NetModeReport& r) {
      if (r.pass) return;
      std::fprintf(stderr,
                   "soak net FAILED (%s): crashed=%d failed=%llu missing=%zu wrong_value=%zu "
                   "multi_version=%zu found=%zu/%zu drained=%d bridge_duplicates=%llu\n",
                   name, r.crashed, static_cast<unsigned long long>(r.failed), r.missing,
                   r.wrong_value, r.multi_version, r.found_cells, r.expected_cells, r.drained,
                   static_cast<unsigned long long>(r.bridge_duplicates));
    };
    blame("normal", normal);
    blame("chaos", chaotic);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "net") == 0) {
    const std::size_t requests =
        argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 48;
    const std::size_t clients = argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 4;
    const std::uint64_t seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 42;
    return run_net_leg(requests, clients, seed);
  }
  Config cfg;
  if (argc > 1) cfg.app_waves = static_cast<std::size_t>(std::atoll(argv[1]));
  if (argc > 2) cfg.train_waves = static_cast<std::size_t>(std::atoll(argv[2]));
  if (argc > 3) cfg.grid = static_cast<std::size_t>(std::atoll(argv[3]));
  if (argc > 4) cfg.seed = static_cast<std::uint64_t>(std::atoll(argv[4]));

  const ds::Timestamp app_first = cfg.train_waves + 1;
  const ds::Timestamp app_last = cfg.train_waves + cfg.app_waves;
  // The wedged step fires on a training wave, where every step runs, late
  // enough that the watchdog has learned the step's normal duration; the
  // crash fires mid-soak.
  const ds::Timestamp hang_wave = std::max<ds::Timestamp>(1, cfg.train_waves * 3 / 4);
  const ds::Timestamp crash_trigger = cfg.train_waves + cfg.app_waves / 2;

  workloads::AqhiParams params;
  params.grid = cfg.grid;
  params.seed = cfg.seed;
  workloads::AqhiWorkload workload(params);

  scenario::CampaignOptions campaign_opts;
  campaign_opts.seed = cfg.seed;
  campaign_opts.scenario.burst = {.period = 20, .length = 4, .factor = 4.0};
  campaign_opts.scenario.late = {.probability = 0.02, .delay = 2};
  campaign_opts.scenario.drop = {.probability = 0.01};
  campaign_opts.scenario.hot_key = {.fraction = 0.05, .hot_keys = 4};
  scenario::FlashEvent flash;
  flash.first_wave = app_first + 200;
  flash.last_wave = app_first + 230;
  flash.scale = 1.8;
  campaign_opts.scenario.flash.push_back(flash);
  {
    FaultRule hang;
    hang.step_id = "2_concentration";
    hang.kind = FaultKind::kHang;
    hang.first_wave = hang_wave;
    hang.last_wave = hang_wave;
    hang.max_attempt = 1;  // the retry after the watchdog cancel succeeds
    hang.hang_for = std::chrono::milliseconds(10'000);
    hang.message = "soak: wedged step";
    campaign_opts.step_faults.push_back(hang);
  }
  scenario::Campaign campaign(campaign_opts);
  wms::WaveIngest chaos_ingest = campaign.wrap(workload.make_ingest());

  wms::WatchdogOptions wd_opts;
  wd_opts.stall_multiplier = 8.0;
  wd_opts.min_stall = std::chrono::milliseconds(250);
  wms::StallWatchdog watchdog(wd_opts);

  std::filesystem::remove_all(cfg.dir);
  std::filesystem::create_directories(cfg.dir);
  const std::string store_dir = cfg.dir + "/store";
  const std::string journal_path = cfg.dir + "/journal.txt";

  ds::DurabilityOptions dur;
  dur.flush = ds::WalFlushPolicy::kEveryWave;
  dur.fault_injector = &campaign.faults();
  constexpr std::size_t kMaxVersions = 4;  // history until the ceiling trims it
  const ds::ShardOptions shards{.shards = 2};

  wms::WorkflowEngine::Options eng_opts;
  eng_opts.retry.max_attempts = 3;
  eng_opts.retry.initial_backoff = std::chrono::milliseconds(2);
  eng_opts.retry.propagate = false;  // record failures, keep the wave going
  eng_opts.fault_injector = &campaign.faults();
  eng_opts.watchdog = &watchdog;

  auto store = std::make_unique<ds::DataStore>(kMaxVersions, shards);
  store->enable_durability(store_dir, dur);

  wms::WorkflowSpec spec = workload.make_compute_workflow();
  auto engine = std::make_unique<wms::WorkflowEngine>(spec, *store, eng_opts);
  wms::WaveJournal journal;
  engine->attach_journal(&journal);
  journal.open_sink(journal_path);

  // Phase 1: training — each wave's chaos ingest lands before the wave runs,
  // as in the application phase, so the captured KB never depends on how far
  // ingest got ahead of the trackers' latest-version reads.
  core::TrainingController trainer(spec, *store, {});
  const auto t_train = Clock::now();
  for (ds::Timestamp wave = 1; wave <= cfg.train_waves; ++wave) {
    ds::Client ingest_client(*store, wave);
    chaos_ingest(ingest_client, wave);
    engine->run_wave(wave, trainer);
  }
  const double train_ms = ms_since(t_train);

  // The ceiling is set just under the post-training footprint: the bounded
  // chaos key universe is fully interned by now, so the soak must hold the
  // line within 5% while pressure relief (checkpoint + trims) stays busy.
  const std::size_t footprint = store->approx_memory_bytes();
  ds::MemoryOptions mem;
  mem.soft_limit_bytes = footprint - footprint / 50;  // 98% of warm footprint
  mem.trim_keep_versions = 2;                         // serial app phase reads prev+cur
  store->set_memory_options(mem);

  core::SmartFluxOptions sf_opts;
  sf_opts.audit.audit_every = 12;
  auto sf = std::make_unique<core::SmartFluxEngine>(*engine, sf_opts);
  sf->restore_knowledge_base(trainer.take_knowledge_base());
  sf->build_model();
  const core::KnowledgeBase kb_snapshot = sf->knowledge_base();  // for post-crash rebuild

  // Phase 3: application soak.
  std::vector<double> lat_normal_ms, lat_burst_ms, checkpoint_ms;
  bool crash_armed = false, crashed = false;
  double recovery_seconds = -1.0;
  // Counters of the engine and store the injected crash discards, so the
  // report covers every app wave, not only those after the crash.
  core::SmartFluxEngine::AuditStats audit_pre_crash;
  ds::MemoryStats memory_pre_crash;
  ds::Timestamp crash_wave = 0, resume_wave = 0;

  for (ds::Timestamp wave = app_first; wave <= app_last; ++wave) {
    if (!crashed && !crash_armed && wave == crash_trigger) {
      DiskFaultRule crash;
      crash.kind = DiskFaultKind::kCrash;
      crash.file_tag = "wal-s0";  // shard 0's WAL family
      crash.message = "soak: power cut";
      campaign.faults().add_disk_rule(crash);  // next WAL append dies
      crash_armed = true;
    }
    const bool burst = campaign.scenario().burst_wave(wave);
    const auto t0 = Clock::now();
    try {
      ds::Client ingest_client(*store, wave);
      chaos_ingest(ingest_client, wave);
      sf->run_wave(wave);
    } catch (const InjectedFault&) {
      // The injected power cut: abandon the wedged store mid-wave and
      // recover from disk, resuming at the wave-boundary consistency cut.
      crashed = true;
      crash_wave = wave;
      campaign.faults().clear_rules();
      audit_pre_crash = sf->audit_stats();
      memory_pre_crash = store->memory_stats();
      sf.reset();
      engine.reset();
      store.reset();

      const auto t_rec = Clock::now();
      ds::RecoveryInfo info;
      store = ds::DataStore::recover(store_dir, dur, kMaxVersions, &info, shards);
      const ds::Timestamp durable = info.last_durable_wave.value_or(0);
      journal = journal.truncated_to(durable);
      journal.open_sink(journal_path);
      store->set_memory_options(mem);
      engine = std::make_unique<wms::WorkflowEngine>(spec, *store, eng_opts);
      engine->attach_journal(&journal);
      sf = std::make_unique<core::SmartFluxEngine>(*engine, sf_opts);
      sf->restore_knowledge_base(kb_snapshot);
      sf->build_model();
      sf->resume_from_journal(journal);
      recovery_seconds = std::chrono::duration<double>(Clock::now() - t_rec).count();
      resume_wave = durable + 1;
      wave = durable;  // loop increment re-runs durable+1 onward
      continue;
    }
    (burst ? lat_burst_ms : lat_normal_ms).push_back(ms_since(t0));

    if (wave % cfg.checkpoint_every == 0) {
      const auto t_cp = Clock::now();
      store->checkpoint();
      checkpoint_ms.push_back(ms_since(t_cp));
    }
  }

  // Accountability check: every wave 1..app_last journaled exactly once.
  std::size_t lost_waves = 0;
  {
    ds::Timestamp expected = 1;
    for (const wms::WaveRecord& rec : journal.records()) {
      if (rec.wave != expected) break;
      ++expected;
    }
    lost_waves = static_cast<std::size_t>(app_last + 1 - expected);
  }

  core::SmartFluxEngine::AuditStats audit = sf->audit_stats();
  audit.audits_run += audit_pre_crash.audits_run;
  audit.violations += audit_pre_crash.violations;
  audit.degradations += audit_pre_crash.degradations;
  ds::MemoryStats mstats = store->memory_stats();
  mstats.peak_tracked_bytes =
      std::max(mstats.peak_tracked_bytes, memory_pre_crash.peak_tracked_bytes);
  mstats.pressure_events += memory_pre_crash.pressure_events;
  mstats.versions_trimmed += memory_pre_crash.versions_trimmed;
  const scenario::ScenarioStats& sstats = campaign.scenario().stats();
  const double ceiling = static_cast<double>(mem.soft_limit_bytes);
  const double peak_ratio = ceiling > 0 ? static_cast<double>(mstats.peak_tracked_bytes) / ceiling
                                        : 0.0;

  const bool ceiling_ok = peak_ratio <= 1.05;
  const bool waves_ok = lost_waves == 0;
  const bool watchdog_ok = watchdog.stalls_fired() >= 1 && watchdog.recoveries() >= 1;
  const bool recovery_ok = crashed && recovery_seconds >= 0.0;
  const bool pass = ceiling_ok && waves_ok && watchdog_ok && recovery_ok;

  std::printf("{\n");
  std::printf("  \"config\": {\"train_waves\": %zu, \"app_waves\": %zu, \"grid\": %zu, "
              "\"seed\": %llu, \"burst_factor\": 4, \"checkpoint_every\": %zu},\n",
              cfg.train_waves, cfg.app_waves, cfg.grid,
              static_cast<unsigned long long>(cfg.seed), cfg.checkpoint_every);
  std::printf("  \"ingest\": {\"cells_in\": %zu, \"cells_emitted\": %zu, \"dropped\": %zu, "
              "\"deferred\": %zu, \"replayed\": %zu, \"burst_cells\": %zu, "
              "\"hot_key_redirects\": %zu, \"flash_cells\": %zu},\n",
              sstats.cells_in, sstats.cells_emitted, sstats.cells_dropped,
              sstats.cells_deferred, sstats.cells_replayed, sstats.burst_cells,
              sstats.hot_key_redirects, sstats.flash_cells);
  std::printf("  \"training\": {\"ms\": %.1f},\n", train_ms);
  std::printf("  \"latency_ms\": {\"normal_p50\": %.2f, \"normal_p99\": %.2f, "
              "\"burst_p50\": %.2f, \"burst_p99\": %.2f, \"checkpoint_p99\": %.2f},\n",
              pctl(lat_normal_ms, 0.50), pctl(lat_normal_ms, 0.99), pctl(lat_burst_ms, 0.50),
              pctl(lat_burst_ms, 0.99), pctl(checkpoint_ms, 0.99));
  std::printf("  \"memory\": {\"ceiling_bytes\": %zu, \"peak_tracked_bytes\": %zu, "
              "\"peak_over_ceiling\": %.4f, \"pressure_events\": %zu, "
              "\"versions_trimmed\": %zu},\n",
              mem.soft_limit_bytes, mstats.peak_tracked_bytes, peak_ratio,
              mstats.pressure_events, mstats.versions_trimmed);
  std::printf("  \"watchdog\": {\"stalls\": %zu, \"recoveries\": %zu},\n",
              watchdog.stalls_fired(), watchdog.recoveries());
  std::printf("  \"recovery\": {\"crash_wave\": %llu, \"resume_wave\": %llu, "
              "\"seconds\": %.4f},\n",
              static_cast<unsigned long long>(crash_wave),
              static_cast<unsigned long long>(resume_wave), recovery_seconds);
  std::printf("  \"audit\": {\"audits\": %zu, \"violations\": %zu, \"degradations\": %zu},\n",
              audit.audits_run, audit.violations, audit.degradations);
  std::printf("  \"lost_waves\": %zu,\n", lost_waves);
  std::printf("  \"faults_injected\": %zu,\n", campaign.faults().injected_count());
  std::printf("  \"pass\": %s\n", pass ? "true" : "false");
  std::printf("}\n");

  if (!pass) {
    std::fprintf(stderr,
                 "soak FAILED: ceiling_ok=%d (peak/ceiling=%.3f) waves_ok=%d (lost=%zu) "
                 "watchdog_ok=%d (stalls=%zu recoveries=%zu) recovery_ok=%d\n",
                 ceiling_ok, peak_ratio, waves_ok, lost_waves, watchdog_ok,
                 watchdog.stalls_fired(), watchdog.recoveries(), recovery_ok);
    return 1;
  }
  return 0;
}
