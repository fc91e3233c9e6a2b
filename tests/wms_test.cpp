#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/error.h"
#include "datastore/client.h"
#include "wms/engine.h"

namespace smartflux::wms {
namespace {

StepSpec step(StepId id, std::vector<StepId> preds = {},
              std::optional<double> max_error = std::nullopt) {
  StepSpec s;
  s.id = std::move(id);
  s.predecessors = std::move(preds);
  s.max_error = max_error;
  s.fn = [](StepContext&) {};
  return s;
}

TEST(WorkflowSpec, RejectsEmptyName) {
  EXPECT_THROW(WorkflowSpec("", {step("a")}), smartflux::InvalidArgument);
}

TEST(WorkflowSpec, RejectsNoSteps) {
  EXPECT_THROW(WorkflowSpec("w", {}), smartflux::InvalidArgument);
}

TEST(WorkflowSpec, RejectsDuplicateIds) {
  EXPECT_THROW(WorkflowSpec("w", {step("a"), step("a")}), smartflux::InvalidArgument);
}

TEST(WorkflowSpec, RejectsUnknownPredecessor) {
  EXPECT_THROW(WorkflowSpec("w", {step("a", {"ghost"})}), smartflux::InvalidArgument);
}

TEST(WorkflowSpec, RejectsSelfDependency) {
  EXPECT_THROW(WorkflowSpec("w", {step("a", {"a"})}), smartflux::InvalidArgument);
}

TEST(WorkflowSpec, RejectsCycle) {
  EXPECT_THROW(WorkflowSpec("w", {step("a", {"b"}), step("b", {"a"})}),
               smartflux::InvalidArgument);
}

TEST(WorkflowSpec, RejectsMissingFunction) {
  StepSpec s;
  s.id = "a";
  EXPECT_THROW(WorkflowSpec("w", {s}), smartflux::InvalidArgument);
}

TEST(WorkflowSpec, RejectsNegativeBound) {
  EXPECT_THROW(WorkflowSpec("w", {step("a", {}, -0.1)}), smartflux::InvalidArgument);
  // RMSE-style bounds above 1 are valid.
  EXPECT_NO_THROW(WorkflowSpec("w", {step("a", {}, 2.5)}));
}

TEST(WorkflowSpec, TopologicalOrderRespectsDependencies) {
  // Diamond: a -> {b, c} -> d.
  WorkflowSpec spec("w", {step("d", {"b", "c"}), step("b", {"a"}), step("c", {"a"}), step("a")});
  const auto& order = spec.topological_order();
  std::map<std::size_t, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    for (std::size_t pred : spec.predecessors(i)) {
      EXPECT_LT(pos[pred], pos[i]);
    }
  }
}

TEST(WorkflowSpec, SinksAndSources) {
  WorkflowSpec spec("w", {step("a"), step("b", {"a"}), step("c", {"a"})});
  const auto sinks = spec.sinks();
  ASSERT_EQ(sinks.size(), 2u);
  const auto sources = spec.sources();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(spec.step_at(sources[0]).id, "a");
}

TEST(WorkflowSpec, ErrorTolerantSteps) {
  WorkflowSpec spec("w", {step("a"), step("b", {"a"}, 0.1), step("c", {"a"}, 0.2)});
  const auto tolerant = spec.error_tolerant_steps();
  ASSERT_EQ(tolerant.size(), 2u);
  EXPECT_TRUE(spec.step_at(tolerant[0]).tolerates_error());
}

TEST(WorkflowSpec, LookupByIdAndIndex) {
  WorkflowSpec spec("w", {step("a"), step("b", {"a"})});
  EXPECT_EQ(spec.index_of("b"), 1u);
  EXPECT_EQ(spec.step("a").id, "a");
  EXPECT_TRUE(spec.contains("a"));
  EXPECT_FALSE(spec.contains("zzz"));
  EXPECT_THROW(spec.index_of("zzz"), smartflux::NotFound);
}

// --- Engine tests -----------------------------------------------------------

/// Workflow whose steps record execution order through the store.
WorkflowSpec recording_spec() {
  auto record = [](StepContext& ctx) {
    ctx.client.put("trace", ctx.step, "wave", static_cast<double>(ctx.wave));
  };
  StepSpec a;
  a.id = "a";
  a.fn = record;
  StepSpec b;
  b.id = "b";
  b.predecessors = {"a"};
  b.fn = record;
  b.max_error = 0.1;
  StepSpec c;
  c.id = "c";
  c.predecessors = {"b"};
  c.fn = record;
  c.max_error = 0.1;
  return WorkflowSpec("rec", {a, b, c});
}

TEST(Engine, SyncControllerExecutesEverythingEachWave) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SyncController sync;
  const auto r1 = engine.run_wave(1, sync);
  EXPECT_EQ(r1.executed_count(), 3u);
  const auto r2 = engine.run_wave(2, sync);
  EXPECT_EQ(r2.executed_count(), 3u);
  EXPECT_EQ(engine.total_executions(), 6u);
  EXPECT_EQ(engine.waves_run(), 2u);
}

TEST(Engine, WavesMustIncrease) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SyncController sync;
  engine.run_wave(5, sync);
  EXPECT_THROW(engine.run_wave(5, sync), smartflux::InvalidArgument);
  EXPECT_THROW(engine.run_wave(4, sync), smartflux::InvalidArgument);
  EXPECT_NO_THROW(engine.run_wave(6, sync));
}

/// Controller skipping a specific step.
class SkipController final : public TriggerController {
 public:
  explicit SkipController(StepId skip) : skip_(std::move(skip)) {}
  bool should_execute(const WorkflowSpec& spec, std::size_t index, ds::Timestamp) override {
    return spec.step_at(index).id != skip_;
  }

 private:
  StepId skip_;
};

TEST(Engine, SuccessorsIneligibleUntilPredecessorExecutedOnce) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SkipController skip_b("b");
  // b never executes => c must never become eligible.
  for (ds::Timestamp w = 1; w <= 3; ++w) {
    const auto r = engine.run_wave(w, skip_b);
    EXPECT_TRUE(r.executed[0]);   // a (intolerant) always runs
    EXPECT_FALSE(r.executed[1]);  // b skipped by controller
    EXPECT_FALSE(r.executed[2]);  // c not eligible
  }
  EXPECT_EQ(engine.execution_count(2), 0u);
}

TEST(Engine, SuccessorEligibleAfterOneExecution) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SyncController sync;
  engine.run_wave(1, sync);  // everything runs once
  SkipController skip_b("b");
  const auto r = engine.run_wave(2, skip_b);
  EXPECT_FALSE(r.executed[1]);
  EXPECT_TRUE(r.executed[2]);  // b ran before, so c is eligible even when b skips
}

TEST(Engine, ErrorIntolerantStepsBypassController) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SkipController skip_a("a");
  const auto r = engine.run_wave(1, skip_a);
  // "a" has no bound: the controller is never consulted for it.
  EXPECT_TRUE(r.executed[0]);
}

TEST(Engine, CompletionListenersNotified) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  std::vector<std::pair<StepId, ds::Timestamp>> events;
  engine.add_completion_listener(
      [&events](const StepId& id, ds::Timestamp wave) { events.emplace_back(id, wave); });
  SyncController sync;
  engine.run_wave(3, sync);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<StepId, ds::Timestamp>{"a", 3}));
  EXPECT_EQ(events[2].first, "c");
}

TEST(Engine, LastExecutedWaveTracked) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SyncController sync;
  EXPECT_FALSE(engine.last_executed_wave(0).has_value());
  engine.run_wave(7, sync);
  EXPECT_EQ(engine.last_executed_wave(0), 7u);
}

TEST(Engine, ResetHistoryClearsCounters) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SyncController sync;
  engine.run_waves(1, 3, sync);
  engine.reset_history();
  EXPECT_EQ(engine.total_executions(), 0u);
  EXPECT_EQ(engine.waves_run(), 0u);
  EXPECT_FALSE(engine.last_executed_wave(0).has_value());
  // The wave counter restarts, but store timestamps still have to advance.
  EXPECT_NO_THROW(engine.run_wave(10, sync));
}

TEST(Engine, StepsSeeWaveStampedClient) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SyncController sync;
  engine.run_wave(9, sync);
  EXPECT_EQ(store.get("trace", "a", "wave"), 9.0);
  EXPECT_EQ(store.get("trace", "c", "wave"), 9.0);
}

TEST(Engine, StepRewritesTheTableItJustRead) {
  // A read-modify-write of one table inside a step: the step iterates its
  // snapshot while updating the cells it read and adding a new one. The
  // snapshot is copied out before the step sees it, so no table lock is held.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ds::ShardOptions so;
    so.shards = shards;
    ds::DataStore store(/*max_versions=*/2, so);
    for (int i = 0; i < 10; ++i) store.put("t", "r" + std::to_string(i), "v", 1, i);
    StepSpec s = step("double");
    s.fn = [](StepContext& ctx) {
      double sum = 0.0;
      for (const ds::FlatEntry& e : ctx.client.snapshot(ds::ContainerRef::whole_table("t"))) {
        sum += e.value;
        ctx.client.put("t", *e.row, *e.col, 2.0 * e.value);
      }
      ctx.client.put("t", "total", "v", sum);
    };
    WorkflowEngine engine(WorkflowSpec("rewrite", {s}), store);
    SyncController sync;
    engine.run_wave(1, sync);
    EXPECT_EQ(store.get("t", "total", "v"), std::optional<double>{45.0}) << shards;
    engine.run_wave(2, sync);  // reads the doubled cells and wave 1's total
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(store.get("t", "r" + std::to_string(i), "v"), std::optional<double>{4.0 * i})
          << shards;
    }
    EXPECT_EQ(store.get("t", "total", "v"), std::optional<double>{135.0}) << shards;
    EXPECT_EQ(store.cell_count("t"), 11u) << shards;
  }
}

TEST(Engine, RunWavesReturnsPerWaveResults) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SyncController sync;
  const auto results = engine.run_waves(10, 5, sync);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results.front().wave, 10u);
  EXPECT_EQ(results.back().wave, 14u);
}

TEST(Engine, DurationsRecordedOnlyForExecutedSteps) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);
  SkipController skip_b("b");
  const auto r = engine.run_wave(1, skip_b);
  EXPECT_GE(r.durations[0].count(), 0);
  EXPECT_EQ(r.durations[1].count(), 0);
}

TEST(Engine, ControllerCallbacksInOrder) {
  ds::DataStore store;
  WorkflowEngine engine(recording_spec(), store);

  class OrderController final : public TriggerController {
   public:
    std::vector<std::string> events;
    void begin_wave(ds::Timestamp) override { events.push_back("begin"); }
    bool should_execute(const WorkflowSpec& spec, std::size_t i, ds::Timestamp) override {
      events.push_back("query:" + spec.step_at(i).id);
      return true;
    }
    void on_step_executed(const WorkflowSpec& spec, std::size_t i, ds::Timestamp) override {
      events.push_back("done:" + spec.step_at(i).id);
    }
    void end_wave(ds::Timestamp) override { events.push_back("end"); }
  } ctl;

  engine.run_wave(1, ctl);
  const std::vector<std::string> expected{"begin",   "done:a",  "query:b", "done:b",
                                          "query:c", "done:c", "end"};
  EXPECT_EQ(ctl.events, expected);
}

// ---------------------------------------------------------------------------
// Pipelined wave execution

/// Workflow reading the externally ingested feed: each wave records the feed
/// value it observed under its own row, so cross-wave contamination (a wave
/// seeing a newer ingest) would be visible in the output table forever.
WorkflowSpec feed_reader_spec() {
  StepSpec read;
  read.id = "read";
  read.fn = [](StepContext& ctx) {
    const double in = ctx.client.get("in", "r", "v").value_or(-1.0);
    ctx.client.put("out", "w" + std::to_string(ctx.wave), "v", in);
  };
  StepSpec scale;
  scale.id = "scale";
  scale.predecessors = {"read"};
  scale.fn = [](StepContext& ctx) {
    const double v =
        ctx.client.get("out", "w" + std::to_string(ctx.wave), "v").value_or(0.0);
    ctx.client.put("scaled", "w" + std::to_string(ctx.wave), "v", 2.0 * v);
  };
  return WorkflowSpec("feed_reader", {read, scale});
}

TEST(PipelinedWaves, EachWaveReadsExactlyItsOwnIngest) {
  ds::DataStore store(/*max_versions=*/2);
  WorkflowEngine engine(feed_reader_spec(), store);
  SyncController sync;
  const WaveIngest ingest = [](ds::Client& client, ds::Timestamp wave) {
    client.put("in", "r", "v", static_cast<double>(wave) * 10.0);
  };
  PressureStats stats;
  const auto results =
      engine.run_waves_pipelined(1, 8, sync, ingest, PressureOptions::ahead(1), &stats);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) EXPECT_EQ(r.executed_count(), 2u) << "wave " << r.wave;
  // Every wave saw the feed value ingested for it — not a newer one that the
  // pipeline had already written.
  for (ds::Timestamp w = 1; w <= 8; ++w) {
    EXPECT_EQ(store.get("out", "w" + std::to_string(w), "v"),
              std::optional<double>{static_cast<double>(w) * 10.0});
    EXPECT_EQ(store.get("scaled", "w" + std::to_string(w), "v"),
              std::optional<double>{static_cast<double>(w) * 20.0});
  }
  EXPECT_EQ(store.last_committed_wave(), std::nullopt);  // not durable: no stamp
  EXPECT_EQ(engine.waves_run(), 8u);
  // One ahead (the default): the computing wave plus one ingested wave.
  EXPECT_EQ(stats.pushed, 8u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.peak_depth, 2u);
}

TEST(PipelinedWaves, MatchesUnpipelinedExecutionExactly) {
  // Runs 6 waves serially (depth 0) or pipelined `depth` ahead; returns the
  // furthest any ingest had started ahead of a computing step's wave.
  const auto run = [](ds::DataStore& store, std::size_t depth) {
    std::mutex mutex;
    ds::Timestamp ingest_started = 0;
    std::size_t max_ahead = 0;
    WorkflowSpec spec = feed_reader_spec();
    StepSpec watch;
    watch.id = "watch";
    watch.fn = [&](StepContext& ctx) {
      std::lock_guard lock(mutex);
      max_ahead = std::max<std::size_t>(max_ahead, ingest_started - ctx.wave);
    };
    WorkflowEngine engine(WorkflowSpec("watched", {spec.steps()[0], spec.steps()[1], watch}),
                          store);
    SyncController sync;
    const WaveIngest ingest = [&](ds::Client& client, ds::Timestamp wave) {
      {
        std::lock_guard lock(mutex);
        ingest_started = wave;
      }
      client.put("in", "r", "v", 100.0 + static_cast<double>(wave));
    };
    if (depth > 0) {
      PressureStats stats;
      engine.run_waves_pipelined(1, 6, sync, ingest, PressureOptions::ahead(depth), &stats);
      EXPECT_LE(stats.peak_depth, depth + 1);
    } else {
      for (ds::Timestamp w = 1; w <= 6; ++w) {
        ds::Client client(store, w);
        ingest(client, w);
        engine.run_wave(w, sync);
      }
    }
    return max_ahead;
  };
  const auto fingerprint = [](const ds::DataStore& store) {
    std::string out;
    for (const auto& table : store.table_names()) {
      for (const ds::FlatEntry& e : store.snapshot_flat(ds::ContainerRef::whole_table(table))) {
        out += table + "/" + *e.row + "/" + *e.col + "=" + std::to_string(e.value) + ";";
      }
    }
    return out;
  };
  ds::DataStore serial(4);
  EXPECT_EQ(run(serial, 0), 0u);
  ds::DataStore depth1(4);
  EXPECT_LE(run(depth1, 1), 1u);
  ds::DataStore depth3(4);
  EXPECT_LE(run(depth3, 3), 3u);
  EXPECT_EQ(fingerprint(depth1), fingerprint(serial));
  EXPECT_EQ(fingerprint(depth3), fingerprint(serial));
}

TEST(PipelinedWaves, RejectsDepthsTheStoreCannotRetain) {
  ds::DataStore store(/*max_versions=*/2);
  WorkflowEngine engine(feed_reader_spec(), store);
  SyncController sync;
  const WaveIngest ingest = [](ds::Client&, ds::Timestamp) {};
  // An unbounded window cannot promise any wave its own version.
  EXPECT_THROW(engine.run_waves_pipelined(1, 2, sync, ingest, PressureOptions{}),
               smartflux::InvalidArgument);
  // Two waves ahead needs max_versions >= 3.
  EXPECT_THROW(engine.run_waves_pipelined(1, 2, sync, ingest, PressureOptions::ahead(2)),
               smartflux::InvalidArgument);
  EXPECT_EQ(engine.waves_run(), 0u);
  // One ahead (the default) fits.
  EXPECT_EQ(engine.run_waves_pipelined(1, 2, sync, ingest).size(), 2u);
}

TEST(PipelinedWaves, IngestFailureSurfacesBeforeItsWaveRuns) {
  ds::DataStore store(/*max_versions=*/2);
  WorkflowEngine engine(feed_reader_spec(), store);
  SyncController sync;
  const WaveIngest ingest = [](ds::Client& client, ds::Timestamp wave) {
    if (wave == 3) throw std::runtime_error("feed outage");
    client.put("in", "r", "v", static_cast<double>(wave));
  };
  EXPECT_THROW(engine.run_waves_pipelined(1, 6, sync, ingest), std::runtime_error);
  // Waves 1 and 2 completed; wave 3 never started.
  EXPECT_EQ(engine.waves_run(), 2u);
  EXPECT_EQ(engine.last_wave(), std::optional<ds::Timestamp>{2});
  EXPECT_EQ(store.get("out", "w3", "v"), std::nullopt);
}

}  // namespace
}  // namespace smartflux::wms
