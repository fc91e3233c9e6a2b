#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/error.h"
#include "common/fault_injection.h"
#include "wms/engine.h"
#include "wms/journal.h"

namespace smartflux::wms {
namespace {

using smartflux::FaultInjector;
using smartflux::FaultRule;

WorkflowSpec make_spec() {
  StepSpec src;
  src.id = "src";
  src.fn = [](StepContext& ctx) {
    ctx.client.put("t", "src", "w", static_cast<double>(ctx.wave));
  };

  StepSpec flaky;
  flaky.id = "flaky";
  flaky.predecessors = {"src"};
  flaky.fn = [](StepContext& ctx) {
    ctx.client.put("t", "flaky", "w", static_cast<double>(ctx.wave) * 2.0);
  };

  StepSpec sink;
  sink.id = "sink";
  sink.predecessors = {"flaky"};
  sink.fn = [](StepContext& ctx) { ctx.client.put("t", "sink", "w", 1.0); };

  return WorkflowSpec("recover", {src, flaky, sink});
}

WorkflowEngine::Options engine_options(FaultInjector* injector) {
  return WorkflowEngine::Options{
      .retry = RetryPolicy::skip_failures(),
      .quarantine = QuarantineOptions{.failure_threshold = 2, .cooldown_waves = 2},
      .fault_injector = injector};
}

TEST(WaveJournal, RoundTripsThroughTextForm) {
  WaveJournal journal;
  journal.bind("recover", {"src", "flaky", "sink"});
  journal.append(WaveRecord{1, {StepStatus::kExecuted, StepStatus::kFailed,
                                StepStatus::kNotEligible}});
  journal.append(WaveRecord{3, {StepStatus::kExecuted, StepStatus::kQuarantined,
                                StepStatus::kSkipped}});

  std::istringstream in(journal.to_string());
  const WaveJournal loaded = WaveJournal::load(in);
  EXPECT_EQ(loaded.workflow_name(), "recover");
  EXPECT_EQ(loaded.step_ids(), journal.step_ids());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.records()[0], journal.records()[0]);
  EXPECT_EQ(loaded.records()[1], journal.records()[1]);
  EXPECT_EQ(loaded.last_wave(), std::optional<ds::Timestamp>{3});
  EXPECT_EQ(loaded.to_string(), journal.to_string());
}

TEST(WaveJournal, ValidatesAppends) {
  WaveJournal journal;
  EXPECT_THROW(journal.append(WaveRecord{1, {StepStatus::kExecuted}}), Error);  // unbound
  journal.bind("w", {"a", "b"});
  EXPECT_THROW(journal.append(WaveRecord{1, {StepStatus::kExecuted}}), Error);  // wrong arity
  journal.append(WaveRecord{2, {StepStatus::kExecuted, StepStatus::kExecuted}});
  EXPECT_THROW(journal.append(WaveRecord{2, {StepStatus::kExecuted, StepStatus::kExecuted}}),
               InvalidArgument);  // not increasing
  // Re-binding the same layout is a no-op; a different one throws.
  journal.bind("w", {"a", "b"});
  EXPECT_THROW(journal.bind("w", {"a", "c"}), InvalidArgument);
}

TEST(WaveJournal, SinkWritesEveryAppendThrough) {
  const std::string path = testing::TempDir() + "sf_journal_sink_test.log";
  WaveJournal journal;
  journal.bind("w", {"a"});
  journal.append(WaveRecord{1, {StepStatus::kExecuted}});
  journal.open_sink(path);  // seeds existing content
  journal.append(WaveRecord{2, {StepStatus::kFailed}});

  // No close_sink(): the append itself must have flushed (crash safety).
  const WaveJournal recovered = WaveJournal::load_file(path);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.records()[1].status[0], StepStatus::kFailed);
}

TEST(WaveJournal, LoadFileReportsWhyAFileCannotBeOpened) {
  const std::string missing = testing::TempDir() + "sf_journal_nonexistent.log";
  std::filesystem::remove(missing);
  try {
    WaveJournal::load_file(missing);
    FAIL() << "expected Error for a missing journal file";
  } catch (const Error& e) {
    // The message must name the path and carry the OS-level reason.
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("cannot open journal file"), std::string::npos)
        << e.what();
  }

  const std::string dir = testing::TempDir() + "sf_journal_is_a_dir";
  std::filesystem::create_directories(dir);
  try {
    WaveJournal::load_file(dir);
    FAIL() << "expected Error for a directory path";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("is a directory"), std::string::npos) << e.what();
  }
}

TEST(WaveJournal, SyncOnAppendIsOffByDefaultAndSticky) {
  const std::string path = testing::TempDir() + "sf_journal_sync_test.log";
  WaveJournal journal;
  journal.bind("w", {"a"});
  EXPECT_FALSE(journal.sync_on_append());
  journal.open_sink(path, /*sync_on_append=*/true);
  EXPECT_TRUE(journal.sync_on_append());
  // Every append is durable the moment it returns: the file alone recovers
  // the record even though the sink is never closed.
  journal.append(WaveRecord{1, {StepStatus::kExecuted}});
  const WaveJournal recovered = WaveJournal::load_file(path);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.last_wave(), std::optional<ds::Timestamp>{1});
  journal.close_sink();
  EXPECT_FALSE(journal.sync_on_append());
}

TEST(WaveJournal, TruncatedToDropsRecordsPastTheDataBoundary) {
  WaveJournal journal;
  journal.bind("w", {"a"});
  journal.append(WaveRecord{1, {StepStatus::kExecuted}});
  journal.append(WaveRecord{3, {StepStatus::kSkipped}});
  journal.append(WaveRecord{5, {StepStatus::kExecuted}});

  // The wave-boundary rule cut: keep only waves whose data survived.
  const WaveJournal cut = journal.truncated_to(3);
  EXPECT_EQ(cut.workflow_name(), "w");
  EXPECT_EQ(cut.step_ids(), journal.step_ids());
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut.last_wave(), std::optional<ds::Timestamp>{3});

  // Boundaries between / past / before the journal's waves.
  EXPECT_EQ(journal.truncated_to(4).size(), 2u);
  EXPECT_EQ(journal.truncated_to(99).size(), 3u);
  EXPECT_EQ(journal.truncated_to(0).size(), 0u);
  EXPECT_TRUE(journal.truncated_to(0).bound());  // still usable for restore
}

/// Runs the canonical faulty scenario (flaky fails waves 2-3, quarantines,
/// recovers via probe) up to `waves` waves on a fresh engine + store.
struct Scenario {
  FaultInjector injector{11};
  ds::DataStore store;
  WorkflowEngine engine;
  SyncController sync;
  WaveJournal journal;

  Scenario()
      : injector(11),
        engine(
            [this] {
              injector.add_rule(FaultRule{.step_id = "flaky", .first_wave = 2, .last_wave = 3});
              return make_spec();
            }(),
            store, engine_options(&injector)) {
    engine.attach_journal(&journal);
  }
};

TEST(CrashRecovery, RestoredEngineMatchesTheCrashedOneAndResumes) {
  const std::string path = testing::TempDir() + "sf_journal_crash_test.log";

  // Uninterrupted reference run: 10 waves.
  Scenario ref;
  ref.engine.run_waves(1, 10, ref.sync);
  const std::string reference = ref.journal.to_string();

  // Crashing run: journal to disk, die after wave 5 (mid-quarantine: the
  // half-open probe would happen at wave 6).
  {
    Scenario crashing;
    crashing.journal.open_sink(path);
    crashing.engine.run_waves(1, 5, crashing.sync);
    EXPECT_TRUE(crashing.engine.is_quarantined(1));
    // The process "crashes" here: no close, no save — the sink already holds
    // every completed wave.
  }

  // Recovery: reconstruct journal + engine state from the file alone.
  WaveJournal recovered = WaveJournal::load_file(path);
  ASSERT_EQ(recovered.size(), 5u);
  EXPECT_EQ(recovered.last_wave(), std::optional<ds::Timestamp>{5});

  Scenario resumed;
  resumed.engine.restore_from_journal(recovered);

  // The restored engine carries the crashed engine's bookkeeping:
  EXPECT_EQ(resumed.engine.waves_run(), 5u);
  EXPECT_EQ(resumed.engine.last_wave(), std::optional<ds::Timestamp>{5});
  EXPECT_EQ(resumed.engine.execution_count(0), 5u);   // src ran every wave
  EXPECT_EQ(resumed.engine.execution_count(1), 1u);   // flaky: wave 1 only
  EXPECT_EQ(resumed.engine.failure_count(1), 2u);     // waves 2 and 3
  EXPECT_TRUE(resumed.engine.is_quarantined(1));      // mid-cool-down
  EXPECT_EQ(resumed.engine.quarantine_count(1), 1u);
  EXPECT_EQ(resumed.engine.last_executed_wave(1), std::optional<ds::Timestamp>{1});

  // Resuming after the journal's last wave continues the exact timeline the
  // uninterrupted run produced (probe at the same wave, same statuses).
  resumed.engine.attach_journal(&resumed.journal);
  for (const WaveRecord& record : recovered.records()) resumed.journal.append(record);
  resumed.engine.run_waves(6, 5, resumed.sync);
  EXPECT_EQ(resumed.journal.to_string(), reference);

  // Re-running a journaled wave number is rejected.
  EXPECT_THROW(resumed.engine.run_wave(5, resumed.sync), InvalidArgument);
}

TEST(CrashRecovery, RestoreValidatesEngineAndJournal) {
  WaveJournal journal;
  journal.bind("recover", {"src", "flaky", "sink"});
  journal.append(WaveRecord{1, {StepStatus::kExecuted, StepStatus::kExecuted,
                                StepStatus::kExecuted}});

  // A used engine refuses to restore.
  {
    ds::DataStore store;
    WorkflowEngine engine(make_spec(), store);
    SyncController sync;
    engine.run_wave(1, sync);
    EXPECT_THROW(engine.restore_from_journal(journal), StateError);
  }
  // A mismatched journal is rejected.
  {
    WaveJournal other;
    other.bind("other", {"a", "b"});
    other.append(WaveRecord{1, {StepStatus::kExecuted, StepStatus::kExecuted}});
    ds::DataStore store;
    WorkflowEngine engine(make_spec(), store);
    EXPECT_THROW(engine.restore_from_journal(other), InvalidArgument);
  }
}

TEST(CrashRecovery, NextWaveContinuesAfterRestore) {
  WaveJournal journal;
  journal.bind("recover", {"src", "flaky", "sink"});
  for (ds::Timestamp wave = 1; wave <= 5; ++wave) {
    journal.append(WaveRecord{wave, {StepStatus::kExecuted, StepStatus::kExecuted,
                                     StepStatus::kExecuted}});
  }

  ds::DataStore store;
  WorkflowEngine engine(make_spec(), store);
  engine.restore_from_journal(journal);
  SyncController sync;

  // The restored history tells a caller where to resume: the next wave runs
  // right after the journal's last one.
  ASSERT_EQ(engine.last_wave(), std::optional<ds::Timestamp>{5});
  const WaveResult result = engine.run_wave(*engine.last_wave() + 1, sync);
  EXPECT_EQ(result.wave, 6u);
  EXPECT_EQ(result.executed_count(), 3u);
  EXPECT_EQ(engine.last_wave(), std::optional<ds::Timestamp>{6});
}

/// Defers every tolerant step it is asked about.
class SkipAllController final : public TriggerController {
 public:
  bool should_execute(const WorkflowSpec&, std::size_t, ds::Timestamp) override { return false; }
};

TEST(CrashRecovery, AllSkippedWaveRestoresAsCompleted) {
  StepSpec copy;
  copy.id = "copy";
  copy.max_error = 1.0;  // tolerant, so a controller may defer it
  copy.fn = [](StepContext& ctx) {
    ctx.client.put("t", "copy", "w", static_cast<double>(ctx.wave));
  };
  const WorkflowSpec spec("skippable", {copy});

  ds::DataStore store;
  WorkflowEngine engine(spec, store);
  WaveJournal journal;
  engine.attach_journal(&journal);
  SyncController sync;
  SkipAllController skip_all;
  engine.run_wave(1, sync);
  const WaveResult skipped = engine.run_wave(2, skip_all);
  EXPECT_EQ(skipped.executed_count(), 0u);
  engine.run_wave(3, sync);
  ASSERT_EQ(journal.size(), 3u);
  for (const StepStatus status : journal.records()[1].status) {
    EXPECT_EQ(status, StepStatus::kSkipped);
  }

  // A fresh engine restored from the journal counts the all-skipped wave as
  // completed and resumes past it.
  ds::DataStore store2;
  WorkflowEngine restored(spec, store2);
  restored.restore_from_journal(journal);
  EXPECT_EQ(restored.waves_run(), 3u);
  EXPECT_EQ(restored.last_wave(), std::optional<ds::Timestamp>{3});
  EXPECT_EQ(restored.execution_count(0), 2u);
  EXPECT_EQ(restored.last_executed_wave(0), std::optional<ds::Timestamp>{3});
  EXPECT_THROW(restored.run_wave(3, sync), InvalidArgument);
  EXPECT_TRUE(restored.run_wave(4, sync).executed[0]);
}

}  // namespace
}  // namespace smartflux::wms
