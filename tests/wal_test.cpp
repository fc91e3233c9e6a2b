#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/hashing.h"
#include "datastore/checkpoint.h"
#include "datastore/wal.h"

namespace smartflux::ds {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::filesystem::remove(path);
  return path;
}

std::vector<WalRecord> read_all(const std::string& path, WalReader::Next* terminal = nullptr) {
  WalReader reader(path);
  std::vector<WalRecord> out;
  WalRecord record;
  for (;;) {
    const auto next = reader.next(record);
    if (next == WalReader::Next::kRecord) {
      out.push_back(record);
      continue;
    }
    if (terminal != nullptr) *terminal = next;
    return out;
  }
}

TEST(WalNames, SegmentAndCheckpointNamesRoundTrip) {
  const auto parsed =
      [](std::string_view name) -> std::optional<std::pair<std::size_t, std::uint64_t>> {
    const auto id = parse_wal_segment_name(name);
    if (!id) return std::nullopt;
    return std::make_pair(id->shard, id->seq);
  };
  EXPECT_EQ(wal_segment_name(0, 42), "wal-s0-000042.sflog");
  EXPECT_EQ(wal_segment_name(3, 42), "wal-s3-000042.sflog");
  EXPECT_EQ(parsed("wal-s0-000042.sflog"), std::make_pair(std::size_t{0}, std::uint64_t{42}));
  EXPECT_EQ(parsed(wal_segment_name(12, 1234567)),
            std::make_pair(std::size_t{12}, std::uint64_t{1234567}));
  // The pre-shard "wal-%06d.sflog" form is not a segment name any more.
  EXPECT_EQ(parsed("wal-000042.sflog"), std::nullopt);
  EXPECT_EQ(parsed("wal-xx.sflog"), std::nullopt);
  EXPECT_EQ(parsed("checkpoint-000001.sfck"), std::nullopt);
  EXPECT_EQ(parsed("wal-.sflog"), std::nullopt);
  EXPECT_EQ(parsed("wal-s-000001.sflog"), std::nullopt);
  EXPECT_EQ(parsed("wal-s1-.sflog"), std::nullopt);
  EXPECT_EQ(parsed("wal-sx-000001.sflog"), std::nullopt);

  EXPECT_EQ(checkpoint_file_name(7), "checkpoint-000007.sfck");
  EXPECT_EQ(parse_checkpoint_file_name("checkpoint-000007.sfck"),
            std::optional<std::uint64_t>{7});
  EXPECT_EQ(parse_checkpoint_file_name("wal-000007.sflog"), std::nullopt);
}

TEST(Wal, EveryRecordKindRoundTrips) {
  const std::string path = temp_path("sf_wal_roundtrip.sflog");
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, nullptr, lsn, "wal");
    writer.append_create_table("t", lsn++);
    writer.append_put("t", "r1", "c1", 5, 1.25);
    const std::vector<PutOp> ops = {{"r2", "c1", 2.0}, {"r3", "c2", -3.5}};
    writer.append_batch("t", 6, ops);
    writer.append_erase("t", "r1", "c1", 7);
    writer.append_drop_table("t", lsn++);
    writer.append_clear(lsn++);
    writer.append_wave_commit(9, lsn++);
    writer.sync();
    EXPECT_EQ(lsn.load(), 7u);
    EXPECT_FALSE(writer.broken());
  }

  WalReader::Next terminal{};
  const auto records = read_all(path, &terminal);
  EXPECT_EQ(terminal, WalReader::Next::kEnd);
  ASSERT_EQ(records.size(), 7u);
  // Seven records read back, carrying the lsns 0..6 in append order.
  for (std::size_t i = 0; i < records.size(); ++i) EXPECT_EQ(records[i].lsn, i);

  EXPECT_EQ(records[0].kind, WalRecordKind::kCreateTable);
  EXPECT_EQ(records[0].table, "t");

  EXPECT_EQ(records[1].kind, WalRecordKind::kPut);
  EXPECT_EQ(records[1].table, "t");
  EXPECT_EQ(records[1].row, "r1");
  EXPECT_EQ(records[1].column, "c1");
  EXPECT_EQ(records[1].ts, 5u);
  EXPECT_EQ(records[1].value, 1.25);

  EXPECT_EQ(records[2].kind, WalRecordKind::kPutBatch);
  EXPECT_EQ(records[2].ts, 6u);
  ASSERT_EQ(records[2].batch.size(), 2u);
  EXPECT_EQ(records[2].batch[0].row, "r2");
  EXPECT_EQ(records[2].batch[1].column, "c2");
  EXPECT_EQ(records[2].batch[1].value, -3.5);

  EXPECT_EQ(records[3].kind, WalRecordKind::kErase);
  EXPECT_EQ(records[3].row, "r1");
  EXPECT_EQ(records[3].ts, 7u);

  EXPECT_EQ(records[4].kind, WalRecordKind::kDropTable);
  EXPECT_EQ(records[5].kind, WalRecordKind::kClear);

  EXPECT_EQ(records[6].kind, WalRecordKind::kWaveCommit);
  EXPECT_EQ(records[6].wave, 9u);
}

TEST(Wal, EmptySegmentIsCleanEnd) {
  const std::string path = temp_path("sf_wal_empty.sflog");
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, nullptr, lsn, "wal");
  }
  WalReader::Next terminal{};
  EXPECT_TRUE(read_all(path, &terminal).empty());
  EXPECT_EQ(terminal, WalReader::Next::kEnd);
}

TEST(Wal, PartialTrailingRecordIsToleratedTruncation) {
  const std::string path = temp_path("sf_wal_torn.sflog");
  std::uint64_t clean_size = 0;
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, nullptr, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    writer.append_put("t", "r", "c", 2, 2.0);
    clean_size = writer.bytes_appended();
  }
  // A crash mid-append leaves a few bytes of the next record's frame.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("\x20\x00\x00\x00\xab", 5);
  }

  WalReader reader(path);
  WalRecord record;
  EXPECT_EQ(reader.next(record), WalReader::Next::kRecord);
  EXPECT_EQ(reader.next(record), WalReader::Next::kRecord);
  EXPECT_EQ(reader.next(record), WalReader::Next::kTornTail);
  EXPECT_EQ(reader.clean_bytes(), clean_size);
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(Wal, CorruptFinalRecordIsToleratedTruncation) {
  const std::string path = temp_path("sf_wal_badtail.sflog");
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, nullptr, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    writer.append_put("t", "r", "c", 2, 2.0);
  }
  // Flip a byte inside the last record's payload: full length, bad CRC.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(-1, std::ios::end);
    fs.put('\xff');
  }
  WalReader::Next terminal{};
  const auto records = read_all(path, &terminal);
  EXPECT_EQ(terminal, WalReader::Next::kTornTail);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].ts, 1u);
}

TEST(Wal, MidLogCorruptionIsHardError) {
  const std::string path = temp_path("sf_wal_midcorrupt.sflog");
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, nullptr, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    writer.append_put("t", "r", "c", 2, 2.0);
    writer.append_put("t", "r", "c", 3, 3.0);
  }
  // Corrupt the middle record's payload; bytes follow it, so this cannot be
  // a torn append and must be a hard error.
  {
    std::string data;
    {
      std::ifstream is(path, std::ios::binary);
      data.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
    }
    data[data.size() / 2] = static_cast<char>(~data[data.size() / 2]);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  WalReader reader(path);
  WalRecord record;
  EXPECT_EQ(reader.next(record), WalReader::Next::kRecord);
  EXPECT_THROW(
      {
        while (reader.next(record) == WalReader::Next::kRecord) {
        }
      },
      Error);
}

TEST(Wal, AbsurdRecordLengthIsHardError) {
  const std::string path = temp_path("sf_wal_badlen.sflog");
  {
    std::ofstream os(path, std::ios::binary);
    const std::uint32_t len = kWalMaxPayloadBytes + 1;
    os.write(reinterpret_cast<const char*>(&len), 4);
    os.write("\0\0\0\0garbage", 11);
  }
  WalReader reader(path);
  WalRecord record;
  EXPECT_THROW(reader.next(record), Error);
}

TEST(Wal, FlushPolicyGovernsSyncCadence) {
  const std::vector<PutOp> ops = {{"r", "c", 1.0}};
  // Phase 1 of a wave commit never fsyncs under any policy, but always hands
  // every byte to the OS; the commit's fsync is the explicit sync() after it.
  const auto flushed = [](const std::string& path, const WalWriter& writer) {
    return std::filesystem::file_size(path) == writer.bytes_appended();
  };

  {
    const std::string path = temp_path("sf_wal_policy_op.sflog");
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, nullptr, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    writer.append_put("t", "r", "c", 2, 2.0);
    writer.append_batch("t", 3, ops);
    EXPECT_EQ(writer.sync_count(), 3u);  // one per record
    writer.append_wave_commit(1, lsn++);
    EXPECT_EQ(writer.sync_count(), 3u);
    EXPECT_TRUE(flushed(path, writer));
    writer.sync();
    EXPECT_EQ(writer.sync_count(), 4u);
  }
  {
    const std::string path = temp_path("sf_wal_policy_batch.sflog");
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryBatch, nullptr, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    writer.append_put("t", "r", "c", 2, 2.0);
    EXPECT_EQ(writer.sync_count(), 0u);  // singles ride along
    writer.append_batch("t", 3, ops);
    EXPECT_EQ(writer.sync_count(), 1u);  // batch is the durability unit
    writer.append_create_table("u", lsn++);
    EXPECT_EQ(writer.sync_count(), 2u);  // structural records sync too
    writer.append_wave_commit(1, lsn++);
    EXPECT_EQ(writer.sync_count(), 2u);
    EXPECT_TRUE(flushed(path, writer));
    writer.sync();
    EXPECT_EQ(writer.sync_count(), 3u);
  }
  {
    const std::string path = temp_path("sf_wal_policy_wave.sflog");
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryWave, nullptr, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    writer.append_batch("t", 2, ops);
    writer.append_create_table("u", lsn++);
    EXPECT_EQ(writer.sync_count(), 0u);  // nothing syncs before the wave
    EXPECT_FALSE(flushed(path, writer));  // ... nor leaves the user-space buffer
    writer.append_wave_commit(1, lsn++);
    EXPECT_EQ(writer.sync_count(), 0u);
    EXPECT_TRUE(flushed(path, writer));
    writer.sync();
    EXPECT_EQ(writer.sync_count(), 1u);  // the wave commit's own fsync
  }
}

TEST(Wal, InjectedCrashWritesNothingForTheMatchedRecord) {
  const std::string path = temp_path("sf_wal_crash.sflog");
  FaultInjector injector(1);
  injector.add_disk_rule(
      DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal", .first_record = 2,
                    .last_record = 2});
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, &injector, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    writer.append_put("t", "r", "c", 2, 2.0);
    EXPECT_THROW(writer.append_put("t", "r", "c", 3, 3.0), InjectedFault);
    EXPECT_TRUE(writer.broken());
    // A broken writer refuses everything until recovery.
    EXPECT_THROW(writer.append_put("t", "r", "c", 4, 4.0), Error);
    EXPECT_THROW(writer.sync(), Error);
  }
  EXPECT_EQ(injector.injected_count(), 1u);

  WalReader::Next terminal{};
  const auto records = read_all(path, &terminal);
  EXPECT_EQ(terminal, WalReader::Next::kEnd);  // no partial bytes at all
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].ts, 2u);
}

TEST(Wal, InjectedTornWriteLeavesGenuinelyPartialRecord) {
  const std::string path = temp_path("sf_wal_ftorn.sflog");
  FaultInjector injector(2);
  injector.add_disk_rule(
      DiskFaultRule{.kind = DiskFaultKind::kTornWrite, .file_tag = "wal", .first_record = 1,
                    .last_record = 1});
  std::uint64_t clean = 0;
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, &injector, lsn, "wal");
    writer.append_put("t", "r", "c", 1, 1.0);
    clean = writer.bytes_appended();
    EXPECT_THROW(writer.append_put("t", "row-two", "col-two", 2, 2.0), InjectedFault);
  }
  const auto size = std::filesystem::file_size(path);
  EXPECT_GT(size, clean);  // some bytes of the torn record landed

  WalReader reader(path);
  WalRecord record;
  EXPECT_EQ(reader.next(record), WalReader::Next::kRecord);
  EXPECT_EQ(reader.next(record), WalReader::Next::kTornTail);
  EXPECT_EQ(reader.clean_bytes(), clean);
}

TEST(Wal, InjectedShortWriteDropsExactlyOneByte) {
  const std::string path = temp_path("sf_wal_short.sflog");
  FaultInjector injector(3);
  injector.add_disk_rule(
      DiskFaultRule{.kind = DiskFaultKind::kShortWrite, .file_tag = "wal"});
  {
    std::atomic<std::uint64_t> lsn{0};
    WalWriter writer(path, WalFlushPolicy::kEveryOp, &injector, lsn, "wal");
    EXPECT_THROW(writer.append_put("t", "r", "c", 1, 1.0), InjectedFault);
  }
  // Full frame minus one byte: length and CRC are present, payload is short.
  WalReader reader(path);
  WalRecord record;
  EXPECT_EQ(reader.next(record), WalReader::Next::kTornTail);
  EXPECT_EQ(reader.clean_bytes(), 0u);
}

TEST(Wal, InjectedFsyncFailureIsFatalForTheWriter) {
  const std::string path = temp_path("sf_wal_fsyncfail.sflog");
  FaultInjector injector(4);
  injector.add_disk_rule(
      DiskFaultRule{.kind = DiskFaultKind::kFsyncFail, .file_tag = "wal", .first_record = 1,
                    .last_record = 1});
  std::atomic<std::uint64_t> lsn{0};
  WalWriter writer(path, WalFlushPolicy::kEveryOp, &injector, lsn, "wal");
  writer.append_put("t", "r", "c", 1, 1.0);
  // fsyncgate: after a failed fsync the page-cache state is unknowable, so
  // the writer must not carry on as if retrying were safe.
  EXPECT_THROW(writer.append_put("t", "r", "c", 2, 2.0), InjectedFault);
  EXPECT_TRUE(writer.broken());
  EXPECT_THROW(writer.append_put("t", "r", "c", 3, 3.0), Error);
}

TEST(DiskFaultInjection, ScheduleIsDeterministicAcrossInstancesAndThreads) {
  const auto schedule = [](FaultInjector& injector) {
    std::vector<std::uint8_t> out;
    out.reserve(512);
    for (std::uint64_t seq = 0; seq < 512; ++seq) {
      out.push_back(static_cast<std::uint8_t>(injector.disk_write_fault("wal", seq)));
    }
    return out;
  };
  const auto arm = [](FaultInjector& injector) {
    injector.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kTornWrite,
                                         .file_tag = "wal",
                                         .probability = 0.25});
    injector.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kCrash,
                                         .file_tag = "wal",
                                         .probability = 0.05});
  };

  FaultInjector a(99);
  FaultInjector b(99);
  arm(a);
  arm(b);
  const auto reference = schedule(a);
  EXPECT_EQ(schedule(b), reference);

  // The draw is a stateless hash of (seed, rule, tag, seq): querying from
  // many threads, in any interleaving, sees the identical schedule.
  std::vector<std::vector<std::uint8_t>> per_thread(4);
  {
    std::vector<std::thread> threads;
    for (auto& slot : per_thread) {
      threads.emplace_back([&a, &slot, &schedule] { slot = schedule(a); });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& got : per_thread) EXPECT_EQ(got, reference);

  // Both fault kinds actually fire at these probabilities...
  const std::size_t torn = static_cast<std::size_t>(
      std::count(reference.begin(), reference.end(),
                 static_cast<std::uint8_t>(DiskWriteFault::kTornWrite)));
  EXPECT_GT(torn, 0u);
  EXPECT_LT(torn, 512u);
  // ...and a different seed yields a different schedule.
  FaultInjector other(100);
  other.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kTornWrite,
                                    .file_tag = "wal",
                                    .probability = 0.25});
  other.add_disk_rule(
      DiskFaultRule{.kind = DiskFaultKind::kCrash, .file_tag = "wal", .probability = 0.05});
  EXPECT_NE(schedule(other), reference);
}

TEST(DiskFaultInjection, RulesMatchOnTagAndSequenceRange) {
  FaultInjector injector(5);
  injector.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kCrash,
                                       .file_tag = "wal",
                                       .first_record = 10,
                                       .last_record = 12});
  EXPECT_EQ(injector.disk_write_fault("wal", 9), DiskWriteFault::kNone);
  EXPECT_EQ(injector.disk_write_fault("wal", 10), DiskWriteFault::kCrash);
  EXPECT_EQ(injector.disk_write_fault("wal", 12), DiskWriteFault::kCrash);
  EXPECT_EQ(injector.disk_write_fault("wal", 13), DiskWriteFault::kNone);
  EXPECT_EQ(injector.disk_write_fault("journal", 10), DiskWriteFault::kNone);
  EXPECT_FALSE(injector.disk_fsync_fault("wal", 10));  // write rule, not an fsync rule

  // An empty tag matches every sink.
  FaultInjector any_sink(6);
  any_sink.add_disk_rule(DiskFaultRule{.kind = DiskFaultKind::kFsyncFail, .file_tag = ""});
  EXPECT_TRUE(any_sink.disk_fsync_fault("wal", 0));
  EXPECT_TRUE(any_sink.disk_fsync_fault("journal", 3));
  EXPECT_EQ(any_sink.disk_write_fault("wal", 0), DiskWriteFault::kNone);
}

TEST(DiskFaultInjection, TornWriteBytesAreGenuinelyPartial) {
  FaultInjector injector(7);
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    for (const std::size_t total : {2u, 3u, 17u, 1024u}) {
      const std::size_t keep = injector.torn_write_bytes("wal", seq, total);
      EXPECT_GE(keep, 1u);
      EXPECT_LT(keep, total);
    }
    // Deterministic per (tag, seq).
    EXPECT_EQ(injector.torn_write_bytes("wal", seq, 100),
              injector.torn_write_bytes("wal", seq, 100));
  }
}

TEST(Checkpoint, ImageRoundTripsThroughFile) {
  const std::string path = temp_path("sf_ckpt_roundtrip.sfck");
  CheckpointImage image;
  image.max_versions = 3;
  image.wal_cut_segment = 5;
  image.last_committed_wave = 41;
  image.has_committed_wave = true;
  CheckpointTable table;
  table.name = "t";
  table.cells.push_back({"r1", "c1", {{7, 2.5}, {6, 2.0}}});
  table.cells.push_back({"r2", "c1", {{7, -1.0}}});
  image.tables.push_back(table);
  image.tables.push_back(CheckpointTable{"empty", {}});

  write_checkpoint_file(path, image);
  const auto loaded = load_checkpoint_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->max_versions, 3u);
  EXPECT_EQ(loaded->wal_cut_segment, 5u);
  EXPECT_EQ(loaded->last_committed_wave, 41u);
  EXPECT_TRUE(loaded->has_committed_wave);
  ASSERT_EQ(loaded->tables.size(), 2u);
  ASSERT_EQ(loaded->tables[0].cells.size(), 2u);
  EXPECT_EQ(loaded->tables[0].cells[0].versions,
            (std::vector<CellVersion>{{7, 2.5}, {6, 2.0}}));
  EXPECT_EQ(loaded->tables[1].name, "empty");
  // No stray temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Checkpoint, CorruptOrForeignFilesLoadAsNullopt) {
  const std::string path = temp_path("sf_ckpt_corrupt.sfck");
  EXPECT_EQ(load_checkpoint_file(path), std::nullopt);  // missing

  CheckpointImage image;
  image.tables.push_back(CheckpointTable{"t", {{"r", "c", {{1, 1.0}}}}});
  write_checkpoint_file(path, image);
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(-2, std::ios::end);
    fs.put('\xee');
  }
  EXPECT_EQ(load_checkpoint_file(path), std::nullopt);  // bad CRC

  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "not a checkpoint";
  }
  EXPECT_EQ(load_checkpoint_file(path), std::nullopt);  // bad magic
}

}  // namespace
}  // namespace smartflux::ds
