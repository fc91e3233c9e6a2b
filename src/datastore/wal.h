#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fsync.h"
#include "datastore/durability.h"
#include "datastore/types.h"

namespace smartflux::obs {
class Counter;
class Histogram;
}  // namespace smartflux::obs

namespace smartflux::ds {

/// On-disk record framing (all integers little-endian):
///
///   [u32 payload_len][u32 crc32c(payload)][payload]
///   payload = [u8 kind][u64 lsn][kind-specific fields]
///
/// The lsn is a store-global log sequence number: every shard's WAL family
/// (one family at one shard) draws lsns from one shared counter, so recovery
/// merges the per-shard segments back into the single total order the
/// mutations were applied in. Records broadcast to every family
/// (create/drop/clear, wave commits) carry the SAME lsn in each copy, which
/// is how replay deduplicates them and how a wave commit's "present in all
/// shards" barrier is checked.
///
/// Strings are [u32 len][bytes]. A `put_batch` is ONE record holding every
/// cell of the batch, so it replays atomically: either the whole batch made
/// it to disk or none of it did. Recovery scans records in order; a partial
/// *final* record (crash mid-append) is truncated and tolerated, a checksum
/// mismatch anywhere *before* the end of the file is corruption and a hard
/// error.
enum class WalRecordKind : std::uint8_t {
  kPut = 1,
  kPutBatch = 2,
  kErase = 3,
  kCreateTable = 4,
  kDropTable = 5,
  kClear = 6,
  kWaveCommit = 7,
};

/// Sanity cap on one record's payload: anything larger is treated as
/// corruption, not an allocation request.
constexpr std::uint32_t kWalMaxPayloadBytes = 1u << 30;

/// One decoded WAL record (reader side). Only the fields relevant to `kind`
/// are meaningful.
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kPut;
  std::uint64_t lsn = 0;  ///< store-global log sequence number
  std::string table;
  std::string row;
  std::string column;
  Timestamp ts = 0;      ///< kPut / kPutBatch / kErase
  double value = 0.0;    ///< kPut
  Timestamp wave = 0;    ///< kWaveCommit
  struct BatchOp {
    std::string row;
    std::string column;
    double value = 0.0;
  };
  std::vector<BatchOp> batch;  ///< kPutBatch
};

/// WAL segment naming: "wal-s3-000042.sflog" = shard 3, segment 42. Every
/// store, unsharded included, writes one family per shard; segment numbers
/// start at 1 and only grow, and rotation happens at checkpoints.
std::string wal_segment_name(std::size_t shard, std::uint64_t seq);
struct WalSegmentId {
  std::size_t shard = 0;
  std::uint64_t seq = 0;
};
/// (shard, segment) of a segment name, or nullopt for any other name —
/// including the pre-shard "wal-000042.sflog" form, which no store reads.
std::optional<WalSegmentId> parse_wal_segment_name(std::string_view name);
/// "checkpoint-000042.sfck" <-> 42 (the highest segment the checkpoint
/// covers).
std::string checkpoint_file_name(std::uint64_t cut_seq);
std::optional<std::uint64_t> parse_checkpoint_file_name(std::string_view name);

/// Pre-resolved WAL metric handles (owned by the DataStore's Durability).
/// Each family carries its own copy: records/bytes/syncs point at the shared
/// store-wide series, shard_bytes (set only when shards > 1) at the family's
/// own sf_ds_wal_shard_bytes_total{shard=...} series.
struct WalObs {
  obs::Counter* records = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* syncs = nullptr;
  obs::Counter* shard_bytes = nullptr;  ///< per-shard bytes, shards > 1 only
  obs::Histogram* fsync_duration = nullptr;
};

/// Append side of the write-ahead log: one open segment file, records framed
/// as above, fsync cadence governed by WalFlushPolicy. Thread-compatible —
/// the owning DataStore serializes appends under its WAL mutex.
///
/// Fault injection: when a FaultInjector is attached, every append consults
/// the disk-fault schedule (tag = `fault_tag`, "wal-s<k>" for a store's
/// shard k; seq = the record's lsn) and every fsync consults the fsync
/// schedule (seq = this writer's zero-based fsync count). A fired fault
/// leaves the file exactly as a crash would (nothing, a torn prefix, or
/// everything but the last byte), marks the writer broken, and throws
/// InjectedFault; every later operation on a broken writer throws Error.
///
/// Lsn allocation: put/batch/erase records draw their lsn from `lsn_counter`
/// (the owning store's global counter) — the caller must hold the family
/// mutex across the append so per-family lsns are monotone. Records a store
/// broadcasts to every family (create/drop/clear, wave commits) pass one
/// pre-drawn lsn instead, so every family logs the same one.
class WalWriter {
 public:
  WalWriter(std::string path, WalFlushPolicy policy, FaultInjector* injector,
            std::atomic<std::uint64_t>& lsn_counter, std::string fault_tag);
  ~WalWriter();  ///< best-effort flush, no sync (durability points are explicit)

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  void append_put(std::string_view table, std::string_view row, std::string_view column,
                  Timestamp ts, double value);
  void append_batch(std::string_view table, Timestamp ts, std::span<const PutOp> ops);
  void append_erase(std::string_view table, std::string_view row, std::string_view column,
                    Timestamp ts);
  void append_create_table(std::string_view table, std::uint64_t lsn);
  void append_drop_table(std::string_view table, std::uint64_t lsn);
  void append_clear(std::uint64_t lsn);
  /// Phase 1 of a wave commit: writes the record and flushes it to the OS
  /// regardless of policy, without an fsync. The store appends it to every
  /// family first and then fsyncs each family via sync() (phase 2), so no
  /// shard's stamp hits stable storage before every shard has the record in
  /// its file.
  void append_wave_commit(Timestamp wave, std::uint64_t lsn);

  /// Pushes buffered bytes to the OS (no fsync).
  void flush();
  /// flush + fsync.
  void sync();

  const std::string& path() const noexcept { return path_; }
  std::uint64_t bytes_appended() const noexcept { return bytes_appended_; }
  std::uint64_t sync_count() const noexcept { return sync_seq_; }
  bool broken() const noexcept { return broken_; }

  void set_obs(const WalObs* obs) noexcept { obs_ = obs; }

 private:
  /// Frames `payload`, applies the fault schedule (keyed by `lsn`), writes,
  /// and applies the flush policy. `sync_class`: 0 = ride along, 1 = policy
  /// batch boundary, 2 = forced flush without sync (phase 1 of a wave
  /// commit).
  void append(std::string_view payload, int sync_class, std::uint64_t lsn);
  /// Lsn for the next put/batch/erase record, drawn from lsn_counter_.
  std::uint64_t next_lsn() noexcept;
  void check_usable() const;

  std::string path_;
  SyncFile file_;
  WalFlushPolicy policy_;
  FaultInjector* injector_;
  std::atomic<std::uint64_t>& lsn_counter_;
  std::string fault_tag_;
  std::string scratch_;        ///< payload encode buffer, reused
  std::string pending_;        ///< framed bytes not yet written to the OS
  std::uint64_t sync_seq_ = 0;
  std::uint64_t bytes_appended_ = 0;
  bool broken_ = false;
  const WalObs* obs_ = nullptr;
};

/// Sequential reader over one WAL segment (loads the file into memory —
/// segments are bounded by checkpoint rotation).
class WalReader {
 public:
  explicit WalReader(const std::string& path);

  enum class Next : std::uint8_t {
    kRecord,    ///< `out` holds the next record
    kEnd,       ///< clean end of log
    kTornTail,  ///< partial/corrupt final record: stop, truncate at clean_bytes()
  };

  /// Advances to the next record. Throws Error on mid-log corruption (a
  /// record that fails its checksum or length sanity with more bytes
  /// following it).
  Next next(WalRecord& out);

  /// Byte offset of the end of the last cleanly read record — the truncation
  /// point when the tail is torn.
  std::uint64_t clean_bytes() const noexcept { return clean_bytes_; }
  std::uint64_t file_bytes() const noexcept { return data_.size(); }
  std::uint64_t records_read() const noexcept { return records_read_; }

 private:
  std::string path_;
  std::string data_;
  std::uint64_t pos_ = 0;
  std::uint64_t clean_bytes_ = 0;
  std::uint64_t records_read_ = 0;
  bool done_ = false;
};

}  // namespace smartflux::ds
