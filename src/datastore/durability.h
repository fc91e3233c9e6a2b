#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "datastore/types.h"

namespace smartflux {
class FaultInjector;
}

namespace smartflux::obs {
class MetricsRegistry;
}

namespace smartflux::ds {

/// When the write-ahead log pushes appended records to stable storage
/// (fsync). Every policy *writes* each record to the OS promptly; the policy
/// only decides the sync cadence — i.e. which records a crash can lose.
enum class WalFlushPolicy : std::uint8_t {
  /// fsync after every record. A crash loses at most the record being
  /// written (a torn trailing record, truncated on recovery). Slowest.
  kEveryOp,
  /// fsync after every put_batch, structural record (create/drop/clear) and
  /// wave commit; single-cell puts/erases ride along with the next sync. The
  /// durability unit is the batch — the natural group-commit point of the
  /// per-wave write pattern.
  kEveryBatch,
  /// fsync only at wave commits. A crash loses at most the in-flight wave —
  /// exactly what the wave-boundary recovery rule re-runs anyway. Fastest;
  /// the intended policy for the continuous-workflow hot path.
  kEveryWave,
};

const char* wal_flush_policy_name(WalFlushPolicy policy) noexcept;

/// Configuration for DataStore::enable_durability / DataStore::recover.
///
/// Contract notes:
///  - Structural operations (drop_table, clear) must not race with writes to
///    the affected tables: the in-memory store tolerates the race (the write
///    to the dropped table is simply lost), but the log would replay the
///    write *after* the drop and resurrect the table.
///  - The WAL is a redo log: records are appended under the same table lock
///    as the in-memory apply, after the apply succeeded, so the log contains
///    exactly the mutations that took effect, in per-table apply order.
struct DurabilityOptions {
  WalFlushPolicy flush = WalFlushPolicy::kEveryBatch;
  /// Automatic checkpoint every N committed waves (0 = manual checkpoint()
  /// calls only). A checkpoint bounds recovery cost: it snapshots every
  /// table, rotates the WAL, and deletes the replaced segments.
  std::size_t checkpoint_every_waves = 0;
  /// Optional deterministic disk-fault injection layer (not owned). The WAL
  /// queries it per record append (tag "wal-s<k>" for shard k's family,
  /// seq = the record's lsn) and per fsync.
  FaultInjector* fault_injector = nullptr;
  /// Optional metrics registry (not owned): WAL record/byte/sync counters,
  /// fsync + checkpoint + recovery duration histograms under sf_ds_wal_* /
  /// sf_ds_checkpoint_* / sf_ds_recovery_*.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What DataStore::recover found on disk.
struct RecoveryInfo {
  /// A valid checkpoint was loaded as the base image.
  bool checkpoint_loaded = false;
  /// WAL records replayed on top of the base image.
  std::uint64_t records_replayed = 0;
  /// WAL segments the replayed records came from.
  std::size_t segments_replayed = 0;
  /// A partial trailing record was found and truncated (never an error:
  /// that is what a crash mid-append leaves behind).
  bool truncated_torn_tail = false;
  /// The newest wave whose commit record is durable — the data half of the
  /// wave-boundary consistency rule. A wave is recovered iff its data commit
  /// AND its journal record are both on disk, so resume at
  /// min(last_durable_wave, journal.last_wave).
  std::optional<Timestamp> last_durable_wave;
  /// Wall-clock seconds recovery took (also exported as the
  /// sf_ds_recovery_duration_seconds histogram when metrics are attached).
  double duration_seconds = 0.0;
};

}  // namespace smartflux::ds
