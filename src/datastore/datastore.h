#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "datastore/container_ref.h"
#include "datastore/durability.h"
#include "datastore/flat_snapshot.h"
#include "datastore/shard_ring.h"
#include "datastore/table.h"
#include "datastore/types.h"

namespace smartflux::obs {
class MetricsRegistry;
class Tracer;
}  // namespace smartflux::obs

namespace smartflux::ds {

/// Soft memory ceiling for the store. Crossing soft_limit_bytes at a wave
/// commit flips the pressure gauge and triggers relief: a checkpoint (on the
/// first pressured wave only — it rotates the WAL and bounds recovery debt)
/// followed by trimming superseded cell versions down to
/// trim_keep_versions. The ceiling is *soft*: the SoA tables keep their
/// version slots inline, so trimming shrinks the logical history (as-of
/// reads, checkpoints) rather than freeing bytes — the hard bound on
/// footprint is the caller's admission control (bounded key universe +
/// backpressured ingest), which the pressure gauge exists to drive.
struct MemoryOptions {
  /// Tracked-bytes ceiling; 0 disables the whole mechanism.
  std::size_t soft_limit_bytes = 0;
  /// Versions each cell keeps after a pressure trim. Must cover the deepest
  /// in-flight as-of read window (pipelined waves!).
  std::size_t trim_keep_versions = 1;
  /// Checkpoint when pressure is first entered (durable stores only).
  bool checkpoint_on_pressure = true;

  bool enabled() const noexcept { return soft_limit_bytes > 0; }
};

/// Ceiling bookkeeping, readable without a metrics registry.
struct MemoryStats {
  std::size_t tracked_bytes = 0;       ///< last sample (wave-commit cadence)
  std::size_t peak_tracked_bytes = 0;
  std::size_t pressure_events = 0;     ///< transitions into pressure
  std::size_t versions_trimmed = 0;
};

/// In-process, versioned, column-oriented key-value store standing in for
/// HBase. Tables are created lazily on first write. All public operations
/// are thread-safe. Concurrency model:
///
///  - Each table is partitioned into ShardOptions::shards lock domains by
///    consistent hashing of the row key (one domain total with the default
///    shards = 1): readers of a shard run concurrently with each other and
///    with writers to *other* shards; only a write to the same shard
///    excludes. With durability on, each shard also owns its own WAL segment
///    family, so concurrent writers to different shards never contend on one
///    log mutex and fsyncs amortize per shard.
///  - The table registry is an immutable map snapshot swapped under a
///    mutex on table creation/drop. Point ops validate a per-thread copy
///    against a generation counter with one atomic load, so they take the
///    registry mutex only after the registry changed.
///  - Lock order (asserted in debug builds, see common/lock_rank.h):
///    registry -> table shard slot -> WAL shard family -> durability meta;
///    same-rank locks in shard-index order.
class DataStore {
 public:
  explicit DataStore(std::size_t max_versions = 2, ShardOptions shard_options = {});
  ~DataStore();

  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  /// Attaches observability sinks (neither owned; pass nullptr to detach).
  /// Counts every get/put/erase/scan under sf_ds_ops_total{op=...}; latencies
  /// go to sf_ds_op_duration_seconds{op=...}, sampled 1-in-2^sample_shift for
  /// point ops (scans, being rare and heavy, are always timed and — when a
  /// tracer is attached — also recorded as "ds_scan:<table>" spans; batches
  /// are always timed whole under op="put_batch"). Not thread-safe against
  /// in-flight operations: attach before use.
  void set_instrumentation(obs::MetricsRegistry* registry, obs::Tracer* tracer = nullptr,
                           unsigned latency_sample_shift = 6);

  /// Writes a cell. Creates the table if needed.
  void put(const TableName& table, const RowKey& row, const ColumnKey& column, Timestamp ts,
           double value);

  /// Writes a batch of cells into one table under a single exclusive lock
  /// acquisition per shard. Equivalent to a put() loop cell for cell (same
  /// versioning, same final state and previous versions), but writers pay
  /// the lock and registry lookup once instead of per cell.
  void put_batch(const TableName& table, Timestamp ts, std::span<const PutOp> ops);

  /// Deletes a cell (all versions); erasing an absent cell is a no-op.
  void erase(const TableName& table, const RowKey& row, const ColumnKey& column, Timestamp ts);

  std::optional<double> get(const TableName& table, const RowKey& row,
                            const ColumnKey& column) const;
  std::optional<double> get_previous(const TableName& table, const RowKey& row,
                                     const ColumnKey& column) const;

  /// As-of-wave reads: the newest version with timestamp <= ts (and the one
  /// before it). The isolation primitive pipelined wave execution is built
  /// on — a client bound to wave w reads through these, so wave w+1's
  /// concurrently ingested versions are invisible to it. Identical to
  /// get/get_previous when nothing newer than ts has been written.
  std::optional<double> get_at(const TableName& table, const RowKey& row,
                               const ColumnKey& column, Timestamp ts) const;
  std::optional<double> get_previous_at(const TableName& table, const RowKey& row,
                                        const ColumnKey& column, Timestamp ts) const;

  /// Flat snapshot of a container: the latest value of every cell inside it,
  /// as contiguous entries in (row, column) order with interner-backed
  /// zero-copy key views. This is how every container is read — steps,
  /// monitoring and the HTTP scan path alike. The cells are copied out under
  /// the table's shared locks, which are released before the snapshot is
  /// returned, so callers may read and write the store, the same table
  /// included, while iterating. The snapshot stays valid after
  /// `drop_table`/`clear` (it keeps the source table alive). Cost per slot
  /// is O(log n + k) for k returned cells: each slot binary-searches its
  /// sorted index to the row prefix, and with several shards the per-slot
  /// runs are merged, not re-sorted. A column-only container still walks
  /// the (prefix-bounded) run and drops other columns.
  FlatSnapshot snapshot_flat(const ContainerRef& container) const;

  /// As-of-wave snapshot_flat: each cell's value as of `as_of`, leaving out
  /// cells that only exist after it (a pipelined wave's fresh ingest). Same
  /// entries, order and keyspace as snapshot_flat when nothing newer than
  /// `as_of` has been written.
  FlatSnapshot snapshot_flat(const ContainerRef& container, Timestamp as_of) const;

  /// Full retained version history of one cell, newest first (empty if the
  /// cell does not exist). The exact-state primitive the crash-matrix tests
  /// and checkpoints compare/serialize with.
  std::vector<CellVersion> cell_versions(const TableName& table, const RowKey& row,
                                         const ColumnKey& column) const;

  std::size_t cell_count(const TableName& table) const;
  bool has_table(const TableName& table) const;
  std::vector<TableName> table_names() const;
  void drop_table(const TableName& table);
  void clear();

  // --- Durability (WAL + checkpoints + crash-consistent recovery) ----------

  /// Turns on write-ahead logging into `dir` (created if missing). Every
  /// mutation from here on is appended as a checksummed record; the
  /// DurabilityOptions flush policy decides the fsync cadence. The store
  /// must still be empty and `dir` must not already hold WAL/checkpoint
  /// files — attach to an existing data dir with recover() instead. A
  /// `wal-*.sflog` file that is not a `wal-s<shard>-<seq>.sflog` segment
  /// (e.g. the pre-shard `wal-%06d.sflog` layout) throws Error naming it.
  void enable_durability(const std::string& dir, DurabilityOptions options = {});

  /// Crash-consistent recovery: loads the newest checkpoint in `dir` (if
  /// any), replays the WAL suffix — truncating a torn trailing record, a
  /// mid-log checksum error is a hard Error — and returns a store that
  /// continues durable logging into the same dir (a fresh segment). An
  /// empty/missing dir yields a fresh durable store. `info`, when non-null,
  /// receives what was found (incl. the last durable wave for the
  /// wave-boundary consistency rule).
  /// `shard_options` shapes the *recovered* store; the dir may have been
  /// written with any shard count (every row is re-routed through the new
  /// ring). Throws Error, naming the file, on a `wal-*.sflog` name that is
  /// not a `wal-s<shard>-<seq>.sflog` segment: the pre-shard layout is not
  /// recovered, and skipping it would yield an empty store.
  static std::unique_ptr<DataStore> recover(const std::string& dir,
                                            DurabilityOptions options = {},
                                            std::size_t max_versions = 2,
                                            RecoveryInfo* info = nullptr,
                                            ShardOptions shard_options = {});

  /// Stamps the wave boundary: appends a wave-commit record and fsyncs (the
  /// durability point of the kEveryWave policy, and the data half of the
  /// "wave recovered iff data + journal record on disk" rule). Triggers an
  /// automatic checkpoint every checkpoint_every_waves commits. No-op when
  /// durability is disabled. The workflow engine calls this after each
  /// completed wave, before appending the wave's journal record.
  void commit_wave(Timestamp wave);

  /// On-demand checkpoint: serializes every table (full version history) to
  /// a new checkpoint file, rotates the WAL to a fresh segment, and deletes
  /// the segments + older checkpoints the new one replaces, bounding
  /// recovery cost. Writers are blocked for the in-memory capture only (the
  /// file write happens outside all locks). Throws StateError when
  /// durability is disabled.
  void checkpoint();

  /// Flushes and fsyncs the WAL regardless of policy. No-op when disabled.
  void sync_wal();

  bool durable() const noexcept { return durability_ != nullptr; }
  /// Newest wave stamped via commit_wave (or found durable by recover()).
  std::optional<Timestamp> last_committed_wave() const;
  /// Data directory, empty when durability is disabled.
  std::string data_dir() const;

  // --- Soft memory ceiling --------------------------------------------------

  /// Installs (or disables, with a default-constructed value) the soft
  /// memory ceiling. Checked at every commit_wave — including on
  /// non-durable stores, where commit_wave is otherwise a no-op.
  void set_memory_options(MemoryOptions options);
  const MemoryOptions& memory_options() const noexcept { return memory_options_; }

  /// Rough tracked heap footprint across every table and shard (capacities
  /// of the SoA arrays + interned keys). Takes each slot's shared lock in
  /// turn, so the figure is a consistent-per-slot approximation.
  std::size_t approx_memory_bytes() const;

  /// True while the last ceiling check found tracked bytes above the limit.
  bool memory_pressure() const noexcept {
    return memory_pressure_.load(std::memory_order_relaxed);
  }

  /// Trims every cell of every table to at most `keep_versions` retained
  /// versions (see Table::trim_versions for the read-window caution).
  /// Returns the number of versions dropped.
  std::size_t trim_superseded(std::size_t keep_versions);

  MemoryStats memory_stats() const;

  std::size_t max_versions() const noexcept { return max_versions_; }
  std::size_t shards() const noexcept { return ring_.shards(); }
  /// Shard owning `row` — exposed for tests and benchmarks.
  std::size_t shard_of(const RowKey& row) const noexcept { return ring_.shard_of(row); }

 private:
  /// One lock domain of a table: with N shards each table is a vector of N
  /// slots, a row always living in slots[ring.shard_of(row)]. Slots are
  /// heap-separated so the shared_mutexes of adjacent shards never share a
  /// cache line.
  struct Slot {
    mutable std::shared_mutex mutex;
    Table table;
    explicit Slot(std::size_t max_versions) : table(max_versions) {}
  };
  struct TableEntry {
    std::vector<std::unique_ptr<Slot>> slots;
    TableEntry(std::size_t max_versions, std::size_t shards) {
      slots.reserve(shards);
      for (std::size_t i = 0; i < shards; ++i) {
        slots.push_back(std::make_unique<Slot>(max_versions));
      }
    }
  };
  using TableMap = std::map<TableName, std::shared_ptr<TableEntry>>;
  struct StoreObs;     ///< pre-resolved metric handles (datastore.cpp)
  struct Durability;   ///< WAL writer + checkpoint bookkeeping (datastore.cpp)

  /// Existing entry or nullptr. Lock-free on a warm per-thread cache; a
  /// registry-generation miss copies the map under registry_mutex_.
  std::shared_ptr<TableEntry> find_entry(const TableName& table) const;
  /// The current registry map, copied under registry_mutex_.
  std::shared_ptr<const TableMap> registry_snapshot() const;
  /// Existing entry, or creates one (copy-on-write registry swap), logging a
  /// create-table record (broadcast to every WAL family) when durable.
  std::shared_ptr<TableEntry> entry_for(const TableName& table);
  /// Applies `ops` (all routed to `shard`) to that shard's slot and logs the
  /// applied prefix — all of `ops` unless a put throws — as one batch record
  /// in the shard's WAL family, then rethrows any failure.
  void apply_shard_batch(const TableName& table, TableEntry& entry, std::size_t shard,
                         Timestamp ts, std::span<const PutOp> ops);
  /// The body of both snapshot_flat overloads. Locks every slot of the
  /// container's table shared in index order, seeks each slot to the
  /// container's row prefix through `scan(table, prefix, visit)`
  /// (Table::scan_cells or scan_cells_at), keeps the container's column,
  /// merges the per-slot sorted runs back into (row, column) order, and
  /// counts, times and traces the read as one scan. Templated on `scan` so
  /// the latest-version loop carries no as-of branch.
  template <typename Scan>
  FlatSnapshot gather(const ContainerRef& container, Scan scan) const;
  /// Installs an open WAL + bookkeeping (shared by enable_durability and
  /// recover). Wires the WAL metric handles when instrumentation is on.
  void attach_durability(std::unique_ptr<Durability> durability);
  /// Ceiling check + relief, run at the tail of every commit_wave outside
  /// all locks (checkpoint() and trim_superseded() take their own).
  void maybe_relieve_memory();
  /// Replays one WAL record into this (not-yet-durable) store.
  void replay_record(const struct WalRecord& record);

  std::size_t max_versions_;
  ShardRing ring_;
  std::unique_ptr<StoreObs> obs_;  ///< null unless set_instrumentation attached one
  /// Null unless durability is enabled. The per-family WAL mutexes inside
  /// serialize appends; they are always taken *after* a table/registry lock
  /// (see the lock-rank order above), so log order matches apply order per
  /// shard.
  std::unique_ptr<Durability> durability_;

  /// Guards `tables_`: table create/drop/clear swap it, and readers copy it
  /// only on a registry-generation miss (find_entry) or in the rare
  /// whole-store sweeps (registry_snapshot).
  mutable std::mutex registry_mutex_;
  std::shared_ptr<const TableMap> tables_ = std::make_shared<const TableMap>();
  /// Globally unique stamp of the current `tables_` snapshot (bumped under
  /// registry_mutex_ on every create/drop/clear). Point ops validate a
  /// per-thread registry cache against it with one lock-free load, so a
  /// warm thread takes no lock while the registry is unchanged (find_entry).
  std::atomic<std::uint64_t> registry_gen_;

  MemoryOptions memory_options_;
  std::atomic<bool> memory_pressure_{false};
  mutable std::mutex memory_mutex_;  ///< guards memory_stats_
  MemoryStats memory_stats_;
};

}  // namespace smartflux::ds
