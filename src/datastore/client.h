#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "datastore/datastore.h"

namespace smartflux::ds {

/// Adapted client library handed to processing steps (the paper's
/// "Application Libraries" integration option, §4): same get/put/delete shape
/// as the native store client, but every write lands in the shared DataStore
/// stamped with the wave, where SmartFlux monitoring reads it back as of that
/// wave (DataStore::snapshot_flat). A Client is bound to the timestamp (wave)
/// the step is executing in, so steps never manage timestamps themselves.
class Client {
 public:
  /// Hook invoked before every write reaches the store; throwing from it
  /// fails the write. The engine's fault-injection layer uses this to
  /// simulate datastore outages without touching the store itself.
  using WriteHook = std::function<void(const TableName&, const RowKey&, const ColumnKey&)>;

  Client(DataStore& store, Timestamp wave) noexcept : store_(&store), wave_(wave) {}
  Client(DataStore& store, Timestamp wave, WriteHook on_write)
      : store_(&store), wave_(wave), on_write_(std::move(on_write)) {}

  Timestamp wave() const noexcept { return wave_; }

  void put(const TableName& table, const RowKey& row, const ColumnKey& column, double value) {
    if (on_write_) on_write_(table, row, column);
    store_->put(table, row, column, wave_, value);
  }

  /// Batched put: all cells land under one table-lock acquisition per shard
  /// (DataStore::put_batch). The write hook
  /// runs per cell *before* anything is applied, in op order; if it throws
  /// at cell k, the preceding k cells are still applied (matching what a
  /// put() loop would have done) and the exception propagates.
  void put_batch(const TableName& table, std::span<const PutOp> ops) {
    if (on_write_) {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        try {
          on_write_(table, RowKey(ops[i].row), ColumnKey(ops[i].column));
        } catch (...) {
          store_->put_batch(table, wave_, ops.first(i));
          throw;
        }
      }
    }
    store_->put_batch(table, wave_, ops);
  }

  /// Bulk put of (row, value) pairs into one column, as a single batch.
  void put_column(const TableName& table, const ColumnKey& column,
                  std::span<const std::pair<RowKey, double>> cells) {
    std::vector<PutOp> ops;
    ops.reserve(cells.size());
    for (const auto& [row, value] : cells) ops.push_back(PutOp{row, column, value});
    put_batch(table, ops);
  }

  void erase(const TableName& table, const RowKey& row, const ColumnKey& column) {
    if (on_write_) on_write_(table, row, column);
    store_->erase(table, row, column, wave_);
  }

  /// Reads are as-of the client's wave: with pipelined wave execution, wave
  /// w+1's feed may already be ingesting while wave w's steps still compute,
  /// and a step bound to wave w must never observe it. For serial execution
  /// nothing newer than the bound wave exists, so this is exactly the plain
  /// latest-version read.
  std::optional<double> get(const TableName& table, const RowKey& row,
                            const ColumnKey& column) const {
    return store_->get_at(table, row, column, wave_);
  }

  /// Previous retained version (as of the bound wave) — the store piggybacks
  /// it on the same read (the paper's zero-overhead previous-state
  /// retrieval).
  std::optional<double> get_previous(const TableName& table, const RowKey& row,
                                     const ColumnKey& column) const {
    return store_->get_previous_at(table, row, column, wave_);
  }

  /// Flat snapshot of a container as of the bound wave, in (row, column)
  /// order. Taken before it is returned, so the step may write to the
  /// table it just read while iterating.
  FlatSnapshot snapshot(const ContainerRef& container) const {
    return store_->snapshot_flat(container, wave_);
  }

  DataStore& store() noexcept { return *store_; }
  const DataStore& store() const noexcept { return *store_; }

 private:
  DataStore* store_;
  Timestamp wave_;
  WriteHook on_write_;
};

}  // namespace smartflux::ds
