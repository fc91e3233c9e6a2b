#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace smartflux::ds {

/// One element of a FlatSnapshot. `id` packs the source table's dense
/// interner ids ((row_id << 32) | col_id) and is stable for the table's
/// lifetime; `row`/`col` point into the table's interner storage and stay
/// valid for as long as the owning snapshot (its keepalive handle) lives.
struct FlatEntry {
  std::uint64_t id = 0;
  const std::string* row = nullptr;
  const std::string* col = nullptr;
  double value = 0.0;
};

/// Allocation-light container snapshot: one contiguous vector of entries
/// sorted by (row, column) string order, the one shape in which containers
/// are read (DataStore::snapshot_flat, ds::Client::snapshot). Taking one
/// costs a single vector fill under the table's shared locks; no per-cell
/// string concatenation or tree insertion.
///
/// Element identity across snapshots: two snapshots with the same non-null
/// `keyspace()` (i.e. taken from the same table) may treat equal `id`s as
/// equal elements; across different tables/stores elements compare by their
/// key strings. `core::compute_change` exploits the id fast path.
class FlatSnapshot {
 public:
  FlatSnapshot() = default;
  FlatSnapshot(std::shared_ptr<const void> keepalive, const void* keyspace,
               std::vector<FlatEntry> entries)
      : keepalive_(std::move(keepalive)), keyspace_(keyspace), entries_(std::move(entries)) {}

  const std::vector<FlatEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Identity of the id space the entry ids were minted in (the source
  /// table), or nullptr for a default-constructed snapshot.
  const void* keyspace() const noexcept { return keyspace_; }

  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

 private:
  /// Keeps the source table (and with it the interned key strings the
  /// entries point into) alive even if the store drops the table.
  std::shared_ptr<const void> keepalive_;
  const void* keyspace_ = nullptr;
  std::vector<FlatEntry> entries_;
};

}  // namespace smartflux::ds
