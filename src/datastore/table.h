#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "datastore/interner.h"
#include "datastore/types.h"

namespace smartflux::ds {

/// A sparse, multi-versioned column-oriented table: cells indexed by
/// (row, column, timestamp), modeled after BigTable/HBase. Cells keep up to
/// `max_versions` timestamped versions, newest first.
///
/// Representation (the hot-path layout): row and column keys are interned
/// into dense `uint32_t` ids per table; cells live in structure-of-arrays
/// storage addressed by an open-addressing hash index over the packed
/// (row_id, col_id) key, with the `max_versions` version slots of each cell
/// kept inline (no per-cell heap vector). Point ops are O(1) hash probes;
/// scans walk a lazily rebuilt flat array of live cells sorted by
/// (row, column) string order — the order the old tree-map scan produced.
///
/// Thread-compatible: the owning DataStore serializes writers exclusively
/// and allows concurrent readers (scan's lazy order-index rebuild is
/// internally synchronized so it is safe under concurrent readers).
class Table {
 public:
  explicit Table(std::size_t max_versions = 2);

  /// Zero-copy view of one live cell, as visited by `scan_cells`: `id`
  /// packs the interner ids ((row_id << 32) | col_id); `row`/`col` point
  /// into the interner storage (valid for the table's lifetime).
  struct CellView {
    std::uint64_t id = 0;
    const std::string* row = nullptr;
    const std::string* col = nullptr;
    double value = 0.0;
  };

  /// Writes a cell version. Timestamps must be non-decreasing per cell; an
  /// equal timestamp overwrites the newest version in place.
  /// Returns the previous latest value, if the cell existed.
  std::optional<double> put(std::string_view row, std::string_view column, Timestamp ts,
                            double value);

  /// Removes a cell entirely (all versions). Returns the removed latest value.
  std::optional<double> erase(std::string_view row, std::string_view column);

  /// Latest version of a cell, if present.
  std::optional<double> get(std::string_view row, std::string_view column) const;

  /// Version immediately preceding the latest, if retained.
  std::optional<double> get_previous(std::string_view row, std::string_view column) const;

  /// As-of read: the newest version with timestamp <= ts, if any is
  /// retained. With pipelined wave execution a client bound to wave w reads
  /// through these so it never sees wave w+1's concurrently ingested
  /// versions; for a serial store (no version newer than ts exists) they
  /// degrade to exactly get()/get_previous(). A version that has already
  /// fallen off the retention window is gone — pipelining depth d therefore
  /// requires max_versions >= d + 1.
  std::optional<double> get_at(std::string_view row, std::string_view column, Timestamp ts) const;
  /// Version immediately preceding the as-of version at ts, if retained.
  std::optional<double> get_previous_at(std::string_view row, std::string_view column,
                                        Timestamp ts) const;

  /// Full retained history, newest first.
  std::vector<CellVersion> versions(std::string_view row, std::string_view column) const;

  /// Visits every live cell whose row key starts with `row_prefix` (every
  /// cell for an empty prefix) in (row, column) string order, with
  /// zero-copy key views — the primitive scans and snapshots are built
  /// from. Seeks: O(log n + k) for k cells visited. Templated so the
  /// per-cell call inlines into the caller's loop.
  template <typename Visitor>
  void scan_cells(std::string_view row_prefix, Visitor&& visit) const {
    for (const std::uint32_t cell : prefix_range(row_prefix)) {
      visit(view_of(cell, static_cast<std::size_t>(cell) * max_versions_));
    }
  }

  /// As-of variant of scan_cells: visits every cell under `row_prefix` that
  /// has a version with timestamp <= ts, in the same (row, column) order,
  /// with the value as of ts. Cells created only after ts (a pipelined
  /// wave's fresh ingest) are skipped entirely.
  template <typename Visitor>
  void scan_cells_at(std::string_view row_prefix, Timestamp ts, Visitor&& visit) const {
    for (const std::uint32_t cell : prefix_range(row_prefix)) {
      const std::size_t at = version_at(cell, ts);
      if (at >= max_versions_) continue;
      visit(view_of(cell, static_cast<std::size_t>(cell) * max_versions_ + at));
    }
  }

  std::size_t row_count() const noexcept { return live_rows_; }
  std::size_t cell_count() const noexcept { return live_cells_; }
  std::size_t max_versions() const noexcept { return max_versions_; }
  bool empty() const noexcept { return live_cells_ == 0; }

  /// Removes every cell. Interned keys (and their ids) survive, so key
  /// views held by outstanding FlatSnapshots stay valid.
  void clear() noexcept;

  /// Rough heap footprint of the table (SoA arrays at capacity, index,
  /// interned keys). Capacities, not sizes: this is what the process
  /// actually holds, which is what a memory ceiling must track.
  std::size_t approx_bytes() const;

  /// Drops retained versions beyond `keep` per cell (the latest `keep`
  /// survive; keep is clamped to >= 1). Returns the number of versions
  /// dropped. The inline slot layout means no bytes are reclaimed — this
  /// trims the *logical* history so as-of reads and checkpoints shrink.
  /// Caution: a pipelined reader at wave w needs the version window that
  /// covers w, so keep must be >= the deepest in-flight read window.
  std::size_t trim_versions(std::size_t keep) noexcept;

 private:
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;    ///< empty index slot
  static constexpr std::uint32_t kTombstone = 0xFFFFFFFEu; ///< erased index slot

  static constexpr std::uint64_t pack(std::uint32_t row, std::uint32_t col) noexcept {
    return (static_cast<std::uint64_t>(row) << 32) | col;
  }

  /// Cell index for (row_id, col_id), or kNoCell.
  std::uint32_t find_cell(std::uint32_t row_id, std::uint32_t col_id) const noexcept;
  /// Slot offset (within the cell's inline versions) of the newest version
  /// with timestamp <= ts, or max_versions_ when none qualifies. Linear over
  /// the retained versions — max_versions is small by construction.
  std::size_t version_at(std::uint32_t cell, Timestamp ts) const noexcept;
  std::uint32_t find_cell(std::string_view row, std::string_view column) const noexcept;
  void index_insert(std::uint64_t key, std::uint32_t cell);
  void grow_index();
  /// (Re)builds `sorted_` if a structural change invalidated it. Safe under
  /// concurrent readers; see the .cpp for the synchronization argument.
  void ensure_sorted() const;
  /// The run of `sorted_` (rebuilt first if stale) whose rows start with
  /// `prefix`: two binary searches over row keys, so O(log n) string
  /// compares. Rows sharing a prefix are contiguous in byte order, which is
  /// std::string's order.
  std::span<const std::uint32_t> prefix_range(std::string_view prefix) const;
  CellView view_of(std::uint32_t cell, std::size_t slot) const noexcept {
    return CellView{pack(cell_row_[cell], cell_col_[cell]), rows_.key_ptr(cell_row_[cell]),
                    cols_.key_ptr(cell_col_[cell]), version_slots_[slot].value};
  }

  std::size_t max_versions_;

  KeyInterner rows_;
  KeyInterner cols_;

  // SoA cell storage: cell i's versions occupy
  // version_slots_[i * max_versions_ .. (i + 1) * max_versions_), newest
  // first, with cell_nver_[i] of them valid (0 = erased cell, reusable).
  std::vector<std::uint32_t> cell_row_;
  std::vector<std::uint32_t> cell_col_;
  std::vector<std::uint32_t> cell_nver_;
  std::vector<CellVersion> version_slots_;
  std::vector<std::uint32_t> free_cells_;

  // Open-addressing index: packed (row, col) key -> cell.
  std::vector<std::uint64_t> idx_key_;
  std::vector<std::uint32_t> idx_cell_;
  std::size_t idx_used_ = 0;  ///< occupied slots including tombstones

  std::vector<std::uint32_t> row_live_;  ///< live cells per row id
  std::size_t live_rows_ = 0;
  std::size_t live_cells_ = 0;

  // Live cells in (row, column) string order, rebuilt lazily on first scan
  // after a structural change (new/erased cell). Value updates do not
  // invalidate it.
  mutable std::vector<std::uint32_t> sorted_;
  mutable std::atomic<bool> sorted_valid_{false};
  mutable std::mutex sorted_mutex_;
};

}  // namespace smartflux::ds
