#include "datastore/table.h"

#include <algorithm>

#include "common/error.h"

namespace smartflux::ds {

namespace {
constexpr std::size_t kInitialIndexSlots = 64;  // power of two
}

Table::Table(std::size_t max_versions)
    : max_versions_(max_versions),
      idx_key_(kInitialIndexSlots, 0),
      idx_cell_(kInitialIndexSlots, kNoCell) {
  SF_CHECK(max_versions >= 1, "a table must retain at least one version per cell");
}

std::uint32_t Table::find_cell(std::uint32_t row_id, std::uint32_t col_id) const noexcept {
  const std::uint64_t key = pack(row_id, col_id);
  std::size_t i = mix64(key) & (idx_cell_.size() - 1);
  while (idx_cell_[i] != kNoCell) {
    if (idx_cell_[i] != kTombstone && idx_key_[i] == key) return idx_cell_[i];
    i = (i + 1) & (idx_cell_.size() - 1);
  }
  return kNoCell;
}

std::uint32_t Table::find_cell(std::string_view row, std::string_view column) const noexcept {
  const std::uint32_t r = rows_.find(row);
  if (r == KeyInterner::kNoId) return kNoCell;
  const std::uint32_t c = cols_.find(column);
  if (c == KeyInterner::kNoId) return kNoCell;
  return find_cell(r, c);
}

void Table::index_insert(std::uint64_t key, std::uint32_t cell) {
  std::size_t i = mix64(key) & (idx_cell_.size() - 1);
  while (idx_cell_[i] != kNoCell && idx_cell_[i] != kTombstone) {
    i = (i + 1) & (idx_cell_.size() - 1);
  }
  if (idx_cell_[i] == kNoCell) ++idx_used_;  // reusing a tombstone keeps idx_used_
  idx_key_[i] = key;
  idx_cell_[i] = cell;
  if ((idx_used_ + 1) * 10 > idx_cell_.size() * 7) grow_index();
}

void Table::grow_index() {
  const std::size_t n = idx_cell_.size() * 2;
  std::vector<std::uint64_t> keys(n, 0);
  std::vector<std::uint32_t> cells(n, kNoCell);
  std::size_t used = 0;
  // Rehashing from the cell arrays drops tombstones.
  for (std::uint32_t cell = 0; cell < cell_row_.size(); ++cell) {
    if (cell_nver_[cell] == 0) continue;
    const std::uint64_t key = pack(cell_row_[cell], cell_col_[cell]);
    std::size_t i = mix64(key) & (n - 1);
    while (cells[i] != kNoCell) i = (i + 1) & (n - 1);
    keys[i] = key;
    cells[i] = cell;
    ++used;
  }
  idx_key_ = std::move(keys);
  idx_cell_ = std::move(cells);
  idx_used_ = used;
}

std::optional<double> Table::put(std::string_view row, std::string_view column, Timestamp ts,
                                 double value) {
  const std::uint32_t r = rows_.intern(row);
  const std::uint32_t c = cols_.intern(column);
  const std::uint32_t existing = find_cell(r, c);
  if (existing != kNoCell) {
    const std::size_t base = static_cast<std::size_t>(existing) * max_versions_;
    const std::uint32_t n = cell_nver_[existing];
    const double previous = version_slots_[base].value;
    SF_CHECK(ts >= version_slots_[base].timestamp, "cell timestamps must be non-decreasing");
    if (version_slots_[base].timestamp == ts) {
      version_slots_[base].value = value;
      return previous;
    }
    // Shift newest-first within the inline slots; the oldest falls off.
    const std::uint32_t keep = std::min<std::uint32_t>(
        n, static_cast<std::uint32_t>(max_versions_) - 1);
    for (std::uint32_t i = keep; i > 0; --i) {
      version_slots_[base + i] = version_slots_[base + i - 1];
    }
    version_slots_[base] = CellVersion{ts, value};
    cell_nver_[existing] = std::min<std::uint32_t>(
        n + 1, static_cast<std::uint32_t>(max_versions_));
    return previous;
  }

  std::uint32_t cell;
  if (!free_cells_.empty()) {
    cell = free_cells_.back();
    free_cells_.pop_back();
  } else {
    cell = static_cast<std::uint32_t>(cell_row_.size());
    cell_row_.push_back(0);
    cell_col_.push_back(0);
    cell_nver_.push_back(0);
    version_slots_.resize(version_slots_.size() + max_versions_);
  }
  cell_row_[cell] = r;
  cell_col_[cell] = c;
  cell_nver_[cell] = 1;
  version_slots_[static_cast<std::size_t>(cell) * max_versions_] = CellVersion{ts, value};
  index_insert(pack(r, c), cell);

  if (row_live_.size() <= r) row_live_.resize(rows_.size(), 0);
  if (row_live_[r]++ == 0) ++live_rows_;
  ++live_cells_;
  sorted_valid_.store(false, std::memory_order_release);
  return std::nullopt;
}

std::optional<double> Table::erase(std::string_view row, std::string_view column) {
  const std::uint32_t r = rows_.find(row);
  if (r == KeyInterner::kNoId) return std::nullopt;
  const std::uint32_t c = cols_.find(column);
  if (c == KeyInterner::kNoId) return std::nullopt;

  const std::uint64_t key = pack(r, c);
  std::size_t i = mix64(key) & (idx_cell_.size() - 1);
  std::uint32_t cell = kNoCell;
  while (idx_cell_[i] != kNoCell) {
    if (idx_cell_[i] != kTombstone && idx_key_[i] == key) {
      cell = idx_cell_[i];
      idx_cell_[i] = kTombstone;
      break;
    }
    i = (i + 1) & (idx_cell_.size() - 1);
  }
  if (cell == kNoCell) return std::nullopt;

  const double removed = version_slots_[static_cast<std::size_t>(cell) * max_versions_].value;
  cell_nver_[cell] = 0;
  free_cells_.push_back(cell);
  --live_cells_;
  if (--row_live_[r] == 0) --live_rows_;
  sorted_valid_.store(false, std::memory_order_release);
  return removed;
}

std::optional<double> Table::get(std::string_view row, std::string_view column) const {
  const std::uint32_t cell = find_cell(row, column);
  if (cell == kNoCell) return std::nullopt;
  return version_slots_[static_cast<std::size_t>(cell) * max_versions_].value;
}

std::optional<double> Table::get_previous(std::string_view row, std::string_view column) const {
  const std::uint32_t cell = find_cell(row, column);
  if (cell == kNoCell || cell_nver_[cell] < 2) return std::nullopt;
  return version_slots_[static_cast<std::size_t>(cell) * max_versions_ + 1].value;
}

std::size_t Table::version_at(std::uint32_t cell, Timestamp ts) const noexcept {
  const std::size_t base = static_cast<std::size_t>(cell) * max_versions_;
  const std::uint32_t n = cell_nver_[cell];
  for (std::uint32_t i = 0; i < n; ++i) {
    if (version_slots_[base + i].timestamp <= ts) return i;
  }
  return max_versions_;
}

std::optional<double> Table::get_at(std::string_view row, std::string_view column,
                                    Timestamp ts) const {
  const std::uint32_t cell = find_cell(row, column);
  if (cell == kNoCell) return std::nullopt;
  const std::size_t at = version_at(cell, ts);
  if (at >= max_versions_) return std::nullopt;
  return version_slots_[static_cast<std::size_t>(cell) * max_versions_ + at].value;
}

std::optional<double> Table::get_previous_at(std::string_view row, std::string_view column,
                                             Timestamp ts) const {
  const std::uint32_t cell = find_cell(row, column);
  if (cell == kNoCell) return std::nullopt;
  const std::size_t at = version_at(cell, ts);
  if (at + 1 >= cell_nver_[cell]) return std::nullopt;
  return version_slots_[static_cast<std::size_t>(cell) * max_versions_ + at + 1].value;
}

std::vector<CellVersion> Table::versions(std::string_view row, std::string_view column) const {
  const std::uint32_t cell = find_cell(row, column);
  if (cell == kNoCell) return {};
  const std::size_t base = static_cast<std::size_t>(cell) * max_versions_;
  return {version_slots_.begin() + static_cast<std::ptrdiff_t>(base),
          version_slots_.begin() + static_cast<std::ptrdiff_t>(base + cell_nver_[cell])};
}

void Table::ensure_sorted() const {
  // Readers run under the store's shared table lock, so a writer cannot be
  // mutating concurrently — but several readers may race to rebuild. The
  // acquire load pairs with the release store below (and the mutex orders
  // the rebuild itself), so whoever loses the race still observes a fully
  // built vector. Writers invalidate under the exclusive table lock, which
  // orders their structural changes before any subsequent reader.
  if (sorted_valid_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(sorted_mutex_);
  if (sorted_valid_.load(std::memory_order_relaxed)) return;
  sorted_.clear();
  sorted_.reserve(live_cells_);
  for (std::uint32_t cell = 0; cell < cell_row_.size(); ++cell) {
    if (cell_nver_[cell] != 0) sorted_.push_back(cell);
  }
  std::sort(sorted_.begin(), sorted_.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (cell_row_[a] != cell_row_[b]) {
      const int cmp = rows_.key(cell_row_[a]).compare(rows_.key(cell_row_[b]));
      if (cmp != 0) return cmp < 0;
    }
    return cell_col_[a] != cell_col_[b] &&
           cols_.key(cell_col_[a]).compare(cols_.key(cell_col_[b])) < 0;
  });
  sorted_valid_.store(true, std::memory_order_release);
}

std::span<const std::uint32_t> Table::prefix_range(std::string_view prefix) const {
  ensure_sorted();
  const std::uint32_t* first = sorted_.data();
  const std::uint32_t* last = first + sorted_.size();
  if (prefix.empty()) return {first, last};
  const auto row = [this](std::uint32_t cell) -> std::string_view {
    return rows_.key(cell_row_[cell]);
  };
  first = std::partition_point(first, last,
                               [&](std::uint32_t cell) { return row(cell) < prefix; });
  last = std::partition_point(first, last,
                              [&](std::uint32_t cell) { return row(cell).starts_with(prefix); });
  return {first, last};
}

std::size_t Table::approx_bytes() const {
  const auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t total = vec_bytes(cell_row_) + vec_bytes(cell_col_) + vec_bytes(cell_nver_) +
                      vec_bytes(version_slots_) + vec_bytes(free_cells_) +
                      vec_bytes(idx_key_) + vec_bytes(idx_cell_) + vec_bytes(row_live_) +
                      rows_.approx_bytes() + cols_.approx_bytes();
  {
    // sorted_ is rebuilt lazily under sorted_mutex_ by concurrent readers;
    // its capacity must be read under the same mutex.
    std::lock_guard lock(sorted_mutex_);
    total += vec_bytes(sorted_);
  }
  return total;
}

std::size_t Table::trim_versions(std::size_t keep) noexcept {
  const auto keep32 = static_cast<std::uint32_t>(std::max<std::size_t>(1, keep));
  std::size_t dropped = 0;
  for (std::size_t cell = 0; cell < cell_nver_.size(); ++cell) {
    if (cell_nver_[cell] > keep32) {
      dropped += cell_nver_[cell] - keep32;
      cell_nver_[cell] = keep32;
    }
  }
  return dropped;
}

void Table::clear() noexcept {
  cell_row_.clear();
  cell_col_.clear();
  cell_nver_.clear();
  version_slots_.clear();
  free_cells_.clear();
  std::fill(idx_cell_.begin(), idx_cell_.end(), kNoCell);
  idx_used_ = 0;
  std::fill(row_live_.begin(), row_live_.end(), 0u);
  live_rows_ = 0;
  live_cells_ = 0;
  sorted_valid_.store(false, std::memory_order_release);
}

}  // namespace smartflux::ds
