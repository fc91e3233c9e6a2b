#pragma once

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "datastore/datastore.h"
#include "datastore/flat_snapshot.h"

namespace smartflux::test {

/// One snapshot entry as plain values: (row, column, value).
using Cell = std::tuple<std::string, std::string, double>;

/// Every entry of a flat snapshot, in snapshot order.
inline std::vector<Cell> cells(const ds::FlatSnapshot& snapshot) {
  std::vector<Cell> out;
  out.reserve(snapshot.size());
  for (const ds::FlatEntry& e : snapshot) out.emplace_back(*e.row, *e.col, e.value);
  return out;
}

/// A flat snapshot keyed by "row\x1f column": the shape the reference (map)
/// overload of core::compute_change takes.
inline std::map<std::string, double> keyed(const ds::FlatSnapshot& snapshot) {
  std::map<std::string, double> out;
  for (const ds::FlatEntry& e : snapshot) out.emplace(*e.row + '\x1f' + *e.col, e.value);
  return out;
}

/// Everything a reader can see of one table: the latest cells, the cells as
/// of each wave 1..last_wave, and the previous version of each latest cell.
/// Two stores that agree on this agree on every read of the table.
struct TableState {
  std::vector<Cell> latest;
  std::vector<std::vector<Cell>> as_of;
  std::vector<std::optional<double>> previous;
};

inline TableState table_state(const ds::DataStore& store, const std::string& table,
                              ds::Timestamp last_wave) {
  const auto whole = ds::ContainerRef::whole_table(table);
  TableState state;
  state.latest = cells(store.snapshot_flat(whole));
  for (ds::Timestamp wave = 1; wave <= last_wave; ++wave) {
    state.as_of.push_back(cells(store.snapshot_flat(whole, wave)));
  }
  for (const auto& [row, col, value] : state.latest) {
    state.previous.push_back(store.get_previous(table, row, col));
  }
  return state;
}

}  // namespace smartflux::test
