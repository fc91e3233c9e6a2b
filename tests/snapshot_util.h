#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

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

}  // namespace smartflux::test
