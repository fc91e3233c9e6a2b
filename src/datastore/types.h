#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace smartflux::ds {

/// Logical timestamp. In continuous workflow processing this is usually the
/// wave number, but any monotonically non-decreasing value works.
using Timestamp = std::uint64_t;

using RowKey = std::string;
/// Flattened "family:qualifier" column name, HBase-style.
using ColumnKey = std::string;
using TableName = std::string;

/// One timestamped version of a cell. The store keeps a bounded history of
/// these per cell (newest first), which is how SmartFlux reads the current
/// and previous state in a single request (§5.3 of the paper).
struct CellVersion {
  Timestamp timestamp = 0;
  double value = 0.0;

  friend bool operator==(const CellVersion&, const CellVersion&) = default;
};

/// One cell write inside a DataStore::put_batch. The key views are not
/// owned: they only need to stay valid for the duration of the
/// (synchronous) call, so callers can batch without copying keys.
struct PutOp {
  std::string_view row;
  std::string_view column;
  double value = 0.0;
};

}  // namespace smartflux::ds
