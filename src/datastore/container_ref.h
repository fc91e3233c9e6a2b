#pragma once

#include <string>

#include "datastore/types.h"

namespace smartflux::ds {

/// Addresses a *data container*: the unit of data a processing step reads or
/// writes (§2 of the paper). A container is a table, optionally narrowed to a
/// single column and/or a row-key prefix — mirroring the paper's "table,
/// column, row, or group of any of these".
class ContainerRef {
 public:
  ContainerRef() = default;
  explicit ContainerRef(TableName table, ColumnKey column = {}, RowKey row_prefix = {})
      : table_(std::move(table)), column_(std::move(column)), row_prefix_(std::move(row_prefix)) {}

  static ContainerRef whole_table(TableName table) { return ContainerRef{std::move(table)}; }
  static ContainerRef column(TableName table, ColumnKey column) {
    return ContainerRef{std::move(table), std::move(column)};
  }

  const TableName& table() const noexcept { return table_; }
  const ColumnKey& column_key() const noexcept { return column_; }
  const RowKey& row_prefix() const noexcept { return row_prefix_; }
  bool has_column() const noexcept { return !column_.empty(); }
  bool has_row_prefix() const noexcept { return !row_prefix_.empty(); }

  /// Stable identifier used as map key ("table/column/prefix").
  std::string id() const { return table_ + "/" + column_ + "/" + row_prefix_; }

  friend bool operator==(const ContainerRef&, const ContainerRef&) = default;
  friend auto operator<=>(const ContainerRef&, const ContainerRef&) = default;

 private:
  TableName table_;
  ColumnKey column_;
  RowKey row_prefix_;
};

}  // namespace smartflux::ds
