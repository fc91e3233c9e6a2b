#include "workloads/read_table.h"

namespace smartflux::workloads {

TableRows read_table(const ds::Client& client, const std::string& table) {
  TableRows out;
  // The snapshot is in (row, column) order, so every insert lands at the end.
  auto row = out.end();
  for (const ds::FlatEntry& e : client.snapshot(ds::ContainerRef::whole_table(table))) {
    if (row == out.end() || row->first != *e.row) {
      row = out.emplace_hint(out.end(), *e.row, TableRows::mapped_type{});
    }
    row->second.emplace_hint(row->second.end(), *e.col, e.value);
  }
  return out;
}

double cell(const TableRows& table, const std::string& row, const std::string& col,
            double fallback) {
  const auto it = table.find(row);
  if (it == table.end()) return fallback;
  const auto jt = it->second.find(col);
  return jt == it->second.end() ? fallback : jt->second;
}

}  // namespace smartflux::workloads
