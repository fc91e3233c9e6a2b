#pragma once

#include <map>
#include <string>

#include "datastore/client.h"

namespace smartflux::workloads {

/// A whole table as row -> (column -> value).
using TableRows = std::map<std::string, std::map<std::string, double>>;

/// Reads a whole table, as of the client's wave, into row -> (column -> value).
TableRows read_table(const ds::Client& client, const std::string& table);

/// The value of (row, col), or `fallback` when the table has no such cell.
double cell(const TableRows& table, const std::string& row, const std::string& col,
            double fallback = 0.0);

}  // namespace smartflux::workloads
