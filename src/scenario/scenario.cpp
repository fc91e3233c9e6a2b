#include "scenario/scenario.h"

#include <algorithm>
#include <utility>

#include "common/hashing.h"
#include "datastore/container_ref.h"

namespace smartflux::scenario {

namespace {

// Distinct draw streams so the mutators' hashes never collide for the same
// (wave, cell) coordinate.
constexpr std::uint64_t kDropStream = 0xd309;
constexpr std::uint64_t kLateStream = 0x1a7e;
constexpr std::uint64_t kHotStream = 0x407c;

/// Stable identity of a cell across runs: table, row and column folded into
/// one 64-bit coordinate for the stateless draws.
std::uint64_t cell_id(const CellWrite& cell) noexcept {
  std::uint64_t h = hash64_bytes(cell.table);
  h = mix64(h ^ hash64_bytes(cell.row));
  return mix64(h ^ hash64_bytes(cell.column));
}

}  // namespace

wms::WaveIngest ScenarioEngine::wrap(wms::WaveIngest inner) {
  return [this, inner = std::move(inner)](ds::Client& out, ds::Timestamp wave) {
    std::vector<CellWrite> cells;
    ds::Client capture(scratch_, wave);
    inner(capture, wave);
    for (const ds::TableName& table : scratch_.table_names()) {
      for (const ds::FlatEntry& e : scratch_.snapshot_flat(ds::ContainerRef::whole_table(table))) {
        cells.push_back(CellWrite{table, *e.row, *e.col, e.value});
      }
    }
    scratch_.clear();
    mutate_and_emit(out, wave, std::move(cells));
  };
}

bool ScenarioEngine::burst_wave(ds::Timestamp wave) const noexcept {
  if (!options_.burst.enabled()) return false;
  return wave % options_.burst.period < options_.burst.length;
}

void ScenarioEngine::mutate_and_emit(ds::Client& out, ds::Timestamp wave,
                                     std::vector<CellWrite> cells) {
  stats_.cells_in += cells.size();

  // Late cells whose delivery wave has come are injected *ahead of* this
  // wave's fresh arrivals, so a fresh report for the same cell overwrites the
  // stale late one (batch order wins downstream). Replayed cells go through
  // the remaining mutators like any other cell — a late report can still be
  // dropped, hot-key skewed or flash-scaled — but never through the late
  // draw again (it already arrived; re-deferring would double-count
  // lateness and, at probability 1, starve delivery forever).
  std::vector<CellWrite> pending;
  if (auto it = deferred_.find(wave); it != deferred_.end()) {
    stats_.cells_replayed += it->second.size();
    pending = std::move(it->second);
    deferred_.erase(it);
  }
  const std::size_t replayed = pending.size();
  pending.reserve(replayed + cells.size());
  for (CellWrite& cell : cells) pending.push_back(std::move(cell));
  cells = std::move(pending);

  const std::uint64_t seed = options_.seed;
  std::vector<CellWrite> emit;
  emit.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellWrite& cell = cells[i];
    const bool is_replay = i < replayed;
    const std::uint64_t id = cell_id(cell);
    if (options_.drop.enabled() && wave >= options_.drop.first_wave &&
        wave <= options_.drop.last_wave &&
        hash_unit(seed, kDropStream, wave, id) < options_.drop.probability) {
      ++stats_.cells_dropped;
      continue;
    }
    if (!is_replay && options_.late.enabled() &&
        hash_unit(seed, kLateStream, wave, id) < options_.late.probability) {
      ++stats_.cells_deferred;
      const std::size_t delay = std::max<std::size_t>(1, options_.late.delay);
      deferred_[wave + delay].push_back(std::move(cell));
      continue;
    }
    for (const FlashEvent& flash : options_.flash) {
      if (flash.active(wave) && (flash.table.empty() || flash.table == cell.table)) {
        cell.value = cell.value * flash.scale + flash.offset;
        ++stats_.flash_cells;
      }
    }
    if (options_.hot_key.enabled() &&
        hash_unit(seed, kHotStream, wave, id) < options_.hot_key.fraction) {
      cell.row = "hot~" + std::to_string(hash64(seed, kHotStream + 1, wave, id) %
                                         options_.hot_key.hot_keys);
      ++stats_.hot_key_redirects;
    }
    emit.push_back(std::move(cell));
  }

  if (burst_wave(wave)) {
    // Clone the wave's surviving cells into the bounded "~b<i>" pool.
    const auto copies = static_cast<std::size_t>(options_.burst.factor) - 1;
    const std::size_t base = emit.size();
    for (std::size_t rep = 0; rep < copies; ++rep) {
      for (std::size_t i = 0; i < base; ++i) {
        CellWrite clone = emit[i];
        clone.row += "~b" + std::to_string(rep);
        emit.push_back(std::move(clone));
        ++stats_.burst_cells;
      }
    }
  }

  // Emit per table as single batches: one lock acquisition per table per
  // wave downstream, and redirected duplicates (hot keys) overwrite in
  // batch order exactly like a put() loop would.
  std::map<ds::TableName, std::vector<ds::PutOp>> batches;
  for (const CellWrite& cell : emit) {
    batches[cell.table].push_back(ds::PutOp{cell.row, cell.column, cell.value});
  }
  for (const auto& [table, ops] : batches) {
    out.put_batch(table, ops);
  }
  stats_.cells_emitted += emit.size();
}

namespace {

ScenarioOptions derive_scenario(const CampaignOptions& options) {
  ScenarioOptions scenario = options.scenario;
  scenario.seed = hash64(options.seed, 1);
  return scenario;
}

NetChaosOptions derive_net_chaos(const CampaignOptions& options) {
  NetChaosOptions net = options.net_chaos;
  net.seed = hash64(options.seed, 3);
  return net;
}

}  // namespace

Campaign::Campaign(CampaignOptions options)
    : scenario_(derive_scenario(options)),
      faults_(hash64(options.seed, 2)),
      net_chaos_(derive_net_chaos(options)) {
  for (FaultRule& rule : options.step_faults) faults_.add_rule(std::move(rule));
  for (DiskFaultRule& rule : options.disk_faults) faults_.add_disk_rule(std::move(rule));
}

}  // namespace smartflux::scenario
