#include "net/bridge.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "datastore/client.h"
#include "datastore/container_ref.h"
#include "datastore/datastore.h"
#include "datastore/flat_snapshot.h"
#include "obs/metrics.h"
#include "wms/backpressure.h"

namespace smartflux::net {

namespace {

/// Scoped dedupe key: table and client key, separated by a byte no HTTP
/// header value can carry. Doubles as the row key in the dedupe table.
std::string scoped_key(std::string_view table, std::string_view key) {
  std::string scoped;
  scoped.reserve(table.size() + 1 + key.size());
  scoped.append(table);
  scoped.push_back('\x1f');
  scoped.append(key);
  return scoped;
}

/// Column every dedupe-table stamp lands in (the value is meaningless; the
/// row's existence is the fact).
constexpr const char* kKeyColumn = "k";

}  // namespace

struct IngestBridge::BridgeObs {
  obs::Counter* rows = nullptr;
  obs::Counter* waves = nullptr;
  obs::Counter* refusals = nullptr;
  obs::Counter* duplicates = nullptr;
  obs::Gauge* staged = nullptr;

  explicit BridgeObs(obs::MetricsRegistry& reg) {
    rows = &reg.counter("sf_net_ingest_rows_total", {},
                        "cell records accepted through POST /ingest");
    waves = &reg.counter("sf_net_ingest_waves_total", {},
                         "waves the bridge drained into the store");
    refusals = &reg.counter("sf_net_ingest_refusals_total", {},
                            "ingest requests refused with 503 by admission control");
    duplicates = &reg.counter("sf_net_ingest_duplicates_total", {},
                              "keyed ingest retries re-acked without re-staging");
    staged = &reg.gauge("sf_net_ingest_staged_rows", {},
                        "rows staged but not yet drained by a wave");
  }
};

IngestBridge::IngestBridge() : IngestBridge(Options{}) {}

IngestBridge::~IngestBridge() = default;

IngestBridge::IngestBridge(Options options) : options_(options) {
  if (options_.metrics != nullptr) obs_ = std::make_unique<BridgeObs>(*options_.metrics);
}

std::optional<IngestRefusal> IngestBridge::admission() const {
  const int cap = std::max(options_.retry_after_max_seconds, options_.retry_after_seconds);
  if (options_.queue != nullptr) {
    if (options_.queue->closed()) {
      return IngestRefusal{"queue-closed", cap};
    }
    if (options_.queue->gated()) {
      // Dynamic backoff: scale with how far the queue depth sits above the
      // resume (low) watermark — barely gated advertises the floor, a full
      // queue the cap, so shed storms back clients off harder than blips.
      int seconds = cap;
      const wms::PressureOptions& pressure = options_.queue->options();
      if (pressure.enabled() && pressure.high_watermark > pressure.resume_depth()) {
        const double low = static_cast<double>(pressure.resume_depth());
        const double high = static_cast<double>(pressure.high_watermark);
        const double depth = static_cast<double>(options_.queue->depth());
        const double t = std::clamp((depth - low) / (high - low), 0.0, 1.0);
        seconds = options_.retry_after_seconds +
                  static_cast<int>(std::lround(t * (cap - options_.retry_after_seconds)));
      }
      return IngestRefusal{"backpressure", seconds};
    }
  }
  if (options_.max_staged_rows > 0 &&
      staged_rows_.load(std::memory_order_relaxed) >= options_.max_staged_rows) {
    return IngestRefusal{"staging-full", cap};
  }
  if (options_.max_staged_bytes > 0 &&
      staged_bytes_.load(std::memory_order_relaxed) >= options_.max_staged_bytes) {
    return IngestRefusal{"staging-full", cap};
  }
  return std::nullopt;
}

void IngestBridge::report_refusal() {
  refusals_total_.fetch_add(1, std::memory_order_relaxed);
  if (obs_) obs_->refusals->inc();
}

void IngestBridge::report_duplicate() {
  duplicates_total_.fetch_add(1, std::memory_order_relaxed);
  if (obs_) obs_->duplicates->inc();
}

std::size_t IngestBridge::commit(std::size_t count, std::size_t bytes) {
  rows_staged_total_.fetch_add(count, std::memory_order_relaxed);
  staged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  const std::size_t total = staged_rows_.fetch_add(count, std::memory_order_relaxed) + count;
  if (obs_) {
    obs_->rows->inc(count);
    obs_->staged->set(static_cast<double>(total));
  }
  return total;
}

bool IngestBridge::accept_key(Stripe& stripe, const std::string& table, std::string_view key,
                              bool durable) {
  std::string scoped = scoped_key(table, key);
  if (!stripe.keys.insert(scoped).second) return false;
  stripe.order.push_back(std::move(scoped));
  if (!durable) stripe.fresh.push_back(stripe.order.back());
  // FIFO eviction past the window. An evicted key is also unstamped from
  // the dedupe table at the next drain, so the durable set tracks the
  // in-memory window instead of growing without bound.
  while (stripe.order.size() > options_.dedupe_window) {
    std::string& oldest = stripe.order.front();
    stripe.keys.erase(oldest);
    if (!options_.dedupe_table.empty()) stripe.evicted.push_back(std::move(oldest));
    stripe.order.pop_front();
  }
  return true;
}

std::size_t IngestBridge::stage_spans(const std::string& table, std::string arena,
                                      std::vector<IngestSpan> spans) {
  const std::size_t count = spans.size();
  const std::size_t bytes = arena.size();
  Stripe& stripe = stripes_[stripe_of(table)];
  {
    std::lock_guard lock(stripe.mutex);
    TableStage& stage = stripe.staged[table];
    stage.batches.emplace_back(std::move(arena), std::move(spans));
    stage.rows += count;
    stage.bytes += bytes;
  }
  return commit(count, bytes);
}

IngestBridge::StageOutcome IngestBridge::stage_spans_keyed(const std::string& table,
                                                           std::string_view key,
                                                           std::string arena,
                                                           std::vector<IngestSpan> spans) {
  if (options_.dedupe_window == 0 || key.empty()) {
    return StageOutcome{stage_spans(table, std::move(arena), std::move(spans)), false};
  }
  const std::size_t count = spans.size();
  const std::size_t bytes = arena.size();
  Stripe& stripe = stripes_[stripe_of(table)];
  {
    std::lock_guard lock(stripe.mutex);
    if (!accept_key(stripe, table, key, /*durable=*/false)) {
      duplicates_total_.fetch_add(1, std::memory_order_relaxed);
      if (obs_) obs_->duplicates->inc();
      return StageOutcome{0, true};
    }
    TableStage& stage = stripe.staged[table];
    stage.batches.emplace_back(std::move(arena), std::move(spans));
    stage.rows += count;
    stage.bytes += bytes;
  }
  commit(count, bytes);
  return StageOutcome{count, false};
}

bool IngestBridge::is_duplicate(const std::string& table, std::string_view key) const {
  if (options_.dedupe_window == 0 || key.empty()) return false;
  const Stripe& stripe = stripes_[stripe_of(table)];
  const std::string scoped = scoped_key(table, key);
  std::lock_guard lock(stripe.mutex);
  return stripe.keys.count(scoped) != 0;
}

std::size_t IngestBridge::seed_dedupe(const ds::DataStore& store) {
  if (options_.dedupe_window == 0 || options_.dedupe_table.empty() ||
      !store.has_table(options_.dedupe_table)) {
    return 0;
  }
  const ds::FlatSnapshot snapshot =
      store.snapshot_flat(ds::ContainerRef::whole_table(options_.dedupe_table));
  std::size_t seeded = 0;
  for (const ds::FlatEntry& entry : snapshot) {
    const std::string& scoped = *entry.row;
    const std::size_t sep = scoped.find('\x1f');
    if (sep == std::string::npos) continue;  // not ours; ignore
    const std::string_view table(scoped.data(), sep);
    const std::string_view key(scoped.data() + sep + 1, scoped.size() - sep - 1);
    Stripe& stripe = stripes_[stripe_of(table)];
    std::lock_guard lock(stripe.mutex);
    // durable=true: already stamped, so not re-stamped at the next drain.
    if (accept_key(stripe, std::string(table), key, /*durable=*/true)) ++seeded;
  }
  return seeded;
}

wms::WaveIngest IngestBridge::make_ingest() {
  return [this](ds::Client& client, ds::Timestamp) {
    // Swap each stripe out under its own lock, then merge into one sorted
    // table map. A table lives in exactly one stripe, so the merge never
    // interleaves two partial stages of the same table, and the sorted map
    // keeps the per-wave put_batch order deterministic across stripe
    // hashing. The stripe's fresh/evicted key lists ride the same lock, so
    // the key snapshot is atomic with the row snapshot it covers.
    std::map<std::string, TableStage> merged;
    std::vector<std::string> fresh_keys;
    std::vector<std::string> evicted_keys;
    for (Stripe& stripe : stripes_) {
      std::map<std::string, TableStage> local;
      std::vector<std::string> fresh;
      std::vector<std::string> evicted;
      {
        std::lock_guard lock(stripe.mutex);
        local.swap(stripe.staged);
        fresh.swap(stripe.fresh);
        evicted.swap(stripe.evicted);
      }
      for (auto& [table, stage] : local) {
        merged[table] = std::move(stage);
      }
      std::move(fresh.begin(), fresh.end(), std::back_inserter(fresh_keys));
      std::move(evicted.begin(), evicted.end(), std::back_inserter(evicted_keys));
    }
    waves_ingested_total_.fetch_add(1, std::memory_order_relaxed);

    std::size_t drained = 0;
    std::size_t drained_bytes = 0;
    std::vector<ds::PutOp> ops;
    for (const auto& [table, stage] : merged) {
      ops.clear();
      ops.reserve(stage.rows);
      // Span batches resolve to views over their arenas — alive until
      // `merged` dies, which outlasts the put_batch call. No copies.
      for (const auto& [arena, spans] : stage.batches) {
        const char* base = arena.data();
        for (const IngestSpan& s : spans) {
          ops.push_back({std::string_view(base + s.row_off, s.row_len),
                         std::string_view(base + s.col_off, s.col_len), s.value});
        }
      }
      if (ops.empty()) continue;
      client.put_batch(table, ops);
      drained += ops.size();
      drained_bytes += stage.bytes;
    }
    // Key stamps go out strictly *after* the data and inside the same wave,
    // before commit_wave fsyncs the stamp. The orderings a crash can leave:
    // neither durable (retry re-stages, fine); data without keys (retry
    // re-stages, the re-drain lands at the same recovered wave timestamp
    // and same-ts put overwrites in place — still one version); both
    // durable (retry is re-acked as a duplicate). Keys-without-data cannot
    // happen, which is the invariant exactly-once rests on.
    if (!options_.dedupe_table.empty()) {
      if (!fresh_keys.empty()) {
        ops.clear();
        ops.reserve(fresh_keys.size());
        std::sort(fresh_keys.begin(), fresh_keys.end());
        for (const std::string& scoped : fresh_keys) ops.push_back({scoped, kKeyColumn, 1.0});
        client.put_batch(options_.dedupe_table, ops);
      }
      std::sort(evicted_keys.begin(), evicted_keys.end());
      for (const std::string& scoped : evicted_keys) {
        client.erase(options_.dedupe_table, scoped, kKeyColumn);
      }
    }
    if (drained > 0) {
      staged_rows_.fetch_sub(drained, std::memory_order_relaxed);
      staged_bytes_.fetch_sub(drained_bytes, std::memory_order_relaxed);
      rows_ingested_total_.fetch_add(drained, std::memory_order_relaxed);
    }
    if (obs_) {
      obs_->waves->inc();
      obs_->staged->set(static_cast<double>(staged_rows_.load(std::memory_order_relaxed)));
    }
  };
}

IngestBridge::Stats IngestBridge::stats() const {
  Stats s;
  s.rows_staged = rows_staged_total_.load(std::memory_order_relaxed);
  s.rows_ingested = rows_ingested_total_.load(std::memory_order_relaxed);
  s.waves_ingested = waves_ingested_total_.load(std::memory_order_relaxed);
  s.refusals = refusals_total_.load(std::memory_order_relaxed);
  s.duplicates = duplicates_total_.load(std::memory_order_relaxed);
  return s;
}

std::optional<std::vector<IngestSpan>> parse_ingest_spans(std::string_view body,
                                                          std::string* error) {
  std::vector<IngestSpan> spans;
  // ~2 lines per 32 bytes is a decent density guess; one reserve avoids the
  // doubling churn that dominates small-vector growth on big bodies.
  spans.reserve(body.size() / 24 + 1);
  const char* const base = body.data();
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string_view::npos) end = body.size();
    std::size_t line_end = end;
    if (line_end > start && body[line_end - 1] == '\r') --line_end;
    ++line_no;
    if (line_end > start) {
      const std::string_view line = body.substr(start, line_end - start);
      const std::size_t c1 = line.find(',');
      const std::size_t c2 = c1 == std::string_view::npos ? c1 : line.find(',', c1 + 1);
      if (c1 == std::string_view::npos || c2 == std::string_view::npos || c1 == 0 ||
          c2 == c1 + 1) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) + ": expected row,col,value";
        }
        return std::nullopt;
      }
      const std::string_view value_text = line.substr(c2 + 1);
      double value = 0.0;
      const auto [ptr, ec] =
          std::from_chars(value_text.data(), value_text.data() + value_text.size(), value);
      if (value_text.empty() || ec != std::errc() || ptr != value_text.data() + value_text.size()) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) + ": malformed value '" +
                   std::string(value_text) + "'";
        }
        return std::nullopt;
      }
      IngestSpan span;
      span.row_off = static_cast<std::uint32_t>(line.data() - base);
      span.row_len = static_cast<std::uint32_t>(c1);
      span.col_off = static_cast<std::uint32_t>(line.data() - base + c1 + 1);
      span.col_len = static_cast<std::uint32_t>(c2 - c1 - 1);
      span.value = value;
      spans.push_back(span);
    }
    if (end == body.size()) break;
    start = end + 1;
  }
  return spans;
}

}  // namespace smartflux::net
