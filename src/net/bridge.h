#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "wms/engine.h"

namespace smartflux::ds {
class DataStore;
}

namespace smartflux::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace smartflux::obs

namespace smartflux::wms {
class BoundedWaveQueue;
}

namespace smartflux::net {

/// One `row,col,value` ingest record, as offsets into an arena string (the
/// request body, moved — not copied — into the staged batch). Offsets rather than string_views: the arena is a std::string
/// that gets moved between buffers, and a small-string move relocates the
/// bytes, which would dangle any view taken earlier.
struct IngestSpan {
  std::uint32_t row_off = 0;
  std::uint32_t row_len = 0;
  std::uint32_t col_off = 0;
  std::uint32_t col_len = 0;
  double value = 0.0;
};

/// Why an ingest request was refused, and what to tell the client.
struct IngestRefusal {
  std::string reason;           ///< "queue-closed" | "backpressure" | "staging-full"
  int retry_after_seconds = 1;  ///< value of the Retry-After header
};

/// The bridge between the HTTP front-end and the wave engine: hundreds of
/// connections stage rows concurrently (stage_spans(), called on
/// the server's loop threads per request), and one pipelined engine drains
/// them wave by wave through the existing WaveIngest path (make_ingest()
/// feeds every staged table to Client::put_batch, one batch per table per
/// wave).
///
/// Staging is striped: tables hash onto kStripes independent lock domains,
/// so loop threads ingesting different tables never contend on one global
/// bridge mutex. A table maps to exactly one stripe, which preserves the
/// per-table append order the drain relies on; the drain merges stripes
/// into one sorted table map so put_batch order stays deterministic.
///
/// Admission control is evaluated per request *before* any row is staged:
///
///   - the wave queue the app paces waves with was closed, or is gated at
///     its high watermark (backpressure)      -> 503 "queue-closed"/"backpressure"
///   - staged-but-undrained rows exceed
///     Options::max_staged_rows, or their
///     bytes exceed Options::max_staged_bytes -> 503 "staging-full"
///
/// so overload surfaces to clients as 503 + Retry-After instead of rows
/// silently queueing toward an engine that cannot keep up. The Retry-After
/// value is dynamic: hard states (queue closed, staging full) advertise
/// retry_after_max_seconds, while backpressure scales from
/// retry_after_seconds toward the cap with queue depth above the low
/// watermark — a shed storm backs clients off harder than a blip.
///
/// Idempotent retries: the keyed staging calls remember up to
/// Options::dedupe_window idempotency keys per stripe, so a client that
/// retries a POST after a dropped response is re-acked without re-staging.
/// Each wave's accepted keys are written to Options::dedupe_table in the
/// *same* wave as their rows — after the data, before commit_wave — and
/// seed_dedupe() reloads them after crash recovery, so the at-least-once
/// client retry contract (replay anything unacknowledged) yields
/// exactly-once rows. See DESIGN.md §14.
class IngestBridge {
 public:
  struct Options {
    /// Staged-row ceiling across all tables; the local bound that holds
    /// even when no queue is wired. 0 = unbounded.
    std::size_t max_staged_rows = 1 << 20;
    /// Staged-byte ceiling (the whole arena of every staged request) — the
    /// row ceiling alone would let a few huge-value rows blow past the
    /// memory budget unrefused. 0 = unbounded.
    std::size_t max_staged_bytes = 256u << 20;
    /// Idempotency keys remembered per stripe (FIFO window). A keyed POST
    /// whose key is inside the window re-acks without re-staging; beyond
    /// the window old keys are forgotten (and unstamped from dedupe_table).
    /// 0 disables dedupe entirely.
    std::size_t dedupe_window = 1 << 16;
    /// Hidden table each wave's accepted keys are written to, inside the
    /// same wave as their rows, so crash+recover (plus seed_dedupe()) never
    /// re-admits a row already in the WAL. Empty = memory-only dedupe.
    std::string dedupe_table = "__sf_ingest_keys";
    /// Wave admission queue (not owned; optional): closed or gated refuses.
    const wms::BoundedWaveQueue* queue = nullptr;
    /// Retry-After floor: what a barely-gated backpressure refusal advertises.
    int retry_after_seconds = 1;
    /// Retry-After ceiling: hard refusals (queue closed, staging full) and
    /// fully-saturated backpressure advertise this.
    int retry_after_max_seconds = 8;
    /// Optional metrics (not owned): sf_net_ingest_* counters/gauges.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Counters, readable from any thread.
  struct Stats {
    std::uint64_t rows_staged = 0;
    std::uint64_t rows_ingested = 0;   ///< rows drained into put_batch
    std::uint64_t waves_ingested = 0;  ///< make_ingest() invocations
    std::uint64_t refusals = 0;        ///< admission() refusals reported
    std::uint64_t duplicates = 0;      ///< keyed retries re-acked, not re-staged
  };

  /// What a keyed staging call did.
  struct StageOutcome {
    std::size_t staged = 0;   ///< rows staged by this call (0 on a duplicate)
    bool duplicate = false;   ///< key was already inside the dedupe window
  };

  IngestBridge();
  explicit IngestBridge(Options options);
  ~IngestBridge();  // out of line: BridgeObs is incomplete here

  /// Admission check (thread-safe, lock-free on the staged-row count).
  /// nullopt = admit. Does not count a refusal; report_refusal() does, so
  /// the gateway counts exactly one refusal per refused request.
  std::optional<IngestRefusal> admission() const;
  void report_refusal();

  /// Stages rows for `table`; returns the total rows now staged. Thread-safe;
  /// the rows become visible to the next wave's ingest. Zero-copy: takes the
  /// request body itself as the backing arena (moved, one allocation-free
  /// handoff per request) plus the spans parse_ingest_spans() cut from it.
  /// The drain resolves spans to string_views over the arena and hands them
  /// straight to put_batch — the row/column text is never copied between
  /// socket buffer and store.
  std::size_t stage_spans(const std::string& table, std::string arena,
                          std::vector<IngestSpan> spans);

  /// Keyed (idempotent) variant: atomically checks `key` against the dedupe
  /// window and stages only when it is fresh. A duplicate returns
  /// {staged: 0, duplicate: true} — the gateway re-acks without re-staging.
  /// With dedupe disabled (window 0 or empty key) this degrades to
  /// stage_spans().
  StageOutcome stage_spans_keyed(const std::string& table, std::string_view key,
                                 std::string arena, std::vector<IngestSpan> spans);

  /// True when `key` for `table` sits inside the dedupe window. Lets the
  /// gateway re-ack a retried request *before* admission control — a retry
  /// of accepted work must not bounce off a 503. Pure query; the caller
  /// acting on a hit counts it via report_duplicate() (the staging calls
  /// count their own hits, so each re-acked request counts exactly once).
  bool is_duplicate(const std::string& table, std::string_view key) const;
  void report_duplicate();

  /// Reloads the durable key set from Options::dedupe_table after crash
  /// recovery, so retries of requests acked before the crash are still
  /// recognized. Returns the number of keys seeded. Call before serving.
  std::size_t seed_dedupe(const ds::DataStore& store);

  /// The WaveIngest callback for WorkflowEngine::run_waves_pipelined (and
  /// for manual per-wave draining): swaps out everything staged so far and
  /// writes it table by table through Client::put_batch. Rows staged while
  /// wave w ingests land in wave w+1 — the coalescing boundary.
  wms::WaveIngest make_ingest();

  std::size_t staged_rows() const noexcept {
    return staged_rows_.load(std::memory_order_relaxed);
  }
  std::size_t staged_bytes() const noexcept {
    return staged_bytes_.load(std::memory_order_relaxed);
  }
  Stats stats() const;

 private:
  /// Everything staged for one table: arena batches in arrival order.
  struct TableStage {
    std::vector<std::pair<std::string, std::vector<IngestSpan>>> batches;
    std::size_t rows = 0;
    std::size_t bytes = 0;
  };
  /// Lock domains; a power of two so stripe_of is a mask.
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mutex;
    std::map<std::string, TableStage> staged;
    /// Dedupe window, scoped keys ("table\x1fkey"). `keys` answers the
    /// membership check; `order` drives FIFO eviction; `fresh` are keys
    /// accepted since the last drain (stamped to dedupe_table with their
    /// wave); `evicted` are keys the window dropped (unstamped with it).
    std::unordered_set<std::string> keys;
    std::deque<std::string> order;
    std::vector<std::string> fresh;
    std::vector<std::string> evicted;
  };
  struct BridgeObs;  ///< pre-resolved metric handles (bridge.cpp)

  static std::size_t stripe_of(std::string_view table) noexcept {
    return std::hash<std::string_view>{}(table) & (kStripes - 1);
  }
  std::size_t commit(std::size_t count, std::size_t bytes);
  /// Caller holds stripe.mutex. False = key already present (duplicate);
  /// true = accepted (recorded, window eviction applied). `durable` keys
  /// skip the fresh list (already stamped — seeding path).
  bool accept_key(Stripe& stripe, const std::string& table, std::string_view key, bool durable);

  Options options_;
  std::unique_ptr<BridgeObs> obs_;  ///< null when Options::metrics is null
  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::size_t> staged_rows_{0};
  std::atomic<std::size_t> staged_bytes_{0};
  std::atomic<std::uint64_t> rows_staged_total_{0};
  std::atomic<std::uint64_t> rows_ingested_total_{0};
  std::atomic<std::uint64_t> waves_ingested_total_{0};
  std::atomic<std::uint64_t> refusals_total_{0};
  std::atomic<std::uint64_t> duplicates_total_{0};
};

/// Parses a newline-delimited `row,col,value` ingest body into offset spans
/// over `body`. Returns the spans, or sets *error to a line-numbered message
/// (1-based) on the first malformed line. A trailing CR is stripped and
/// empty lines are skipped; value must parse fully as a double. Nothing is
/// allocated per field, and the value parses via std::from_chars straight
/// from the buffer. The caller keeps `body` alive (typically by moving it
/// into IngestBridge::stage_spans as the arena).
std::optional<std::vector<IngestSpan>> parse_ingest_spans(std::string_view body,
                                                          std::string* error);

}  // namespace smartflux::net
