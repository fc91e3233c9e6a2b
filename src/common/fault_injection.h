#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/error.h"

namespace smartflux {

/// Raised by injected step and datastore faults (distinguishable from real
/// workload exceptions in logs and tests).
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
};

/// What an activated fault rule does to the matched step attempt.
enum class FaultKind {
  /// The attempt throws InjectedFault before the step function runs.
  kThrow,
  /// The attempt stalls cooperatively for `hang_for`. With a per-step timeout
  /// armed this surfaces as Timeout through the CancellationToken — the
  /// reproducible version of "step hung past its deadline".
  kHang,
  /// Every datastore write issued by the attempt throws InjectedFault.
  kFailPut,
};

/// One chaos scenario: which step, which waves, which attempts, how often.
/// All matching is deterministic: probabilistic rules draw from a stateless
/// hash of (seed, rule, step, wave, attempt), so the same seed reproduces the
/// exact same fault schedule on every run, at any thread count.
struct FaultRule {
  /// Exact step id to fault; empty matches every step.
  std::string step_id;
  FaultKind kind = FaultKind::kThrow;
  /// Inclusive wave range the rule is active in.
  std::uint64_t first_wave = 0;
  std::uint64_t last_wave = ~std::uint64_t{0};
  /// Fault only attempts 1..max_attempt of a wave (0 = every attempt). E.g.
  /// max_attempt = 1 makes the first attempt fail and the retry succeed.
  std::size_t max_attempt = 0;
  /// Activation probability per (step, wave, attempt), deterministic per seed.
  double probability = 1.0;
  /// kHang: how long the attempt stalls before returning normally.
  std::chrono::milliseconds hang_for{100};
  std::string message = "injected fault";
};

/// What an activated disk-fault rule does to the matched record append or
/// fsync of a durable sink (the datastore WAL, the journal sink).
enum class DiskFaultKind {
  /// The append writes only a deterministic prefix of the record's bytes and
  /// then dies (throws InjectedFault) — a power cut mid-write. Recovery must
  /// tolerate the partial trailing record.
  kTornWrite,
  /// The append writes everything but the final byte and dies — the
  /// boundary case of a torn write (checksum present but wrong length).
  kShortWrite,
  /// The matched fsync call throws InjectedFault. Sinks must treat this as
  /// fatal for the file (fsyncgate: retrying is not safe).
  kFsyncFail,
  /// The append dies *before* writing any byte of the matched record — the
  /// crash-at-record-N primitive the crash-matrix harness sweeps.
  kCrash,
};

/// One disk chaos scenario, matched against (file_tag, record_seq) — the
/// sink's tag ("wal-s<k>" for a store's shard-k WAL family, "journal") and
/// its zero-based append/sync sequence number (a WAL append's seq is the
/// record's store-global lsn). Same determinism guarantee as FaultRule: probabilistic draws come
/// from a stateless hash of (seed, rule, tag, seq), so the schedule is
/// byte-identical at any thread count and call order.
struct DiskFaultRule {
  DiskFaultKind kind = DiskFaultKind::kCrash;
  /// Exact sink tag to fault; empty matches every sink.
  std::string file_tag;
  /// Inclusive record/sync sequence range the rule is active in.
  std::uint64_t first_record = 0;
  std::uint64_t last_record = ~std::uint64_t{0};
  /// Activation probability per (tag, seq), deterministic per seed.
  double probability = 1.0;
  std::string message = "injected disk fault";
};

/// Outcome of querying the disk-fault schedule for one record append.
enum class DiskWriteFault : std::uint8_t { kNone, kTornWrite, kShortWrite, kCrash };

/// Deterministic, seeded fault-injection layer. Hooked into the workflow
/// engine (step attempts), the per-attempt datastore client (writes), and
/// the durable sinks (WAL/journal record appends and fsyncs); inert when no
/// rule matches, so it can stay wired in production configs.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) noexcept : seed_(seed) {}

  FaultInjector& add_rule(FaultRule rule);
  FaultInjector& add_disk_rule(DiskFaultRule rule);
  void clear_rules() {
    rules_.clear();
    disk_rules_.clear();
  }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Engine hook, called at the start of every step attempt. Throws
  /// InjectedFault (kThrow) or stalls cooperatively (kHang, unwinding with
  /// Timeout when `token` has an armed deadline that expires mid-hang).
  void on_attempt(const std::string& step_id, std::uint64_t wave, std::size_t attempt,
                  const CancellationToken* token);

  /// Datastore hook: should the writes of this attempt fail?
  bool should_fail_put(const std::string& step_id, std::uint64_t wave,
                       std::size_t attempt) const;

  /// Durable-sink hook, queried once per record append (`record_seq` is the
  /// sink's zero-based append counter). Returns the first matching write
  /// fault, kNone otherwise. Counting a hit is the only side effect; acting
  /// on it (partial write + throw) is the sink's job.
  DiskWriteFault disk_write_fault(std::string_view file_tag, std::uint64_t record_seq) const;

  /// Durable-sink hook, queried once per fsync (`sync_seq` is the sink's
  /// zero-based sync counter). True = the sink must fail this fsync.
  bool disk_fsync_fault(std::string_view file_tag, std::uint64_t sync_seq) const;

  /// For a torn write of `total_bytes`: how many bytes actually reach the
  /// file. Deterministic in (seed, tag, seq); always in [1, total_bytes - 1]
  /// (for total_bytes >= 2), so the record is genuinely partial.
  std::size_t torn_write_bytes(std::string_view file_tag, std::uint64_t record_seq,
                               std::size_t total_bytes) const noexcept;

  /// Total faults activated so far (throws, hangs, failed-put attempts, and
  /// disk faults).
  std::size_t injected_count() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  bool matches(const FaultRule& rule, std::size_t rule_index, const std::string& step_id,
               std::uint64_t wave, std::size_t attempt) const;
  bool disk_matches(const DiskFaultRule& rule, std::size_t rule_index,
                    std::string_view file_tag, std::uint64_t seq) const;

  std::uint64_t seed_;
  std::vector<FaultRule> rules_;
  std::vector<DiskFaultRule> disk_rules_;
  mutable std::atomic<std::size_t> injected_{0};
};

/// What the network chaos schedule does to one client request attempt.
enum class NetFaultKind : std::uint8_t {
  kNone,
  /// The request bytes go out fragmented into several small writes with
  /// pauses in between — exercises the server's incremental parser and
  /// mid-request read-deadline tracking without tripping it.
  kPartialWrite,
  /// The connection is dropped mid-request (after a deterministic prefix of
  /// the wire bytes) — the client never learns whether the server staged
  /// the rows, which is exactly the window idempotent retry exists for.
  kReset,
  /// The client sends a prefix and then stalls past the server's
  /// request_read_timeout_ms; the server should answer 408 and close.
  kStall,
  /// The full request is sent twice back-to-back with the same idempotency
  /// key; the second answer must be the duplicate re-ack.
  kDuplicate,
};

/// Per-attempt activation probabilities for ChaosClient (net/testing). All
/// zero = inert. The draws are stateless-hash-seeded, so one seed yields
/// one exact fault schedule regardless of timing or interleaving.
struct NetChaosOptions {
  std::uint64_t seed = 0;
  double partial_write = 0.0;
  double reset = 0.0;
  double stall = 0.0;
  double duplicate = 0.0;
  /// kStall: how long the client sits silent mid-request.
  std::chrono::milliseconds stall_for{150};
};

/// Deterministic schedule of socket-level client faults, keyed by
/// (stream, request, attempt) — the network-side sibling of FaultInjector's
/// disk rules. Pure draws: the same coordinates always answer the same
/// fault, so a chaos soak run is reproducible from its seed alone.
class NetChaosSchedule {
 public:
  explicit NetChaosSchedule(NetChaosOptions options = {}) noexcept : options_(options) {}

  /// The fault (if any) for this attempt. Probabilities stack in declared
  /// order over one uniform draw, so kinds are mutually exclusive per
  /// attempt and each keeps its configured marginal rate.
  NetFaultKind draw(std::uint64_t stream, std::uint64_t request,
                    std::uint64_t attempt) const noexcept;

  /// Deterministic cut point in [1, total - 1] for partial writes and
  /// mid-request resets (`salt` separates independent cuts of one attempt).
  /// total < 2 returns total.
  std::size_t cut_point(std::uint64_t stream, std::uint64_t request, std::uint64_t attempt,
                        std::uint64_t salt, std::size_t total) const noexcept;

  void reseed(std::uint64_t seed) noexcept { options_.seed = seed; }
  const NetChaosOptions& options() const noexcept { return options_; }

 private:
  NetChaosOptions options_;
};

}  // namespace smartflux
