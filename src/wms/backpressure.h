#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "common/error.h"
#include "datastore/types.h"

namespace smartflux::wms {

/// What a producer hitting the high watermark does.
enum class OverflowPolicy : std::uint8_t {
  /// The producer blocks until the queue drains to the low watermark.
  kBlock,
  /// The push is refused (returns false) and counted; the caller turns the
  /// refusal into an answer upstream (the HTTP front door replies 503).
  kShed,
};

/// Admission control for the pipelined ingest queue (and any other bounded
/// wave hand-off). Watermark semantics are hysteretic: admission closes when
/// the queue depth *reaches* high_watermark and re-opens only once the
/// consumer has drained it to low_watermark — so a producer racing a slow
/// consumer oscillates between the two marks instead of hammering the
/// boundary. high_watermark == 0 disables the bound entirely (the pre-PR-7
/// unbounded behaviour).
struct PressureOptions {
  /// Queue depth at which admission closes; 0 = unbounded.
  std::size_t high_watermark = 0;
  /// Depth a gated producer resumes at; 0 defaults to ceil(high / 2).
  std::size_t low_watermark = 0;
  OverflowPolicy overflow = OverflowPolicy::kBlock;

  /// Pipelined ingest `depth` waves ahead of the computing wave: the window
  /// holds the computing wave plus `depth` ingested ones, and reopens as
  /// soon as the computing wave finishes.
  static constexpr PressureOptions ahead(std::size_t depth) noexcept {
    return {.high_watermark = depth + 1, .low_watermark = depth};
  }

  bool enabled() const noexcept { return high_watermark > 0; }
  std::size_t resume_depth() const noexcept {
    if (!enabled()) return 0;
    if (low_watermark > 0 && low_watermark < high_watermark) return low_watermark;
    return (high_watermark + 1) / 2;
  }
};

/// Counters a bounded queue accumulates over its lifetime (read them after
/// the producers/consumers joined, or accept slightly stale values).
struct PressureStats {
  std::size_t pushed = 0;          ///< waves admitted
  std::size_t shed = 0;            ///< pushes refused under kShed
  std::size_t producer_blocks = 0; ///< times a kBlock producer had to wait
  std::size_t peak_depth = 0;      ///< high-water mark actually reached
};

/// Bounded multi-producer/multi-consumer FIFO of wave numbers with
/// high/low-watermark admission control — the backpressure primitive between
/// a wave producer (ingest scheduler, arrival feed) and the compute loop.
///
/// Invariants (property-tested in tests/overload_test.cpp):
///  - depth() never exceeds high_watermark;
///  - a producer blocked at the high watermark resumes once the consumer
///    drains the queue to the low watermark;
///  - pushed == popped + shed + depth() at every quiescent point, so no wave
///    is ever silently dropped.
class BoundedWaveQueue {
 public:
  explicit BoundedWaveQueue(PressureOptions options = {}) : options_(options) {
    SF_CHECK(!options_.enabled() || options_.resume_depth() <= options_.high_watermark,
             "low watermark must not exceed the high watermark");
  }

  /// Admits `wave`. Under kBlock this waits for the consumer when the gate
  /// is closed (returns false only if the queue is closed while waiting);
  /// under kShed a closed gate refuses immediately with false.
  bool push(ds::Timestamp wave) {
    std::unique_lock lock(mutex_);
    if (closed_) return false;
    if (gate_closed()) {
      if (options_.overflow == OverflowPolicy::kShed) {
        ++stats_.shed;
        return false;
      }
      ++stats_.producer_blocks;
      space_cv_.wait(lock, [&] { return closed_ || !gate_closed(); });
      if (closed_) return false;
    }
    queue_.push_back(wave);
    ++stats_.pushed;
    stats_.peak_depth = std::max(stats_.peak_depth, queue_.size());
    if (options_.enabled() && queue_.size() >= options_.high_watermark) gated_ = true;
    item_cv_.notify_one();
    return true;
  }

  /// Next wave in FIFO order; blocks until one is available or the queue is
  /// closed *and* drained (then nullopt).
  std::optional<ds::Timestamp> pop() {
    std::unique_lock lock(mutex_);
    item_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    const ds::Timestamp wave = queue_.front();
    queue_.pop_front();
    if (gated_ && queue_.size() <= options_.resume_depth()) {
      gated_ = false;
      space_cv_.notify_all();
    }
    return wave;
  }

  /// Wakes every blocked producer and consumer; further pushes are refused,
  /// pops drain what remains.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }
  bool gated() const {
    std::lock_guard lock(mutex_);
    return gated_;
  }
  /// True once close() was called: every further push is refused. The
  /// network front-end's admission check reads this to turn a closed queue
  /// into 503s instead of silently accepting rows no wave will consume.
  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }
  PressureStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }
  const PressureOptions& options() const noexcept { return options_; }

 private:
  /// Caller holds mutex_. Closed-gate hysteresis: stays closed until the
  /// consumer drains to the low watermark (pop() re-opens it).
  bool gate_closed() const {
    if (!options_.enabled()) return false;
    return gated_ || queue_.size() >= options_.high_watermark;
  }

  PressureOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable item_cv_;
  std::condition_variable space_cv_;
  std::deque<ds::Timestamp> queue_;
  PressureStats stats_;
  bool gated_ = false;
  bool closed_ = false;
};

}  // namespace smartflux::wms
