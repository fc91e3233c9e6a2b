#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/hashing.h"

namespace smartflux::ds {

/// Sharding configuration of a DataStore. Every store is a ring of N >= 1
/// shards and runs one code path at any N: one lock domain per (table,
/// shard), one WAL family per shard (`wal-s<k>-%06d.sflog`), one store-wide
/// lsn space. Per-shard metric series appear only when `shards > 1`.
struct ShardOptions {
  /// Number of shards each table (and the WAL) is partitioned into. Rows are
  /// routed by consistent hashing of the row key; all writes for one row
  /// always land in the same shard.
  std::size_t shards = 1;
};

/// Virtual nodes per shard on the hash ring: enough to smooth the key
/// distribution for <= 64 shards.
constexpr std::size_t kVnodesPerShard = 64;
/// Seed of the ring's placement hash ("smartfx"). Fixed, so every store with
/// the same shard count routes every row the same way; recovery re-routes
/// every replayed row through its own ring anyway.
constexpr std::uint64_t kRingSeed = 0x736d6172746678ULL;

/// Consistent-hashing ring mapping row keys to shard indices: each shard
/// owns `kVnodesPerShard` points placed by a stateless hash; a key belongs
/// to the first point clockwise from its own hash (murmur-style point hash +
/// virtual nodes, the classic memcached/chash layout). Deterministic in the
/// shard count, so the same key routes to the same shard across runs,
/// processes, and recoveries.
///
/// Virtual nodes matter for the *stability* property: when a store is
/// reopened with one more shard, only the keys whose arc the new shard's
/// vnodes claim move — roughly 1/N of them — instead of the (N-1)/N a
/// modulo split would reshuffle.
class ShardRing {
 public:
  ShardRing() : ShardRing(ShardOptions{}) {}

  explicit ShardRing(const ShardOptions& options) : shards_(options.shards) {
    SF_CHECK(options.shards >= 1, "ShardOptions::shards must be >= 1");
    if (shards_ == 1) return;  // every key routes to shard 0; no ring needed
    points_.reserve(shards_ * kVnodesPerShard);
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      for (std::size_t vnode = 0; vnode < kVnodesPerShard; ++vnode) {
        points_.push_back(
            Point{hash64(kRingSeed, shard, vnode), static_cast<std::uint32_t>(shard)});
      }
    }
    std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
      // Owner breaks hash ties so the ring is a deterministic function of the
      // shard count even in the astronomically unlikely collision case.
      return a.hash != b.hash ? a.hash < b.hash : a.owner < b.owner;
    });
  }

  std::size_t shards() const noexcept { return shards_; }

  /// Shard owning `row`. O(log vnodes) binary search; shards()==1 short-
  /// circuits to 0 without hashing.
  std::size_t shard_of(std::string_view row) const noexcept {
    if (shards_ == 1) return 0;
    const std::uint64_t h = hash64_bytes(row, kRingSeed);
    // First point at or after h, wrapping to the first point past the top.
    auto it = std::lower_bound(points_.begin(), points_.end(), h,
                               [](const Point& p, std::uint64_t key) { return p.hash < key; });
    if (it == points_.end()) it = points_.begin();
    return it->owner;
  }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t owner;
  };

  std::size_t shards_;
  std::vector<Point> points_;  ///< empty when shards_ == 1
};

}  // namespace smartflux::ds
