#pragma once
// Sharded LRU cache with TTL — the answer cache of the serving layer. Keys
// hash to one of S independent shards, each guarded by its own mutex, so
// concurrent workers mostly touch disjoint locks (the sharded
// read-mostly-state pattern of the related HPC repos).
//
// Eviction: the total capacity is distributed across shards so per-shard
// capacities sum to exactly `capacity` (the first capacity % shards shards
// hold one extra entry; a capacity smaller than the shard count reduces the
// shard count so every shard holds at least one entry — the cache never
// silently provisions more or fewer entries than asked for). A full shard
// evicts its least-recently-used entry. Entries never expire unless put
// with a per-entry TTL (put_with_ttl), which expires them lazily at lookup
// time. The time source is injectable so tests can drive expiry
// deterministically.

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pkb::serve {

/// Monotonic seconds used for TTL stamps.
using CacheClock = std::function<double()>;

[[nodiscard]] inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LruCacheOptions {
  std::size_t capacity = 256;   ///< total entries across all shards
  std::size_t shards = 8;       ///< independent lock domains
  CacheClock clock;             ///< defaults to steady_seconds
};

/// Point-in-time counters (monotonic since construction).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< includes TTL-expired lookups
  std::uint64_t evictions = 0;  ///< capacity evictions + TTL expirations
  std::uint64_t entries = 0;    ///< current resident entries
};

template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(LruCacheOptions opts = {})
      : opts_(std::move(opts)) {
    if (opts_.shards == 0) opts_.shards = 1;
    if (!opts_.clock) opts_.clock = steady_seconds;
    // Distribute the total capacity exactly: base entries per shard plus
    // one extra for the first `capacity % shards` shards. When the
    // capacity cannot give every shard an entry, shrink the shard count to
    // the capacity instead of over-provisioning — the invariant is
    // sum(shard capacities) == capacity <= max(capacity, shards).
    if (opts_.capacity > 0 && opts_.capacity < opts_.shards) {
      opts_.shards = opts_.capacity;
    }
    shards_ = std::vector<Shard>(opts_.shards);
    const std::size_t base = opts_.capacity / opts_.shards;
    const std::size_t extra = opts_.capacity % opts_.shards;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i].capacity = base + (i < extra ? 1 : 0);
    }
  }

  /// Whole-cache enable check: capacity 0 disables caching entirely (every
  /// get misses, put is a no-op) so callers need no branching.
  [[nodiscard]] bool enabled() const { return opts_.capacity > 0; }

  /// Look up and refresh recency. Expired entries are dropped and count as
  /// both a miss and an eviction.
  [[nodiscard]] std::optional<V> get(const K& key) {
    if (!enabled()) return std::nullopt;
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    const double ttl = it->second->ttl_seconds;
    if (ttl > 0.0 && opts_.clock() - it->second->stamp > ttl) {
      shard.order.erase(it->second);
      shard.index.erase(it);
      ++shard.stats.misses;
      ++shard.stats.evictions;
      return std::nullopt;
    }
    // Move to the front (most recently used).
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    ++shard.stats.hits;
    return it->second->value;
  }

  /// Insert or overwrite with no expiry. Returns the number of entries
  /// evicted to make room (0 or 1).
  std::size_t put(const K& key, V value) {
    return put_with_ttl(key, std::move(value), 0.0);
  }

  /// put() with a per-entry TTL: `ttl_seconds` > 0 expires this entry that
  /// long after this put — the serving layer gives degraded answers a short
  /// life so a transient outage never poisons the cache. 0 = never expires.
  std::size_t put_with_ttl(const K& key, V value, double ttl_seconds) {
    if (!enabled()) return 0;
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const double now = opts_.clock();
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      it->second->stamp = now;
      it->second->ttl_seconds = ttl_seconds;
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return 0;
    }
    std::size_t evicted = 0;
    if (shard.order.size() >= shard.capacity) {
      const Entry& lru = shard.order.back();
      shard.index.erase(lru.key);
      shard.order.pop_back();
      ++shard.stats.evictions;
      evicted = 1;
    }
    shard.order.push_front(Entry{key, std::move(value), now, ttl_seconds});
    shard.index.emplace(key, shard.order.begin());
    return evicted;
  }

  /// Drop every entry (stats are retained).
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.order.clear();
      shard.index.clear();
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.order.size();
    }
    return n;
  }

  /// Aggregated counters across shards.
  [[nodiscard]] CacheStats stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total.hits += shard.stats.hits;
      total.misses += shard.stats.misses;
      total.evictions += shard.stats.evictions;
      total.entries += shard.order.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Capacity of shard `i`; shard capacities sum to total_capacity().
  [[nodiscard]] std::size_t shard_capacity(std::size_t i) const {
    return shards_.at(i).capacity;
  }
  /// Exactly the configured capacity (never rounded up or down).
  [[nodiscard]] std::size_t total_capacity() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.capacity;
    return total;
  }

 private:
  struct Entry {
    K key;
    V value;
    double stamp = 0.0;        ///< insertion/refresh time for TTL
    double ttl_seconds = 0.0;  ///< 0 = never expires
  };
  struct Shard {
    mutable std::mutex mu;
    std::size_t capacity = 0;
    std::list<Entry> order;  ///< front = most recently used
    std::unordered_map<K, typename std::list<Entry>::iterator> index;
    CacheStats stats;
  };

  Shard& shard_for(const K& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }
  const Shard& shard_for(const K& key) const {
    return shards_[Hash{}(key) % shards_.size()];
  }

  LruCacheOptions opts_;
  std::vector<Shard> shards_;
};

}  // namespace pkb::serve
