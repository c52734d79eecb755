// Sharded, thread-safe LRU cache of GHN embeddings for the online service.
//
// Keyed by (dataset, structural fingerprint) — see
// ghn::structural_fingerprint() — so repeat traffic for the same
// architecture skips the GHN forward pass entirely regardless of how the
// request names its model.  Sharding by key hash keeps lock contention flat
// as caller concurrency grows: each shard has its own mutex, intrusive LRU
// list, and capacity slice, so two requests for different architectures
// almost never serialize on the same lock.
//
// Unlike GhnRegistry's internal memo (unbounded, sized for offline benches
// that sweep a fixed corpus), this cache is bounded: under open-world
// traffic (e.g. a NAS search streaming novel architectures) memory stays
// capped and cold entries are evicted least-recently-used per shard.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/metrics.hpp"
#include "tensor/matrix.hpp"

namespace pddl::serve {

class ShardedEmbeddingCache {
 public:
  // `capacity` is the total entry budget, split evenly across `shards`
  // (each shard holds at least one entry).
  ShardedEmbeddingCache(std::size_t shards, std::size_t capacity);

  ShardedEmbeddingCache(const ShardedEmbeddingCache&) = delete;
  ShardedEmbeddingCache& operator=(const ShardedEmbeddingCache&) = delete;

  // Returns the cached embedding and promotes it to most-recently-used —
  // but only when the entry was computed under the GHN identified by
  // `ghn_checksum` (ghn::ghn_checksum of the dataset's registered model).
  // A checksum mismatch erases the entry (counted in
  // stats().cache_stale_drops) and reports a miss: after a GHN hot-swap no
  // stale embedding can ever be served, even if an in-flight batch that
  // still holds the old inference engine re-inserts between the swap's
  // purge and this lookup.
  std::optional<Vector> get(const std::string& dataset, std::uint64_t fp,
                            std::uint64_t ghn_checksum);

  // Inserts (or refreshes) an embedding tagged with the checksum of the GHN
  // that produced it, evicting the shard's LRU entry when its slice is full.
  void put(const std::string& dataset, std::uint64_t fp,
           std::uint64_t ghn_checksum, Vector embedding);

  // Drops every entry belonging to `dataset` (GHN hot-swap path); returns
  // the number of entries removed.  Removals are not counted as evictions
  // or stale drops — the swap's invalidation is reported by the caller.
  std::size_t purge_dataset(const std::string& dataset);

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t capacity() const { return shards_.size() * per_shard_capacity_; }
  std::size_t size() const;
  CacheStats stats() const;
  // Live entries per shard, index-aligned with the internal shard order.
  // Lets tests and serve_loadgen check how evenly the key hash spreads
  // entries (and sanity-check occupancy against the reuse index).
  std::vector<std::size_t> shard_entry_counts() const;
  void clear();

  // All resident entries, ordered least-recently-used first within each
  // shard, so replaying them through put() on a fresh cache reproduces the
  // recency order (the last put() wins the MRU slot).  Used by the service's
  // warm-restart snapshot.
  struct Entry {
    std::string dataset;
    std::uint64_t fp = 0;
    std::uint64_t ghn_checksum = 0;
    Vector embedding;
  };
  std::vector<Entry> export_entries() const;

 private:
  struct Node {
    std::string dataset;
    std::uint64_t fp = 0;
    std::uint64_t ghn_checksum = 0;
    Vector embedding;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Node> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Node>::iterator> index;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_stale_drops = 0;
  };

  static std::string make_key(const std::string& dataset, std::uint64_t fp);
  Shard& shard_for(const std::string& key);
  const Shard& shard_for(const std::string& key) const;

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pddl::serve
