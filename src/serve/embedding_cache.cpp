#include "serve/embedding_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pddl::serve {

ShardedEmbeddingCache::ShardedEmbeddingCache(std::size_t shards,
                                             std::size_t capacity) {
  PDDL_CHECK(shards > 0, "cache needs at least one shard");
  PDDL_CHECK(capacity > 0, "cache needs a nonzero capacity");
  per_shard_capacity_ = std::max<std::size_t>(1, (capacity + shards - 1) / shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string ShardedEmbeddingCache::make_key(const std::string& dataset,
                                            std::uint64_t fp) {
  return dataset + '#' + std::to_string(fp);
}

ShardedEmbeddingCache::Shard& ShardedEmbeddingCache::shard_for(
    const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const ShardedEmbeddingCache::Shard& ShardedEmbeddingCache::shard_for(
    const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<Vector> ShardedEmbeddingCache::get(const std::string& dataset,
                                                 std::uint64_t fp,
                                                 std::uint64_t ghn_checksum) {
  const std::string key = make_key(dataset, fp);
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.index.find(key);
  if (it == s.index.end()) return std::nullopt;
  if (it->second->ghn_checksum != ghn_checksum) {
    // Computed under a different GHN: erase rather than serve, so a swap
    // can never leak an old-generation embedding to a caller.
    s.lru.erase(it->second);
    s.index.erase(it);
    ++s.cache_stale_drops;
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // promote to MRU
  return it->second->embedding;
}

void ShardedEmbeddingCache::put(const std::string& dataset, std::uint64_t fp,
                                std::uint64_t ghn_checksum, Vector embedding) {
  const std::string key = make_key(dataset, fp);
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    it->second->ghn_checksum = ghn_checksum;
    it->second->embedding = std::move(embedding);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= per_shard_capacity_) {
    const Node& victim = s.lru.back();
    s.index.erase(make_key(victim.dataset, victim.fp));
    s.lru.pop_back();
    ++s.cache_evictions;
  }
  s.lru.push_front(Node{dataset, fp, ghn_checksum, std::move(embedding)});
  s.index[key] = s.lru.begin();
}

std::size_t ShardedEmbeddingCache::purge_dataset(const std::string& dataset) {
  std::size_t removed = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    for (auto it = s->lru.begin(); it != s->lru.end();) {
      if (it->dataset == dataset) {
        s->index.erase(make_key(it->dataset, it->fp));
        it = s->lru.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

std::size_t ShardedEmbeddingCache::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    n += s->lru.size();
  }
  return n;
}

std::vector<std::size_t> ShardedEmbeddingCache::shard_entry_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    counts.push_back(s->lru.size());
  }
  return counts;
}

CacheStats ShardedEmbeddingCache::stats() const {
  CacheStats out;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    out.cache_evictions += s->cache_evictions;
    out.cache_entries += s->lru.size();
    out.cache_stale_drops += s->cache_stale_drops;
  }
  return out;
}

void ShardedEmbeddingCache::clear() {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    s->lru.clear();
    s->index.clear();
  }
}

std::vector<ShardedEmbeddingCache::Entry>
ShardedEmbeddingCache::export_entries() const {
  std::vector<Entry> out;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    // Back-to-front: LRU first, so re-put() on restore ends with the same
    // entry in the MRU slot.
    for (auto it = s->lru.rbegin(); it != s->lru.rend(); ++it) {
      out.push_back(Entry{it->dataset, it->fp, it->ghn_checksum,
                          it->embedding});
    }
  }
  return out;
}

}  // namespace pddl::serve
