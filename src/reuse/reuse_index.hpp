// Embedding-similarity reuse index: serve near-duplicate architectures
// without embedding them.
//
// The paper's core reusability claim (Fig. 5) is that similar DNN
// architectures land close together in GHN embedding space.  The serving
// stack already exploits *exact* repeats through the sharded embedding
// cache; this index exploits *near*-repeats: when a previously-unseen
// architecture is structurally and embedding-space close to one we already
// embedded, its neighbour's embedding predicts almost the same training
// time — for the cost of an index probe (µs) instead of a GHN forward pass
// (ms).  The systems shape follows the SIGMOD'20 collaborative-optimizer
// reuse rule: load a materialised artifact whenever the load cost beats the
// recreation cost — here a probe (µs) against a GHN forward pass (ms), so
// with reuse on every cache miss probes.
//
// A query arrives *without* an embedding — computing one is exactly the
// cost being avoided — so the search runs on structure and is two-phase,
// approximate-then-exact:
//   1. structural-fingerprint prefilter — candidates whose coarse
//      StructuralSignature distance (normalised op histogram + node/edge/
//      parameter count gaps) exceeds the budget are skipped; the closest
//      `shortlist` survivors advance;
//   2. exact cosine distance over the shortlist's op-count vectors — the
//      nearest neighbour's cached embedding is served iff that distance is
//      ≤ ε.
// The hit gate is joint: op-mix cosine is scale-invariant (resnet18 and
// resnet152 have nearly identical mixes), so the prefilter's node/edge
// size terms are the half of the gate that keeps distant depth variants
// out.  ε therefore bounds a *structural* cosine distance inside a
// size-compatible shortlist; what makes that safe is the Fig. 5
// calibration (bench/fig05_embedding_similarity): pairs inside the default
// (ε, budget) box sit at small GHN embedding distance, which is the
// quantity that controls prediction error.  The measured error cost of the
// defaults is recorded in DESIGN.md §11.
//
// Probes distinguish three outcomes, all counted: *hit* (neighbour within
// ε), *rejected* (a shortlist existed but the nearest neighbour was beyond
// ε), and *miss* (nothing survived the prefilter).  Rejected probes are the
// signal that ε, not the prefilter, is the binding constraint.
//
// Staleness mirrors the embedding cache's snapshot semantics: every dataset
// partition is keyed by the ghn_checksum it was built under.  A probe or
// insert that presents a different checksum — a GHN hot-swap — atomically
// drops the partition and proceeds against the empty index, so in-flight
// requests never see embeddings from a dead model and none of them fail.
//
// Thread-safety: all public methods are safe to call concurrently; one
// mutex guards the whole index (probes scan at most `max_entries` compact
// signatures plus `shortlist` embeddings, so the critical section stays in
// the microsecond range — see the 16-thread stress test in reuse_test).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "reuse/signature.hpp"
#include "tensor/matrix.hpp"

namespace pddl::reuse {

inline constexpr char kReuseIndexMagic[4] = {'P', 'D', 'R', 'I'};
inline constexpr std::uint32_t kReuseIndexVersion = 1;
// Snapshot section name (io::SnapshotWriter).
inline constexpr const char* kReuseIndexSection = "reuse/index";

struct ReuseConfig {
  // Off by default: with enabled=false (or epsilon<=0) the serving path is
  // byte-for-byte what it was before src/reuse/ existed.
  bool enabled = false;
  // Maximum signature cosine distance at which a neighbour's embedding is
  // served.  The hit gate is *joint*: cosine ≤ ε AND prefilter distance ≤
  // max_signature_distance — cosine over op mixes is scale-invariant, so
  // only the prefilter's node/edge terms separate a resnet18 from a
  // resnet152.  Defaults derived from the Fig. 5 distance distributions
  // (bench/fig05_embedding_similarity → bench_results/fig05_distances.csv
  // and fig05_epsilon.csv; see DESIGN.md §11): inside the default (ε,
  // budget) box the measured embedding-substitution error is mean ≈5.6%,
  // max ≈8.1% of the own-embedding prediction — about one point of extra
  // error vs ground truth — while the same ε with no size budget costs 93%.
  double epsilon = 0.05;
  // Prefilter budget: candidates whose signature distance exceeds this are
  // never scored by cosine, so it doubles as the size-compatibility half of
  // the hit gate.  Same-family *width* variants and adjacent depth variants
  // stay under ~0.35; distant depth variants (resnet18 vs resnet152) and
  // cross-family pairs sit well above.
  double max_signature_distance = 0.35;
  // Exact-cosine shortlist size after the prefilter.
  std::size_t shortlist = 8;
  // Entry budget per dataset partition; the least-recently-used entry (a
  // probe hit counts as a use) is evicted first, so hot donors survive
  // sustained insert pressure.
  std::size_t max_entries = 4096;
};

struct ReuseHit {
  Vector embedding;        // the neighbour's cached embedding (copy)
  double distance = 0.0;   // signature cosine distance to the neighbour
  std::uint64_t donor_fp = 0;  // structural fingerprint of the neighbour
};

struct ReuseStats {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;      // neighbour within ε served
  std::uint64_t rejected = 0;  // shortlist found, nearest beyond ε
  std::uint64_t misses = 0;    // nothing survived the prefilter
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // dataset partitions dropped (hot-swap)
  std::uint64_t entries = 0;        // live entries across all datasets
};

class ReuseIndex {
 public:
  explicit ReuseIndex(ReuseConfig cfg = {});

  ReuseIndex(const ReuseIndex&) = delete;
  ReuseIndex& operator=(const ReuseIndex&) = delete;

  const ReuseConfig& config() const { return cfg_; }

  // Nearest-neighbour probe for a graph with fingerprint `fp` and signature
  // `sig` under the GHN identified by `ghn_checksum`.  A checksum mismatch
  // drops the dataset partition (hot-swap invalidation) and the probe
  // misses.  An entry with the identical fingerprint is an exact hit at
  // distance 0 (the caller's cache normally absorbs those first).
  std::optional<ReuseHit> probe(const std::string& dataset,
                                std::uint64_t ghn_checksum, std::uint64_t fp,
                                const StructuralSignature& sig);

  // Insert-on-miss: registers a freshly computed embedding.  Returns false
  // when the fingerprint is already present (concurrent first touches).
  // Like probe(), a checksum mismatch first drops the stale partition.
  bool insert(const std::string& dataset, std::uint64_t ghn_checksum,
              std::uint64_t fp, const StructuralSignature& sig,
              const Vector& embedding);

  // Drops one dataset partition (counted as an invalidation if non-empty).
  void invalidate(const std::string& dataset);
  void clear();

  std::size_t size() const;
  std::size_t size(const std::string& dataset) const;
  ReuseStats stats() const;

  // ---- persistence (snapshot section "reuse/index") ----
  // Layout inside the container section (CRC/framing come from the
  // container):  magic "PDRI" | u32 version | u32 op-type count |
  // u32 dataset count | per dataset: str name | u64 ghn_checksum |
  // u32 entry count | per entry: u64 fp | u32 nodes | u32 edges |
  // u64 params | op-type counts | embedding.
  // Entries are written least-recently-used first and load() re-stamps
  // recency in read order, so LRU eviction order survives a restart without
  // any format change (recency ticks are never serialized).
  void save(io::SnapshotWriter& snap) const;
  // Restores from `snap` if the section is present.  `live_checksum` maps a
  // dataset to the checksum of its currently registered GHN (0 = none);
  // partitions whose saved checksum no longer matches are skipped — a
  // retrained GHN makes every embedding in them stale.  Sections whose
  // op-type histogram is narrower than this build's (an older build; op
  // kinds are append-only) load with the counts zero-extended; sections
  // wider than this build (a downgrade) are parsed but dropped rather than
  // rejected.  Returns the number of entries restored.
  template <typename ChecksumFn>
  std::size_t load(const io::SnapshotReader& snap, ChecksumFn live_checksum) {
    if (!snap.has(kReuseIndexSection)) return 0;
    io::BinaryReader r = snap.reader(kReuseIndexSection);
    return load_section(r, [&](const std::string& dataset) {
      return static_cast<std::uint64_t>(live_checksum(dataset));
    });
  }

  // Exposed for the corruption tests: parses one section payload.
  std::size_t load_section(
      io::BinaryReader& r,
      const std::function<std::uint64_t(const std::string&)>& live_checksum);

 private:
  struct Entry {
    std::uint64_t fp = 0;
    StructuralSignature sig;
    Vector embedding;
    std::uint64_t last_used = 0;  // partition tick at insert / last probe hit
  };
  struct Partition {
    std::uint64_t checksum = 0;
    std::vector<Entry> entries;
    std::map<std::uint64_t, std::size_t> by_fp;  // fp → slot in `entries`
    std::uint64_t tick = 0;  // monotonic recency clock for LRU eviction
  };

  // Drops the partition's entries when `ghn_checksum` differs (counts an
  // invalidation) and stamps the new checksum.  Caller holds mutex_.
  Partition& partition_for(const std::string& dataset,
                           std::uint64_t ghn_checksum);
  void insert_locked(Partition& p, std::uint64_t fp,
                     const StructuralSignature& sig, Vector embedding);

  ReuseConfig cfg_;
  mutable std::mutex mutex_;
  std::map<std::string, Partition> partitions_;
  ReuseStats stats_;
};

}  // namespace pddl::reuse
