#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ghn/registry.hpp"
#include "reuse/batch_planner.hpp"
#include "reuse/reuse_index.hpp"
#include "reuse/signature.hpp"
#include "serve/service.hpp"

namespace pddl::reuse {
namespace {

graph::CompGraph build_model(const std::string& name) {
  return workload::DlWorkload{name, workload::cifar10(), 64, 10}.build_graph();
}

// ---- StructuralSignature ----

TEST(Signature, CountsNodesEdgesParamsAndOps) {
  const graph::CompGraph g = build_model("resnet18");
  const StructuralSignature sig = make_signature(g);
  EXPECT_EQ(sig.nodes, g.num_nodes());
  EXPECT_EQ(sig.edges, g.num_edges());
  EXPECT_EQ(sig.params, static_cast<std::uint64_t>(g.total_params()));
  const std::uint64_t total = std::accumulate(
      sig.op_counts.begin(), sig.op_counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, sig.nodes);
  EXPECT_EQ(sig, make_signature(g));  // deterministic
}

TEST(Signature, DistanceIsZeroOnSelfAndSymmetric) {
  const StructuralSignature a = make_signature(build_model("vgg11"));
  const StructuralSignature b = make_signature(build_model("resnet18"));
  EXPECT_DOUBLE_EQ(signature_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(signature_cosine_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(signature_distance(a, b), signature_distance(b, a));
  EXPECT_DOUBLE_EQ(signature_cosine_distance(a, b),
                   signature_cosine_distance(b, a));
  EXPECT_GT(signature_distance(a, b), 0.0);
}

// A doubled-up copy of the same op mix: cosine distance cannot see scale,
// the prefilter distance must.
TEST(Signature, CosineIsScaleInvariantPrefilterIsNot) {
  StructuralSignature a;
  a.nodes = 10;
  a.edges = 12;
  a.params = 1000;
  a.op_counts[0] = 6;
  a.op_counts[1] = 4;
  StructuralSignature b = a;
  b.nodes = 20;
  b.edges = 24;
  b.params = 2000;
  b.op_counts[0] = 12;
  b.op_counts[1] = 8;
  EXPECT_NEAR(signature_cosine_distance(a, b), 0.0, 1e-12);
  // Same normalised histogram, but node/edge/param gaps are 0.5 each.
  EXPECT_NEAR(signature_distance(a, b), 1.5, 1e-12);
}

TEST(Signature, CosineDistanceOfDisjointMixesIsOne) {
  StructuralSignature a, b;
  a.op_counts[0] = 5;
  b.op_counts[1] = 7;
  EXPECT_DOUBLE_EQ(signature_cosine_distance(a, b), 1.0);
  // Zero op vectors are maximally distant by convention.
  StructuralSignature zero;
  EXPECT_DOUBLE_EQ(signature_cosine_distance(zero, zero), 1.0);
}

TEST(Signature, WidthVariantsSeparatedOnlyByParams) {
  const StructuralSignature narrow = make_signature(build_model("resnet50"));
  const StructuralSignature wide =
      make_signature(build_model("wide_resnet50_2"));
  // Graph-identical: same nodes, edges, op mix...
  EXPECT_EQ(narrow.nodes, wide.nodes);
  EXPECT_EQ(narrow.edges, wide.edges);
  EXPECT_NEAR(signature_cosine_distance(narrow, wide), 0.0, 1e-12);
  // ...but the parameter term keeps the pair outside the default budget.
  EXPECT_NE(narrow.params, wide.params);
  EXPECT_GT(signature_distance(narrow, wide),
            ReuseConfig{}.max_signature_distance);
}

// ---- ReuseIndex ----

ReuseConfig test_config() {
  ReuseConfig cfg;
  cfg.enabled = true;
  return cfg;
}

Vector dummy_embedding(double seed) { return Vector{seed, seed + 1, seed + 2}; }

TEST(ReuseIndex, ServesNearDuplicateWithinEpsilon) {
  ReuseIndex index(test_config());
  const graph::CompGraph donor = build_model("vgg11");
  const graph::CompGraph query = build_model("vgg13");
  const std::uint64_t donor_fp = ghn::structural_fingerprint(donor);
  ASSERT_TRUE(index.insert("cifar10", 1, donor_fp, make_signature(donor),
                           dummy_embedding(1.0)));
  const auto hit = index.probe("cifar10", 1,
                               ghn::structural_fingerprint(query),
                               make_signature(query));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->donor_fp, donor_fp);
  EXPECT_EQ(hit->embedding, dummy_embedding(1.0));
  EXPECT_GT(hit->distance, 0.0);
  EXPECT_LE(hit->distance, test_config().epsilon);
  const ReuseStats s = index.stats();
  EXPECT_EQ(s.probes, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ReuseIndex, ExactFingerprintHitsAtDistanceZero) {
  ReuseConfig cfg = test_config();
  cfg.epsilon = 1e-12;  // even a vanishing ε admits the exact fingerprint
  ReuseIndex index(cfg);
  const graph::CompGraph g = build_model("resnet18");
  const std::uint64_t fp = ghn::structural_fingerprint(g);
  ASSERT_TRUE(index.insert("cifar10", 1, fp, make_signature(g),
                           dummy_embedding(2.0)));
  const auto hit = index.probe("cifar10", 1, fp, make_signature(g));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->distance, 0.0);
  EXPECT_EQ(hit->donor_fp, fp);
}

TEST(ReuseIndex, DistantArchitectureMissesAtPrefilter) {
  ReuseIndex index(test_config());
  const graph::CompGraph donor = build_model("vgg11");
  index.insert("cifar10", 1, ghn::structural_fingerprint(donor),
               make_signature(donor), dummy_embedding(1.0));
  const graph::CompGraph query = build_model("densenet121");
  EXPECT_FALSE(index.probe("cifar10", 1, ghn::structural_fingerprint(query),
                           make_signature(query))
                   .has_value());
  EXPECT_EQ(index.stats().misses, 1u);
  EXPECT_EQ(index.stats().rejected, 0u);
}

TEST(ReuseIndex, ShortlistedButBeyondEpsilonIsRejected) {
  ReuseConfig cfg = test_config();
  cfg.max_signature_distance = 4.0;  // everything shortlists
  cfg.epsilon = 1e-9;                // nothing inexact is served
  ReuseIndex index(cfg);
  const graph::CompGraph donor = build_model("vgg11");
  index.insert("cifar10", 1, ghn::structural_fingerprint(donor),
               make_signature(donor), dummy_embedding(1.0));
  const graph::CompGraph query = build_model("vgg13");
  EXPECT_FALSE(index.probe("cifar10", 1, ghn::structural_fingerprint(query),
                           make_signature(query))
                   .has_value());
  EXPECT_EQ(index.stats().rejected, 1u);
  EXPECT_EQ(index.stats().misses, 0u);
}

TEST(ReuseIndex, DuplicateFingerprintInsertIsRefused) {
  ReuseIndex index(test_config());
  const graph::CompGraph g = build_model("vgg11");
  const std::uint64_t fp = ghn::structural_fingerprint(g);
  EXPECT_TRUE(index.insert("cifar10", 1, fp, make_signature(g),
                           dummy_embedding(1.0)));
  EXPECT_FALSE(index.insert("cifar10", 1, fp, make_signature(g),
                            dummy_embedding(9.0)));
  EXPECT_EQ(index.size(), 1u);
  // The original embedding survives the refused overwrite.
  const auto hit = index.probe("cifar10", 1, fp, make_signature(g));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->embedding, dummy_embedding(1.0));
}

TEST(ReuseIndex, LruEvictionAtCapacity) {
  ReuseConfig cfg = test_config();
  cfg.max_entries = 2;
  cfg.epsilon = 1e-12;
  ReuseIndex index(cfg);
  StructuralSignature sig;
  sig.nodes = 4;
  sig.edges = 4;
  sig.params = 100;
  sig.op_counts[0] = 4;
  for (std::uint64_t fp = 1; fp <= 3; ++fp) {
    ASSERT_TRUE(index.insert("cifar10", 1, fp, sig, dummy_embedding(fp)));
  }
  const ReuseStats s = index.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.inserts, 3u);
  // With no intervening probes LRU degenerates to insertion order, so fp 1
  // was the victim; 2 and 3 remain.
  EXPECT_FALSE(index.probe("cifar10", 1, 1, sig).has_value() &&
               index.probe("cifar10", 1, 1, sig)->distance == 0.0 &&
               index.probe("cifar10", 1, 1, sig)->donor_fp == 1);
  EXPECT_EQ(index.probe("cifar10", 1, 2, sig)->donor_fp, 2u);
  EXPECT_EQ(index.probe("cifar10", 1, 3, sig)->donor_fp, 3u);
}

TEST(ReuseIndex, ProbeHitProtectsDonorFromEviction) {
  ReuseConfig cfg = test_config();
  cfg.max_entries = 2;
  cfg.epsilon = 1e-12;
  ReuseIndex index(cfg);
  StructuralSignature sig;
  sig.nodes = 4;
  sig.edges = 4;
  sig.params = 100;
  sig.op_counts[0] = 4;
  ASSERT_TRUE(index.insert("cifar10", 1, 1, sig, dummy_embedding(1)));
  ASSERT_TRUE(index.insert("cifar10", 1, 2, sig, dummy_embedding(2)));
  // A probe hit is a *use*: it bumps fp 1's recency past fp 2's...
  ASSERT_EQ(index.probe("cifar10", 1, 1, sig)->donor_fp, 1u);
  // ...so the insert at capacity evicts fp 2, not the older-inserted but
  // hotter fp 1 (the behaviour FIFO got wrong).
  ASSERT_TRUE(index.insert("cifar10", 1, 3, sig, dummy_embedding(3)));
  const ReuseStats s = index.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(index.probe("cifar10", 1, 1, sig)->donor_fp, 1u);
  EXPECT_EQ(index.probe("cifar10", 1, 3, sig)->donor_fp, 3u);
  EXPECT_NE(index.probe("cifar10", 1, 2, sig)->donor_fp, 2u);
}

TEST(ReuseIndexPersistence, RoundTripPreservesLruEvictionOrder) {
  ReuseConfig cfg = test_config();
  cfg.max_entries = 2;
  cfg.epsilon = 1e-12;
  ReuseIndex index(cfg);
  StructuralSignature sig;
  sig.nodes = 4;
  sig.edges = 4;
  sig.params = 100;
  sig.op_counts[0] = 4;
  ASSERT_TRUE(index.insert("cifar10", 1, 1, sig, dummy_embedding(1)));
  ASSERT_TRUE(index.insert("cifar10", 1, 2, sig, dummy_embedding(2)));
  ASSERT_EQ(index.probe("cifar10", 1, 1, sig)->donor_fp, 1u);  // fp 2 is LRU

  io::SnapshotWriter snap;
  index.save(snap);
  std::ostringstream os;
  snap.save(os);
  std::istringstream is(os.str());
  const io::SnapshotReader reader(is, "lru round trip");

  ReuseIndex restored(cfg);
  ASSERT_EQ(restored.load(reader, [](const std::string&) { return 1u; }), 2u);
  // The snapshot carries no recency ticks, only LRU-first entry order; the
  // restored partition must still evict fp 2 first.
  ASSERT_TRUE(restored.insert("cifar10", 1, 3, sig, dummy_embedding(3)));
  EXPECT_EQ(restored.probe("cifar10", 1, 1, sig)->donor_fp, 1u);
  EXPECT_NE(restored.probe("cifar10", 1, 2, sig)->donor_fp, 2u);
  EXPECT_EQ(restored.probe("cifar10", 1, 3, sig)->donor_fp, 3u);
}

TEST(ReuseIndex, ChecksumMismatchDropsPartition) {
  ReuseIndex index(test_config());
  const graph::CompGraph g = build_model("vgg11");
  const std::uint64_t fp = ghn::structural_fingerprint(g);
  index.insert("cifar10", /*ghn_checksum=*/1, fp, make_signature(g),
               dummy_embedding(1.0));
  ASSERT_EQ(index.size("cifar10"), 1u);
  // A probe under a new checksum (GHN hot-swap) drops the stale partition.
  EXPECT_FALSE(
      index.probe("cifar10", /*ghn_checksum=*/2, fp, make_signature(g))
          .has_value());
  EXPECT_EQ(index.size("cifar10"), 0u);
  EXPECT_EQ(index.stats().invalidations, 1u);
  // Inserting under the new checksum works; probing under it hits again.
  EXPECT_TRUE(index.insert("cifar10", 2, fp, make_signature(g),
                           dummy_embedding(2.0)));
  EXPECT_TRUE(index.probe("cifar10", 2, fp, make_signature(g)).has_value());
}

TEST(ReuseIndex, InvalidateAndClear) {
  ReuseIndex index(test_config());
  const graph::CompGraph g = build_model("vgg11");
  index.insert("cifar10", 1, ghn::structural_fingerprint(g), make_signature(g),
               dummy_embedding(1.0));
  index.insert("mnist", 1, ghn::structural_fingerprint(g), make_signature(g),
               dummy_embedding(2.0));
  index.invalidate("cifar10");
  EXPECT_EQ(index.size("cifar10"), 0u);
  EXPECT_EQ(index.size("mnist"), 1u);
  EXPECT_EQ(index.stats().invalidations, 1u);
  index.invalidate("no_such_dataset");  // no-op
  EXPECT_EQ(index.stats().invalidations, 1u);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.stats().invalidations, 2u);
}

// ---- persistence ----

void populate_index(ReuseIndex& index) {
  const graph::CompGraph vgg = build_model("vgg11");
  const graph::CompGraph res = build_model("resnet18");
  index.insert("cifar10", 11, ghn::structural_fingerprint(vgg),
               make_signature(vgg), dummy_embedding(1.0));
  index.insert("cifar10", 11, ghn::structural_fingerprint(res),
               make_signature(res), dummy_embedding(2.0));
  index.insert("mnist", 22, ghn::structural_fingerprint(vgg),
               make_signature(vgg), dummy_embedding(3.0));
}

std::string saved_index_bytes() {
  ReuseIndex index(test_config());
  populate_index(index);
  std::ostringstream os;
  io::SnapshotWriter snap;
  index.save(snap);
  snap.save(os);
  return os.str();
}

TEST(ReuseIndexPersistence, RoundTripRestoresMatchingPartitions) {
  const std::string bytes = saved_index_bytes();
  std::istringstream is(bytes);
  const io::SnapshotReader snap(is, "test");
  ReuseIndex restored(test_config());
  // cifar10's GHN still has checksum 11; mnist was retrained (now 99), so
  // its saved partition is stale and must be skipped.
  const std::size_t n = restored.load(snap, [](const std::string& dataset) {
    return dataset == "cifar10" ? 11u : 99u;
  });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(restored.size("cifar10"), 2u);
  EXPECT_EQ(restored.size("mnist"), 0u);
  // Restored entries serve probes exactly like live inserts.
  const graph::CompGraph query = build_model("vgg13");
  const auto hit = restored.probe("cifar10", 11,
                                  ghn::structural_fingerprint(query),
                                  make_signature(query));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->embedding, dummy_embedding(1.0));
}

TEST(ReuseIndexPersistence, MissingSectionRestoresNothing) {
  std::ostringstream os;
  io::SnapshotWriter snap;
  snap.add("unrelated").u32(7);
  snap.save(os);
  std::istringstream is(os.str());
  const io::SnapshotReader reader(is, "test");
  ReuseIndex index(test_config());
  EXPECT_EQ(index.load(reader, [](const std::string&) { return 1u; }), 0u);
}

TEST(ReuseIndexPersistence, AnyCorruptedByteRejected) {
  const std::string bytes = saved_index_bytes();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    EXPECT_THROW(
        {
          std::istringstream is(mutated);
          const io::SnapshotReader snap(is, "test");
          ReuseIndex index(test_config());
          io::BinaryReader r = snap.reader(kReuseIndexSection);
          index.load_section(r, [](const std::string&) { return 11u; });
        },
        Error)
        << "byte " << pos;
  }
}

TEST(ReuseIndexPersistence, TruncationAtEveryOffsetRejected) {
  const std::string bytes = saved_index_bytes();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(
        {
          std::istringstream is(bytes.substr(0, keep));
          const io::SnapshotReader snap(is, "test");
          ReuseIndex index(test_config());
          io::BinaryReader r = snap.reader(kReuseIndexSection);
          index.load_section(r, [](const std::string&) { return 11u; });
        },
        Error)
        << "kept " << keep;
  }
}

TEST(ReuseIndexPersistence, WrongVersionRejectedByName) {
  std::ostringstream os;
  {
    io::SnapshotWriter snap;
    io::BinaryWriter& w = snap.add(kReuseIndexSection);
    w.magic(kReuseIndexMagic);
    w.u32(kReuseIndexVersion + 1);
    w.u32(static_cast<std::uint32_t>(graph::kNumOpTypes));
    w.u32(0);
    snap.save(os);
  }
  std::istringstream is(os.str());
  const io::SnapshotReader snap(is, "test");
  ReuseIndex index(test_config());
  try {
    io::BinaryReader r = snap.reader(kReuseIndexSection);
    index.load_section(r, [](const std::string&) { return 1u; });
    FAIL() << "expected version check to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

// A section written by a NEWER build (wider op histogram than this one
// knows) cannot be interpreted — but it must be parsed in frame and dropped
// without error, not rejected, so a downgrade still boots.
TEST(ReuseIndexPersistence, WiderOpHistogramParsedAndDropped) {
  const std::uint32_t wide = static_cast<std::uint32_t>(graph::kNumOpTypes) + 3;
  std::ostringstream os;
  {
    io::SnapshotWriter snap;
    io::BinaryWriter& w = snap.add(kReuseIndexSection);
    w.magic(kReuseIndexMagic);
    w.u32(kReuseIndexVersion);
    w.u32(wide);
    w.u32(1);  // one dataset partition with one entry
    w.str("cifar10");
    w.u64(7);   // checksum (matches live below)
    w.u32(1);
    w.u64(0x1234);  // fp
    w.u32(10);      // nodes
    w.u32(12);      // edges
    w.u64(1000);    // params
    for (std::uint32_t c = 0; c < wide; ++c) w.u32(c);
    io::write_vector(w, dummy_embedding(1.0));
    snap.save(os);
  }
  std::istringstream is(os.str());
  const io::SnapshotReader snap(is, "test");
  ReuseIndex index(test_config());
  io::BinaryReader r = snap.reader(kReuseIndexSection);
  std::size_t restored = 0;
  EXPECT_NO_THROW(restored = index.load_section(
                      r, [](const std::string&) { return 7u; }));
  EXPECT_EQ(restored, 0u);
  EXPECT_EQ(index.size(), 0u);
}

// A section written by an OLDER build (narrower histogram — op kinds are
// append-only, so the stored counts are a strict prefix of today's) loads
// with the missing tail zero-extended.  CNN-era graphs contain none of the
// later-added transformer ops, so the restored signatures are exact and the
// partition keeps serving near-duplicates.
TEST(ReuseIndexPersistence, NarrowerOpHistogramZeroExtended) {
  const graph::CompGraph donor = build_model("vgg11");
  const StructuralSignature sig = make_signature(donor);
  const std::uint32_t narrow =
      static_cast<std::uint32_t>(graph::kNumOpTypes) - 2;
  for (std::uint32_t c = narrow; c < sig.op_counts.size(); ++c) {
    ASSERT_EQ(sig.op_counts[c], 0u) << "CNN graph uses a transformer op";
  }
  const std::uint64_t donor_fp = ghn::structural_fingerprint(donor);
  std::ostringstream os;
  {
    io::SnapshotWriter snap;
    io::BinaryWriter& w = snap.add(kReuseIndexSection);
    w.magic(kReuseIndexMagic);
    w.u32(kReuseIndexVersion);
    w.u32(narrow);
    w.u32(1);
    w.str("cifar10");
    w.u64(7);
    w.u32(1);
    w.u64(donor_fp);
    w.u32(sig.nodes);
    w.u32(sig.edges);
    w.u64(sig.params);
    for (std::uint32_t c = 0; c < narrow; ++c) w.u32(sig.op_counts[c]);
    io::write_vector(w, dummy_embedding(2.0));
    snap.save(os);
  }
  std::istringstream is(os.str());
  const io::SnapshotReader snap(is, "test");
  ReuseIndex index(test_config());
  io::BinaryReader r = snap.reader(kReuseIndexSection);
  EXPECT_EQ(index.load_section(r, [](const std::string&) { return 7u; }), 1u);
  const graph::CompGraph query = build_model("vgg13");
  const auto hit = index.probe("cifar10", 7,
                               ghn::structural_fingerprint(query),
                               make_signature(query));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->donor_fp, donor_fp);
  EXPECT_EQ(hit->embedding, dummy_embedding(2.0));
}

// Transformer probe regression: the new op kinds flow through signature,
// probe, and insert exactly like CNN ops.  An exact structural repeat hits
// at distance 0; a cross-family probe (decoder vs encoder) never borrows an
// embedding across the family boundary.
TEST(ReuseIndex, TransformerProbesStayFamilyDiscriminating) {
  const graph::CompGraph donor =
      workload::DlWorkload{"bert_small", workload::wikitext103(), 32, 10}
          .build_graph();
  const std::uint64_t donor_fp = ghn::structural_fingerprint(donor);
  const StructuralSignature donor_sig = make_signature(donor);
  // The transformer-specific op kinds are actually exercised.
  EXPECT_GT(donor_sig.op_counts[static_cast<int>(graph::OpType::kEmbedding)],
            0u);
  EXPECT_GT(donor_sig.op_counts[static_cast<int>(
                graph::OpType::kAttentionMatmul)],
            0u);
  ReuseIndex index(test_config());
  ASSERT_TRUE(index.insert("wikitext103", 1, donor_fp, donor_sig,
                           dummy_embedding(3.0)));
  const auto exact = index.probe("wikitext103", 1, donor_fp, donor_sig);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->donor_fp, donor_fp);
  EXPECT_DOUBLE_EQ(exact->distance, 0.0);
  const graph::CompGraph decoder =
      workload::DlWorkload{"gpt_medium", workload::wikitext103(), 32, 10}
          .build_graph();
  EXPECT_FALSE(index.probe("wikitext103", 1,
                           ghn::structural_fingerprint(decoder),
                           make_signature(decoder))
                   .has_value());
}

// ---- concurrency ----

// 16 threads hammer insert/probe/invalidate across two datasets and two
// alternating checksums (checksum flips double as hot-swap invalidations).
// Run under TSan in CI; the assertions check the counters stayed coherent.
TEST(ReuseIndexStress, ConcurrentInsertProbeInvalidate) {
  ReuseConfig cfg = test_config();
  cfg.max_entries = 64;
  ReuseIndex index(cfg);
  constexpr int kThreads = 16;
  constexpr int kIters = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&index, &failed, t] {
      StructuralSignature sig;
      sig.nodes = 8;
      sig.edges = 9;
      sig.params = 512;
      sig.op_counts[0] = 8;
      const std::string dataset = (t % 2 == 0) ? "cifar10" : "mnist";
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t checksum = 1 + (i / 100) % 2;
        const std::uint64_t fp = static_cast<std::uint64_t>(t) * kIters + i;
        switch (i % 4) {
          case 0:
          case 1:
            index.insert(dataset, checksum, fp, sig, Vector{1.0, 2.0});
            break;
          case 2: {
            const auto hit = index.probe(dataset, checksum, fp, sig);
            if (hit && hit->embedding.size() != 2) failed = true;
            break;
          }
          default:
            if (i % 40 == 3) {
              index.invalidate(dataset);
            } else {
              (void)index.size(dataset);
              (void)index.stats();
            }
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  const ReuseStats s = index.stats();
  EXPECT_EQ(s.probes, s.hits + s.rejected + s.misses);
  EXPECT_GT(s.inserts, 0u);
  std::size_t live = index.size("cifar10") + index.size("mnist");
  EXPECT_EQ(s.entries, live);
  EXPECT_LE(live, 2u * cfg.max_entries);
}

// ---- batch planner ----

workload::DlWorkload make_workload(const std::string& model) {
  return workload::DlWorkload{model, workload::cifar10(), 64, 10};
}

TEST(BatchPlanner, GroupsNearDuplicatesBehindAnchors) {
  const std::vector<BatchCandidate> candidates = {
      {make_workload("vgg11"), cluster::make_uniform_cluster("p100", 4)},
      {make_workload("vgg11"), cluster::make_uniform_cluster("p100", 8)},
      {make_workload("vgg13"), cluster::make_uniform_cluster("p100", 4)},
      {make_workload("densenet121"), cluster::make_uniform_cluster("p100", 4)},
  };
  const BatchPlan plan = plan_batch(candidates, ReuseConfig{}.epsilon);
  EXPECT_EQ(plan.num_groups, 2u);
  ASSERT_EQ(plan.order.size(), candidates.size());
  // Anchors first: candidate 0 (vgg group) and candidate 3 (densenet).
  EXPECT_TRUE(plan.order[0].is_anchor());
  EXPECT_TRUE(plan.order[1].is_anchor());
  EXPECT_EQ(plan.order[0].candidate, 0u);
  EXPECT_EQ(plan.order[1].candidate, 3u);
  // Reusers follow, pointing at the vgg anchor.
  for (std::size_t i = 2; i < plan.order.size(); ++i) {
    const PlannedStep& s = plan.order[i];
    EXPECT_FALSE(s.is_anchor());
    EXPECT_EQ(s.anchor, 0u);
  }
  // Identical architecture on a different cluster plans at distance 0; the
  // structural near-duplicate at a positive distance within ε.
  const auto find_step = [&](std::size_t candidate) {
    for (const PlannedStep& s : plan.order) {
      if (s.candidate == candidate) return s;
    }
    return PlannedStep{};
  };
  EXPECT_DOUBLE_EQ(find_step(1).planned_distance, 0.0);
  EXPECT_GT(find_step(2).planned_distance, 0.0);
  EXPECT_LE(find_step(2).planned_distance, ReuseConfig{}.epsilon);
}

TEST(BatchPlanner, TightGateSplitsEveryCandidateIntoItsOwnGroup) {
  const std::vector<BatchCandidate> candidates = {
      {make_workload("vgg11"), cluster::make_uniform_cluster("p100", 4)},
      {make_workload("vgg13"), cluster::make_uniform_cluster("p100", 4)},
  };
  const BatchPlan plan = plan_batch(candidates, /*epsilon=*/0.0);
  EXPECT_EQ(plan.num_groups, 2u);
}

TEST(BatchPlanner, UnknownModelThrows) {
  const std::vector<BatchCandidate> candidates = {
      {make_workload("no_such_model"), cluster::make_uniform_cluster("p100", 4)},
  };
  EXPECT_THROW(plan_batch(candidates, ReuseConfig{}.epsilon), Error);
}

// ---- service integration ----

core::PredictDdlOptions fast_options() {
  core::PredictDdlOptions opts;
  opts.ghn.hidden_dim = 12;
  opts.ghn.mlp_hidden = 12;
  opts.ghn_trainer.corpus_size = 10;
  opts.ghn_trainer.epochs = 4;
  opts.ghn_trainer.batch_size = 5;
  opts.ghn_trainer.darts.max_cells = 3;
  opts.campaign.models = {"alexnet",   "resnet18",           "resnet50",
                          "vgg11",     "mobilenet_v3_small", "squeezenet1_1",
                          "densenet121"};
  opts.campaign.max_servers = 8;
  opts.campaign.batch_sizes = {64};
  return opts;
}

core::PredictRequest make_request(const std::string& model, int servers = 4) {
  core::PredictRequest req;
  req.workload = make_workload(model);
  req.cluster = cluster::make_uniform_cluster("p100", servers);
  return req;
}

serve::ServiceConfig reuse_config() {
  serve::ServiceConfig cfg;
  cfg.reuse.enabled = true;
  return cfg;
}

class ReuseServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool_ = new ThreadPool(8);
    sim_ = new sim::DdlSimulator();
    pddl_ = new core::PredictDdl(*sim_, *pool_, fast_options());
    pddl_->train_offline(workload::cifar10());
  }
  static void TearDownTestSuite() {
    delete pddl_;
    delete sim_;
    delete pool_;
    pddl_ = nullptr;
    sim_ = nullptr;
    pool_ = nullptr;
  }

  static ThreadPool* pool_;
  static sim::DdlSimulator* sim_;
  static core::PredictDdl* pddl_;
};

ThreadPool* ReuseServeTest::pool_ = nullptr;
sim::DdlSimulator* ReuseServeTest::sim_ = nullptr;
core::PredictDdl* ReuseServeTest::pddl_ = nullptr;

TEST_F(ReuseServeTest, OffByDefaultServingIsUnchanged) {
  serve::PredictionService service(*pddl_);  // default config: reuse off
  const serve::ServeResult a = service.predict(make_request("vgg11"));
  const serve::ServeResult b = service.predict(make_request("vgg13"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.confidence, serve::Confidence::kExact);
  EXPECT_EQ(b.confidence, serve::Confidence::kExact);
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.cache_misses, 2u);
  EXPECT_EQ(m.reuse_hits, 0u);
  EXPECT_EQ(m.reuse_misses, 0u);
  EXPECT_EQ(m.reuse_entries, 0u);
  // Identical predictions to the direct path: reuse never touched them.
  EXPECT_DOUBLE_EQ(b.response.predicted_time_s,
                   pddl_->submit(make_request("vgg13")).predicted_time_s);
}

TEST_F(ReuseServeTest, EpsilonZeroDisablesReuseEvenWhenEnabled) {
  serve::ServiceConfig cfg = reuse_config();
  cfg.reuse.epsilon = 0.0;
  serve::PredictionService service(*pddl_, cfg);
  ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
  const serve::ServeResult r = service.predict(make_request("vgg13"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.confidence, serve::Confidence::kExact);
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.reuse_hits, 0u);
  EXPECT_EQ(m.cache_misses, 2u);
  EXPECT_EQ(m.reuse_entries, 0u);  // not even inserts happen
}

TEST_F(ReuseServeTest, NearDuplicateServedFromIndexWithTaggedConfidence) {
  serve::PredictionService service(*pddl_, reuse_config());
  const serve::ServeResult fresh = service.predict(make_request("vgg11"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.confidence, serve::Confidence::kExact);

  const serve::ServeResult reused = service.predict(make_request("vgg13"));
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.confidence, serve::Confidence::kReused);
  EXPECT_FALSE(reused.cache_hit);
  EXPECT_GT(reused.reuse_distance, 0.0);
  EXPECT_LE(reused.reuse_distance, reuse_config().reuse.epsilon);

  // Accounting invariant with reuse on.
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.completed, m.cache_hits + m.cache_misses + m.reuse_hits);
  EXPECT_EQ(m.reuse_hits, 1u);
  EXPECT_EQ(m.reuse_probes, m.reuse_hits + m.reuse_rejected + m.reuse_misses);
  EXPECT_EQ(m.reuse_probes, 2u);  // both cache misses probed the index
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.reuse_entries, 1u);   // only the fresh embed was indexed
  EXPECT_EQ(m.cache_entries, 1u);   // reused request not cached under its fp
  EXPECT_EQ(m.reuse_distance.count, 1u);
  EXPECT_GT(m.reuse_distance.max, 0.0);

  // The reused prediction stays within a bounded factor of the query's
  // own-embedding prediction.  The paper-scale calibration (32-d GHN) puts
  // the budget at ≤8.1% (DESIGN.md §11, asserted by bench/reuse_planner);
  // this suite's deliberately tiny 12-d / 4-epoch GHN is far noisier, so
  // the bound here only guards against the unbounded failure mode the
  // joint gate exists to prevent (order-of-magnitude substitutions).
  const double own =
      pddl_->submit(make_request("vgg13")).predicted_time_s;
  EXPECT_GT(reused.response.predicted_time_s, 0.0);
  EXPECT_LE(std::abs(reused.response.predicted_time_s - own) / own, 0.6);
}

TEST_F(ReuseServeTest, RepeatNearDuplicateKeepsReusing) {
  serve::PredictionService service(*pddl_, reuse_config());
  ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
  for (int i = 0; i < 3; ++i) {
    const serve::ServeResult r = service.predict(make_request("vgg13"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.confidence, serve::Confidence::kReused);
  }
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.reuse_hits, 3u);
  EXPECT_EQ(m.cache_entries, 1u);  // vgg13 never entered the cache
  EXPECT_EQ(m.reuse_entries, 1u);
}

TEST_F(ReuseServeTest, ExactRepeatPrefersCacheOverIndex) {
  serve::PredictionService service(*pddl_, reuse_config());
  ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
  const serve::ServeResult repeat = service.predict(make_request("vgg11", 8));
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.confidence, serve::Confidence::kExact);
  EXPECT_EQ(service.metrics().reuse_hits, 0u);
}

TEST_F(ReuseServeTest, WarmUpPopulatesIndexForNearDuplicates) {
  serve::PredictionService service(*pddl_, reuse_config());
  const std::size_t warmed =
      service.warm_up({make_workload("vgg11"), make_workload("resnet18")});
  EXPECT_EQ(warmed, 2u);
  EXPECT_EQ(service.metrics().reuse_entries, 2u);
  // A near-duplicate of a warmed model reuses without any prior request.
  const serve::ServeResult r = service.predict(make_request("vgg13"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.confidence, serve::Confidence::kReused);
}

TEST_F(ReuseServeTest, SaveLoadRestoresIndexAcrossRestart) {
  const std::string path = "reuse_test_cache.bin";
  {
    serve::PredictionService service(*pddl_, reuse_config());
    ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
    ASSERT_TRUE(service.predict(make_request("resnet18")).ok());
    service.save_cache(path);
  }
  serve::PredictionService restarted(*pddl_, reuse_config());
  const std::size_t restored = restarted.load_cache(path);
  EXPECT_GE(restored, 4u);  // 2 cache entries + 2 index entries
  EXPECT_EQ(restarted.metrics().reuse_entries, 2u);
  // The restored index serves near-duplicates with no fresh embed first.
  const serve::ServeResult r = restarted.predict(make_request("vgg13"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.confidence, serve::Confidence::kReused);
  // The restored cache still serves exact repeats.
  const serve::ServeResult exact = restarted.predict(make_request("vgg11"));
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact.cache_hit);
  std::filesystem::remove(path);
}

TEST_F(ReuseServeTest, GhnHotSwapDropsIndexWithZeroFailedRequests) {
  serve::PredictionService service(*pddl_, reuse_config());
  ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
  ASSERT_TRUE(service.predict(make_request("vgg13")).ok());
  ASSERT_EQ(service.metrics().reuse_hits, 1u);

  // Keep the trained GHN so the suite's shared engine survives this test.
  const std::string ghn_path = "reuse_test_ghn.bin";
  ghn::save_ghn(ghn_path, *pddl_->registry().model("cifar10"));

  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&service, &served, &failures, t] {
      const char* models[] = {"vgg11", "vgg13", "resnet18"};
      for (int i = 0; i < 30; ++i) {
        const serve::ServeResult r =
            service.predict(make_request(models[(t + i) % 3]));
        ++served;
        if (!r.ok()) ++failures;
      }
    });
  }
  // Hot-swap mid-traffic: a freshly initialised GHN has a new checksum, so
  // every index partition built under the old one must be dropped without a
  // single in-flight request failing.
  Rng rng(777);
  pddl_->registry().put("cifar10",
                        std::make_unique<ghn::Ghn2>(fast_options().ghn, rng));
  for (auto& th : clients) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(served.load(), 120u);
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.errors, 0u);
  EXPECT_GE(m.reuse_invalidations, 1u);
  EXPECT_EQ(m.completed, m.cache_hits + m.cache_misses + m.reuse_hits);

  // Restore the trained GHN for the rest of the suite.
  pddl_->registry().put("cifar10", ghn::load_ghn(ghn_path));
  std::filesystem::remove(ghn_path);
}

TEST_F(ReuseServeTest, ShardEntryCountsMatchCacheOccupancy) {
  serve::PredictionService service(*pddl_);
  ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
  ASSERT_TRUE(service.predict(make_request("resnet18")).ok());
  ASSERT_TRUE(service.predict(make_request("densenet121")).ok());
  const std::vector<std::size_t> per_shard = service.cache().shard_entry_counts();
  EXPECT_EQ(per_shard.size(), serve::ServiceConfig{}.cache_shards);
  const std::size_t total =
      std::accumulate(per_shard.begin(), per_shard.end(), std::size_t{0});
  EXPECT_EQ(total, service.metrics().cache_entries);
  EXPECT_EQ(total, 3u);
}

TEST_F(ReuseServeTest, ArenaHighWaterMarkReportedAfterFreshEmbed) {
  serve::PredictionService service(*pddl_);
  ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_GT(m.arena_hwm_bytes, 0u);
  EXPECT_GT(m.arena_chunks, 0u);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"arena\""), std::string::npos);
  EXPECT_NE(json.find("\"reuse\""), std::string::npos);
  // The text rendering stays quiet about reuse until it happens.
  EXPECT_EQ(m.to_string().find("reuse"), std::string::npos);
  EXPECT_NE(m.to_string().find("arena"), std::string::npos);
}

TEST_F(ReuseServeTest, ReuseCountersSurfaceInTextOnceActive) {
  serve::PredictionService service(*pddl_, reuse_config());
  ASSERT_TRUE(service.predict(make_request("vgg11")).ok());
  ASSERT_TRUE(service.predict(make_request("vgg13")).ok());
  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_NE(m.to_string().find("reuse"), std::string::npos);
  EXPECT_NE(m.to_json().find("\"distance\""), std::string::npos);
  // The probe counter rides in every rendering, so the dump alone shows
  // probes == hits + rejected + misses.
  const std::string probes = "probes=" + std::to_string(m.reuse_probes);
  EXPECT_NE(m.to_string().find(probes), std::string::npos);
  EXPECT_NE(m.to_json().find("\"probes\":" + std::to_string(m.reuse_probes)),
            std::string::npos);
  EXPECT_EQ(m.reuse_probes, m.reuse_hits + m.reuse_rejected + m.reuse_misses);
}

TEST_F(ReuseServeTest, ExecutePlanServesAnchorsFreshAndReusesTheRest) {
  serve::PredictionService service(*pddl_, reuse_config());
  const std::vector<BatchCandidate> candidates = {
      {make_workload("vgg11"), cluster::make_uniform_cluster("p100", 4)},
      {make_workload("vgg11"), cluster::make_uniform_cluster("p100", 8)},
      {make_workload("vgg13"), cluster::make_uniform_cluster("p100", 4)},
      {make_workload("densenet121"), cluster::make_uniform_cluster("p100", 4)},
  };
  const BatchPlan plan = plan_batch(candidates, reuse_config().reuse.epsilon);
  const BatchExecution exec = execute_plan(service, candidates, plan);
  ASSERT_EQ(exec.steps.size(), candidates.size());
  for (const auto& step : exec.steps) {
    EXPECT_TRUE(step.result.ok()) << step.result.error;
  }
  EXPECT_EQ(exec.fresh_embeds, 2u);  // vgg11 + densenet121 anchors
  EXPECT_EQ(exec.cache_hits, 1u);    // vgg11 on the 8-server cluster
  EXPECT_EQ(exec.reuse_hits, 1u);    // vgg13 via the index
  EXPECT_GT(exec.total_ms, 0.0);
}

}  // namespace
}  // namespace pddl::reuse
