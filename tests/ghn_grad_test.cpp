// Tests for the tape-free GHN reverse pass (src/ghn/grad.hpp).  The
// contract is bit-identity with the autograd tape, so every comparison here
// is a memcmp, never a tolerance:
//   * loss and every parameter gradient against Ghn2::embed on a tape, over
//     DARTS graphs, CNN families with virtual edges, transformers, the
//     {virtual_edges, op_normalization} grid and num_passes 1 / 2;
//   * GhnTrainer (fresh DARTS corpus and the fine-tune constructor) against
//     a tape-driven reference trainer kept below: identical epoch losses and
//     an identical ghn_checksum;
//   * a warm second call performs no heap allocation.
// Runs at both dispatch levels and under TSan, UBSan and ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/optim.hpp"
#include "ghn/ghn2.hpp"
#include "ghn/grad.hpp"
#include "ghn/trainer.hpp"
#include "graph/darts.hpp"
#include "graph/models.hpp"
#include "parallel/thread_pool.hpp"

#include "alloc_counting.hpp"

namespace pddl::ghn {
namespace {

using graph::CompGraph;

GhnConfig config(bool virtual_edges, bool op_normalization, int num_passes,
                 std::size_t width = 16) {
  GhnConfig c;
  c.hidden_dim = width;
  c.mlp_hidden = width;
  c.num_passes = num_passes;
  c.virtual_edges = virtual_edges;
  c.op_normalization = op_normalization;
  return c;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The oracle: the same objective on the autograd tape.
double tape_loss_and_grads(Ghn2& ghn, nn::Linear& head, const CompGraph& g,
                           const Vector& target, std::vector<Matrix>& grads) {
  nn::Ctx ctx;
  ag::Var pred = head.forward(ctx, ghn.embed(ctx, g));
  ag::Var loss = ag::mse(pred, ctx.constant(Matrix::row_vector(target)));
  ctx.backward(loss);
  grads.clear();
  for (Matrix* p : ghn.parameters()) grads.push_back(ctx.grad(*p));
  for (Matrix* p : head.parameters()) grads.push_back(ctx.grad(*p));
  return loss.value()(0, 0);
}

void expect_matches_tape(Ghn2& ghn, nn::Linear& head, const CompGraph& g,
                         const std::string& what) {
  const Vector target = complexity_targets(g);
  std::vector<Matrix> tape, hand;
  const double tape_loss = tape_loss_and_grads(ghn, head, g, target, tape);
  const double hand_loss =
      GhnGradient(ghn).loss_and_grads(g, head, target, hand);
  EXPECT_TRUE(same_bits(tape_loss, hand_loss))
      << what << ": loss " << tape_loss << " vs " << hand_loss;
  ASSERT_EQ(tape.size(), hand.size()) << what;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    EXPECT_TRUE(same_bits(tape[i], hand[i])) << what << ": parameter " << i;
  }
}

std::string tag(const GhnConfig& c) {
  return std::string(c.virtual_edges ? " +ve" : " -ve") +
         (c.op_normalization ? " +on" : " -on") + " T=" +
         std::to_string(c.num_passes);
}

TEST(GhnGradient, BitIdenticalToTapeOnDartsAcrossConfigGrid) {
  const std::vector<CompGraph> darts = graph::sample_darts_corpus(3, 21);
  for (int passes : {1, 2}) {
    for (bool ve : {false, true}) {
      for (bool on : {false, true}) {
        const GhnConfig c = config(ve, on, passes);
        Rng rng(5);
        Ghn2 ghn(c, rng);
        nn::Linear head(c.hidden_dim, kNumTargets, rng);
        for (const CompGraph& g : darts) {
          expect_matches_tape(ghn, head, g, g.name() + tag(c));
        }
      }
    }
  }
}

// CNN families whose graphs carry virtual edges (s_max > 1 hops through
// residual, dense and inverted-residual blocks) and both transformer
// families, at both pass counts.
TEST(GhnGradient, BitIdenticalToTapeOnModelFamilies) {
  std::vector<CompGraph> graphs;
  for (const char* name : {"resnet18", "densenet121", "mobilenet_v3_small"}) {
    graphs.push_back(graph::build_model(name, {3, 32, 32}, 10));
  }
  for (const char* name : {"bert_tiny", "gpt_tiny"}) {
    graphs.push_back(graph::build_model(name, {1, 128, 1}, 1000));
  }
  for (int passes : {1, 2}) {
    const GhnConfig c = config(true, true, passes);
    Rng rng(9);
    Ghn2 ghn(c, rng);
    nn::Linear head(c.hidden_dim, kNumTargets, rng);
    for (const CompGraph& g : graphs) {
      expect_matches_tape(ghn, head, g, g.name() + tag(c));
    }
  }
}

TEST(GhnGradient, BitIdenticalToTapeAtDefaultDimensions) {
  Rng rng(13);
  Ghn2 ghn(GhnConfig{}, rng);
  nn::Linear head(ghn.config().hidden_dim, kNumTargets, rng);
  const CompGraph g = graph::build_model("resnet50", {3, 32, 32}, 10);
  expect_matches_tape(ghn, head, g, "resnet50 default");
}

// Op types absent from the graph never reach the loss: their gains get an
// all-zero gradient, present ones a non-zero one.
TEST(GhnGradient, AbsentOpTypeGainsGetZeroGradients) {
  Rng rng(17);
  Ghn2 ghn(config(true, true, 1), rng);
  nn::Linear head(ghn.config().hidden_dim, kNumTargets, rng);
  const CompGraph g = graph::build_model("alexnet", {3, 32, 32}, 10);
  std::vector<Matrix> grads;
  GhnGradient(ghn).loss_and_grads(g, head, complexity_targets(g), grads);
  const Vector hist = g.op_type_histogram();
  const std::size_t gain0 = grads.size() - 2 - graph::kNumOpTypes;
  std::size_t absent = 0;
  for (std::size_t op = 0; op < graph::kNumOpTypes; ++op) {
    const Matrix& gg = grads[gain0 + op];
    if (hist[op] == 0.0) {
      ++absent;
      EXPECT_EQ(gg.max_abs(), 0.0) << "op " << op;
    } else {
      EXPECT_GT(gg.max_abs(), 0.0) << "op " << op;
    }
  }
  EXPECT_GT(absent, 0u);
}

TEST(GhnGradient, WarmSecondCallPerformsNoAllocations) {
  Rng rng(19);
  Ghn2 ghn(config(true, true, 2), rng);
  nn::Linear head(ghn.config().hidden_dim, kNumTargets, rng);
  const CompGraph g = graph::build_model("resnet18", {3, 32, 32}, 10);
  const Vector target = complexity_targets(g);
  const GhnGradient grad(ghn);
  std::vector<Matrix> grads;
  const double warm_loss = grad.loss_and_grads(g, head, target, grads);
  const std::vector<Matrix> warm = grads;

  g_count_allocs.store(true, std::memory_order_relaxed);
  t_alloc_count = 0;
  const double loss = grad.loss_and_grads(g, head, target, grads);
  const std::size_t allocs = t_alloc_count;
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(same_bits(loss, warm_loss));
  ASSERT_EQ(grads.size(), warm.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    EXPECT_TRUE(same_bits(grads[i], warm[i])) << "parameter " << i;
  }
}

// ---- trainer-level identity against a tape-driven reference ----

// GhnTrainer::train step for step, with every per-graph gradient taken on
// the tape: same head init, target standardization, shuffle, batch
// averaging and Adam.
struct TapeReference {
  std::vector<double> epoch_losses;
};

TapeReference tape_train(Ghn2& ghn, const TrainerConfig& cfg,
                         const std::vector<CompGraph>& corpus) {
  Rng head_rng(cfg.seed ^ 0xabcdef12345ULL);
  nn::Linear head(ghn.config().hidden_dim, kNumTargets, head_rng);
  std::vector<Matrix*> params = ghn.parameters();
  for (Matrix* p : head.parameters()) params.push_back(p);

  Vector mean(kNumTargets, 0.0), stdev(kNumTargets, 0.0);
  std::vector<Vector> raw;
  for (const CompGraph& g : corpus) raw.push_back(complexity_targets(g));
  for (const Vector& t : raw) {
    for (std::size_t k = 0; k < kNumTargets; ++k) mean[k] += t[k];
  }
  for (double& m : mean) m /= static_cast<double>(raw.size());
  for (const Vector& t : raw) {
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      const double d = t[k] - mean[k];
      stdev[k] += d * d;
    }
  }
  for (double& s : stdev) {
    s = std::sqrt(s / static_cast<double>(raw.size()));
    if (s < 1e-8) s = 1.0;
  }
  for (Vector& t : raw) {
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      t[k] = (t[k] - mean[k]) / stdev[k];
    }
  }

  ag::Adam opt(cfg.learning_rate);
  opt.register_params(params);
  opt.set_clip_norm(cfg.clip_norm);
  Rng shuffle_rng(cfg.seed ^ 0x5151515151ULL);
  std::vector<std::size_t> order(corpus.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  TapeReference ref;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      std::vector<Matrix> total;
      for (std::size_t i = start; i < end; ++i) {
        std::vector<Matrix> grads;
        epoch_loss += tape_loss_and_grads(ghn, head, corpus[order[i]],
                                          raw[order[i]], grads);
        if (i == start) {
          total = std::move(grads);
        } else {
          for (std::size_t p = 0; p < total.size(); ++p) total[p] += grads[p];
        }
      }
      const double inv = 1.0 / static_cast<double>(end - start);
      for (Matrix& g : total) g *= inv;
      opt.step_grads(std::move(total));
    }
    ref.epoch_losses.push_back(epoch_loss /
                               static_cast<double>(corpus.size()));
  }
  ghn.invalidate_checksum();
  return ref;
}

TrainerConfig short_run() {
  TrainerConfig tc;
  tc.corpus_size = 16;
  tc.epochs = 2;
  tc.batch_size = 4;
  tc.seed = 3;
  tc.darts.max_cells = 3;
  return tc;
}

void expect_same_training(const TrainReport& report, const TapeReference& ref,
                          const Ghn2& trained, const Ghn2& reference) {
  ASSERT_EQ(report.epoch_losses.size(), ref.epoch_losses.size());
  for (std::size_t e = 0; e < ref.epoch_losses.size(); ++e) {
    EXPECT_TRUE(same_bits(report.epoch_losses[e], ref.epoch_losses[e]))
        << "epoch " << e << ": " << report.epoch_losses[e] << " vs "
        << ref.epoch_losses[e];
  }
  EXPECT_EQ(ghn_checksum(trained), ghn_checksum(reference));
}

TEST(GhnTrainerIdentity, DartsRunMatchesTapeReference) {
  const TrainerConfig tc = short_run();
  const GhnConfig c = config(true, true, 1);
  Rng rng_a(23), rng_b(23);
  Ghn2 trained(c, rng_a), reference(c, rng_b);
  ASSERT_EQ(ghn_checksum(trained), ghn_checksum(reference));

  ThreadPool pool(4);
  GhnTrainer trainer(trained, tc);
  const TrainReport report = trainer.train(pool);
  const TapeReference ref = tape_train(
      reference, tc, graph::sample_darts_corpus(tc.corpus_size, tc.seed,
                                                tc.darts));
  expect_same_training(report, ref, trained, reference);
}

TEST(GhnTrainerIdentity, FineTuneOnTorchvisionGraphsMatchesTapeReference) {
  std::vector<CompGraph> corpus;
  for (const char* name : {"alexnet", "resnet18", "squeezenet1_1",
                           "mobilenet_v3_small", "shufflenet_v2_x0_5",
                           "vgg11"}) {
    corpus.push_back(graph::build_model(name, {3, 32, 32}, 10));
  }
  TrainerConfig tc = short_run();
  tc.batch_size = 3;
  const GhnConfig c = config(true, true, 1, 12);
  Rng rng_a(29), rng_b(29);
  Ghn2 trained(c, rng_a), reference(c, rng_b);

  ThreadPool pool(4);
  GhnTrainer trainer(trained, tc, corpus);
  const TrainReport report = trainer.train(pool);
  const TapeReference ref = tape_train(reference, tc, corpus);
  expect_same_training(report, ref, trained, reference);
}

}  // namespace
}  // namespace pddl::ghn
