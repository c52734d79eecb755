// Tape-free reverse pass of the GHN-2 surrogate objective (DESIGN.md §16).
//
// GhnTrainer's objective for one graph is L = mean((e·W + b − t)²): a linear
// head (W, b) on the mean-pooled GHN embedding e, regressed onto the graph's
// standardized complexity targets t.  Ghn2::embed evaluates it on the
// autograd tape, which builds ~23k nodes per DARTS graph (one heap Matrix
// and one std::function each) and runs one message-MLP forward per *edge*.
// GhnGradient computes the same loss and the same gradients without a tape:
//
//   forward   the inference engine's schedule in f64 — its virtual-edge CSR,
//             its per-half-pass message-MLP memo and its batched H·Uz / H·Ur
//             GEMMs (engine_kernels.hpp) — storing only what the reverse
//             reads: GRU gates z, r, ñ, r∘h and the message of every update,
//             each half-pass's states, each memoized MLP's hidden row and the
//             op-normalization tanh output, all in the thread's ScratchArena;
//   reverse   a replay of the tape's op sequence in reverse creation order,
//             with each op's exact backward expression (sigmoid g·(s·(1−s)),
//             sub g·−1, …).  Every gradient accumulator — parameter, node
//             state, message — receives its deltas in the tape's order, so
//             the message-MLP backward stays per edge (one rank-1 update and
//             one dot per layer), exactly as the tape adds them.
//
// Contract: loss and every gradient are bit-identical to the tape's, not
// merely close.  GHN training is chaotic — moving every initial weight by one
// ulp moves the final loss by 7.6 % — so any change in summation order would
// train a different GHN.  tests/ghn_grad_test.cpp compares with memcmp.
// Ghn2::embed(ctx, …) stays as the oracle those tests compare against.
#pragma once

#include <span>
#include <vector>

#include "ghn/ghn2.hpp"
#include "ghn/infer.hpp"

namespace pddl::ghn {

class GhnGradient {
 public:
  // Binds `ghn` by reference and reads its weights live (no snapshot), so
  // one instance follows a GHN through training.  Requires the Ghn2 layout:
  // two-layer ReLU message MLPs with biases.
  explicit GhnGradient(const Ghn2& ghn);

  // L = mean((embed(g)·W + b − target)²) for head = (W, b), and dL/dθ for
  // every parameter: `grads` is resized to Ghn2::parameters() followed by
  // the head's weight and bias, in that order.  Scratch lives in
  // GhnInference::thread_arena() (reset on entry); with a warm arena and
  // `grads` already at shape, a call performs no heap allocation.
  double loss_and_grads(const graph::CompGraph& g, const nn::Linear& head,
                        std::span<const double> target,
                        std::vector<Matrix>& grads) const;

 private:
  const Ghn2& ghn_;
};

// The objective's forward half on an embedding computed elsewhere (the
// evaluation path runs GhnInference's f64 forward): returns
// mean((emb·W + b − target)²) and writes the residual emb·W + b − target
// into `residual` (head.out_features() doubles).  Bit-identical to the
// tape's Linear::forward + ag::mse.
double head_mse(const nn::Linear& head, const double* emb,
                std::span<const double> target, double* residual);

}  // namespace pddl::ghn
