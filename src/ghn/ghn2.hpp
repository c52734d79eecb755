// GHN-2 — Graph HyperNetwork, second generation (Knyazev et al., 2021),
// as used by PredictDDL (§II-B, §III-E).
//
// The network consumes a DNN computational graph and produces a fixed-size
// embedding of the architecture:
//
//  module 1  embedding layer      H₀ (one-hot op features) → H₁ ∈ R^{|V|×d}
//  module 2  GatedGNN (Eq. 3–4)   sequential message passing following the
//                                 forward (fw) and backward (bw) traversal
//                                 orders π of the computational graph:
//                                   m_v = Σ_{u∈N_v^π} MLP(h_u)
//                                       + Σ_{u∈N_v^{(sp)}} (1/s_vu)·MLP_sp(h_u)
//                                   h_v = GRU(h_v, m_v)
//                                 with virtual edges N^{(sp)} given by
//                                 shortest-path distances 1 < s ≤ s_max.
//  module 3  (decoder)            the original GHN decodes h_v^T into DNN
//                                 weights; PredictDDL skips it and reads the
//                                 mean node state as the embedding.
//
// GHN-2's "operation-dependent normalization" is realised here as a bounded
// per-op-type rescaling h_v ← tanh(h_v) ∘ γ_op applied after every GRU
// update; like the original it exists to keep deep traversals from blowing
// up hidden-state magnitudes.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "graph/comp_graph.hpp"
#include "nn/layers.hpp"

namespace pddl::ghn {

struct GhnConfig {
  std::size_t hidden_dim = 32;   // d — also the output embedding dimension
  std::size_t mlp_hidden = 32;   // width of the message MLPs
  int num_passes = 1;            // T forward-backward rounds
  bool virtual_edges = true;     // Eq. 4 on (GHN-2) / off (plain GatedGNN)
  int s_max = 5;                 // shortest-path cutoff for virtual edges
  bool op_normalization = true;  // per-op-type normalization on/off
};

class Ghn2 final : public nn::Module {
 public:
  Ghn2(const GhnConfig& cfg, Rng& rng);

  const GhnConfig& config() const { return cfg_; }

  // Differentiable graph embedding (1 × hidden_dim) on the caller's tape.
  // The reference arithmetic: GhnGradient (training, grad.hpp) and
  // GhnInference (serving, infer.hpp) are tested bit for bit against it;
  // nothing in src/ outside this file calls it.
  nn::Var embed(nn::Ctx& ctx, const graph::CompGraph& g);

  // Runs a private tape and returns the plain vector (test/bench oracle).
  Vector embedding(const graph::CompGraph& g);

  // Marks the cached ghn_checksum dirty: handing out mutable parameter
  // pointers means the caller may write through them.
  std::vector<Matrix*> parameters() override;
  using nn::Module::parameters;  // un-hide the const read-only overload

  // Drops the cached ghn_checksum value.  Call after mutating parameters
  // through pointers obtained earlier (the trainer's optimizer does this;
  // a fresh parameters() call invalidates automatically).
  void invalidate_checksum() {
    checksum_valid_.store(false, std::memory_order_release);
  }

  // ---- raw module access for the tape-free inference engine ----
  const nn::Linear& embed_layer() const { return embed_layer_; }
  const nn::Mlp& msg_mlp() const { return msg_mlp_; }
  const nn::Mlp& msg_mlp_sp() const { return msg_mlp_sp_; }
  const nn::GruCell& gru() const { return gru_; }
  const std::vector<Matrix>& op_gains() const { return op_gains_; }

 private:
  friend std::uint64_t ghn_checksum(const Ghn2& ghn);

  GhnConfig cfg_;
  nn::Linear embed_layer_;
  nn::Mlp msg_mlp_;     // MLP(·) of Eq. 3
  nn::Mlp msg_mlp_sp_;  // MLP_sp(·) of Eq. 4
  nn::GruCell gru_;
  // One learned 1×d gain per op type (operation-dependent normalization).
  std::vector<Matrix> op_gains_;
  // ghn_checksum memo: hashing every parameter scalar on each save_cache /
  // load_cache call is O(|θ|); the value only changes when parameters do,
  // so it is computed lazily and dropped on mutation (see parameters()).
  // `valid` is published with release/acquire so a concurrent reader never
  // sees the flag before the value.
  mutable std::atomic<std::uint64_t> checksum_value_{0};
  mutable std::atomic<bool> checksum_valid_{false};
};

// Binary serialization of config + parameters via the io layer.  The
// writer/reader forms are the composable payloads embedded in snapshot
// sections (core::PredictDdl::save_state); the path forms wrap them in a
// standalone file with a CRC-32 trailer, replaced crash-safely
// (io::write_file_atomic).
void save_ghn(io::BinaryWriter& w, const Ghn2& ghn);
std::unique_ptr<Ghn2> load_ghn(io::BinaryReader& r);
void save_ghn(const std::string& path, const Ghn2& ghn);
// Reconstructs the Ghn2 (config is stored in the file).
std::unique_ptr<Ghn2> load_ghn(const std::string& path);

// FNV-1a digest of the GHN's config and every parameter scalar.  Two GHNs
// produce identical embeddings for every graph iff their checksums match,
// so this is the validity key for persisted embedding caches: a warm-cache
// snapshot taken under one GHN must be discarded when a different GHN (new
// training run, different config) is registered for the dataset.
// Memoized inside the Ghn2: repeat calls (every save_cache/load_cache)
// return the cached digest; any non-const parameters() access or an
// explicit invalidate_checksum() triggers a re-hash on the next call.
std::uint64_t ghn_checksum(const Ghn2& ghn);

}  // namespace pddl::ghn
