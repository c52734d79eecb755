#include "ghn/grad.hpp"

#include <algorithm>
#include <cmath>

#include "ghn/engine_kernels.hpp"

namespace pddl::ghn {

using detail::k_axpy;
using detail::k_dot;
using detail::k_gemm;
using detail::k_sigmoid;
using detail::k_tanh;
using graph::CompGraph;

namespace {

// One Linear in the tape's layout (in × out weight, 1 × out bias).
struct LayerView {
  const double* w;
  const double* b;
  std::size_t in, out;
};
struct LayerGrad {
  double* w;
  double* b;
};
struct MlpView {
  LayerView l1, l2;
};
struct MlpGrad {
  LayerGrad l1, l2;
};

LayerView view(const nn::Linear& l) {
  return {l.weight().data(), l.bias().data(), l.in_features(),
          l.out_features()};
}

MlpView view(const nn::Mlp& m) {
  return {view(m.layers()[0]), view(m.layers()[1])};
}

// y = x·W + b for one row: matmul's ascending-k sweep with its zero-skip,
// then the bias broadcast — Linear::forward's two tape ops.
void linear_row(const LayerView& l, const double* x, double* y) {
  k_gemm(x, 1, l.in, l.w, l.out, y);
  for (std::size_t j = 0; j < l.out; ++j) y[j] += l.b[j];
}

// p[i·cols + j] += a[i]·g[j] for every a[i] ≠ 0: the tape's dB = Aᵀ·g of a
// one-row A (matmul_transposed_a) added into the gradient accumulator —
// the same single product per element, so the same bits.
void add_outer(double* p, const double* a, std::size_t rows, const double* g,
               std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    if (a[i] == 0.0) continue;
    k_axpy(p + i * cols, g, a[i], cols);
  }
}

void add_into(double* acc, const double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += v[i];
}

// Calls fn(const Matrix&) for every parameter in gradient order:
// Ghn2::parameters() (embed W, b; msg_mlp W1, b1, W2, b2; msg_mlp_sp
// likewise; GRU wz uz bz wr ur br wn un bn; one gain per op type), then the
// head's W and b.  Allocation-free, unlike the parameters() vector.
template <typename Fn>
void visit_params(const Ghn2& ghn, const nn::Linear& head, Fn&& fn) {
  auto linear = [&fn](const nn::Linear& l) {
    fn(l.weight());
    fn(l.bias());
  };
  linear(ghn.embed_layer());
  for (const nn::Linear& l : ghn.msg_mlp().layers()) linear(l);
  for (const nn::Linear& l : ghn.msg_mlp_sp().layers()) linear(l);
  const nn::GruCell& c = ghn.gru();
  for (const Matrix* m : {&c.wz(), &c.uz(), &c.bz(), &c.wr(), &c.ur(),
                          &c.br(), &c.wn(), &c.un(), &c.bn()}) {
    fn(*m);
  }
  for (const Matrix& gain : ghn.op_gains()) fn(gain);
  linear(head);
}

bool is_two_layer_relu(const nn::Mlp& m) {
  return m.layers().size() == 2 &&
         m.hidden_activation() == nn::Activation::kRelu &&
         m.layers()[0].has_bias() && m.layers()[1].has_bias();
}

}  // namespace

double head_mse(const nn::Linear& head, const double* emb,
                std::span<const double> target, double* residual) {
  const std::size_t T = head.out_features();
  PDDL_CHECK(head.has_bias() && target.size() == T,
             "head_mse: head/target shape mismatch");
  linear_row(view(head), emb, residual);
  // ag::mse = mean_all(square(sub(pred, target))).
  double sum = 0.0;
  for (std::size_t j = 0; j < T; ++j) {
    residual[j] -= target[j];
    sum += residual[j] * residual[j];
  }
  return sum / static_cast<double>(T);
}

GhnGradient::GhnGradient(const Ghn2& ghn) : ghn_(ghn) {
  PDDL_CHECK(is_two_layer_relu(ghn.msg_mlp()) &&
                 is_two_layer_relu(ghn.msg_mlp_sp()) &&
                 ghn.embed_layer().has_bias(),
             "GhnGradient: unsupported GHN layout");
}

double GhnGradient::loss_and_grads(const CompGraph& g, const nn::Linear& head,
                                   std::span<const double> target,
                                   std::vector<Matrix>& grads) const {
  const GhnConfig& cfg = ghn_.config();
  const std::size_t n = g.num_nodes();
  PDDL_CHECK(n > 0, "cannot embed an empty graph");
  const std::size_t H = cfg.hidden_dim;
  const std::size_t MH = cfg.mlp_hidden;
  const std::size_t F = CompGraph::kNodeFeatureDim;
  const std::size_t T = head.out_features();
  PDDL_CHECK(head.in_features() == H, "GhnGradient: head width mismatch");
  const std::size_t P = 2 * static_cast<std::size_t>(cfg.num_passes);
  const std::size_t NH = n * H;
  const bool virt = cfg.virtual_edges;
  const bool opnorm = cfg.op_normalization;

  const LayerView emb_l = view(ghn_.embed_layer());
  const MlpView mlp_d = view(ghn_.msg_mlp());
  const MlpView mlp_s = view(ghn_.msg_mlp_sp());
  const nn::GruCell& gru = ghn_.gru();
  const double* wz = gru.wz().data();
  const double* uz = gru.uz().data();
  const double* bz = gru.bz().data();
  const double* wr = gru.wr().data();
  const double* ur = gru.ur().data();
  const double* br = gru.br().data();
  const double* wn = gru.wn().data();
  const double* un = gru.un().data();
  const double* bn = gru.bn().data();
  const LayerView head_l = view(head);

  ScratchArena& arena = GhnInference::thread_arena();
  arena.reset();

  // ================= forward (what the reverse reads is kept) ============
  // Module 1: H₀ → H₁ as one n-row GEMM (each row is the tape's 1-row
  // matmul + bias broadcast).  S[p] holds the node states after half-pass p
  // (S[0] = H₁); the reverse reads every one of them.
  double* x = arena.doubles(n * F);
  detail::fill_node_features(g, x);
  double* S = arena.doubles((P + 1) * NH);
  k_gemm(x, n, F, emb_l.w, H, S);
  for (std::size_t v = 0; v < n; ++v) add_into(S + v * H, emb_l.b, H);

  detail::VirtualEdges<double> ve;
  if (virt) {
    const CompGraph* gp = &g;
    int* off = arena.ints(2);
    off[0] = 0;
    off[1] = static_cast<int>(n);
    ve = detail::build_virtual_edges<double>(
        arena, std::span<const CompGraph* const>(&gp, 1), off, n, cfg.s_max);
  }

  // Per half-pass, per node: message m, gates z / r / ñ, r∘h and (with op
  // normalization) tanh(h'); per half-pass, per memoized source: the
  // message MLPs' post-ReLU hidden rows.
  double* Mm = arena.doubles(P * NH);
  double* Zg = arena.doubles(P * NH);
  double* Rg = arena.doubles(P * NH);
  double* Ng = arena.doubles(P * NH);
  double* RH = arena.doubles(P * NH);
  double* TT = opnorm ? arena.doubles(P * NH) : nullptr;
  double* HD = arena.doubles(P * n * MH);
  double* HS = virt ? arena.doubles(P * n * MH) : nullptr;
  double* memo_d = arena.doubles(NH);
  double* memo_s = virt ? arena.doubles(NH) : nullptr;
  int* have_d = arena.ints(n);
  int* have_s = virt ? arena.ints(n) : nullptr;
  double* hu_z = arena.doubles(NH);
  double* hu_r = arena.doubles(NH);
  double* tmp = arena.doubles(std::max(H, MH));

  // MLP(h_u) for the current half-pass, computed once per source and reused
  // by every consumer (exact: u's state is final for the half-pass before
  // any consumer reads it, see infer.hpp); the hidden row is kept for the
  // reverse.
  auto memo_row = [&](const MlpView& mlp, double* table, int* have,
                      double* hid_table, const double* states,
                      int u) -> const double* {
    const std::size_t uu = static_cast<std::size_t>(u);
    double* row = table + uu * H;
    if (!have[u]) {
      double* hid = hid_table + uu * MH;
      linear_row(mlp.l1, states + uu * H, hid);
      for (std::size_t k = 0; k < MH; ++k) {
        hid[k] = nn::activate_scalar(hid[k], nn::Activation::kRelu);
      }
      linear_row(mlp.l2, hid, row);
      have[u] = 1;
    }
    return row;
  };

  for (std::size_t p = 1; p <= P; ++p) {
    const bool forward = p % 2 == 1;
    const double* Sp = S + (p - 1) * NH;
    double* Sc = S + p * NH;
    const std::size_t q = (p - 1) * NH;
    double* hd = HD + (p - 1) * n * MH;
    double* hs = virt ? HS + (p - 1) * n * MH : nullptr;
    // Old-state projections batched: node v's gates read its own
    // pre-update state, which is the half-pass-start state Sp.
    k_gemm(Sp, n, H, uz, H, hu_z);
    k_gemm(Sp, n, H, ur, H, hu_r);
    std::fill(have_d, have_d + n, 0);
    if (virt) std::fill(have_s, have_s + n, 0);
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t v = forward ? s : n - 1 - s;
      const int vi = static_cast<int>(v);
      double* m = Mm + q + v * H;
      // m_v: direct neighbours first, then virtual ones, in the tape's order
      // and association (+= 1·mu is exact).
      std::fill(m, m + H, 0.0);
      for (int u : forward ? g.in_edges(vi) : g.out_edges(vi)) {
        k_axpy(m, memo_row(mlp_d, memo_d, have_d, hd, Sc, u), 1.0, H);
      }
      if (virt) {
        const int* voff = forward ? ve.fw_off : ve.bw_off;
        const int* vus = forward ? ve.fw_u : ve.bw_u;
        const double* vws = forward ? ve.fw_w : ve.bw_w;
        for (int e = voff[v]; e < voff[v + 1]; ++e) {
          k_axpy(m, memo_row(mlp_s, memo_s, have_s, hs, Sc, vus[e]), vws[e],
                 H);
        }
      }
      // GruCell::forward: pre-activations as (m·W + h·U) + b.
      const double* h_old = Sp + v * H;
      double* z = Zg + q + v * H;
      double* r = Rg + q + v * H;
      double* nc = Ng + q + v * H;
      double* rh = RH + q + v * H;
      k_gemm(m, 1, H, wz, H, z);
      k_gemm(m, 1, H, wr, H, r);
      for (std::size_t j = 0; j < H; ++j) {
        z[j] = (z[j] + hu_z[v * H + j]) + bz[j];
        r[j] = (r[j] + hu_r[v * H + j]) + br[j];
      }
      k_sigmoid(z, H);
      k_sigmoid(r, H);
      for (std::size_t j = 0; j < H; ++j) rh[j] = r[j] * h_old[j];
      k_gemm(m, 1, H, wn, H, nc);
      k_gemm(rh, 1, H, un, H, tmp);
      for (std::size_t j = 0; j < H; ++j) nc[j] = (nc[j] + tmp[j]) + bn[j];
      k_tanh(nc, H);
      double* hv = Sc + v * H;
      for (std::size_t j = 0; j < H; ++j) {
        hv[j] = (nc[j] - z[j] * nc[j]) + z[j] * h_old[j];
      }
      if (opnorm) {
        double* t = TT + q + v * H;
        std::copy(hv, hv + H, t);
        k_tanh(t, H);
        const double* gain =
            ghn_.op_gains()[static_cast<std::size_t>(g.node(vi).type)].data();
        for (std::size_t j = 0; j < H; ++j) hv[j] = t[j] * gain[j];
      }
    }
  }

  // Mean-pool readout, then the head and the loss.
  const double* SP = S + P * NH;
  double* emb = arena.doubles(H);
  std::copy(SP, SP + H, emb);
  for (std::size_t v = 1; v < n; ++v) add_into(emb, SP + v * H, H);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < H; ++j) emb[j] *= inv_n;
  double* resid = arena.doubles(T);
  const double loss = head_mse(head, emb, target, resid);

  // ================= reverse ============================================
  std::size_t np = 0;
  visit_params(ghn_, head, [&np](const Matrix&) { ++np; });
  if (grads.size() != np) grads.resize(np);
  std::size_t gi = 0;
  visit_params(ghn_, head, [&grads, &gi](const Matrix& p) {
    Matrix& dst = grads[gi++];
    if (dst.same_shape(p)) {
      std::fill(dst.data(), dst.data() + dst.size(), 0.0);
    } else {
      dst = Matrix(p.rows(), p.cols());
    }
  });
  gi = 0;
  auto next = [&grads, &gi] { return grads[gi++].data(); };
  LayerGrad g_emb{next(), next()};
  MlpGrad g_d{{next(), next()}, {next(), next()}};
  MlpGrad g_s{{next(), next()}, {next(), next()}};
  double* g_wz = next();
  double* g_uz = next();
  double* g_bz = next();
  double* g_wr = next();
  double* g_ur = next();
  double* g_br = next();
  double* g_wn = next();
  double* g_un = next();
  double* g_bn = next();
  const std::size_t gain_base = gi;
  gi += graph::kNumOpTypes;
  LayerGrad g_head{next(), next()};

  // mean_all → square → sub: d(pred) = (1/T · r)·2; the bias broadcast
  // passes it through, the matmul sends dA = g·Wᵀ to the embedding.
  double* gpred = arena.doubles(T);
  const double gv = 1.0 / static_cast<double>(T);
  for (std::size_t j = 0; j < T; ++j) gpred[j] = (gv * resid[j]) * 2.0;
  add_into(g_head.b, gpred, T);
  double* gemb = arena.doubles(H);
  k_dot(gpred, head_l.w, H, T, nullptr, gemb);
  add_outer(g_head.w, emb, H, gpred, T);
  // scale(1/n) then the add chain: every final state's first gradient
  // contribution is g·(1/n).
  for (std::size_t j = 0; j < H; ++j) gemb[j] *= inv_n;
  double* Gs = arena.doubles(NH);  // grad of each node's current state
  for (std::size_t v = 0; v < n; ++v) std::copy(gemb, gemb + H, Gs + v * H);

  double* gh = arena.doubles(H);   // grad of the GRU output h'
  double* gzn = arena.doubles(H);  // grad of z∘ñ
  double* gz = arena.doubles(H);
  double* gn = arena.doubles(H);
  double* gr = arena.doubles(H);
  double* grh = arena.doubles(H);
  double* gm = arena.doubles(H);
  double* dpre = arena.doubles(H);  // a gate's pre-activation grad
  double* ge = arena.doubles(H);    // one virtual edge's message grad
  double* gy_d = arena.doubles(MH);  // direct edges: g_m·W2ᵀ
  // Virtual edges of one target differ only by their 1/d weight: one
  // (weight, g_e·W2ᵀ) entry per distinct weight, at most s_max − 1.
  const std::size_t max_w = static_cast<std::size_t>(std::max(cfg.s_max, 2));
  double* cw = arena.doubles(max_w);
  double* cgy = arena.doubles(max_w * MH);
  double* dx = arena.doubles(MH);

  // One message edge u → v in reverse: the MLP chain
  // mm1 → +b1 → relu → mm2 → +b2 back from the message grad `ge` (whose
  // W2ᵀ product `gy` the caller supplies), adding into the weights' grads
  // and into u's state grad.
  auto edge_backward = [&](const MlpView& mlp, const MlpGrad& mg,
                           const double* hid, const double* x_u, double* gs_u,
                           const double* ge_, const double* gy) {
    add_into(mg.l2.b, ge_, H);
    add_outer(mg.l2.w, hid, MH, ge_, H);
    for (std::size_t k = 0; k < MH; ++k) dx[k] = hid[k] <= 0.0 ? 0.0 : gy[k];
    add_into(mg.l1.b, dx, MH);
    k_dot(dx, mlp.l1.w, H, MH, nullptr, tmp);
    add_into(gs_u, tmp, H);
    add_outer(mg.l1.w, x_u, H, dx, MH);
  };

  for (std::size_t p = P; p >= 1; --p) {
    const bool forward = p % 2 == 1;
    const double* Sp = S + (p - 1) * NH;
    const double* Sc = S + p * NH;
    const std::size_t q = (p - 1) * NH;
    const double* hd = HD + (p - 1) * n * MH;
    const double* hs = virt ? HS + (p - 1) * n * MH : nullptr;
    for (std::size_t s = n; s-- > 0;) {
      const std::size_t v = forward ? s : n - 1 - s;
      const int vi = static_cast<int>(v);
      double* gs_v = Gs + v * H;
      const double* h_old = Sp + v * H;
      const double* m = Mm + q + v * H;
      const double* z = Zg + q + v * H;
      const double* r = Rg + q + v * H;
      const double* nc = Ng + q + v * H;
      const double* rh = RH + q + v * H;
      // mul(tanh(h'), γ_op) → tanh.
      if (opnorm) {
        const auto op = static_cast<std::size_t>(g.node(vi).type);
        const double* t = TT + q + v * H;
        const double* gain = ghn_.op_gains()[op].data();
        double* g_gain = grads[gain_base + op].data();
        for (std::size_t j = 0; j < H; ++j) {
          const double gt = gs_v[j] * gain[j];
          g_gain[j] += gs_v[j] * t[j];
          gh[j] = gt * (1.0 - t[j] * t[j]);
        }
      } else {
        std::copy(gs_v, gs_v + H, gh);
      }
      // h' = (ñ − z∘ñ) + z∘h: add, sub, mul(z, ñ), mul(z, h).  z and ñ each
      // get two contributions, so their order cannot matter.
      for (std::size_t j = 0; j < H; ++j) {
        gzn[j] = gh[j] * -1.0;
        gz[j] = gzn[j] * nc[j] + gh[j] * h_old[j];
        gn[j] = gh[j] + gzn[j] * z[j];
        gs_v[j] = gh[j] * z[j];  // h's first contribution, from mul(z, h)
      }
      // ñ = tanh((m·Wn + (r∘h)·Un) + bn).
      for (std::size_t j = 0; j < H; ++j) {
        dpre[j] = gn[j] * (1.0 - nc[j] * nc[j]);
      }
      add_into(g_bn, dpre, H);
      k_dot(dpre, un, H, H, nullptr, grh);
      add_outer(g_un, rh, H, dpre, H);
      k_dot(dpre, wn, H, H, nullptr, gm);
      add_outer(g_wn, m, H, dpre, H);
      for (std::size_t j = 0; j < H; ++j) {
        gr[j] = grh[j] * h_old[j];
        gs_v[j] += grh[j] * r[j];
      }
      // r = σ((m·Wr + h·Ur) + br).
      for (std::size_t j = 0; j < H; ++j) {
        dpre[j] = gr[j] * (r[j] * (1.0 - r[j]));
      }
      add_into(g_br, dpre, H);
      k_dot(dpre, ur, H, H, nullptr, tmp);
      add_into(gs_v, tmp, H);
      add_outer(g_ur, h_old, H, dpre, H);
      k_dot(dpre, wr, H, H, nullptr, tmp);
      add_into(gm, tmp, H);
      add_outer(g_wr, m, H, dpre, H);
      // z = σ((m·Wz + h·Uz) + bz).
      for (std::size_t j = 0; j < H; ++j) {
        dpre[j] = gz[j] * (z[j] * (1.0 - z[j]));
      }
      add_into(g_bz, dpre, H);
      k_dot(dpre, uz, H, H, nullptr, tmp);
      add_into(gs_v, tmp, H);
      add_outer(g_uz, h_old, H, dpre, H);
      k_dot(dpre, wz, H, H, nullptr, tmp);
      add_into(gm, tmp, H);
      add_outer(g_wz, m, H, dpre, H);
      // gs_v now holds the grad of v's half-pass-start state; its message
      // consumers in half-pass p − 1 add theirs when that pass is reversed.

      // Messages, last edge first: virtual edges (scale(MLP_sp(h_u), 1/d)),
      // then direct ones (MLP(h_u)).
      if (virt) {
        const int* voff = forward ? ve.fw_off : ve.bw_off;
        const int* vus = forward ? ve.fw_u : ve.bw_u;
        const double* vws = forward ? ve.fw_w : ve.bw_w;
        std::size_t ncached = 0;
        for (int e = voff[v + 1]; e-- > voff[v];) {
          const double w = vws[e];
          for (std::size_t j = 0; j < H; ++j) ge[j] = gm[j] * w;
          std::size_t c = 0;
          while (c < ncached && cw[c] != w) ++c;
          double* gy = cgy + c * MH;
          if (c == ncached) {
            PDDL_DCHECK(ncached < max_w, "virtual-edge weight cache overflow");
            cw[ncached++] = w;
            k_dot(ge, mlp_s.l2.w, MH, H, nullptr, gy);
          }
          const std::size_t u = static_cast<std::size_t>(vus[e]);
          edge_backward(mlp_s, g_s, hs + u * MH, Sc + u * H, Gs + u * H, ge,
                        gy);
        }
      }
      const std::vector<int>& direct = forward ? g.in_edges(vi)
                                               : g.out_edges(vi);
      if (!direct.empty()) k_dot(gm, mlp_d.l2.w, MH, H, nullptr, gy_d);
      for (std::size_t e = direct.size(); e-- > 0;) {
        const std::size_t u = static_cast<std::size_t>(direct[e]);
        edge_backward(mlp_d, g_d, hd + u * MH, Sc + u * H, Gs + u * H, gm,
                      gy_d);
      }
    }
  }

  // Module 1, last node first: bias broadcast, then dW = xᵀ·g.
  for (std::size_t v = n; v-- > 0;) {
    add_into(g_emb.b, Gs + v * H, H);
    add_outer(g_emb.w, x + v * F, F, Gs + v * H, H);
  }
  return loss;
}

}  // namespace pddl::ghn
