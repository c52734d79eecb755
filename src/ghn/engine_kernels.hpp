// Internal to src/ghn/: the pieces the tape-free inference engine
// (infer.cpp) and the tape-free reverse pass (grad.cpp) share, so the two
// evaluate one schedule with one set of kernels.
//
//   * precision-overloaded shims onto the SIMD dispatch layer
//     (tensor/simd.hpp), so templated engine code reads identically for
//     double and float;
//   * the node-feature rows H₀ (CompGraph::node_features' arithmetic);
//   * the virtual-edge CSR (Eq. 4) built by depth-capped BFS.
//
// Not installed API: include only from src/ghn/*.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "ghn/infer.hpp"
#include "tensor/simd.hpp"

namespace pddl::ghn::detail {

// The f64 panel squashings stay plain libm loops — exactly the expressions
// the tape evaluates — while f32 routes to the dispatched fast
// transcendentals, which are bit-identical between their own scalar and AVX2
// forms.

inline void k_dot(const double* x, const double* bt, std::size_t n,
                  std::size_t k_dim, const double* bias, double* y) {
  simd::dot_rows_transposed_f64(x, bt, n, k_dim, bias, y);
}
inline void k_dot(const float* x, const float* bt, std::size_t n,
                  std::size_t k_dim, const float* bias, float* y) {
  simd::dot_rows_transposed_f32(x, bt, n, k_dim, bias, y);
}

inline void k_rows(const double* a, std::size_t m, const double* bt,
                   std::size_t n, std::size_t k_dim, double* out) {
  simd::matmul_rows_transposed_b_f64(a, m, bt, n, k_dim, out);
}
inline void k_rows(const float* a, std::size_t m, const float* bt,
                   std::size_t n, std::size_t k_dim, float* out) {
  simd::matmul_rows_transposed_b_f32(a, m, bt, n, k_dim, out);
}

inline void k_gemm(const double* a, std::size_t m, std::size_t k,
                   const double* w, std::size_t ncols, double* dst) {
  simd::gemm_rows_f64(a, m, k, w, ncols, dst);
}
inline void k_gemm(const float* a, std::size_t m, std::size_t k,
                   const float* w, std::size_t ncols, float* dst) {
  simd::gemm_rows_f32(a, m, k, w, ncols, dst);
}

inline void k_axpy(double* dst, const double* src, double s, std::size_t n) {
  simd::axpy_f64(dst, src, s, n);
}
inline void k_axpy(float* dst, const float* src, float s, std::size_t n) {
  simd::axpy_f32(dst, src, s, n);
}

inline void k_sigmoid(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
}
inline void k_sigmoid(float* x, std::size_t n) {
  simd::sigmoid_inplace_f32(x, n);
}

inline void k_tanh(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}
inline void k_tanh(float* x, std::size_t n) { simd::tanh_inplace_f32(x, n); }

// Scalar hidden-layer activation.  The double form is nn::activate_scalar
// verbatim (tape parity); the float form mirrors it with the same fast
// transcendentals the panel squashings use.
inline double activate_one(double x, nn::Activation act) {
  return nn::activate_scalar(x, act);
}
inline float activate_one(float x, nn::Activation act) {
  switch (act) {
    case nn::Activation::kNone:
      return x;
    case nn::Activation::kRelu:
      return x < 0.0f ? 0.0f : x;
    case nn::Activation::kTanh:
      return simd::fast_tanhf(x);
    case nn::Activation::kSigmoid:
      return simd::fast_sigmoidf(x);
  }
  return x;
}

template <typename T>
T* arena_take(ScratchArena& arena, std::size_t n);
template <>
inline double* arena_take<double>(ScratchArena& arena, std::size_t n) {
  return arena.doubles(n);
}
template <>
inline float* arena_take<float>(ScratchArena& arena, std::size_t n) {
  return arena.floats(n);
}

// H₀ rows of `cg` (n × kNodeFeatureDim, overwritten): one-hot op type plus
// the three log-scaled structural scalars of CompGraph::node_features.
// Computed in double (the tape's arithmetic) and narrowed on store, so f32
// rounds inputs once instead of compounding per term.
template <typename T>
void fill_node_features(const graph::CompGraph& cg, T* rows) {
  constexpr std::size_t F = graph::CompGraph::kNodeFeatureDim;
  const std::size_t n = cg.num_nodes();
  std::fill(rows, rows + n * F, T(0));
  const double total_flops =
      static_cast<double>(std::max<std::int64_t>(1, cg.total_flops()));
  for (std::size_t i = 0; i < n; ++i) {
    const auto& nd = cg.node(static_cast<int>(i));
    T* row = rows + i * F;
    row[static_cast<std::size_t>(nd.type)] = T(1);
    row[graph::kNumOpTypes + 0] = static_cast<T>(
        std::log1p(static_cast<double>(nd.out_shape.c)) / 8.0);
    row[graph::kNumOpTypes + 1] = static_cast<T>(
        std::log1p(static_cast<double>(nd.attrs.kernel * nd.attrs.kernel)) /
        4.0);
    row[graph::kNumOpTypes + 2] =
        static_cast<T>(static_cast<double>(nd.flops) / total_flops);
  }
}

// Virtual-edge lists (Eq. 4) over a concatenated node-row space: graph g's
// node v is global row off[g]+v.  fw_u[fw_off[r]..fw_off[r+1]) are the
// upstream sources of row r (hop distance u→v in (1, s_max]) with weights
// 1/d, bw the downstream ones; each sublist is u-ascending, the order the
// tape path (Ghn2::embed) adds virtual messages in.
template <typename T>
struct VirtualEdges {
  const int* fw_off = nullptr;
  const int* fw_u = nullptr;
  const T* fw_w = nullptr;
  const int* bw_off = nullptr;
  const int* bw_u = nullptr;
  const T* bw_w = nullptr;
};

// Builds VirtualEdges for `graphs` (row offsets `off`, N = off[G] rows,
// max_n = largest graph) in `arena`.  Only hops 1 < d ≤ s_max matter, so
// each source's BFS stops expanding at depth s_max and touches just that
// neighborhood instead of the whole graph — no n×n hop matrix, no n²
// count/fill scans (for a ~700-node densenet this is the difference between
// ~2M scan steps and a few thousand).  One shared dist row is −1 outside the
// BFS and reset via the queue (the exact touched set).  fw order comes from
// the ascending source loop, bw order from sorting each source's touched
// set, so no per-target sort is needed.
template <typename T>
VirtualEdges<T> build_virtual_edges(
    ScratchArena& arena, std::span<const graph::CompGraph* const> graphs,
    const int* off, std::size_t max_n, int s_max) {
  const std::size_t G = graphs.size();
  const std::size_t N = static_cast<std::size_t>(off[G]);
  int* dist = arena.ints(max_n);
  int* queue = arena.ints(max_n);
  std::fill(dist, dist + max_n, -1);
  // BFS over out_edges from s, depth-capped at s_max (a node at depth s_max
  // is recorded but not expanded, so every dist ≤ s_max is exact).  Returns
  // the queue length; queue[0..qt) is the touched set, queue[0] = s.
  auto bfs_source = [dist, queue, s_max](const graph::CompGraph& cg,
                                         std::size_t s) {
    dist[s] = 0;
    std::size_t qh = 0, qt = 0;
    queue[qt++] = static_cast<int>(s);
    while (qh < qt) {
      const int u = queue[qh++];
      const int du = dist[u];
      if (du >= s_max) continue;
      for (int v : cg.out_edges(u)) {
        if (dist[v] < 0) {
          dist[v] = du + 1;
          queue[qt++] = v;
        }
      }
    }
    return qt;
  };
  int* fw_off = arena.ints(N + 1);
  int* bw_off = arena.ints(N + 1);
  std::fill(fw_off, fw_off + N + 1, 0);
  std::fill(bw_off, bw_off + N + 1, 0);
  // Count pass: fw_off[r+1]/bw_off[r+1] hold per-node degrees until the
  // prefix sum below turns them into offsets.
  for (std::size_t g = 0; g < G; ++g) {
    const graph::CompGraph& cg = *graphs[g];
    const std::size_t n = cg.num_nodes();
    const std::size_t base = static_cast<std::size_t>(off[g]);
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t qt = bfs_source(cg, s);
      int cb = 0;
      for (std::size_t i = 1; i < qt; ++i) {
        const int t = queue[i];
        if (dist[t] > 1) {
          ++cb;
          ++fw_off[base + static_cast<std::size_t>(t) + 1];
        }
        dist[t] = -1;
      }
      dist[s] = -1;
      bw_off[base + s + 1] = cb;
    }
  }
  for (std::size_t r = 0; r < N; ++r) {
    fw_off[r + 1] += fw_off[r];
    bw_off[r + 1] += bw_off[r];
  }
  int* fw_u = arena.ints(static_cast<std::size_t>(fw_off[N]));
  T* fw_w = arena_take<T>(arena, static_cast<std::size_t>(fw_off[N]));
  int* bw_u = arena.ints(static_cast<std::size_t>(bw_off[N]));
  T* bw_w = arena_take<T>(arena, static_cast<std::size_t>(bw_off[N]));
  int* fw_fill = arena.ints(N);
  std::copy(fw_off, fw_off + N, fw_fill);
  // Fill pass: re-run each (cheap) BFS.
  for (std::size_t g = 0; g < G; ++g) {
    const graph::CompGraph& cg = *graphs[g];
    const std::size_t n = cg.num_nodes();
    const std::size_t base = static_cast<std::size_t>(off[g]);
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t qt = bfs_source(cg, s);
      std::sort(queue + 1, queue + qt);
      int pb = bw_off[base + s];
      for (std::size_t i = 1; i < qt; ++i) {
        const int t = queue[i];
        const int d = dist[t];
        if (d > 1) {
          const int pf = fw_fill[base + static_cast<std::size_t>(t)]++;
          fw_u[pf] = static_cast<int>(base + s);
          fw_w[pf] = static_cast<T>(1.0 / d);
          bw_u[pb] = static_cast<int>(base + static_cast<std::size_t>(t));
          bw_w[pb++] = static_cast<T>(1.0 / d);
        }
        dist[t] = -1;
      }
      dist[s] = -1;
    }
  }
  return {fw_off, fw_u, fw_w, bw_off, bw_u, bw_w};
}

}  // namespace pddl::ghn::detail
