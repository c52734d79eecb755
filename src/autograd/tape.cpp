#include "autograd/tape.hpp"

#include <cmath>

namespace pddl::ag {

const Matrix& Var::value() const {
  PDDL_CHECK(tape != nullptr, "Var is not bound to a tape");
  return tape->value(id);
}

Var Tape::leaf(Matrix value) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = true;
  nodes_.push_back(std::move(n));
  return {this, nodes_.size() - 1};
}

Var Tape::constant(Matrix value) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = false;
  nodes_.push_back(std::move(n));
  return {this, nodes_.size() - 1};
}

Var Tape::make_node(Matrix value, std::initializer_list<Var> parents,
                    std::function<void(Tape&, const Matrix&)> backward) {
  Node n;
  n.value = std::move(value);
  for (const Var& p : parents) {
    PDDL_CHECK(p.tape == this, "op mixes Vars from different tapes");
    if (nodes_[p.id].needs_grad) n.needs_grad = true;
  }
  if (n.needs_grad) n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return {this, nodes_.size() - 1};
}

Matrix& Tape::grad(std::size_t id) {
  Node& n = nodes_[id];
  if (n.grad.empty()) n.grad = Matrix(n.value.rows(), n.value.cols());
  return n.grad;
}

void Tape::accumulate(std::size_t id, const Matrix& delta) {
  if (!nodes_[id].needs_grad) return;
  grad(id) += delta;
}

void Tape::backward(Var root) {
  PDDL_CHECK(root.tape == this, "backward: root from another tape");
  PDDL_CHECK(root.value().rows() == 1 && root.value().cols() == 1,
             "backward: root must be a scalar (1x1)");
  grad(root.id)(0, 0) = 1.0;
  // Nodes are appended in topological order, so a reverse sweep visits every
  // node after all of its consumers.
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    Node& n = nodes_[i];
    if (!n.needs_grad || !n.backward || n.grad.empty()) continue;
    n.backward(*this, n.grad);
  }
}

// ---- ops ----

namespace {
Tape* tape_of(Var a, Var b) {
  PDDL_CHECK(a.tape != nullptr && a.tape == b.tape,
             "binary op requires Vars on the same tape");
  return a.tape;
}
}  // namespace

Var add(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().same_shape(b.value()), "add: shape mismatch");
  Matrix out = a.value() + b.value();
  return t->make_node(std::move(out), {a, b},
                      [a, b](Tape& tp, const Matrix& g) {
                        tp.accumulate(a.id, g);
                        tp.accumulate(b.id, g);
                      });
}

Var sub(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().same_shape(b.value()), "sub: shape mismatch");
  Matrix out = a.value() - b.value();
  return t->make_node(std::move(out), {a, b},
                      [a, b](Tape& tp, const Matrix& g) {
                        tp.accumulate(a.id, g);
                        tp.accumulate(b.id, g * -1.0);
                      });
}

Var mul(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().same_shape(b.value()), "mul: shape mismatch");
  Matrix out = hadamard(a.value(), b.value());
  return t->make_node(std::move(out), {a, b},
                      [a, b](Tape& tp, const Matrix& g) {
                        tp.accumulate(a.id, hadamard(g, tp.value(b.id)));
                        tp.accumulate(b.id, hadamard(g, tp.value(a.id)));
                      });
}

Var matmul(Var a, Var b) {
  Tape* t = tape_of(a, b);
  Matrix out = pddl::matmul(a.value(), b.value());
  return t->make_node(
      std::move(out), {a, b}, [a, b](Tape& tp, const Matrix& g) {
        // dA = g·Bᵀ ; dB = Aᵀ·g — both read the stored operand in place
        // (no transposed copy) and keep matmul's ascending-k order.
        if (tp.needs_grad(a.id)) {
          tp.accumulate(a.id, pddl::matmul_transposed_b(g, tp.value(b.id)));
        }
        if (tp.needs_grad(b.id)) {
          tp.accumulate(b.id, pddl::matmul_transposed_a(tp.value(a.id), g));
        }
      });
}

Var scale(Var a, double s) {
  Matrix out = a.value() * s;
  return a.tape->make_node(std::move(out), {a},
                           [a, s](Tape& tp, const Matrix& g) {
                             tp.accumulate(a.id, g * s);
                           });
}

Var add_scalar(Var a, double s) {
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += s;
  }
  return a.tape->make_node(std::move(out), {a},
                           [a](Tape& tp, const Matrix& g) {
                             tp.accumulate(a.id, g);
                           });
}

Var add_row_broadcast(Var a, Var row) {
  Tape* t = tape_of(a, row);
  PDDL_CHECK(row.value().rows() == 1 && row.value().cols() == a.value().cols(),
             "add_row_broadcast: row must be 1×cols(a)");
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += row.value()(0, c);
  }
  return t->make_node(std::move(out), {a, row},
                      [a, row](Tape& tp, const Matrix& g) {
                        tp.accumulate(a.id, g);
                        if (tp.needs_grad(row.id)) {
                          Matrix rg(1, g.cols());
                          for (std::size_t r = 0; r < g.rows(); ++r) {
                            for (std::size_t c = 0; c < g.cols(); ++c) {
                              rg(0, c) += g(r, c);
                            }
                          }
                          tp.accumulate(row.id, rg);
                        }
                      });
}

Var sigmoid(Var a) {
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = 1.0 / (1.0 + std::exp(-out(r, c)));
    }
  }
  Matrix saved = out;
  return a.tape->make_node(
      std::move(out), {a},
      [a, saved = std::move(saved)](Tape& tp, const Matrix& g) {
        Matrix da = g;
        for (std::size_t r = 0; r < da.rows(); ++r) {
          for (std::size_t c = 0; c < da.cols(); ++c) {
            const double sv = saved(r, c);
            da(r, c) *= sv * (1.0 - sv);
          }
        }
        tp.accumulate(a.id, da);
      });
}

Var tanh_op(Var a) {
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) = std::tanh(out(r, c));
  }
  Matrix saved = out;
  return a.tape->make_node(
      std::move(out), {a},
      [a, saved = std::move(saved)](Tape& tp, const Matrix& g) {
        Matrix da = g;
        for (std::size_t r = 0; r < da.rows(); ++r) {
          for (std::size_t c = 0; c < da.cols(); ++c) {
            const double tv = saved(r, c);
            da(r, c) *= 1.0 - tv * tv;
          }
        }
        tp.accumulate(a.id, da);
      });
}

Var relu(Var a) {
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      if (out(r, c) < 0.0) out(r, c) = 0.0;
    }
  }
  return a.tape->make_node(std::move(out), {a},
                           [a](Tape& tp, const Matrix& g) {
                             const Matrix& x = tp.value(a.id);
                             Matrix da = g;
                             for (std::size_t r = 0; r < da.rows(); ++r) {
                               for (std::size_t c = 0; c < da.cols(); ++c) {
                                 if (x(r, c) <= 0.0) da(r, c) = 0.0;
                               }
                             }
                             tp.accumulate(a.id, da);
                           });
}

Var square(Var a) {
  Matrix out = hadamard(a.value(), a.value());
  return a.tape->make_node(std::move(out), {a},
                           [a](Tape& tp, const Matrix& g) {
                             Matrix da = hadamard(g, tp.value(a.id));
                             da *= 2.0;
                             tp.accumulate(a.id, da);
                           });
}

Var abs_op(Var a) {
  Matrix out = a.value();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) = std::fabs(out(r, c));
  }
  return a.tape->make_node(
      std::move(out), {a}, [a](Tape& tp, const Matrix& g) {
        const Matrix& x = tp.value(a.id);
        Matrix da = g;
        for (std::size_t r = 0; r < da.rows(); ++r) {
          for (std::size_t c = 0; c < da.cols(); ++c) {
            const double xv = x(r, c);
            da(r, c) *= (xv > 0.0) - (xv < 0.0);
          }
        }
        tp.accumulate(a.id, da);
      });
}

Var mean_all(Var a) {
  const double n = static_cast<double>(a.value().size());
  Matrix out(1, 1);
  out(0, 0) = a.value().sum() / n;
  return a.tape->make_node(std::move(out), {a},
                           [a, n](Tape& tp, const Matrix& g) {
                             const double gv = g(0, 0) / n;
                             Matrix da(tp.value(a.id).rows(),
                                       tp.value(a.id).cols(), gv);
                             tp.accumulate(a.id, da);
                           });
}

Var sum_all(Var a) {
  Matrix out(1, 1);
  out(0, 0) = a.value().sum();
  return a.tape->make_node(std::move(out), {a},
                           [a](Tape& tp, const Matrix& g) {
                             Matrix da(tp.value(a.id).rows(),
                                       tp.value(a.id).cols(), g(0, 0));
                             tp.accumulate(a.id, da);
                           });
}

Var mse(Var pred, Var target) { return mean_all(square(sub(pred, target))); }

Var concat_cols(Var a, Var b) {
  Tape* t = tape_of(a, b);
  PDDL_CHECK(a.value().rows() == b.value().rows(),
             "concat_cols: row count mismatch");
  const std::size_t m = a.value().rows();
  const std::size_t ca = a.value().cols(), cb = b.value().cols();
  Matrix out(m, ca + cb);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < ca; ++c) out(r, c) = a.value()(r, c);
    for (std::size_t c = 0; c < cb; ++c) out(r, ca + c) = b.value()(r, c);
  }
  return t->make_node(std::move(out), {a, b},
                      [a, b, ca, cb](Tape& tp, const Matrix& g) {
                        if (tp.needs_grad(a.id)) {
                          Matrix da(g.rows(), ca);
                          for (std::size_t r = 0; r < g.rows(); ++r) {
                            for (std::size_t c = 0; c < ca; ++c) da(r, c) = g(r, c);
                          }
                          tp.accumulate(a.id, da);
                        }
                        if (tp.needs_grad(b.id)) {
                          Matrix db(g.rows(), cb);
                          for (std::size_t r = 0; r < g.rows(); ++r) {
                            for (std::size_t c = 0; c < cb; ++c) {
                              db(r, c) = g(r, ca + c);
                            }
                          }
                          tp.accumulate(b.id, db);
                        }
                      });
}

Var slice_cols(Var a, std::size_t begin, std::size_t end) {
  PDDL_CHECK(begin < end && end <= a.value().cols(), "slice_cols: bad range");
  const std::size_t m = a.value().rows();
  Matrix out(m, end - begin);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = begin; c < end; ++c) out(r, c - begin) = a.value()(r, c);
  }
  return a.tape->make_node(std::move(out), {a},
                           [a, begin](Tape& tp, const Matrix& g) {
                             Matrix da(tp.value(a.id).rows(),
                                       tp.value(a.id).cols());
                             for (std::size_t r = 0; r < g.rows(); ++r) {
                               for (std::size_t c = 0; c < g.cols(); ++c) {
                                 da(r, begin + c) = g(r, c);
                               }
                             }
                             tp.accumulate(a.id, da);
                           });
}

Var mean_rows(Var a) {
  const std::size_t m = a.value().rows(), n = a.value().cols();
  Matrix out(1, n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) out(0, c) += a.value()(r, c);
  }
  out *= 1.0 / static_cast<double>(m);
  return a.tape->make_node(std::move(out), {a},
                           [a, m](Tape& tp, const Matrix& g) {
                             const double inv = 1.0 / static_cast<double>(m);
                             Matrix da(m, g.cols());
                             for (std::size_t r = 0; r < m; ++r) {
                               for (std::size_t c = 0; c < g.cols(); ++c) {
                                 da(r, c) = g(0, c) * inv;
                               }
                             }
                             tp.accumulate(a.id, da);
                           });
}

// ---- Ctx ----

Var Ctx::leaf(Matrix& param) {
  auto it = bound_.find(&param);
  if (it != bound_.end()) return {&tape_, it->second};
  Var v = tape_.leaf(param);
  bound_.emplace(&param, v.id);
  return v;
}

Matrix Ctx::grad(const Matrix& param) {
  auto it = bound_.find(&param);
  // A parameter that was never bound (or never reached the loss) has a zero
  // gradient — e.g. the op-type gains of a GHN for ops absent from the
  // current graph.
  if (it == bound_.end()) return Matrix(param.rows(), param.cols());
  Matrix g = tape_.grad(it->second);
  if (g.empty()) g = Matrix(param.rows(), param.cols());
  return g;
}

}  // namespace pddl::ag
