#include "nn/tape.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/nn_invariants.hpp"
#include "obs/metrics.hpp"

namespace gddr::nn {

void Tape::check_var(Var v, const char* op) const {
  if (!v.valid() || static_cast<size_t>(v.id) >= nodes_.size()) {
    throw std::invalid_argument(std::string(op) + ": invalid Var");
  }
}

void Tape::check_same_shape(Var a, Var b, const char* op) const {
  check_var(a, op);
  check_var(b, op);
  if (!node(a).value.same_shape(node(b).value)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                node(a).value.shape_str() + " vs " +
                                node(b).value.shape_str());
  }
}

Tape::Var Tape::push(Tensor value, std::function<void(Tape&, int)> backward_fn) {
  Node n;
  n.value = std::move(value);
  n.backward_fn = std::move(backward_fn);
  nodes_.push_back(std::move(n));
  return Var{static_cast<int>(nodes_.size()) - 1};
}

void Tape::reset() {
  for (Node& n : nodes_) {
    if (n.value.capacity() != 0) arena_.release(std::move(n.value));
    if (n.grad.capacity() != 0) arena_.release(std::move(n.grad));
  }
  nodes_.clear();
  retained_.clear();
  if (obs::enabled()) {
    obs::gauge("nn/arena_bytes", static_cast<double>(arena_.bytes_allocated()));
    obs::gauge("nn/arena_reuse", static_cast<double>(arena_.reuse_count()));
  }
}

Tape::Var Tape::constant(const Tensor& value) {
  return push(alloc_copy(value), {});
}

Tape::Var Tape::zeros(int rows, int cols) { return push(alloc(rows, cols), {}); }

Tape::Var Tape::leaf(Parameter& p) {
  Node n;
  n.value = alloc_copy(p.value);
  n.parameter = &p;
  nodes_.push_back(std::move(n));
  return Var{static_cast<int>(nodes_.size()) - 1};
}

// ---------- binary elementwise ----------

Tape::Var Tape::add(Var a, Var b) {
  check_same_shape(a, b, "add");
  Tensor out = alloc_copy(node(a).value);
  out.add_in_place(node(b).value);
  const int ia = a.id;
  const int ib = b.id;
  return push(std::move(out), [ia, ib](Tape& t, int self) {
    t.grad_of(ia).add_in_place(t.grad_of(self));
    t.grad_of(ib).add_in_place(t.grad_of(self));
  });
}

Tape::Var Tape::sub(Var a, Var b) {
  check_same_shape(a, b, "sub");
  Tensor out = alloc_copy(node(a).value);
  const auto bd = node(b).value.data();
  auto od = out.data();
  for (size_t i = 0; i < od.size(); ++i) od[i] -= bd[i];
  const int ia = a.id;
  const int ib = b.id;
  return push(std::move(out), [ia, ib](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    auto ga = t.grad_of(ia).data();
    auto gb = t.grad_of(ib).data();
    for (size_t i = 0; i < g.size(); ++i) {
      ga[i] += g[i];
      gb[i] -= g[i];
    }
  });
}

Tape::Var Tape::mul(Var a, Var b) {
  check_same_shape(a, b, "mul");
  Tensor out = alloc_copy(node(a).value);
  const auto bd = node(b).value.data();
  auto od = out.data();
  for (size_t i = 0; i < od.size(); ++i) od[i] *= bd[i];
  const int ia = a.id;
  const int ib = b.id;
  return push(std::move(out), [ia, ib](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto av = t.value_of(ia).data();
    const auto bv = t.value_of(ib).data();
    auto ga = t.grad_of(ia).data();
    auto gb = t.grad_of(ib).data();
    for (size_t i = 0; i < g.size(); ++i) {
      ga[i] += g[i] * bv[i];
      gb[i] += g[i] * av[i];
    }
  });
}

Tape::Var Tape::div(Var a, Var b) {
  check_same_shape(a, b, "div");
  Tensor out = alloc_copy(node(a).value);
  const auto bd = node(b).value.data();
  auto od = out.data();
  for (size_t i = 0; i < od.size(); ++i) od[i] /= bd[i];
  const int ia = a.id;
  const int ib = b.id;
  return push(std::move(out), [ia, ib](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto av = t.value_of(ia).data();
    const auto bv = t.value_of(ib).data();
    auto ga = t.grad_of(ia).data();
    auto gb = t.grad_of(ib).data();
    for (size_t i = 0; i < g.size(); ++i) {
      ga[i] += g[i] / bv[i];
      gb[i] -= g[i] * av[i] / (bv[i] * bv[i]);
    }
  });
}

Tape::Var Tape::minimum(Var a, Var b) {
  check_same_shape(a, b, "minimum");
  Tensor out = alloc_copy(node(a).value);
  const auto bd = node(b).value.data();
  auto od = out.data();
  for (size_t i = 0; i < od.size(); ++i) od[i] = std::min(od[i], bd[i]);
  const int ia = a.id;
  const int ib = b.id;
  return push(std::move(out), [ia, ib](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto av = t.value_of(ia).data();
    const auto bv = t.value_of(ib).data();
    auto ga = t.grad_of(ia).data();
    auto gb = t.grad_of(ib).data();
    for (size_t i = 0; i < g.size(); ++i) {
      if (av[i] <= bv[i]) {
        ga[i] += g[i];
      } else {
        gb[i] += g[i];
      }
    }
  });
}

Tape::Var Tape::maximum(Var a, Var b) {
  check_same_shape(a, b, "maximum");
  Tensor out = alloc_copy(node(a).value);
  const auto bd = node(b).value.data();
  auto od = out.data();
  for (size_t i = 0; i < od.size(); ++i) od[i] = std::max(od[i], bd[i]);
  const int ia = a.id;
  const int ib = b.id;
  return push(std::move(out), [ia, ib](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto av = t.value_of(ia).data();
    const auto bv = t.value_of(ib).data();
    auto ga = t.grad_of(ia).data();
    auto gb = t.grad_of(ib).data();
    for (size_t i = 0; i < g.size(); ++i) {
      if (av[i] >= bv[i]) {
        ga[i] += g[i];
      } else {
        gb[i] += g[i];
      }
    }
  });
}

// ---------- linear algebra / shaping ----------

Tape::Var Tape::matmul(Var a, Var b) {
  check_var(a, "matmul");
  check_var(b, "matmul");
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  if (av.cols() != bv.rows()) {
    throw std::invalid_argument("matmul: inner dims " + av.shape_str() +
                                " x " + bv.shape_str());
  }
  Tensor out = alloc(av.rows(), bv.cols());
  kernels::matmul_nn(av.rows(), av.cols(), bv.cols(), av.data().data(),
                     bv.data().data(), out.data().data(), pool_);
  const int ia = a.id;
  const int ib = b.id;
  return push(std::move(out), [ia, ib](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    const Tensor& va = t.value_of(ia);
    const Tensor& vb = t.value_of(ib);
    // gA += G * B^T, gB += A^T * G — transpose-free kernel variants.
    kernels::matmul_nt_acc(g.rows(), g.cols(), va.cols(), g.data().data(),
                           vb.data().data(), t.grad_of(ia).data().data(),
                           t.pool_);
    kernels::matmul_tn_acc(va.rows(), va.cols(), g.cols(), va.data().data(),
                           g.data().data(), t.grad_of(ib).data().data(),
                           t.pool_);
  });
}

Tape::Var Tape::linear(Var x, Var w, Var bias, Activation act) {
  check_var(x, "linear");
  check_var(w, "linear");
  check_var(bias, "linear");
  const Tensor& xv = node(x).value;
  const Tensor& wv = node(w).value;
  const Tensor& bv = node(bias).value;
  if (xv.cols() != wv.rows()) {
    throw std::invalid_argument("linear: inner dims " + xv.shape_str() +
                                " x " + wv.shape_str());
  }
  if (bv.rows() != 1 || bv.cols() != wv.cols()) {
    throw std::invalid_argument("linear: bias " + bv.shape_str() +
                                " for weights " + wv.shape_str());
  }
  Tensor out = alloc(xv.rows(), wv.cols());
  kernels::matmul_nn(xv.rows(), xv.cols(), wv.cols(), xv.data().data(),
                     wv.data().data(), out.data().data(), pool_);
  kernels::bias_act(out.rows(), out.cols(), out.data().data(),
                    bv.data().data(), out.data().data(), act);
  const int ix = x.id;
  const int iw = w.id;
  const int ib = bias.id;
  return push(std::move(out), [ix, iw, ib, act](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    const Tensor& y = t.value_of(self);
    const Tensor& vx = t.value_of(ix);
    const Tensor& vw = t.value_of(iw);
    const int m = g.rows();
    const int n = g.cols();
    const int k = vx.cols();
    // d = g ⊙ act'(pre), expressed via the post-activation y; identity
    // needs no scratch at all.
    Tensor scratch;
    const float* d = g.data().data();
    if (act != Activation::kIdentity) {
      scratch = t.arena_.acquire(m, n);
      kernels::act_grad(g.size(), d, y.data().data(), scratch.data().data(),
                        act);
      d = scratch.data().data();
    }
    kernels::matmul_nt_acc(m, n, k, d, vw.data().data(),
                           t.grad_of(ix).data().data(), t.pool_);
    kernels::matmul_tn_acc(m, k, n, vx.data().data(), d,
                           t.grad_of(iw).data().data(), t.pool_);
    kernels::col_sum_acc(m, n, d, t.grad_of(ib).data().data());
    if (scratch.capacity() != 0) t.arena_.release(std::move(scratch));
  });
}

Tape::Var Tape::add_bias(Var m, Var bias) {
  check_var(m, "add_bias");
  check_var(bias, "add_bias");
  const Tensor& mv = node(m).value;
  const Tensor& bv = node(bias).value;
  if (bv.rows() != 1 || bv.cols() != mv.cols()) {
    throw std::invalid_argument("add_bias: bias " + bv.shape_str() +
                                " for matrix " + mv.shape_str());
  }
  Tensor out = alloc_copy(mv);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) out.at(i, j) += bv.at(0, j);
  }
  const int im = m.id;
  const int ib = bias.id;
  return push(std::move(out), [im, ib](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    t.grad_of(im).add_in_place(g);
    Tensor& gb = t.grad_of(ib);
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) gb.at(0, j) += g.at(i, j);
    }
  });
}

Tape::Var Tape::broadcast_rows(Var rowvec, int n) {
  check_var(rowvec, "broadcast_rows");
  const Tensor& rv = node(rowvec).value;
  if (rv.rows() != 1) {
    throw std::invalid_argument("broadcast_rows: input must be 1xC, got " +
                                rv.shape_str());
  }
  if (n <= 0) throw std::invalid_argument("broadcast_rows: n <= 0");
  Tensor out = alloc(n, rv.cols());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < rv.cols(); ++j) out.at(i, j) = rv.at(0, j);
  }
  const int ir = rowvec.id;
  return push(std::move(out), [ir](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    Tensor& gr = t.grad_of(ir);
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) gr.at(0, j) += g.at(i, j);
    }
  });
}

Tape::Var Tape::broadcast_cols(Var colvec, int n) {
  check_var(colvec, "broadcast_cols");
  const Tensor& cv = node(colvec).value;
  if (cv.cols() != 1) {
    throw std::invalid_argument("broadcast_cols: input must be Nx1, got " +
                                cv.shape_str());
  }
  if (n <= 0) throw std::invalid_argument("broadcast_cols: n <= 0");
  Tensor out = alloc(cv.rows(), n);
  for (int i = 0; i < cv.rows(); ++i) {
    for (int j = 0; j < n; ++j) out.at(i, j) = cv.at(i, 0);
  }
  const int ic = colvec.id;
  return push(std::move(out), [ic](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    Tensor& gc = t.grad_of(ic);
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) gc.at(i, 0) += g.at(i, j);
    }
  });
}

Tape::Var Tape::reshape(Var x, int rows, int cols) {
  check_var(x, "reshape");
  const Tensor& xv = node(x).value;
  if (rows < 0 || cols < 0 ||
      static_cast<size_t>(rows) * static_cast<size_t>(cols) != xv.size()) {
    throw std::invalid_argument("reshape: element count mismatch for " +
                                xv.shape_str());
  }
  Tensor out = alloc(rows, cols);
  const auto src = xv.data();
  auto dst = out.data();
  for (size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) gx[i] += g[i];
  });
}

Tape::Var Tape::concat_cols(Var a, Var b) {
  check_var(a, "concat_cols");
  check_var(b, "concat_cols");
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  if (av.rows() != bv.rows()) {
    throw std::invalid_argument("concat_cols: row mismatch " +
                                av.shape_str() + " vs " + bv.shape_str());
  }
  Tensor out = alloc(av.rows(), av.cols() + bv.cols());
  for (int i = 0; i < av.rows(); ++i) {
    for (int j = 0; j < av.cols(); ++j) out.at(i, j) = av.at(i, j);
    for (int j = 0; j < bv.cols(); ++j) {
      out.at(i, av.cols() + j) = bv.at(i, j);
    }
  }
  const int ia = a.id;
  const int ib = b.id;
  const int ac = av.cols();
  return push(std::move(out), [ia, ib, ac](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    Tensor& ga = t.grad_of(ia);
    Tensor& gb = t.grad_of(ib);
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < ga.cols(); ++j) ga.at(i, j) += g.at(i, j);
      for (int j = 0; j < gb.cols(); ++j) gb.at(i, j) += g.at(i, ac + j);
    }
  });
}

Tape::Var Tape::slice_cols(Var m, int start, int len) {
  check_var(m, "slice_cols");
  const Tensor& mv = node(m).value;
  if (start < 0 || len <= 0 || start + len > mv.cols()) {
    throw std::invalid_argument("slice_cols: range [" + std::to_string(start) +
                                ", +" + std::to_string(len) + ") of " +
                                mv.shape_str());
  }
  Tensor out = alloc(mv.rows(), len);
  for (int i = 0; i < mv.rows(); ++i) {
    for (int j = 0; j < len; ++j) out.at(i, j) = mv.at(i, start + j);
  }
  const int im = m.id;
  return push(std::move(out), [im, start, len](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    Tensor& gm = t.grad_of(im);
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < len; ++j) gm.at(i, start + j) += g.at(i, j);
    }
  });
}

Tape::Var Tape::slice_rows(Var m, int start, int len) {
  check_var(m, "slice_rows");
  const Tensor& mv = node(m).value;
  if (start < 0 || len <= 0 || start + len > mv.rows()) {
    throw std::invalid_argument("slice_rows: range [" + std::to_string(start) +
                                ", +" + std::to_string(len) + ") of " +
                                mv.shape_str());
  }
  const auto offset = static_cast<std::size_t>(start) *
                      static_cast<std::size_t>(mv.cols());
  Tensor out = alloc(len, mv.cols());
  const auto src = mv.data().subspan(offset, out.size());
  std::copy(src.begin(), src.end(), out.data().begin());
  const int im = m.id;
  return push(std::move(out), [im, offset](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    auto gm = t.grad_of(im).data().subspan(offset, g.size());
    for (std::size_t i = 0; i < g.size(); ++i) gm[i] += g[i];
  });
}

namespace {

void gather_rows_forward(const gddr::nn::Tensor& mv,
                         const std::vector<int>& indices,
                         gddr::nn::Tensor& out) {
  for (size_t i = 0; i < indices.size(); ++i) {
    for (int j = 0; j < mv.cols(); ++j) {
      out.at(static_cast<int>(i), j) = mv.at(indices[i], j);
    }
  }
}

void gather_rows_backward(const gddr::nn::Tensor& g,
                          const std::vector<int>& indices,
                          gddr::nn::Tensor& gm) {
  for (size_t i = 0; i < indices.size(); ++i) {
    for (int j = 0; j < g.cols(); ++j) {
      gm.at(indices[i], j) += g.at(static_cast<int>(i), j);
    }
  }
}

}  // namespace

Tape::Var Tape::gather_rows(Var m, std::vector<int> indices) {
  check_var(m, "gather_rows");
  const Tensor& mv = node(m).value;
  for (int idx : indices) {
    if (idx < 0 || idx >= mv.rows()) {
      throw std::invalid_argument("gather_rows: index out of range");
    }
  }
  Tensor out = alloc(static_cast<int>(indices.size()), mv.cols());
  gather_rows_forward(mv, indices, out);
  const int im = m.id;
  return push(std::move(out),
              [im, indices = std::move(indices)](Tape& t, int self) {
                gather_rows_backward(t.grad_of(self), indices, t.grad_of(im));
              });
}

Tape::Var Tape::add_gathered(Var base, Var m,
                             std::shared_ptr<const std::vector<int>> indices) {
  check_var(base, "add_gathered");
  check_var(m, "add_gathered");
  if (!indices) throw std::invalid_argument("add_gathered: null indices");
  const Tensor& bv = node(base).value;
  const Tensor& mv = node(m).value;
  if (bv.cols() != mv.cols() ||
      indices->size() != static_cast<std::size_t>(bv.rows())) {
    throw std::invalid_argument("add_gathered: " + bv.shape_str() + " + " +
                                mv.shape_str() + " gathered by " +
                                std::to_string(indices->size()) + " indices");
  }
  for (int idx : *indices) {
    if (idx < 0 || idx >= mv.rows()) {
      throw std::invalid_argument("add_gathered: index out of range");
    }
  }
  Tensor out = alloc_copy(bv);
  const auto cols = static_cast<std::size_t>(bv.cols());
  const float* src = mv.data().data();
  float* dst = out.data().data();
  for (std::size_t i = 0; i < indices->size(); ++i) {
    const float* row = src + static_cast<std::size_t>((*indices)[i]) * cols;
    float* orow = dst + i * cols;
    for (std::size_t j = 0; j < cols; ++j) orow[j] += row[j];
  }
  const int ib = base.id;
  const int im = m.id;
  const std::vector<int>* idx = indices.get();
  retained_.push_back(std::move(indices));
  return push(std::move(out), [ib, im, idx](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    t.grad_of(ib).add_in_place(g);
    gather_rows_backward(g, *idx, t.grad_of(im));
  });
}

Tape::Var Tape::segment_sum(Var m, std::vector<int> segments,
                            int num_segments) {
  check_var(m, "segment_sum");
  const Tensor& mv = node(m).value;
  if (segments.size() != static_cast<size_t>(mv.rows())) {
    throw std::invalid_argument("segment_sum: segment count != rows");
  }
  for (int s : segments) {
    if (s < 0 || s >= num_segments) {
      throw std::invalid_argument("segment_sum: segment id out of range");
    }
  }
  Tensor out = alloc(num_segments, mv.cols());
  for (size_t i = 0; i < segments.size(); ++i) {
    for (int j = 0; j < mv.cols(); ++j) {
      out.at(segments[i], j) += mv.at(static_cast<int>(i), j);
    }
  }
  const int im = m.id;
  return push(std::move(out),
              [im, segments = std::move(segments)](Tape& t, int self) {
                const Tensor& g = t.grad_of(self);
                Tensor& gm = t.grad_of(im);
                for (size_t i = 0; i < segments.size(); ++i) {
                  for (int j = 0; j < g.cols(); ++j) {
                    gm.at(static_cast<int>(i), j) += g.at(segments[i], j);
                  }
                }
              });
}

Tape::Var Tape::segment_sum(Var m,
                            std::shared_ptr<const kernels::SegmentPlan> plan) {
  check_var(m, "segment_sum");
  if (!plan) throw std::invalid_argument("segment_sum: null plan");
  const Tensor& mv = node(m).value;
  if (plan->num_rows() != mv.rows()) {
    throw std::invalid_argument("segment_sum: plan rows != input rows");
  }
  Tensor out = alloc(plan->num_segments, mv.cols());
  kernels::segment_sum(*plan, mv.cols(), mv.data().data(), out.data().data());
  const int im = m.id;
  const kernels::SegmentPlan* p = plan.get();
  retained_.push_back(std::move(plan));
  return push(std::move(out), [im, p](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    kernels::segment_sum_grad(*p, g.cols(), g.data().data(),
                              t.grad_of(im).data().data());
  });
}

// ---------- unary ----------

namespace {

template <typename Fwd>
Tensor apply_unary(Tensor out, Fwd fwd) {
  for (float& v : out.data()) v = fwd(v);
  return out;
}

}  // namespace

Tape::Var Tape::relu(Var x) {
  check_var(x, "relu");
  Tensor out = apply_unary(alloc_copy(node(x).value),
                           [](float v) { return v > 0.0F ? v : 0.0F; });
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto xv = t.value_of(ix).data();
    auto gx = t.grad_of(ix).data();
    // Branch-free so the loop vectorises.
    for (size_t i = 0; i < g.size(); ++i) gx[i] += xv[i] > 0.0F ? g[i] : 0.0F;
  });
}

Tape::Var Tape::tanh(Var x) {
  check_var(x, "tanh");
  Tensor out = apply_unary(alloc_copy(node(x).value),
                           [](float v) { return std::tanh(v); });
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto y = t.value_of(self).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) {
      gx[i] += g[i] * (1.0F - y[i] * y[i]);
    }
  });
}

Tape::Var Tape::sigmoid(Var x) {
  check_var(x, "sigmoid");
  Tensor out = apply_unary(alloc_copy(node(x).value), [](float v) {
    return 1.0F / (1.0F + std::exp(-v));
  });
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto y = t.value_of(self).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) {
      gx[i] += g[i] * y[i] * (1.0F - y[i]);
    }
  });
}

Tape::Var Tape::exp(Var x) {
  check_var(x, "exp");
  Tensor out = apply_unary(alloc_copy(node(x).value),
                           [](float v) { return std::exp(v); });
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto y = t.value_of(self).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) gx[i] += g[i] * y[i];
  });
}

Tape::Var Tape::log(Var x) {
  check_var(x, "log");
  Tensor out = apply_unary(alloc_copy(node(x).value),
                           [](float v) { return std::log(v); });
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto xv = t.value_of(ix).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) gx[i] += g[i] / xv[i];
  });
}

Tape::Var Tape::square(Var x) {
  check_var(x, "square");
  Tensor out = apply_unary(alloc_copy(node(x).value),
                           [](float v) { return v * v; });
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto xv = t.value_of(ix).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) gx[i] += 2.0F * g[i] * xv[i];
  });
}

Tape::Var Tape::neg(Var x) { return scale(x, -1.0F); }

Tape::Var Tape::scale(Var x, float k) {
  check_var(x, "scale");
  Tensor out = apply_unary(alloc_copy(node(x).value),
                           [k](float v) { return k * v; });
  const int ix = x.id;
  return push(std::move(out), [ix, k](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) gx[i] += k * g[i];
  });
}

Tape::Var Tape::add_scalar(Var x, float k) {
  check_var(x, "add_scalar");
  Tensor out = apply_unary(alloc_copy(node(x).value),
                           [k](float v) { return v + k; });
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    t.grad_of(ix).add_in_place(t.grad_of(self));
  });
}

Tape::Var Tape::clip(Var x, float lo, float hi) {
  check_var(x, "clip");
  if (!(lo < hi)) throw std::invalid_argument("clip: lo >= hi");
  Tensor out = apply_unary(alloc_copy(node(x).value), [lo, hi](float v) {
    return std::min(hi, std::max(lo, v));
  });
  const int ix = x.id;
  return push(std::move(out), [ix, lo, hi](Tape& t, int self) {
    const auto g = t.grad_of(self).data();
    const auto xv = t.value_of(ix).data();
    auto gx = t.grad_of(ix).data();
    for (size_t i = 0; i < g.size(); ++i) {
      if (xv[i] > lo && xv[i] < hi) gx[i] += g[i];
    }
  });
}

// ---------- reductions ----------

Tape::Var Tape::sum_all(Var x) {
  check_var(x, "sum_all");
  double total = 0.0;
  for (float v : node(x).value.data()) total += v;
  Tensor out = alloc(1, 1);
  out.at(0, 0) = static_cast<float>(total);
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const float g = t.grad_of(self).at(0, 0);
    for (float& v : t.grad_of(ix).data()) v += g;
  });
}

Tape::Var Tape::mean_all(Var x) {
  check_var(x, "mean_all");
  const auto count = static_cast<float>(node(x).value.size());
  if (count == 0.0F) throw std::invalid_argument("mean_all: empty tensor");
  return scale(sum_all(x), 1.0F / count);
}

Tape::Var Tape::sum_rows(Var x) {
  check_var(x, "sum_rows");
  const Tensor& xv = node(x).value;
  Tensor out = alloc(1, xv.cols());
  for (int i = 0; i < xv.rows(); ++i) {
    for (int j = 0; j < xv.cols(); ++j) out.at(0, j) += xv.at(i, j);
  }
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    Tensor& gx = t.grad_of(ix);
    for (int i = 0; i < gx.rows(); ++i) {
      for (int j = 0; j < gx.cols(); ++j) gx.at(i, j) += g.at(0, j);
    }
  });
}

Tape::Var Tape::sum_cols(Var x) {
  check_var(x, "sum_cols");
  const Tensor& xv = node(x).value;
  Tensor out = alloc(xv.rows(), 1);
  for (int i = 0; i < xv.rows(); ++i) {
    for (int j = 0; j < xv.cols(); ++j) out.at(i, 0) += xv.at(i, j);
  }
  const int ix = x.id;
  return push(std::move(out), [ix](Tape& t, int self) {
    const Tensor& g = t.grad_of(self);
    Tensor& gx = t.grad_of(ix);
    for (int i = 0; i < gx.rows(); ++i) {
      for (int j = 0; j < gx.cols(); ++j) gx.at(i, j) += g.at(i, 0);
    }
  });
}

// ---------- execution ----------

const Tensor& Tape::value(Var v) const {
  check_var(v, "value");
  return node(v).value;
}

const Tensor& Tape::grad(Var v) const {
  check_var(v, "grad");
  const Node& n = node(v);
  if (!n.grad.same_shape(n.value)) {
    // A node backward never reached has an exactly-zero gradient;
    // materialise it so callers keep getting a correctly-shaped tensor.
    const_cast<Tape*>(this)->grad_of(v.id);
  }
  return n.grad;
}

void Tape::backward(Var loss) {
  check_var(loss, "backward");
  const Tensor& lv = node(loss).value;
  if (lv.rows() != 1 || lv.cols() != 1) {
    throw std::invalid_argument("backward: loss must be 1x1, got " +
                                lv.shape_str());
  }
  // Recycle buffers from any previous backward instead of zero-filling
  // them, so only nodes this pass actually reaches get (re)acquired.
  for (auto& n : nodes_) {
    if (n.grad.capacity() != 0) arena_.release(std::move(n.grad));
    n.grad = Tensor();
  }
  const std::size_t allocs_before = grad_allocs_;
  grad_of(loss.id).at(0, 0) = 1.0F;
  for (int i = loss.id; i >= 0; --i) {
    Node& n = nodes_[static_cast<size_t>(i)];
    // No consumer propagated into node i: its gradient is zero, and
    // pushing zeros further upstream would change nothing.
    if (!n.grad.same_shape(n.value)) continue;
    active_backward_node_ = i;
    if (n.backward_fn) n.backward_fn(*this, i);
    if (n.parameter != nullptr) n.parameter->grad.add_in_place(n.grad);
  }
  active_backward_node_ = -1;
  // Grad-shape agreement over the whole tape: every gradient this pass
  // allocated must mirror its node's value shape exactly.
  GDDR_VALIDATE([&] {
    for (const Node& n : nodes_) {
      if (n.grad.rows() == 0 && n.grad.cols() == 0) continue;
      check_grad_shape(n.value, n.grad, "nn/tape/grad-shape");
    }
  }());
  if (obs::enabled()) {
    obs::count("nn/tape/backwards");
    obs::count("nn/tape/grad_allocs", grad_allocs_ - allocs_before);
  }
}

}  // namespace gddr::nn
