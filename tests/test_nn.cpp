#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/gaussian.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/tape.hpp"
#include "nn/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gddr::nn {
namespace {

using Var = Tape::Var;

// ---------------- Tensor ----------------

TEST(Tensor, ShapeAndFill) {
  Tensor t(2, 3, 1.5F);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6U);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5F);
}

TEST(Tensor, RowFromDoubles) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const Tensor t = Tensor::row(std::span<const double>(v));
  EXPECT_EQ(t.rows(), 1);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2.0F);
}

TEST(Tensor, AddInPlaceShapeChecked) {
  Tensor a(2, 2, 1.0F);
  Tensor b(2, 2, 2.0F);
  a.add_in_place(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 3.0F);
  Tensor c(3, 2);
  EXPECT_THROW(a.add_in_place(c), std::invalid_argument);
}

TEST(Tensor, SquaredNorm) {
  Tensor t = Tensor::row({3.0F, 4.0F});
  EXPECT_DOUBLE_EQ(t.squared_norm(), 25.0);
}

TEST(Tensor, FillUniformWithinBound) {
  util::Rng rng(1);
  Tensor t(10, 10);
  t.fill_uniform(rng, 0.5);
  for (float v : t.data()) {
    EXPECT_GE(v, -0.5F);
    EXPECT_LE(v, 0.5F);
  }
}

// ---------------- forward values ----------------

TEST(Tape, MatmulValues) {
  Tape tape;
  Tensor a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Tensor b(2, 1);
  b.at(0, 0) = 5;
  b.at(1, 0) = 6;
  const Var c = tape.matmul(tape.constant(a), tape.constant(b));
  EXPECT_FLOAT_EQ(tape.value(c).at(0, 0), 17.0F);
  EXPECT_FLOAT_EQ(tape.value(c).at(1, 0), 39.0F);
}

TEST(Tape, MatmulShapeMismatchThrows) {
  Tape tape;
  const Var a = tape.constant(Tensor(2, 3));
  const Var b = tape.constant(Tensor(2, 3));
  EXPECT_THROW(tape.matmul(a, b), std::invalid_argument);
}

TEST(Tape, SegmentSumValues) {
  Tape tape;
  Tensor m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 2;
  m.at(2, 0) = 4;
  m.at(0, 1) = 10;
  m.at(1, 1) = 20;
  m.at(2, 1) = 40;
  const Var out = tape.segment_sum(tape.constant(m), {0, 1, 0}, 2);
  EXPECT_FLOAT_EQ(tape.value(out).at(0, 0), 5.0F);
  EXPECT_FLOAT_EQ(tape.value(out).at(1, 0), 2.0F);
  EXPECT_FLOAT_EQ(tape.value(out).at(0, 1), 50.0F);
}

TEST(Tape, SegmentSumEmptySegmentIsZero) {
  Tape tape;
  Tensor m(1, 1, 3.0F);
  const Var out = tape.segment_sum(tape.constant(m), {2}, 4);
  EXPECT_FLOAT_EQ(tape.value(out).at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(tape.value(out).at(2, 0), 3.0F);
}

TEST(Tape, GatherRowsValues) {
  Tape tape;
  Tensor m(3, 1);
  m.at(0, 0) = 7;
  m.at(1, 0) = 8;
  m.at(2, 0) = 9;
  const Var out = tape.gather_rows(tape.constant(m), {2, 0, 2});
  EXPECT_FLOAT_EQ(tape.value(out).at(0, 0), 9.0F);
  EXPECT_FLOAT_EQ(tape.value(out).at(1, 0), 7.0F);
  EXPECT_FLOAT_EQ(tape.value(out).at(2, 0), 9.0F);
}

TEST(Tape, ClipValues) {
  Tape tape;
  const Var x = tape.constant(Tensor::row({-2.0F, 0.5F, 3.0F}));
  const Var y = tape.clip(x, -1.0F, 1.0F);
  EXPECT_FLOAT_EQ(tape.value(y).at(0, 0), -1.0F);
  EXPECT_FLOAT_EQ(tape.value(y).at(0, 1), 0.5F);
  EXPECT_FLOAT_EQ(tape.value(y).at(0, 2), 1.0F);
}

TEST(Tape, ReshapePreservesData) {
  Tape tape;
  Tensor m(2, 3);
  for (int i = 0; i < 6; ++i) m.data()[static_cast<size_t>(i)] = static_cast<float>(i);
  const Var r = tape.reshape(tape.constant(m), 3, 2);
  EXPECT_FLOAT_EQ(tape.value(r).at(0, 1), 1.0F);
  EXPECT_FLOAT_EQ(tape.value(r).at(2, 0), 4.0F);
  EXPECT_THROW(tape.reshape(tape.constant(m), 4, 2), std::invalid_argument);
}

TEST(Tape, ReductionValues) {
  Tape tape;
  Tensor m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 3;
  m.at(1, 1) = 4;
  const Var c = tape.constant(m);
  EXPECT_FLOAT_EQ(tape.value(tape.sum_all(c)).at(0, 0), 10.0F);
  EXPECT_FLOAT_EQ(tape.value(tape.mean_all(c)).at(0, 0), 2.5F);
  EXPECT_FLOAT_EQ(tape.value(tape.sum_rows(c)).at(0, 1), 6.0F);
  EXPECT_FLOAT_EQ(tape.value(tape.sum_cols(c)).at(1, 0), 7.0F);
}

TEST(Tape, BackwardRequiresScalarLoss) {
  Tape tape;
  const Var x = tape.constant(Tensor(2, 2));
  EXPECT_THROW(tape.backward(x), std::invalid_argument);
}

// ---------------- finite-difference gradient checks ----------------

// Builds a scalar loss from a parameter via `body`, then verifies the
// analytic gradient against central finite differences.
void grad_check(
    Parameter& param,
    const std::function<Var(Tape&, Var)>& body, double tol = 3e-2) {
  // Analytic gradient.
  param.zero_grad();
  {
    Tape tape;
    const Var loss = body(tape, tape.leaf(param));
    tape.backward(loss);
  }
  const Tensor analytic = param.grad;

  const float eps = 1e-2F;
  for (int r = 0; r < param.value.rows(); ++r) {
    for (int c = 0; c < param.value.cols(); ++c) {
      const float saved = param.value.at(r, c);
      param.value.at(r, c) = saved + eps;
      double up;
      {
        Tape tape;
        up = tape.value(body(tape, tape.leaf(param))).at(0, 0);
      }
      param.value.at(r, c) = saved - eps;
      double down;
      {
        Tape tape;
        down = tape.value(body(tape, tape.leaf(param))).at(0, 0);
      }
      param.value.at(r, c) = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double a = analytic.at(r, c);
      EXPECT_NEAR(a, numeric, tol * std::max(1.0, std::abs(numeric)))
          << "element (" << r << "," << c << ")";
    }
  }
}

Tensor random_tensor(int rows, int cols, util::Rng& rng, double lo = -1.0,
                     double hi = 1.0) {
  Tensor t(rows, cols);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

TEST(GradCheck, Matmul) {
  util::Rng rng(1);
  Parameter p(random_tensor(3, 4, rng));
  const Tensor other = random_tensor(4, 2, rng);
  grad_check(p, [&](Tape& t, Var x) {
    return t.sum_all(t.matmul(x, t.constant(other)));
  });
}

TEST(GradCheck, MatmulRightOperand) {
  util::Rng rng(2);
  Parameter p(random_tensor(4, 2, rng));
  const Tensor other = random_tensor(3, 4, rng);
  grad_check(p, [&](Tape& t, Var x) {
    return t.sum_all(t.matmul(t.constant(other), x));
  });
}

TEST(GradCheck, AddSubMulDiv) {
  util::Rng rng(3);
  Parameter p(random_tensor(2, 3, rng, 0.5, 2.0));
  const Tensor other = random_tensor(2, 3, rng, 0.5, 2.0);
  grad_check(p, [&](Tape& t, Var x) {
    const Var o = t.constant(other);
    return t.sum_all(t.div(t.mul(t.add(x, o), t.sub(x, o)), o));
  });
}

TEST(GradCheck, MinimumMaximum) {
  util::Rng rng(4);
  // Values well separated so the FD step never flips the argmin.
  Tensor a(2, 2);
  a.at(0, 0) = 0.5F;
  a.at(0, 1) = -0.7F;
  a.at(1, 0) = 1.2F;
  a.at(1, 1) = -1.5F;
  Parameter p(a);
  Tensor b(2, 2);
  b.at(0, 0) = -0.3F;
  b.at(0, 1) = 0.9F;
  b.at(1, 0) = 0.1F;
  b.at(1, 1) = 0.4F;
  grad_check(p, [&](Tape& t, Var x) {
    const Var o = t.constant(b);
    return t.sum_all(t.add(t.minimum(x, o), t.maximum(x, o)));
  });
}

TEST(GradCheck, AddBias) {
  util::Rng rng(5);
  Parameter p(random_tensor(1, 3, rng));
  const Tensor m = random_tensor(4, 3, rng);
  grad_check(p, [&](Tape& t, Var b) {
    return t.sum_all(t.square(t.add_bias(t.constant(m), b)));
  });
}

TEST(GradCheck, BroadcastRowsAndCols) {
  util::Rng rng(6);
  Parameter p(random_tensor(1, 3, rng));
  grad_check(p, [&](Tape& t, Var x) {
    return t.sum_all(t.square(t.broadcast_rows(x, 5)));
  });
  Parameter q(random_tensor(1, 1, rng));
  grad_check(q, [&](Tape& t, Var x) {
    return t.sum_all(t.square(t.broadcast_cols(x, 4)));
  });
}

TEST(GradCheck, ConcatSliceReshape) {
  util::Rng rng(7);
  Parameter p(random_tensor(2, 3, rng));
  const Tensor other = random_tensor(2, 2, rng);
  grad_check(p, [&](Tape& t, Var x) {
    const Var cat = t.concat_cols(x, t.constant(other));
    const Var sliced = t.slice_cols(cat, 1, 3);
    return t.sum_all(t.square(t.reshape(sliced, 3, 2)));
  });
}

TEST(GradCheck, GatherAndSegmentSum) {
  util::Rng rng(8);
  Parameter p(random_tensor(4, 2, rng));
  grad_check(p, [&](Tape& t, Var x) {
    const Var gathered = t.gather_rows(x, {0, 2, 2, 3});
    const Var pooled = t.segment_sum(gathered, {0, 1, 1, 0}, 2);
    return t.sum_all(t.square(pooled));
  });
}

TEST(GradCheck, SliceRowsAndAddGathered) {
  util::Rng rng(12);
  Parameter p(random_tensor(5, 3, rng));
  const Tensor base = random_tensor(4, 3, rng);
  const auto indices = std::make_shared<const std::vector<int>>(
      std::vector<int>{1, 0, 2, 1});
  grad_check(p, [&](Tape& t, Var x) {
    // Rows 1..3 of x, gathered by `indices` onto a 4-row base; the base
    // also gets x's first row so both backward paths carry gradient.
    const Var block = t.slice_rows(x, 1, 3);
    const Var first = t.broadcast_rows(t.slice_rows(x, 0, 1), 4);
    const Var sum = t.add_gathered(t.add(t.constant(base), first), block,
                                   indices);
    return t.sum_all(t.square(sum));
  });
}

TEST(Tape, SliceRowsAndAddGatheredRejectBadShapes) {
  Tape tape;
  const Var m = tape.constant(Tensor(3, 2));
  EXPECT_THROW(tape.slice_rows(m, 2, 2), std::invalid_argument);
  EXPECT_THROW(tape.slice_rows(m, -1, 1), std::invalid_argument);
  const auto two = std::make_shared<const std::vector<int>>(
      std::vector<int>{0, 1});
  EXPECT_THROW(tape.add_gathered(tape.constant(Tensor(3, 2)), m, two),
               std::invalid_argument);  // 2 indices for 3 base rows
  EXPECT_THROW(tape.add_gathered(tape.constant(Tensor(2, 3)), m, two),
               std::invalid_argument);  // width mismatch
  const auto out_of_range = std::make_shared<const std::vector<int>>(
      std::vector<int>{0, 3});
  EXPECT_THROW(tape.add_gathered(tape.constant(Tensor(2, 2)), m, out_of_range),
               std::invalid_argument);
}

TEST(GradCheck, UnaryChain) {
  util::Rng rng(9);
  Parameter p(random_tensor(2, 3, rng, 0.2, 0.8));
  grad_check(p, [&](Tape& t, Var x) {
    Var h = t.tanh(x);
    h = t.sigmoid(h);
    h = t.exp(h);
    h = t.log(h);  // identity overall but exercises both gradients
    h = t.square(h);
    h = t.scale(h, 0.5F);
    h = t.add_scalar(h, 1.0F);
    return t.mean_all(h);
  });
}

TEST(GradCheck, ReluAwayFromKink) {
  Tensor v(1, 4);
  v.at(0, 0) = -1.0F;
  v.at(0, 1) = 2.0F;
  v.at(0, 2) = -0.5F;
  v.at(0, 3) = 0.7F;
  Parameter p(v);
  grad_check(p, [&](Tape& t, Var x) {
    return t.sum_all(t.square(t.relu(x)));
  });
}

TEST(GradCheck, ClipInteriorOnly) {
  Tensor v(1, 3);
  v.at(0, 0) = -0.5F;
  v.at(0, 1) = 0.2F;
  v.at(0, 2) = 0.6F;
  Parameter p(v);
  grad_check(p, [&](Tape& t, Var x) {
    return t.sum_all(t.square(t.clip(x, -0.9F, 0.9F)));
  });
}

TEST(GradCheck, SumColsAndRows) {
  util::Rng rng(10);
  Parameter p(random_tensor(3, 4, rng));
  grad_check(p, [&](Tape& t, Var x) {
    const Var rows = t.sum_rows(x);        // 1x4
    const Var cols = t.sum_cols(x);        // 3x1
    return t.add(t.sum_all(t.square(rows)),
                 t.sum_all(t.square(cols)));
  });
}

TEST(GradCheck, SharedSubexpressionAccumulates) {
  util::Rng rng(11);
  Parameter p(random_tensor(2, 2, rng));
  // x used twice: gradient must accumulate both paths.
  grad_check(p, [&](Tape& t, Var x) {
    return t.sum_all(t.mul(x, x));
  });
}

TEST(GradCheck, ParameterUsedThroughTwoLeaves) {
  util::Rng rng(12);
  Parameter p(random_tensor(1, 2, rng));
  grad_check(p, [&](Tape& t, Var x) {
    // Re-leafing the same parameter creates a second tape node; grads from
    // both must land in p.grad.  The body only receives one Var, so add
    // the second leaf manually inside.
    return t.sum_all(t.add(x, x));
  });
}

// ---------------- aliasing audit ----------------
//
// Every binary/shape op must stay correct when both operands are the
// *same* Var: forward must not read half-updated output, and backward
// must accumulate into the shared grad buffer exactly once per use.

TEST(Aliasing, SameVarBinaryOpsValuesAndGrads) {
  util::Rng rng(21);
  Parameter p(random_tensor(2, 3, rng, 0.5, 2.0));  // positive: safe for div
  // x - x == 0 with zero gradient.
  {
    Tape tape;
    const Var x = tape.leaf(p);
    const Var y = tape.sub(x, x);
    for (const float v : tape.value(y).data()) EXPECT_EQ(v, 0.0F);
    p.zero_grad();
    tape.backward(tape.sum_all(y));
    for (const float g : p.grad.data()) EXPECT_EQ(g, 0.0F);
  }
  // x / x == 1 with zero gradient (the two chain-rule terms cancel).
  {
    Tape tape;
    const Var x = tape.leaf(p);
    const Var y = tape.div(x, x);
    for (const float v : tape.value(y).data()) EXPECT_FLOAT_EQ(v, 1.0F);
    p.zero_grad();
    tape.backward(tape.sum_all(y));
    for (const float g : p.grad.data()) EXPECT_NEAR(g, 0.0F, 1e-6F);
  }
  // min(x, x) == max(x, x) == x, gradient exactly 1 — the tie must route
  // each element's gradient through exactly one branch, not both.
  for (const bool use_min : {true, false}) {
    Tape tape;
    const Var x = tape.leaf(p);
    const Var y = use_min ? tape.minimum(x, x) : tape.maximum(x, x);
    const Tensor& v = tape.value(y);
    for (int r = 0; r < v.rows(); ++r) {
      for (int c = 0; c < v.cols(); ++c) {
        EXPECT_EQ(v.at(r, c), p.value.at(r, c));
      }
    }
    p.zero_grad();
    tape.backward(tape.sum_all(y));
    for (const float g : p.grad.data()) EXPECT_EQ(g, 1.0F);
  }
}

TEST(Aliasing, ConcatColsOfSameVar) {
  util::Rng rng(22);
  Parameter p(random_tensor(2, 2, rng));
  grad_check(p, [&](Tape& t, Var x) {
    return t.sum_all(t.concat_cols(x, x));
  });
  Tape tape;
  const Var x = tape.leaf(p);
  const Tensor& v = tape.value(tape.concat_cols(x, x));
  ASSERT_EQ(v.cols(), 4);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(v.at(r, c), p.value.at(r, c));
      EXPECT_EQ(v.at(r, c + 2), p.value.at(r, c));
    }
  }
}

TEST(Aliasing, GatherRowsRepeatedIndices) {
  util::Rng rng(23);
  Parameter p(random_tensor(3, 2, rng));
  // Row 0 gathered twice: its gradient must be 2, rows 1/2 get 1 and 0.
  Tape tape;
  const Var x = tape.leaf(p);
  const Var y = tape.gather_rows(x, std::vector<int>{0, 0, 1});
  p.zero_grad();
  tape.backward(tape.sum_all(y));
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(p.grad.at(0, c), 2.0F);
    EXPECT_EQ(p.grad.at(1, c), 1.0F);
    EXPECT_EQ(p.grad.at(2, c), 0.0F);
  }
}

TEST(Aliasing, SegmentSumDuplicateIdsAccumulate) {
  util::Rng rng(24);
  Parameter p(random_tensor(4, 2, rng));
  Tape tape;
  const Var x = tape.leaf(p);
  // Rows 0, 1 and 3 land in segment 0; row 2 alone in segment 1.
  const Var y = tape.segment_sum(x, std::vector<int>{0, 0, 1, 0}, 2);
  const Tensor& v = tape.value(y);
  for (int c = 0; c < 2; ++c) {
    EXPECT_FLOAT_EQ(v.at(0, c), p.value.at(0, c) + p.value.at(1, c) +
                                    p.value.at(3, c));
    EXPECT_FLOAT_EQ(v.at(1, c), p.value.at(2, c));
  }
  p.zero_grad();
  tape.backward(tape.sum_all(y));
  for (const float g : p.grad.data()) EXPECT_EQ(g, 1.0F);
}

// ---------------- MLP ----------------

TEST(Mlp, OutputShape) {
  util::Rng rng(13);
  Mlp net(4, 3, MlpConfig{}, rng);
  Tape tape;
  const Var y = net.forward(tape, tape.constant(Tensor(5, 4)));
  EXPECT_EQ(tape.value(y).rows(), 5);
  EXPECT_EQ(tape.value(y).cols(), 3);
}

TEST(Mlp, InputSizeChecked) {
  util::Rng rng(14);
  Mlp net(4, 3, MlpConfig{}, rng);
  Tape tape;
  EXPECT_THROW(net.forward(tape, tape.constant(Tensor(5, 7))),
               std::invalid_argument);
}

TEST(Mlp, ParameterCount) {
  util::Rng rng(15);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp net(4, 2, cfg, rng);
  // (4*8 + 8) + (8*2 + 2) = 40 + 18 = 58.
  EXPECT_EQ(net.num_parameters(), 58U);
  EXPECT_EQ(net.parameters().size(), 4U);
}

TEST(Mlp, OutputScaleShrinksInitialOutputs) {
  util::Rng rng_a(16);
  util::Rng rng_b(16);
  MlpConfig big;
  MlpConfig small;
  small.output_scale = 0.01;
  Mlp a(4, 2, big, rng_a);
  Mlp b(4, 2, small, rng_b);
  util::Rng rng_in(17);
  const Tensor x = random_tensor(1, 4, rng_in);
  Tape ta;
  Tape tb;
  const double ya = std::abs(ta.value(a.forward(ta, ta.constant(x))).at(0, 0));
  const double yb = std::abs(tb.value(b.forward(tb, tb.constant(x))).at(0, 0));
  EXPECT_LT(yb, ya);
}

TEST(Mlp, LearnsLinearRegression) {
  // Fit y = 2x1 - 3x2 + 1 with Adam; loss must drop by >100x.
  util::Rng rng(18);
  MlpConfig cfg;
  cfg.hidden = {16};
  Mlp net(2, 1, cfg, rng);
  Adam adam(0.01);
  const auto params = net.parameters();
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int iter = 0; iter < 500; ++iter) {
    Tensor x = random_tensor(16, 2, rng);
    Tensor y(16, 1);
    for (int i = 0; i < 16; ++i) {
      y.at(i, 0) = 2.0F * x.at(i, 0) - 3.0F * x.at(i, 1) + 1.0F;
    }
    Tape tape;
    const Var pred = net.forward(tape, tape.constant(x));
    const Var loss = tape.mean_all(tape.square(tape.sub(pred,
                                                        tape.constant(y))));
    zero_grads(params);
    tape.backward(loss);
    adam.step(params);
    const double l = tape.value(loss).at(0, 0);
    if (iter == 0) first_loss = l;
    last_loss = l;
  }
  EXPECT_LT(last_loss, first_loss / 100.0);
}

TEST(Mlp, LearnsXor) {
  util::Rng rng(19);
  MlpConfig cfg;
  cfg.hidden = {16, 16};
  cfg.hidden_activation = Activation::kTanh;
  Mlp net(2, 1, cfg, rng);
  Adam adam(0.02);
  const auto params = net.parameters();
  Tensor x(4, 2);
  Tensor y(4, 1);
  const float pts[4][3] = {
      {0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
  for (int i = 0; i < 4; ++i) {
    x.at(i, 0) = pts[i][0];
    x.at(i, 1) = pts[i][1];
    y.at(i, 0) = pts[i][2];
  }
  for (int iter = 0; iter < 800; ++iter) {
    Tape tape;
    const Var pred = net.forward(tape, tape.constant(x));
    const Var loss = tape.mean_all(tape.square(tape.sub(pred,
                                                        tape.constant(y))));
    zero_grads(params);
    tape.backward(loss);
    adam.step(params);
  }
  Tape tape;
  const Tensor& pred = tape.value(net.forward(tape, tape.constant(x)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(pred.at(i, 0), y.at(i, 0), 0.2) << "pattern " << i;
  }
}

// ---------------- optimisers ----------------

TEST(Sgd, DescendsQuadratic) {
  Parameter p(Tensor(1, 1, 5.0F));
  Sgd sgd(0.1);
  const std::vector<Parameter*> params{&p};
  for (int i = 0; i < 100; ++i) {
    Tape tape;
    const Var loss = tape.square(tape.leaf(p));
    zero_grads(params);
    tape.backward(loss);
    sgd.step(params);
  }
  EXPECT_NEAR(p.value.at(0, 0), 0.0F, 1e-4);
}

TEST(Adam, DescendsQuadraticFasterThanTinySgd) {
  Parameter pa(Tensor(1, 1, 5.0F));
  Parameter ps(Tensor(1, 1, 5.0F));
  Adam adam(0.3);
  Sgd sgd(0.001);
  for (int i = 0; i < 60; ++i) {
    {
      Tape tape;
      const Var loss = tape.square(tape.leaf(pa));
      pa.zero_grad();
      tape.backward(loss);
      const std::vector<Parameter*> params{&pa};
      adam.step(params);
    }
    {
      Tape tape;
      const Var loss = tape.square(tape.leaf(ps));
      ps.zero_grad();
      tape.backward(loss);
      const std::vector<Parameter*> params{&ps};
      sgd.step(params);
    }
  }
  EXPECT_LT(std::abs(pa.value.at(0, 0)), std::abs(ps.value.at(0, 0)));
}

TEST(Adam, RejectsDegenerateHyperparameters) {
  // beta == 1 makes the bias correction 1 - beta^t exactly zero, so the
  // very first step divides by zero and silently poisons every parameter
  // with NaN.  The constructor must refuse instead.
  EXPECT_THROW(Adam(0.01, 1.0, 0.999, 1e-8), std::invalid_argument);
  EXPECT_THROW(Adam(0.01, 0.9, 1.0, 1e-8), std::invalid_argument);
  EXPECT_THROW(Adam(0.01, -0.1, 0.999, 1e-8), std::invalid_argument);
  EXPECT_THROW(Adam(0.01, 0.9, 1.5, 1e-8), std::invalid_argument);
  EXPECT_THROW(Adam(0.01, 0.9, 0.999, 0.0), std::invalid_argument);
  EXPECT_THROW(Adam(0.01, 0.9, 0.999, -1e-8), std::invalid_argument);
  EXPECT_THROW(Adam(0.0), std::invalid_argument);
  EXPECT_NO_THROW(Adam(0.01, 0.0, 0.0, 1e-8));  // beta = 0 is plain RMS-free
}

TEST(Adam, ResumeContinuesBiasCorrectionFromRestoredStep) {
  // A restored optimizer must keep counting steps from the checkpointed
  // t, not restart the bias correction at t = 1 — restarting re-inflates
  // the 1/(1 - beta^t) factors and the first post-resume update diverges
  // from the uninterrupted run.
  const Tensor init(2, 3, 1.0F);
  Parameter continuous(init);
  Parameter resumed(init);
  const std::vector<Parameter*> pc{&continuous};
  const std::vector<Parameter*> pr{&resumed};

  Adam original(0.05);
  const auto fill_grad = [](Parameter& p, float seed) {
    float v = seed;
    for (float& g : p.grad.data()) {
      g = v;
      v += 0.25F;
    }
  };
  for (int step = 0; step < 3; ++step) {
    fill_grad(continuous, 0.5F + static_cast<float>(step));
    original.step(pc);
  }

  // Checkpoint/restore into a fresh optimizer; parameters carry over too.
  Adam restored(0.05);
  restored.import_state(original.export_state(pc), pr);
  resumed.value = continuous.value;

  // The same 4th gradient must now produce bit-identical parameters.
  fill_grad(continuous, 9.0F);
  fill_grad(resumed, 9.0F);
  original.step(pc);
  restored.step(pr);
  for (int r = 0; r < init.rows(); ++r) {
    for (int c = 0; c < init.cols(); ++c) {
      EXPECT_EQ(continuous.value.at(r, c), resumed.value.at(r, c))
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(Adam, HugeRestoredStepCountStaysFinite) {
  // pow(beta, t) underflows to 0 for large t, so the bias corrections are
  // exactly 1 — never a division hazard for any beta < 1.
  Parameter p(Tensor(1, 2, 2.0F));
  const std::vector<Parameter*> params{&p};
  Adam source(0.01);
  p.grad.fill(1.0F);
  source.step(params);
  Adam::State state = source.export_state(params);
  state.t = 50'000'000;
  Adam restored(0.01);
  restored.import_state(state, params);
  p.grad.fill(1.0F);
  restored.step(params);
  for (const float v : p.value.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(GradClip, ScalesDownLargeGradients) {
  Parameter p(Tensor(1, 2));
  p.grad.at(0, 0) = 3.0F;
  p.grad.at(0, 1) = 4.0F;  // norm 5
  const std::vector<Parameter*> params{&p};
  const double norm = clip_grad_norm(params, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(global_grad_norm(params), 1.0, 1e-6);
}

TEST(GradClip, LeavesSmallGradientsAlone) {
  Parameter p(Tensor(1, 1));
  p.grad.at(0, 0) = 0.5F;
  const std::vector<Parameter*> params{&p};
  clip_grad_norm(params, 1.0);
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 0.5F);
}

// ---------------- Gaussian distribution ----------------

TEST(Gaussian, LogProbMatchesClosedForm) {
  Tape tape;
  const Tensor mean_t = Tensor::row({0.5F, -1.0F});
  const Tensor log_std_t = Tensor::row({0.0F, std::log(2.0F)});
  const Tensor action = Tensor::row({1.0F, 1.0F});
  const Var lp = diag_gaussian_log_prob(tape, tape.constant(mean_t),
                                        tape.constant(log_std_t), action);
  // dim 0: N(0.5, 1), x=1: -0.5*0.25 - 0 - 0.9189
  // dim 1: N(-1, 2), x=1: -0.5*1 - log2 - 0.9189
  const double expected = (-0.125 - 0.9189385332) +
                          (-0.5 - std::log(2.0) - 0.9189385332);
  EXPECT_NEAR(tape.value(lp).at(0, 0), expected, 1e-5);
}

TEST(Gaussian, EntropyMatchesClosedForm) {
  Tape tape;
  const Tensor log_std_t = Tensor::row({0.0F, std::log(3.0F)});
  const Var h = diag_gaussian_entropy(tape, tape.constant(log_std_t));
  const double expected = (0.5 + 0.9189385332) * 2 + std::log(3.0);
  EXPECT_NEAR(tape.value(h).at(0, 0), expected, 1e-5);
}

TEST(Gaussian, SampleMomentsMatch) {
  util::Rng rng(23);
  const std::vector<double> mean{2.0, -1.0};
  const std::vector<double> log_std{std::log(0.5), std::log(2.0)};
  double sum0 = 0.0;
  double sum1 = 0.0;
  double sq0 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto s = sample_diag_gaussian(mean, log_std, rng);
    sum0 += s[0];
    sum1 += s[1];
    sq0 += (s[0] - 2.0) * (s[0] - 2.0);
  }
  EXPECT_NEAR(sum0 / n, 2.0, 0.02);
  EXPECT_NEAR(sum1 / n, -1.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq0 / n), 0.5, 0.02);
}

TEST(Gaussian, LogProbGradientFlowsToMean) {
  util::Rng rng(29);
  Parameter mean_param(Tensor::row({0.0F, 0.0F}));
  const Tensor log_std_t = Tensor::row({0.0F, 0.0F});
  const Tensor action = Tensor::row({1.0F, -1.0F});
  Tape tape;
  const Var lp = diag_gaussian_log_prob(
      tape, tape.leaf(mean_param), tape.constant(log_std_t), action);
  mean_param.zero_grad();
  tape.backward(lp);
  // d logp / d mu = (a - mu) / sigma^2 = a here.
  EXPECT_NEAR(mean_param.grad.at(0, 0), 1.0F, 1e-5);
  EXPECT_NEAR(mean_param.grad.at(0, 1), -1.0F, 1e-5);
}

TEST(Gaussian, MismatchedShapesThrow) {
  Tape tape;
  const Var mean = tape.constant(Tensor(1, 2));
  const Var ls = tape.constant(Tensor(1, 3));
  EXPECT_THROW(diag_gaussian_log_prob(tape, mean, ls, Tensor(1, 2)),
               std::invalid_argument);
  util::Rng rng(1);
  EXPECT_THROW(sample_diag_gaussian(std::vector<double>{1.0},
                                    std::vector<double>{0.0, 0.0}, rng),
               std::invalid_argument);
}

// ---------------- checkpoint-format robustness ----------------

std::string serialize_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<Tensor> snapshot_values(const std::vector<Parameter*>& params) {
  std::vector<Tensor> values;
  for (const Parameter* p : params) values.push_back(p->value);
  return values;
}

void expect_values_unchanged(const std::vector<Parameter*>& params,
                             const std::vector<Tensor>& snapshot) {
  ASSERT_EQ(params.size(), snapshot.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto actual = params[i]->value.data();
    const auto expected = snapshot[i].data();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t k = 0; k < actual.size(); ++k) {
      ASSERT_EQ(actual[k], expected[k]) << "parameter " << i;
    }
  }
}

TEST(SerializeRobust, TruncatedFileNamesFieldAndNeverHalfLoads) {
  util::Rng rng(21);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp src(4, 2, cfg, rng);
  const std::string path = serialize_path("gddr_truncated.bin");
  save_parameters(path, src.parameters());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  Mlp dst(4, 2, cfg, rng);
  const auto params = dst.parameters();
  const auto before = snapshot_values(params);
  try {
    load_parameters(path, params);
    FAIL() << "expected util::IoError for a truncated checkpoint";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("truncated"), std::string::npos)
        << ex.what();
  }
  expect_values_unchanged(params, before);
  std::remove(path.c_str());
}

TEST(SerializeRobust, UnsupportedVersionNamedInError) {
  const std::string path = serialize_path("gddr_badversion.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os.write("GDDRPARM", 8);
    const std::uint32_t version = 99;
    os.write(reinterpret_cast<const char*>(&version), sizeof version);
  }
  util::Rng rng(22);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp dst(4, 2, cfg, rng);
  try {
    load_parameters(path, dst.parameters());
    FAIL() << "expected util::IoError for an unsupported version";
  } catch (const util::IoError& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(SerializeRobust, ParameterCountMismatchNamedInError) {
  util::Rng rng(23);
  MlpConfig small;
  small.hidden = {8};
  Mlp src(4, 2, small, rng);
  const std::string path = serialize_path("gddr_count.bin");
  save_parameters(path, src.parameters());

  MlpConfig deep;
  deep.hidden = {8, 8};  // six parameter tensors instead of four
  Mlp dst(4, 2, deep, rng);
  const auto params = dst.parameters();
  const auto before = snapshot_values(params);
  try {
    load_parameters(path, params);
    FAIL() << "expected util::IoError for a parameter count mismatch";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("parameters"), std::string::npos)
        << ex.what();
  }
  expect_values_unchanged(params, before);
  std::remove(path.c_str());
}

TEST(SerializeRobust, LegacyV1FormatStillLoads) {
  util::Rng rng(24);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp src(4, 2, cfg, rng);
  const auto src_params = src.parameters();

  // Hand-written v1 file: magic, version 1, u64 count, raw tensors.
  const std::string path = serialize_path("gddr_v1.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os.write("GDDRPARM", 8);
    const std::uint32_t version = 1;
    os.write(reinterpret_cast<const char*>(&version), sizeof version);
    const auto count = static_cast<std::uint64_t>(src_params.size());
    os.write(reinterpret_cast<const char*>(&count), sizeof count);
    for (const Parameter* p : src_params) write_tensor(os, p->value);
  }

  util::Rng rng_b(25);
  Mlp dst(4, 2, cfg, rng_b);
  load_parameters(path, dst.parameters());
  const auto dst_params = dst.parameters();
  for (std::size_t i = 0; i < src_params.size(); ++i) {
    const auto a = src_params[i]->value.data();
    const auto b = dst_params[i]->value.data();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
  std::remove(path.c_str());
}

TEST(SerializeRobust, SaveLeavesNoTempFileBehind) {
  util::Rng rng(26);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp src(4, 2, cfg, rng);
  const std::string path = serialize_path("gddr_notmp.bin");
  save_parameters(path, src.parameters());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

// ---------------- checksum trailer (bit-rot detection) ----------------

std::string slurp_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void dump_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Byte offset of each section's payload in a v2 container, on-disk order.
// Header: 8-byte magic, u32 version, u32 count; per section u32 id,
// u64 payload size, payload.
std::vector<std::pair<std::size_t, std::size_t>> section_payload_ranges(
    const std::string& bytes) {
  std::size_t off = 8;
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + off, sizeof version);
  off += sizeof version;
  EXPECT_EQ(version, kFormatVersionSectioned);
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + off, sizeof count);
  off += sizeof count;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::uint32_t i = 0; i < count; ++i) {
    off += sizeof(std::uint32_t);  // section id
    std::uint64_t size = 0;
    std::memcpy(&size, bytes.data() + off, sizeof size);
    off += sizeof size;
    ranges.emplace_back(off, static_cast<std::size_t>(size));
    off += static_cast<std::size_t>(size);
  }
  return ranges;
}

TEST(ChecksumTrailer, BitFlipInEachSectionNamesThatSection) {
  util::Rng rng(41);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp src(4, 2, cfg, rng);

  // A multi-section container, like a trainer checkpoint.
  const std::string path = serialize_path("gddr_crc_sections.bin");
  ContainerWriter writer;
  writer.add(Section::kParameters, parameters_payload(src.parameters()));
  writer.add(Section::kAdam, std::string("adam moments placeholder blob"));
  writer.add(Section::kTrainer, std::string("trainer counters blob"));
  writer.write(path);

  const std::string pristine = slurp_file(path);
  const auto ranges = section_payload_ranges(pristine);
  ASSERT_EQ(ranges.size(), 3U);
  const char* names[] = {"parameters", "adam", "trainer"};

  for (std::size_t i = 0; i < ranges.size(); ++i) {
    std::string corrupted = pristine;
    const auto [offset, size] = ranges[i];
    ASSERT_GT(size, 0U);
    corrupted[offset + size / 2] ^= 0x01;  // single bit flip mid-payload
    dump_file(path, corrupted);
    try {
      ContainerReader reader(path);
      FAIL() << "bit flip in section '" << names[i] << "' went undetected";
    } catch (const util::IoError& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + names[i] + "'"),
                std::string::npos)
          << what;
    }
  }

  // The pristine file still reads cleanly afterwards.
  dump_file(path, pristine);
  ContainerReader reader(path);
  EXPECT_TRUE(reader.has(Section::kAdam));
  std::remove(path.c_str());
}

TEST(ChecksumTrailer, BitFlipInParameterFileNeverHalfLoads) {
  util::Rng rng(42);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp src(4, 2, cfg, rng);
  const std::string path = serialize_path("gddr_crc_params.bin");
  save_parameters(path, src.parameters());

  std::string corrupted = slurp_file(path);
  const auto ranges = section_payload_ranges(corrupted);
  ASSERT_EQ(ranges.size(), 1U);
  corrupted[ranges[0].first + ranges[0].second / 2] ^= 0x40;
  dump_file(path, corrupted);

  Mlp dst(4, 2, cfg, rng);
  const auto params = dst.parameters();
  const auto before = snapshot_values(params);
  try {
    load_parameters(path, params);
    FAIL() << "expected util::IoError for a corrupted parameter payload";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("checksum mismatch"),
              std::string::npos)
        << ex.what();
  }
  expect_values_unchanged(params, before);
  std::remove(path.c_str());
}

TEST(ChecksumTrailer, LegacyV2WithoutTrailerStillLoads) {
  util::Rng rng(43);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp src(4, 2, cfg, rng);
  const std::string path = serialize_path("gddr_crc_legacy.bin");
  save_parameters(path, src.parameters());

  // Strip the trailer ("CRCS" + u32 count + one u32 per section), leaving
  // a pre-trailer v2 file that ends exactly after its last section.
  const std::string bytes = slurp_file(path);
  const auto ranges = section_payload_ranges(bytes);
  const std::size_t trailer_bytes =
      4 + sizeof(std::uint32_t) + ranges.size() * sizeof(std::uint32_t);
  dump_file(path, bytes.substr(0, bytes.size() - trailer_bytes));

  Mlp dst(4, 2, cfg, rng);
  load_parameters(path, dst.parameters());
  const auto a = src.parameters();
  const auto b = dst.parameters();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto av = a[i]->value.data();
    const auto bv = b[i]->value.data();
    ASSERT_EQ(av.size(), bv.size());
    for (std::size_t k = 0; k < av.size(); ++k) EXPECT_EQ(av[k], bv[k]);
  }
  std::remove(path.c_str());
}

TEST(ChecksumTrailer, CorruptTrailerMetadataIsRejected) {
  util::Rng rng(44);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp src(4, 2, cfg, rng);
  const std::string path = serialize_path("gddr_crc_trailer.bin");
  save_parameters(path, src.parameters());
  const std::string pristine = slurp_file(path);
  const std::size_t crc_list_bytes = 1 * sizeof(std::uint32_t);

  // Damaged trailer magic.
  std::string bad_magic = pristine;
  bad_magic[pristine.size() - crc_list_bytes - sizeof(std::uint32_t) - 4] ^=
      0x20;  // first byte of "CRCS"
  dump_file(path, bad_magic);
  try {
    ContainerReader reader(path);
    FAIL() << "expected util::IoError for a damaged trailer magic";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("corrupt checksum trailer"),
              std::string::npos)
        << ex.what();
  }

  // Trailer count disagreeing with the declared section count.
  std::string bad_count = pristine;
  bad_count[pristine.size() - crc_list_bytes - sizeof(std::uint32_t)] ^= 0x01;
  dump_file(path, bad_count);
  try {
    ContainerReader reader(path);
    FAIL() << "expected util::IoError for a trailer count mismatch";
  } catch (const util::IoError& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("covers"), std::string::npos) << what;
  }

  // A flipped stored-CRC byte is indistinguishable from payload rot and
  // must be reported the same way.
  std::string bad_crc = pristine;
  bad_crc[pristine.size() - 1] ^= 0x01;
  dump_file(path, bad_crc);
  try {
    ContainerReader reader(path);
    FAIL() << "expected util::IoError for a flipped stored checksum";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("checksum mismatch"),
              std::string::npos)
        << ex.what();
  }
  std::remove(path.c_str());
}

// ---------------- lazy gradient allocation ----------------
//
// Regression tests for the tape memory-churn fix: grad buffers used to be
// allocated eagerly for every node (including forward-only tapes, i.e.
// every rollout step) and re-zero-filled wholesale on each backward.

TEST(TapeLazyGrad, ForwardOnlyTapeAllocatesNothing) {
  util::Rng rng(31);
  MlpConfig cfg;
  cfg.hidden = {16, 16};
  Mlp mlp(8, 4, cfg, rng);
  Tape tape;
  const Var out = mlp.forward(tape, tape.constant(Tensor(1, 8, 0.5F)));
  EXPECT_GT(tape.value(out).cols(), 0);
  // Three fused linear layers: constant + 3 x (w leaf, b leaf, linear).
  EXPECT_GE(tape.num_nodes(), 10U);
  EXPECT_EQ(tape.grad_allocations(), 0U);
}

TEST(TapeLazyGrad, BackwardAllocatesOnlyReachedNodes) {
  Parameter p(Tensor::row({1.0F, 2.0F}));
  Tape tape;
  const Var x = tape.leaf(p);
  const Var loss = tape.sum_all(tape.square(x));
  // Recorded after the loss: must be neither walked nor allocated.
  const Var after = tape.relu(x);
  (void)after;
  p.zero_grad();
  tape.backward(loss);
  // Exactly the loss chain: loss, square, leaf.
  EXPECT_EQ(tape.grad_allocations(), 3U);
  // d/dx sum(x^2) = 2x.
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(p.grad.at(0, 1), 4.0F);
  // The unreached node still reports a correctly-shaped zero gradient.
  const Tensor& g_after = tape.grad(after);
  EXPECT_TRUE(g_after.same_shape(tape.value(after)));
  EXPECT_FLOAT_EQ(g_after.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(g_after.at(0, 1), 0.0F);
}

TEST(TapeLazyGrad, RepeatedBackwardGivesIdenticalGradients) {
  util::Rng rng(37);
  MlpConfig cfg;
  cfg.hidden = {8};
  Mlp mlp(4, 1, cfg, rng);
  Tape tape;
  const Var out = mlp.forward(tape, tape.constant(Tensor(3, 4, 0.25F)));
  const Var loss = tape.mean_all(tape.square(out));

  zero_grads(mlp.parameters());
  tape.backward(loss);
  std::vector<std::vector<float>> first;
  for (const Parameter* p : mlp.parameters()) {
    first.emplace_back(p->grad.data().begin(), p->grad.data().end());
  }

  // Second pass re-allocates every released buffer; gradients must be
  // bit-identical, not accumulated.
  zero_grads(mlp.parameters());
  tape.backward(loss);
  std::size_t i = 0;
  for (const Parameter* p : mlp.parameters()) {
    const auto g = p->grad.data();
    ASSERT_EQ(g.size(), first[i].size());
    for (std::size_t k = 0; k < g.size(); ++k) EXPECT_EQ(g[k], first[i][k]);
    ++i;
  }
}

TEST(TapeLazyGrad, MixedGraphGradientsMatchClosedForm) {
  // y = sum(min(a*b, a+b)) with a*b picked elementwise — exercises shared
  // subexpressions and a node (the losing min branch) that still receives
  // gradient zero contributions.
  Parameter pa(Tensor::row({0.5F, 3.0F}));
  Parameter pb(Tensor::row({2.0F, 2.0F}));
  Tape tape;
  const Var a = tape.leaf(pa);
  const Var b = tape.leaf(pb);
  const Var prod = tape.mul(a, b);   // {1.0, 6.0}
  const Var sum = tape.add(a, b);    // {2.5, 5.0}
  const Var loss = tape.sum_all(tape.minimum(prod, sum));
  pa.zero_grad();
  pb.zero_grad();
  tape.backward(loss);
  // col 0: prod wins (1.0 < 2.5): d/da = b = 2, d/db = a = 0.5
  // col 1: sum wins (5.0 < 6.0):  d/da = 1, d/db = 1
  EXPECT_FLOAT_EQ(pa.grad.at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(pa.grad.at(0, 1), 1.0F);
  EXPECT_FLOAT_EQ(pb.grad.at(0, 0), 0.5F);
  EXPECT_FLOAT_EQ(pb.grad.at(0, 1), 1.0F);
}

// ---------------- Gaussian log_std clamping ----------------
//
// Regression tests for the numerics fix: an unclamped log_std of -100
// underflows sigma to (sub)normal-zero in float, overflowing z and
// sending log-probs and gradients to inf/NaN.

TEST(GaussianClamp, ExtremeLogStdGivesFiniteLogProb) {
  Tape tape;
  const Tensor mean_t = Tensor::row({0.0F, 0.0F});
  const Tensor log_std_t = Tensor::row({-100.0F, 100.0F});
  const Tensor action = Tensor::row({0.5F, 0.5F});
  const Var lp = diag_gaussian_log_prob(tape, tape.constant(mean_t),
                                        tape.constant(log_std_t), action);
  const double got = tape.value(lp).at(0, 0);
  EXPECT_TRUE(std::isfinite(got));
  // Closed form under the documented clamp to [kLogStdMin, kLogStdMax].
  const auto lp_at = [](double ls, double x) {
    const double sigma = std::exp(ls);
    const double z = x / sigma;
    return -0.5 * z * z - ls - 0.9189385332046727;
  };
  EXPECT_NEAR(got, lp_at(kLogStdMin, 0.5) + lp_at(kLogStdMax, 0.5),
              std::abs(lp_at(kLogStdMin, 0.5)) * 1e-4);
}

TEST(GaussianClamp, ExtremeLogStdGradientsFinite) {
  Parameter mean_param(Tensor::row({0.0F, 0.0F}));
  Parameter ls_param(Tensor::row({-50.0F, 50.0F}));
  Tape tape;
  const Var lp = diag_gaussian_log_prob(tape, tape.leaf(mean_param),
                                        tape.leaf(ls_param),
                                        Tensor::row({1.0F, 1.0F}));
  mean_param.zero_grad();
  ls_param.zero_grad();
  tape.backward(lp);
  for (int j = 0; j < 2; ++j) {
    EXPECT_TRUE(std::isfinite(mean_param.grad.at(0, j))) << "mean col " << j;
    // clip passes no gradient at the clamped extremes: the clamped density
    // is constant in log_std there.
    EXPECT_FLOAT_EQ(ls_param.grad.at(0, j), 0.0F) << "log_std col " << j;
  }
}

TEST(GaussianClamp, InRangeLogStdGradientMatchesFiniteDifference) {
  const float ls0 = -1.0F;
  const float mean0 = 0.2F;
  const Tensor action = Tensor::row({0.9F});
  const auto eval = [&](float ls) {
    Tape tape;
    const Var lp = diag_gaussian_log_prob(
        tape, tape.constant(Tensor::row({mean0})),
        tape.constant(Tensor::row({ls})), action);
    return static_cast<double>(tape.value(lp).at(0, 0));
  };
  Parameter ls_param(Tensor::row({ls0}));
  Tape tape;
  const Var lp = diag_gaussian_log_prob(
      tape, tape.constant(Tensor::row({mean0})), tape.leaf(ls_param), action);
  ls_param.zero_grad();
  tape.backward(lp);
  const double analytic = ls_param.grad.at(0, 0);

  const float h = 1e-2F;
  const double fd = (eval(ls0 + h) - eval(ls0 - h)) / (2.0 * h);
  EXPECT_NEAR(analytic, fd, 5e-2 * std::max(1.0, std::abs(fd)));
}

TEST(GaussianClamp, SamplerBoundedAtExtremes) {
  util::Rng rng(41);
  const std::vector<double> mean{1.0, -1.0};
  const std::vector<double> log_std{-1000.0, 1000.0};
  double max_dev1 = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const auto s = sample_diag_gaussian(mean, log_std, rng);
    ASSERT_TRUE(std::isfinite(s[0]));
    ASSERT_TRUE(std::isfinite(s[1]));
    // Floor: sigma = exp(-10), so samples hug the mean.
    EXPECT_NEAR(s[0], 1.0, 1e-2);
    max_dev1 = std::max(max_dev1, std::abs(s[1] + 1.0));
  }
  // Ceiling: sigma = exp(2) ~ 7.4, not exp(1000) = inf.
  EXPECT_LT(max_dev1, std::exp(2.0) * 6.0);
  EXPECT_GT(max_dev1, 1.0);
}

}  // namespace
}  // namespace gddr::nn
