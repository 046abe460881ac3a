// Reverse-mode automatic differentiation on a tape.
//
// The paper's policies are trained with TensorFlow; this tape is the
// equivalent substrate.  A Tape records each primitive operation applied
// to Vars (handles to tape nodes); backward() replays the tape in reverse,
// accumulating gradients.  Parameter leaves accumulate their gradient into
// the owning Parameter so optimisers can step them.
//
// The op set is exactly what the MLP policy, the Battaglia graph-network
// block (gather / segment-sum / concat / broadcast) and the PPO loss
// (elementwise arithmetic, clip, min, reductions) require.  The dense
// kernels behind matmul / linear / segment_sum live in nn/kernels.hpp;
// they are bit-compatible with the naive reference loops and optionally
// shard large matmuls across a util::ThreadPool (see set_thread_pool).
//
// Memory model: every node value and gradient buffer is acquired from the
// tape's TensorArena and returned to it by reset() (or, for gradients, at
// the start of the next backward()).  A long-lived tape that is reset()
// between iterations therefore performs no steady-state heap allocation —
// the arena's miss/reuse counters (obs gauges nn/arena_bytes and
// nn/arena_reuse) prove it.
//
// Shapes are validated eagerly; a mismatch throws std::invalid_argument
// with both shapes in the message.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/tensor.hpp"
#include "util/contract.hpp"

namespace gddr::util {
class ThreadPool;
}  // namespace gddr::util

namespace gddr::nn {

class Tape {
 public:
  struct Var {
    int id = -1;
    bool valid() const { return id >= 0; }
  };

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Large matmuls shard output rows across `pool` (null/inline = serial).
  // The split is deterministic: results are bit-identical for any worker
  // count.  The pool must not be one whose workers run this tape's
  // forward/backward (a worker waiting on its own queue would deadlock).
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* thread_pool() const { return pool_; }

  // Drops all nodes and recycles every value/grad buffer into the arena.
  // Vars from before the reset are invalidated.
  void reset();

  // --- leaves ---
  // Copies `value` into arena storage.  There is deliberately no adopting
  // overload: reset() pools every node buffer, so a buffer the arena never
  // handed out would grow the pool by one per call, forever.
  Var constant(const Tensor& value);
  // rows x cols constant built in place: `fill(Tensor&)` writes a
  // zero-filled arena buffer before it joins the tape.  The allocation-free
  // way to assemble per-iteration inputs (e.g. a stacked PPO minibatch).
  template <class Fill>
  Var constant(int rows, int cols, Fill&& fill) {
    Tensor value = alloc(rows, cols);
    fill(value);
    return push(std::move(value), {});
  }
  // Zero-filled rows x cols constant straight from the arena.
  Var zeros(int rows, int cols);
  // Gradient flows into `p.grad` on backward(); `p` must outlive the tape.
  Var leaf(Parameter& p);

  // --- binary elementwise (same shape) ---
  Var add(Var a, Var b);
  Var sub(Var a, Var b);
  Var mul(Var a, Var b);
  Var div(Var a, Var b);
  Var minimum(Var a, Var b);
  Var maximum(Var a, Var b);

  // --- linear algebra / shaping ---
  Var matmul(Var a, Var b);
  // Fused act(x * w + bias): one kernel pass in each direction, no
  // transpose materialisation in backward.  x is NxI, w is IxO, bias 1xO.
  Var linear(Var x, Var w, Var bias, Activation act);
  // Adds a 1xC bias row to every row of an NxC matrix.
  Var add_bias(Var m, Var bias);
  // 1xC -> NxC by repetition (backward sums over rows).
  Var broadcast_rows(Var rowvec, int n);
  // Nx1 -> NxC by repetition (backward sums over cols).
  Var broadcast_cols(Var colvec, int n);
  // Same element count, new shape; data order preserved (row-major).
  Var reshape(Var x, int rows, int cols);
  Var concat_cols(Var a, Var b);
  Var slice_cols(Var m, int start, int len);
  // Rows [start, start + len) of m (one contiguous copy); backward adds
  // into the same rows.  Reads a row block of a weight matrix, e.g. the
  // per-input blocks of gnn::GnBlock's projected edge update.
  Var slice_rows(Var m, int start, int len);
  // out[i] = m[indices[i]] (rows); backward scatter-adds.
  Var gather_rows(Var m, std::vector<int> indices);
  // out[i] = base[i] + m[indices[i]] (rows) in one pass: a gather fused
  // into the add that consumes it.  Backward adds into base's grad and
  // scatter-adds into m's.  indices.size() must equal base's row count.
  // The index vector is retained by pointer, so repeated forward passes
  // on one topology copy nothing and the closure stays within
  // std::function's small-buffer optimisation.
  Var add_gathered(Var base, Var m,
                   std::shared_ptr<const std::vector<int>> indices);
  // out[s] = sum of rows i with segments[i] == s; the unsorted_segment_sum
  // pooling of the paper's GN blocks.
  Var segment_sum(Var m, std::vector<int> segments, int num_segments);
  // Planned variant: the bucketed plan is built once per topology
  // (kernels::build_segment_plan) and shared across forward calls.
  Var segment_sum(Var m, std::shared_ptr<const kernels::SegmentPlan> plan);

  // --- unary ---
  Var relu(Var x);
  Var tanh(Var x);
  Var sigmoid(Var x);
  Var exp(Var x);
  Var log(Var x);
  Var square(Var x);
  Var neg(Var x);
  Var scale(Var x, float k);
  Var add_scalar(Var x, float k);
  // Clamp to [lo, hi]; gradient passes only strictly inside the range.
  Var clip(Var x, float lo, float hi);

  // --- reductions ---
  Var sum_all(Var x);   // -> 1x1
  Var mean_all(Var x);  // -> 1x1
  Var sum_rows(Var x);  // NxC -> 1xC
  Var sum_cols(Var x);  // NxC -> Nx1

  // --- execution ---
  const Tensor& value(Var v) const;
  // Seeds d(loss)/d(loss) = 1 (loss must be 1x1) and propagates backward
  // through the whole tape, accumulating into Parameter::grad for leaves.
  void backward(Var loss);
  // Gradient of the last backward() with respect to node v.
  const Tensor& grad(Var v) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  // Gradient buffers allocated over this tape's lifetime.  Grads are
  // allocated lazily on first write, so a forward-only tape (e.g. every
  // rollout step) reports 0 here no matter how many nodes it records.
  std::size_t grad_allocations() const { return grad_allocs_; }

  // Arena telemetry (also exported as obs gauges at reset()).  In steady
  // state arena_bytes/arena_misses are flat and arena_reuse grows.
  std::size_t arena_bytes() const { return arena_.bytes_allocated(); }
  std::uint64_t arena_reuse() const { return arena_.reuse_count(); }
  std::uint64_t arena_misses() const { return arena_.miss_count(); }
  // Buffers waiting in the arena's free lists: flat in steady state, so a
  // long-lived tape cannot grow without bound.
  std::size_t arena_pooled() const { return arena_.pooled_count(); }

 private:
  struct Node {
    Tensor value;
    // Lazily allocated: empty (0x0) until backward propagation first
    // writes into it, which is exact — an untouched grad is zero.
    Tensor grad;
    Parameter* parameter = nullptr;  // non-null for leaf()
    // Accumulates input gradients given this node's grad; empty for leaves
    // and constants.
    std::function<void(Tape&, int self)> backward_fn;
  };

  Node& node(Var v) { return nodes_[static_cast<size_t>(v.id)]; }
  const Node& node(Var v) const { return nodes_[static_cast<size_t>(v.id)]; }
  // Every gradient write goes through here, so allocation can be deferred
  // to the first consumer that actually propagates into node `id`.
  Tensor& grad_of(int id) {
    // Node-id monotonicity: while node `active_backward_node_` propagates,
    // it may only touch gradients of itself and earlier nodes — the tape
    // is recorded in topological order, and a forward reference would mean
    // reading a gradient that has not been fully accumulated yet.
    GDDR_INVARIANT(active_backward_node_ < 0 || id <= active_backward_node_,
                   "nn/tape/node-order", "id", id, "active",
                   active_backward_node_);
    Node& n = nodes_[static_cast<size_t>(id)];
    if (!n.grad.same_shape(n.value)) {
      n.grad = arena_.acquire(n.value.rows(), n.value.cols());
      ++grad_allocs_;
    }
    return n.grad;
  }
  const Tensor& value_of(int id) const {
    return nodes_[static_cast<size_t>(id)].value;
  }

  // Arena shorthands every op allocates through.
  Tensor alloc(int rows, int cols) { return arena_.acquire(rows, cols); }
  Tensor alloc_copy(const Tensor& src) { return arena_.acquire_copy(src); }

  Var push(Tensor value, std::function<void(Tape&, int)> backward_fn);
  void check_var(Var v, const char* op) const;
  void check_same_shape(Var a, Var b, const char* op) const;

  std::vector<Node> nodes_;
  // Keeps shared index vectors / segment plans alive for the closures that
  // capture them by raw pointer (raw captures keep the closures inside
  // std::function's small-buffer optimisation — no per-node allocation).
  std::vector<std::shared_ptr<const void>> retained_;
  kernels::TensorArena arena_;
  util::ThreadPool* pool_ = nullptr;
  std::size_t grad_allocs_ = 0;
  // Node whose backward_fn is currently running (-1 outside backward);
  // read by the monotonicity contract in grad_of.
  int active_backward_node_ = -1;
};

}  // namespace gddr::nn
