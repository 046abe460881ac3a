#include "nn/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/thread_pool.hpp"

namespace gddr::nn::kernels {

namespace {

// Blocking factors for the micro-kernels.  They are deliberately small:
// one 8-wide accumulator (two xmm registers) plus a handful of hoisted
// broadcasts is a shape the auto-vectoriser compiles to clean SSE.  A
// larger explicit register tile (4x8) measured ~2.5x *slower* here — the
// compiler spilled the tile and synthesised broadcasts through long
// shuffle chains.
constexpr int kMr = 4;   // C rows sharing one G pass in the TN kernel.
constexpr int kNr = 8;   // Panel width / accumulator width.
constexpr int kKu = 8;   // k-unroll of the NN kernel's AXPY chain.

// Per-thread packing scratch, reused across calls so packing performs no
// steady-state allocation.  Workers of a pooled matmul only *read* the
// caller's packed panels; each thread packs into its own buffer.
std::vector<float>& pack_buffer() {
  thread_local std::vector<float> buf;
  return buf;
}

std::size_t padded_cols(int n) {
  return static_cast<std::size_t>((n + kNr - 1) / kNr) *
         static_cast<std::size_t>(kNr);
}

// Packs B^T: panel p holds B rows [p*kNr, p*kNr + kNr) laid out j-major,
// so element (p*kNr + jj, j) of B lives at p*n*kNr + j*kNr + jj.  Rows
// past k are zero-padded.
void pack_panels_transposed(int k, int n, const float* b,
                            std::vector<float>& packed) {
  const std::size_t kp = padded_cols(k);
  packed.assign(static_cast<std::size_t>(n) * kp, 0.0F);
  for (int kk = 0; kk < k; ++kk) {
    const float* row = b + static_cast<std::size_t>(kk) * n;
    const int p = kk / kNr;
    const int jj = kk % kNr;
    for (int j = 0; j < n; ++j) {
      packed[(static_cast<std::size_t>(p) * n + j) * kNr + jj] = row[j];
    }
  }
}

// Rows [i0, i1) of C = A * B.  Shaped as kKu fused AXPYs: each C row is
// zeroed, then for each block of kKu k-indices the row makes one pass,
// adding the kKu products *in k order* per element before storing.  The
// per-element chain is therefore exactly the naive ikj order, so the
// result equals ref::matmul_nn under == (the reference's zero-skip only
// drops +/-0 additions), while C is read and written kKu-times less
// often than the naive loop.  B needs no packing here — its rows are
// already contiguous.  Pointers must not alias (fresh output buffer).
void matmul_nn_rows(int i0, int i1, int k, int n, const float* __restrict a,
                    const float* __restrict b, float* __restrict c) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    std::fill(crow, crow + n, 0.0F);
    int kk = 0;
    for (; kk + kKu <= k; kk += kKu) {
      const float a0 = arow[kk + 0];
      const float a1 = arow[kk + 1];
      const float a2 = arow[kk + 2];
      const float a3 = arow[kk + 3];
      const float a4 = arow[kk + 4];
      const float a5 = arow[kk + 5];
      const float a6 = arow[kk + 6];
      const float a7 = arow[kk + 7];
      const float* __restrict b0 = b + static_cast<std::size_t>(kk) * n;
      const float* __restrict b1 = b0 + n;
      const float* __restrict b2 = b1 + n;
      const float* __restrict b3 = b2 + n;
      const float* __restrict b4 = b3 + n;
      const float* __restrict b5 = b4 + n;
      const float* __restrict b6 = b5 + n;
      const float* __restrict b7 = b6 + n;
      for (int j = 0; j < n; ++j) {
        float x = crow[j];
        x += a0 * b0[j];
        x += a1 * b1[j];
        x += a2 * b2[j];
        x += a3 * b3[j];
        x += a4 * b4[j];
        x += a5 * b5[j];
        x += a6 * b6[j];
        x += a7 * b7[j];
        crow[j] = x;
      }
    }
    for (; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* __restrict brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

// Rows [i0, i1) of C (m x k) += G (m x n) * B^T using B^T panels.  The
// accumulator is *seeded from C* and stored back once per panel, so per
// element (i, kk) the chain is C's prior value followed by j-ascending
// adds — the same chain the naive backward loop produces, with one C
// round-trip per panel instead of per j.  The packed layout makes the
// kNr lanes of each j contiguous (in B itself those lanes are n apart).
// The hot panel loop is written with SSE intrinsics on x86-64: the
// auto-vectoriser turns the equivalent scalar body into shuffle-heavy
// lane-assembly code that measured ~6x slower.  Vector lanes map to
// distinct output elements, so the intrinsic form computes bit-identical
// results to the scalar fallback.
void matmul_nt_rows(int i0, int i1, int n, int k, const float* __restrict g,
                    const float* __restrict packed, float* __restrict c) {
  const int full = k / kNr;  // Panels entirely inside [0, k).
  for (int i = i0; i < i1; ++i) {
    const float* grow = g + static_cast<std::size_t>(i) * n;
    float* crow = c + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < full; ++p) {
      const int k0 = p * kNr;
      const float* __restrict bp =
          packed + static_cast<std::size_t>(p) * n * kNr;
#if defined(__SSE2__)
      __m128 acc0 = _mm_loadu_ps(crow + k0);
      __m128 acc1 = _mm_loadu_ps(crow + k0 + 4);
      for (int j = 0; j < n; ++j) {
        const __m128 gij = _mm_set1_ps(grow[j]);
        const float* __restrict brow = bp + static_cast<std::size_t>(j) * kNr;
        acc0 = _mm_add_ps(acc0, _mm_mul_ps(gij, _mm_loadu_ps(brow)));
        acc1 = _mm_add_ps(acc1, _mm_mul_ps(gij, _mm_loadu_ps(brow + 4)));
      }
      _mm_storeu_ps(crow + k0, acc0);
      _mm_storeu_ps(crow + k0 + 4, acc1);
#else
      float acc[kNr];
      for (int jj = 0; jj < kNr; ++jj) acc[jj] = crow[k0 + jj];
      for (int j = 0; j < n; ++j) {
        const float gij = grow[j];
        const float* __restrict brow = bp + static_cast<std::size_t>(j) * kNr;
        for (int jj = 0; jj < kNr; ++jj) acc[jj] += gij * brow[jj];
      }
      for (int jj = 0; jj < kNr; ++jj) crow[k0 + jj] = acc[jj];
#endif
    }
    // Tail panel: scalar per output element, same j-ascending chain.
    for (int kk = full * kNr; kk < k; ++kk) {
      const float* __restrict bcol = packed +
                                     static_cast<std::size_t>(full) * n * kNr +
                                     (kk - full * kNr);
      float acc = crow[kk];
      for (int j = 0; j < n; ++j) {
        acc += grow[j] * bcol[static_cast<std::size_t>(j) * kNr];
      }
      crow[kk] = acc;
    }
  }
}

// Rows [k0, k1) of C (k x n) += A^T * G.  Four C rows share each pass
// over G; per element (kk, j) the m loop ascends in one chain, matching
// the naive backward loop.
void matmul_tn_rows(int k0, int k1, int m, int k, int n,
                    const float* __restrict a, const float* __restrict g,
                    float* __restrict c) {
  int kk = k0;
  for (; kk + kMr <= k1; kk += kMr) {
    float* c0 = c + static_cast<std::size_t>(kk) * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    for (int mm = 0; mm < m; ++mm) {
      const float* arow = a + static_cast<std::size_t>(mm) * k + kk;
      const float* grow = g + static_cast<std::size_t>(mm) * n;
      const float a0 = arow[0];
      const float a1 = arow[1];
      const float a2 = arow[2];
      const float a3 = arow[3];
      for (int j = 0; j < n; ++j) {
        const float gj = grow[j];
        c0[j] += a0 * gj;
        c1[j] += a1 * gj;
        c2[j] += a2 * gj;
        c3[j] += a3 * gj;
      }
    }
  }
  for (; kk < k1; ++kk) {
    float* crow = c + static_cast<std::size_t>(kk) * n;
    for (int mm = 0; mm < m; ++mm) {
      const float amk = a[static_cast<std::size_t>(mm) * k + kk];
      const float* grow = g + static_cast<std::size_t>(mm) * n;
      for (int j = 0; j < n; ++j) crow[j] += amk * grow[j];
    }
  }
}

// Shards [0, rows) across the pool in fixed kRowsPerTask blocks when the
// kernel is big enough; otherwise runs fn(0, rows) inline.  The block
// decomposition never depends on the worker count.
template <typename Fn>
void shard_rows(util::ThreadPool* pool, int rows, std::size_t flops,
                const Fn& fn) {
  if (pool == nullptr || pool->size() <= 1 || rows <= kRowsPerTask ||
      flops < kParallelMinFlops) {
    fn(0, rows);
    return;
  }
  const auto tasks =
      static_cast<std::size_t>((rows + kRowsPerTask - 1) / kRowsPerTask);
  util::parallel_for(pool, tasks, [&](std::size_t t) {
    const int i0 = static_cast<int>(t) * kRowsPerTask;
    const int i1 = std::min(rows, i0 + kRowsPerTask);
    fn(i0, i1);
  });
}

std::size_t flops_of(int m, int k, int n) {
  return static_cast<std::size_t>(m) * static_cast<std::size_t>(k) *
         static_cast<std::size_t>(n);
}

}  // namespace

void matmul_nn(int m, int k, int n, const float* a, const float* b, float* c,
               util::ThreadPool* pool) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0F);
    return;
  }
  shard_rows(pool, m, flops_of(m, k, n), [&](int i0, int i1) {
    matmul_nn_rows(i0, i1, k, n, a, b, c);
  });
}

void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c, util::ThreadPool* pool) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  // Tiny products don't amortise the B^T packing pass; the reference
  // loop accumulates in the identical per-element order, so falling back
  // changes nothing observable.
  if (flops_of(m, k, n) < 4096) {
    ref::matmul_nt_acc(m, n, k, g, b, c);
    return;
  }
  std::vector<float>& packed = pack_buffer();
  pack_panels_transposed(k, n, b, packed);
  const float* bp = packed.data();
  shard_rows(pool, m, flops_of(m, k, n), [&](int i0, int i1) {
    matmul_nt_rows(i0, i1, n, k, g, bp, c);
  });
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c, util::ThreadPool* pool) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  shard_rows(pool, k, flops_of(m, k, n), [&](int k0, int k1) {
    matmul_tn_rows(k0, k1, m, k, n, a, g, c);
  });
}

void bias_act(int rows, int cols, const float* x, const float* bias, float* y,
              Activation act) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * cols;
    float* yr = y + static_cast<std::size_t>(i) * cols;
    switch (act) {
      case Activation::kIdentity:
        for (int j = 0; j < cols; ++j) yr[j] = xr[j] + bias[j];
        break;
      case Activation::kRelu:
        for (int j = 0; j < cols; ++j) {
          const float v = xr[j] + bias[j];
          yr[j] = v > 0.0F ? v : 0.0F;
        }
        break;
      case Activation::kTanh:
        for (int j = 0; j < cols; ++j) yr[j] = std::tanh(xr[j] + bias[j]);
        break;
    }
  }
}

void act_grad(std::size_t n, const float* g, const float* y, float* d,
              Activation act) {
  switch (act) {
    case Activation::kIdentity:
      if (d != g) std::copy(g, g + n, d);
      break;
    case Activation::kRelu:
      // y > 0 iff the pre-activation was > 0 (relu zeroes the rest).
      for (std::size_t i = 0; i < n; ++i) d[i] = y[i] > 0.0F ? g[i] : 0.0F;
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) d[i] = g[i] * (1.0F - y[i] * y[i]);
      break;
  }
}

void col_sum_acc(int rows, int cols, const float* d, float* bias) {
  for (int i = 0; i < rows; ++i) {
    const float* dr = d + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) bias[j] += dr[j];
  }
}

namespace ref {

void matmul_nn(int m, int k, int n, const float* a, const float* b,
               float* c) {
  std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0F);
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<std::size_t>(i) * k + kk];
      if (aik == 0.0F) continue;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float gij = g[static_cast<std::size_t>(i) * n + j];
      if (gij == 0.0F) continue;
      for (int kk = 0; kk < k; ++kk) {
        c[static_cast<std::size_t>(i) * k + kk] +=
            gij * b[static_cast<std::size_t>(kk) * n + j];
      }
    }
  }
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c) {
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<std::size_t>(i) * k + kk];
      if (aik == 0.0F) continue;
      for (int j = 0; j < n; ++j) {
        c[static_cast<std::size_t>(kk) * n + j] +=
            aik * g[static_cast<std::size_t>(i) * n + j];
      }
    }
  }
}

}  // namespace ref

SegmentPlan build_segment_plan(std::vector<int> segments, int num_segments) {
  if (num_segments < 0) {
    throw std::invalid_argument("build_segment_plan: num_segments < 0");
  }
  for (int s : segments) {
    if (s < 0 || s >= num_segments) {
      throw std::invalid_argument("build_segment_plan: segment id out of "
                                  "range");
    }
  }
  SegmentPlan plan;
  plan.num_segments = num_segments;
  // Counting sort keeps rows ascending within each bucket, preserving the
  // naive addition order per segment.
  plan.offsets.assign(static_cast<std::size_t>(num_segments) + 1, 0);
  for (int s : segments) ++plan.offsets[static_cast<std::size_t>(s) + 1];
  for (int s = 0; s < num_segments; ++s) {
    plan.offsets[static_cast<std::size_t>(s) + 1] +=
        plan.offsets[static_cast<std::size_t>(s)];
  }
  plan.row_order.resize(segments.size());
  std::vector<int> cursor(plan.offsets.begin(), plan.offsets.end() - 1);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    plan.row_order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(segments[i])]++)] =
        static_cast<int>(i);
  }
  plan.segments = std::move(segments);
  return plan;
}

void segment_sum(const SegmentPlan& plan, int cols, const float* in,
                 float* out) {
  for (int s = 0; s < plan.num_segments; ++s) {
    float* orow = out + static_cast<std::size_t>(s) * cols;
    std::fill(orow, orow + cols, 0.0F);
    const int begin = plan.offsets[static_cast<std::size_t>(s)];
    const int end = plan.offsets[static_cast<std::size_t>(s) + 1];
    for (int idx = begin; idx < end; ++idx) {
      const float* irow =
          in + static_cast<std::size_t>(plan.row_order[
                   static_cast<std::size_t>(idx)]) * cols;
      for (int j = 0; j < cols; ++j) orow[j] += irow[j];
    }
  }
}

void segment_sum_grad(const SegmentPlan& plan, int cols, const float* g,
                      float* gin) {
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    const float* grow =
        g + static_cast<std::size_t>(plan.segments[i]) * cols;
    float* irow = gin + i * static_cast<std::size_t>(cols);
    for (int j = 0; j < cols; ++j) irow[j] += grow[j];
  }
}

// ---------------------------------------------------------------------------
// TensorArena
// ---------------------------------------------------------------------------

int TensorArena::class_for_acquire(std::size_t n) {
  int cls = kMinClassLog2;
  while ((std::size_t{1} << cls) < n && cls < kClasses - 1) ++cls;
  return cls;
}

int TensorArena::class_for_release(std::size_t capacity) {
  int cls = kMinClassLog2;
  while ((std::size_t{1} << (cls + 1)) <= capacity && cls < kClasses - 1) {
    ++cls;
  }
  return cls;
}

Tensor TensorArena::take(std::size_t n) {
  const int cls = class_for_acquire(n);
  auto& bucket = free_[static_cast<std::size_t>(cls)];
  if (!bucket.empty()) {
    Tensor t = std::move(bucket.back());
    bucket.pop_back();
    --pooled_;
    ++reuse_;
    return t;
  }
  ++misses_;
  Tensor t;
  const std::size_t cap = std::max(n, std::size_t{1} << cls);
  t.reserve(cap);
  bytes_allocated_ += cap * sizeof(float);
  return t;
}

Tensor TensorArena::acquire(int rows, int cols) {
  const std::size_t n =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (n == 0) return Tensor(rows, cols);
  Tensor t = take(n);
  t.reshape_zero(rows, cols);
  return t;
}

Tensor TensorArena::acquire_copy(const Tensor& src) {
  if (src.size() == 0) return Tensor(src.rows(), src.cols());
  Tensor t = take(src.size());
  t.reshape_copy(src.rows(), src.cols(), src.data());
  return t;
}

void TensorArena::release(Tensor&& t) {
  if (t.capacity() < (std::size_t{1} << kMinClassLog2)) return;
  const int cls = class_for_release(t.capacity());
  free_[static_cast<std::size_t>(cls)].push_back(std::move(t));
  ++pooled_;
}

}  // namespace gddr::nn::kernels
