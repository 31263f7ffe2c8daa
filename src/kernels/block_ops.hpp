#pragma once

// Numerical cores of the four CAQR kernels, with exact operation counts.
//
// These routines deliberately use branch-free, data-oblivious arithmetic
// (plain sqrt-of-sum-of-squares norms, no early exits on zero tails for
// generic inputs) so that the *_flops companions return the exact number of
// floating-point operations the functional path executes. That exactness is
// what lets ExecMode::ModelOnly produce bit-identical simulated timelines to
// ExecMode::Functional, and it is verified by tests with a counting scalar
// type. Flop convention: mul, add, sub, div, sqrt each count 1.
//
// The layout contract mirrors the paper's kernels (§IV.D):
//   * block_geqr2      — `factor`: Householder QR of one H x W block held in
//                        fast memory; U overwrites the subdiagonal, R the top.
//   * block_apply_qt   — `apply_qt_h`: apply Q^T of a factored block to a
//                        trailing tile of the same height.
//   * stacked_geqr2    — `factor_tree`: QR of k vertically stacked W x W
//                        upper-triangular R factors, exploiting the sparsity
//                        pattern (each reflector touches only the pivot row
//                        and rows 0..j of the lower triangles).
//   * stacked_apply_qt — `apply_qt_tree`: apply the stacked-triangle Q^T to
//                        the matching distributed rows of the trailing matrix.
//
// Staged tiles and lane order. Every core works on a RowTile: the matrix
// the reflectors update, staged row-major (the paper's "pre-transposed"
// panel, §IV.E.4), so the columns of one row sit next to each other. A
// reflector is applied to a lane group of up to kLanes columns at once:
//
//     acc[c]  = tile[pivot][c]
//     acc[c] += v[i] * tile[i][c]      sequential in i, parallel in c
//     tw[c]   = tau * acc[c];  tile[pivot][c] -= tw[c]
//     tile[i][c] -= tw[c] * v[i]
//
// Each lane is one output column and runs exactly the operation sequence of
// the per-column form (a single-accumulator dot chain, then the rank-1
// update), with the same operand order. Nothing is reassociated, so the
// results are bit-identical to updating the columns one at a time, and the
// counting scalar sees the same operations. Lane loops have compile-time
// trip counts (whole groups of kLanes, then one narrower group), so the
// auto-vectorizer turns each into vector instructions without a runtime
// remainder loop. `factor` also gathers the next column, and its tail's sum
// of squares, inside the update sweep that produces it: the values and the
// summation order generation would use anyway. Bit identity also needs every
// multiply and add rounded separately: the portable build has no -march
// flag, so no FMA instructions exist to contract into, and no -ffast-math or
// -fassociative-math flag may be added.
//
// The MatrixView overloads are the column-major interface (the factor and
// apply_qt_h kernels, tests, ABFT replays, the incremental and sliding-
// window TSQR). They stage the view into a RowTile from the per-thread
// arena, run the core, and copy the tile back; the copies are exact. The
// tree kernels gather straight into a RowTile and call those overloads.

#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"
#include "linalg/householder.hpp"
#include "linalg/matrix.hpp"

namespace caqr::kernels {

// ---------------------------------------------------------------------------
// Scalar helpers (data-oblivious fast paths used only inside kernels).
// ---------------------------------------------------------------------------

// Householder generation without the scaled-norm guard: 3n + 4 flops for a
// length-n vector (n >= 2) with a nonzero tail; 0 flops when n <= 1.
// A zero tail yields tau == 0 via the ss == 0 test without extra flops.
//
// Ill-scaled columns — squares that overflow, or tails that underflow to a
// subnormal (or zero) sum — fall back to the scaled-norm, xLARFG-rescaling
// make_householder. The flop model deliberately excludes that rescue path:
// it never triggers for the well-scaled data the cost model (and the
// counting-scalar flop tests) cover, and the simulated clock only reads
// block_stats(), so timelines are unaffected either way.
//
// `ss` is the tail's sum of squares, accumulated in ascending order from
// T(0) (2(n-1) flops); the overload below computes it, block_geqr2 takes it
// from the previous reflector's update sweep.
template <typename T>
T fast_make_householder(idx n, T& alpha, T* x_rest, T ss) {
  if (n <= 1) return T(0);
  if constexpr (std::is_floating_point_v<T>) {
    const T safmin = std::numeric_limits<T>::min();
    const T overflow_guard = std::numeric_limits<T>::max() / T(4);
    if (ss < safmin) {
      bool tail_nonzero = false;
      for (idx i = 0; i < n - 1 && !tail_nonzero; ++i) {
        tail_nonzero = x_rest[i] != T(0);
      }
      if (tail_nonzero) return make_householder(n, alpha, x_rest);
    }
    if (!(ss < overflow_guard) || !(alpha * alpha < overflow_guard)) {
      return make_householder(n, alpha, x_rest);
    }
  }
  if (ss == T(0)) return T(0);
  using std::sqrt;
  const T norm = sqrt(alpha * alpha + ss);                       // 3
  const T beta = alpha >= T(0) ? -norm : norm;
  const T tau = (beta - alpha) / beta;                           // 2
  const T inv = T(1) / (alpha - beta);                           // 2
  for (idx i = 0; i < n - 1; ++i) x_rest[i] *= inv;              // n-1
  alpha = beta;
  return tau;
}

template <typename T>
T fast_make_householder(idx n, T& alpha, T* x_rest) {
  if (n <= 1) return T(0);
  T ss = T(0);
  for (idx i = 0; i < n - 1; ++i) ss += x_rest[i] * x_rest[i];  // 2(n-1)
  return fast_make_householder(n, alpha, x_rest, ss);
}

inline double make_householder_flops(idx n) {
  return n <= 1 ? 0.0 : 3.0 * static_cast<double>(n) + 4.0;
}

// Cost of applying H = I - tau v v^T (v[0] == 1 implicit) to one column of
// length L: 4L - 2 flops (two length-(L-1) loops of a mul and an add/sub
// each, plus the tau*w scale and the pivot update).
inline double apply_reflector_column_flops(idx len) {
  return 4.0 * static_cast<double>(len) - 2.0;
}

// ---------------------------------------------------------------------------
// Row-major staged tiles and the lane kernel.
// ---------------------------------------------------------------------------

// Columns one reflector pass updates at once. A power of two: a tile's
// columns split into whole groups of kLanes plus one narrower tail group.
inline constexpr idx kLanes = 16;
static_assert((kLanes & (kLanes - 1)) == 0);

// A rows x cols tile staged row-major: element (i, j) at data[i * cols + j].
template <typename T>
struct RowTile {
  T* data = nullptr;
  idx rows = 0;
  idx cols = 0;

  T* row(idx i) const { return data + i * cols; }

  // Copies the column-major `src` into rows [r0, r0 + src.rows()).
  void load(idx r0, ConstMatrixView<T> src) const {
    CAQR_DCHECK(src.cols() == cols && r0 >= 0 && r0 + src.rows() <= rows);
    for (idx j = 0; j < cols; ++j) {
      const T* s = src.col(j);
      T* d = data + r0 * cols + j;
      for (idx i = 0; i < src.rows(); ++i) d[i * cols] = s[i];
    }
  }

  // Copies rows [r0, r0 + dst.rows()) into the column-major `dst`.
  void store(idx r0, MatrixView<T> dst) const {
    CAQR_DCHECK(dst.cols() == cols && r0 >= 0 && r0 + dst.rows() <= rows);
    for (idx j = 0; j < cols; ++j) {
      T* d = dst.col(j);
      const T* s = data + r0 * cols + j;
      for (idx i = 0; i < dst.rows(); ++i) d[i] = s[i * cols];
    }
  }
};

// An uninitialized rows x cols tile in `scope`.
template <typename T>
RowTile<T> alloc_tile(ArenaScope& scope, idx rows, idx cols) {
  return {scope.alloc<T>(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols)),
          rows, cols};
}

namespace detail {

// Calls fn.template operator()<N + 1>(c) for the one N + 1 == nl.
template <typename Fn, idx... N>
void tail_group(idx c, idx nl, Fn& fn, std::integer_sequence<idx, N...>) {
  ((nl == N + 1 ? (fn.template operator()<N + 1>(c), true) : false) || ...);
}

// Calls fn.template operator()<NL>(c) for lane groups covering columns
// [c0, c0 + n): whole groups of kLanes, then one tail group of n % kLanes.
// Every group width is a compile-time constant.
template <typename Fn>
void for_lane_groups(idx c0, idx n, Fn&& fn) {
  for (; n >= kLanes; c0 += kLanes, n -= kLanes) {
    fn.template operator()<kLanes>(c0);
  }
  if (n > 0) tail_group(c0, n, fn, std::make_integer_sequence<idx, kLanes - 1>{});
}

// Rows of a reflector's support below its pivot row: `nseg` runs of `seg`
// consecutive tile rows; run s starts at row first + s * row_step and pairs
// with v_rest[s * v_step ...].
struct Support {
  idx first = 0;
  idx nseg = 0;
  idx seg = 0;
  idx row_step = 0;
  idx v_step = 0;
};

// Runs op(c) for the NL lanes of a group: the whole groups of four (the
// vectorized part), then up to three scalar lanes. Unrolling the lane loops
// lets the accumulators of a group stay in registers across rows.
template <idx NL, typename Op>
inline void for_lanes(Op&& op) {
  constexpr idx kWhole = NL / 4 * 4;
#pragma GCC unroll 16
  for (idx c = 0; c < kWhole; ++c) op(c);
#pragma GCC unroll 4
  for (idx c = kWhole; c < NL; ++c) op(c);
}

// Lane 0 of a single-run reflector sweep, captured for the next
// reflector: its updated tail rows (the next column below this pivot) and
// the sum of squares of all but the first, in ascending row order.
template <typename T>
struct NextColumn {
  T* x = nullptr;
  T ss = T(0);
};

// Applies H = I - tau v v^T (v[0] == 1 at the pivot row, v_rest on the
// support) to lanes c0 + [0, NL) of tile t. Per lane this is the
// per-column reflector update, operation for operation: 4L - 2 flops for a
// support of L rows including the pivot. With `next`, the update sweep
// also gathers lane 0 (single-run supports only).
template <idx NL, typename T>
void lane_reflect(RowTile<T> t, idx pivot, idx c0, T tau, const T* v_rest,
                  const Support& sp, NextColumn<T>* next = nullptr) {
  T* p = t.row(pivot) + c0;
  T acc[NL];
  for_lanes<NL>([&](idx c) { acc[c] = p[c]; });
  for (idx s = 0; s < sp.nseg; ++s) {
    const T* v = v_rest + s * sp.v_step;
    const T* r = t.data + (sp.first + s * sp.row_step) * t.cols + c0;
    for (idx i = 0; i < sp.seg; ++i, r += t.cols) {
      const T vi = v[i];
      for_lanes<NL>([&](idx c) { acc[c] += vi * r[c]; });
    }
  }
  T tw[NL];
  for_lanes<NL>([&](idx c) {
    tw[c] = tau * acc[c];
    p[c] -= tw[c];
  });
  if (next != nullptr) {
    CAQR_DCHECK(sp.nseg == 1);
    T* r = t.data + sp.first * t.cols + c0;
    T ss = T(0);
    for (idx i = 0; i < sp.seg; ++i, r += t.cols) {
      const T vi = v_rest[i];
      for_lanes<NL>([&](idx c) { r[c] -= tw[c] * vi; });
      next->x[i] = r[0];
      if (i > 0) ss += r[0] * r[0];
    }
    next->ss = ss;
    return;
  }
  for (idx s = 0; s < sp.nseg; ++s) {
    const T* v = v_rest + s * sp.v_step;
    T* r = t.data + (sp.first + s * sp.row_step) * t.cols + c0;
    for (idx i = 0; i < sp.seg; ++i, r += t.cols) {
      const T vi = v[i];
      for_lanes<NL>([&](idx c) { r[c] -= tw[c] * vi; });
    }
  }
}

// Support of reflector j of a factored h-row block: rows j+1..h-1.
inline Support block_support(idx h, idx j) { return {j + 1, 1, h - j - 1, 0, 0}; }

// Support of reflector j of a factored k-stack of w x w triangles, below
// the pivot row j: rows 0..j of blocks 1..k-1. The tail reads v at the same
// block offsets (stacked column layout) or packed runs of j+1 (gathered).
inline Support stacked_support(idx w, idx k, idx j, idx v_step) {
  return {w, k - 1, j + 1, w, v_step};
}

// Runs `core` on `c` staged in a RowTile from the per-thread arena.
template <typename T, typename Core>
void on_row_tile(MatrixView<T> c, Core&& core) {
  ArenaScope scope(Arena::thread_scratch());
  const RowTile<T> t = alloc_tile<T>(scope, c.rows(), c.cols());
  t.load(0, c.as_const());
  core(t);
  t.store(0, c);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// factor: dense QR of an H x W block.
// ---------------------------------------------------------------------------

namespace detail {

// `work` holds 2 * a.rows scalars. Each reflector's column is generated in
// a contiguous copy and the lanes read v from it. The update sweep of
// reflector k gathers column k+1 and its tail's sum of squares on the way
// (the values and summation order generation would use), so the next
// generation needs no separate gather or norm pass.
template <typename T>
void block_geqr2(RowTile<T> a, T* tau, T* work) {
  const idx m = a.rows, n = a.cols;
  const idx kmax = m < n ? m : n;
  T* x = work;
  NextColumn<T> next{work + m};
  bool gathered = false;  // x already holds column k and next.ss its norm
  for (idx k = 0; k < kmax; ++k) {
    const idx len = m - k;
    T* colk = a.row(k) + k;
    if (gathered) {
      tau[k] = fast_make_householder(len, x[0], x + 1, next.ss);
    } else {
      for (idx i = 0; i < len; ++i) x[i] = colk[i * n];
      tau[k] = fast_make_householder(len, x[0], x + 1);
    }
    for (idx i = 0; i < len; ++i) colk[i * n] = x[i];
    gathered = tau[k] != T(0) && k + 1 < kmax;
    if (tau[k] == T(0)) continue;
    for_lane_groups(k + 1, n - k - 1, [&]<idx NL>(idx c0) {
      lane_reflect<NL>(a, k, c0, tau[k], x + 1, block_support(m, k),
                       gathered && c0 == k + 1 ? &next : nullptr);
    });
    if (gathered) std::swap(x, next.x);
  }
}

}  // namespace detail

template <typename T>
void block_geqr2(MatrixView<T> a, T* tau) {
  ArenaScope scope(Arena::thread_scratch());
  T* work = scope.alloc<T>(2 * static_cast<std::size_t>(a.rows()));
  detail::on_row_tile(a, [&](RowTile<T> t) { detail::block_geqr2(t, tau, work); });
}

inline double block_geqr2_flops(idx m, idx n) {
  double f = 0;
  const idx kmax = m < n ? m : n;
  for (idx k = 0; k < kmax; ++k) {
    const idx len = m - k;
    f += make_householder_flops(len);
    if (len > 1) f += static_cast<double>(n - k - 1) * apply_reflector_column_flops(len);
  }
  return f;
}

// ---------------------------------------------------------------------------
// apply_qt_h: apply Q^T of a factored block (reflectors in v, scalars in tau)
// to a trailing tile c of the same height.
// ---------------------------------------------------------------------------

namespace detail {

// Q^T applies the reflectors in ascending order, Q in descending order.
template <typename T>
void block_apply(ConstMatrixView<T> v, const T* tau, RowTile<T> c,
                 bool transpose) {
  const idx h = v.rows();
  const idx w = v.cols() < h ? v.cols() : h;
  CAQR_DCHECK(c.rows == h);
  for_lane_groups(0, c.cols, [&]<idx NL>(idx c0) {
    for (idx s = 0; s < w; ++s) {
      const idx j = transpose ? s : w - 1 - s;
      if (tau[j] == T(0)) continue;
      lane_reflect<NL>(c, j, c0, tau[j], v.col(j) + j + 1, block_support(h, j));
    }
  });
}

}  // namespace detail

template <typename T>
void block_apply_qt(ConstMatrixView<T> v, const T* tau, MatrixView<T> c) {
  detail::on_row_tile(c, [&](RowTile<T> t) { detail::block_apply(v, tau, t, true); });
}

inline double block_apply_qt_flops(idx h, idx w, idx ncols) {
  double f = 0;
  const idx kmax = w < h ? w : h;
  for (idx j = 0; j < kmax; ++j) {
    // A length-1 reflector has tau == 0 (identity) and is skipped.
    if (h - j > 1) {
      f += static_cast<double>(ncols) * apply_reflector_column_flops(h - j);
    }
  }
  return f;
}

// Applies Q (not Q^T) of a factored block: reflectors in descending order.
// Same flop count as block_apply_qt.
template <typename T>
void block_apply_q(ConstMatrixView<T> v, const T* tau, MatrixView<T> c) {
  detail::on_row_tile(c, [&](RowTile<T> t) { detail::block_apply(v, tau, t, false); });
}

// ---------------------------------------------------------------------------
// factor_tree: QR of k stacked W x W upper-triangular blocks.
//
// s is the (k*w) x w stacked matrix; block b occupies rows [b*w, (b+1)*w).
// Column j's reflector has support {row j of block 0} U {rows 0..j of blocks
// 1..k-1}; the Householder tail overwrites exactly the R entries it consumes,
// so the factorization is in place and the result keeps the stacked-triangle
// sparsity (new R in block 0, reflector tails in the lower triangles).
// ---------------------------------------------------------------------------

// `scratch` holds 1 + (k-1)*w scalars.
template <typename T>
void stacked_geqr2(RowTile<T> s, idx w, idx k, T* tau, T* scratch) {
  CAQR_DCHECK(s.rows == w * k && s.cols == w);
  CAQR_DCHECK(k >= 1);
  for (idx j = 0; j < w; ++j) {
    // Gather the reflector support for column j into scratch:
    // [pivot; block1 rows 0..j; block2 rows 0..j; ...], length 1+(k-1)(j+1).
    const idx seg = j + 1;
    const idx len = 1 + (k - 1) * seg;
    scratch[0] = s.row(j)[j];
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) scratch[1 + (b - 1) * seg + i] = s.row(b * w + i)[j];
    }
    tau[j] = fast_make_householder(len, scratch[0], scratch + 1);
    // Scatter back: beta to the pivot, tail (the reflector) to the consumed
    // R positions.
    s.row(j)[j] = scratch[0];
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) s.row(b * w + i)[j] = scratch[1 + (b - 1) * seg + i];
    }
    if (tau[j] == T(0)) continue;
    // Update trailing columns j+1..w-1 on the same support.
    detail::for_lane_groups(j + 1, w - j - 1, [&]<idx NL>(idx c0) {
      detail::lane_reflect<NL>(s, j, c0, tau[j], scratch + 1,
                               detail::stacked_support(w, k, j, seg));
    });
  }
}

template <typename T>
void stacked_geqr2(MatrixView<T> s, idx w, idx k, T* tau, T* scratch) {
  CAQR_DCHECK(s.rows() == w * k && s.cols() == w);
  detail::on_row_tile(s, [&](RowTile<T> t) { stacked_geqr2(t, w, k, tau, scratch); });
}

inline double stacked_geqr2_flops(idx w, idx k) {
  double f = 0;
  for (idx j = 0; j < w; ++j) {
    const idx len = 1 + (k - 1) * (j + 1);
    f += make_householder_flops(len);
    if (len > 1) f += static_cast<double>(w - j - 1) * apply_reflector_column_flops(len);
  }
  return f;
}

// ---------------------------------------------------------------------------
// apply_qt_tree: apply the stacked-triangle Q^T to the matching distributed
// rows of a trailing tile.
//
// v holds the factored stack (reflector tails in the lower triangles, taus in
// tau); c is the (k*w) x n gathered trailing rows: row groups in the same
// order as the stacked blocks.
// ---------------------------------------------------------------------------

namespace detail {

template <typename T>
void stacked_apply(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                   RowTile<T> c, bool transpose) {
  CAQR_DCHECK(v.rows() == w * k && v.cols() == w);
  CAQR_DCHECK(c.rows == w * k);
  for_lane_groups(0, c.cols, [&]<idx NL>(idx c0) {
    for (idx s = 0; s < w; ++s) {
      const idx j = transpose ? s : w - 1 - s;
      if (tau[j] == T(0)) continue;
      lane_reflect<NL>(c, j, c0, tau[j], v.col(j) + w,
                       stacked_support(w, k, j, w));
    }
  });
}

}  // namespace detail

template <typename T>
void stacked_apply_qt(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                      RowTile<T> c) {
  detail::stacked_apply(v, w, k, tau, c, true);
}

template <typename T>
void stacked_apply_qt(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                      MatrixView<T> c) {
  detail::on_row_tile(c, [&](RowTile<T> t) { detail::stacked_apply(v, w, k, tau, t, true); });
}

// Applies the stacked-triangle Q (not Q^T): reflectors in descending order.
// Same flop count as stacked_apply_qt.
template <typename T>
void stacked_apply_q(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                     RowTile<T> c) {
  detail::stacked_apply(v, w, k, tau, c, false);
}

template <typename T>
void stacked_apply_q(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                     MatrixView<T> c) {
  detail::on_row_tile(c, [&](RowTile<T> t) { detail::stacked_apply(v, w, k, tau, t, false); });
}

inline double stacked_apply_qt_flops(idx w, idx k, idx ncols) {
  double f = 0;
  for (idx j = 0; j < w; ++j) {
    const idx len = 1 + (k - 1) * (j + 1);
    if (len > 1) f += static_cast<double>(ncols) * apply_reflector_column_flops(len);
  }
  return f;
}

// The float and double cores are compiled once, in kernels/block_ops.cpp.
// Translation units that launch kernels call them instead of carrying
// their own copies of the lane code; other scalar types (the tests'
// flop-counting scalar) instantiate implicitly.
#define CAQR_BLOCK_OPS_INSTANCES(PREFIX, T)                                   \
  PREFIX template void block_geqr2<T>(MatrixView<T>, T*);                     \
  PREFIX template void block_apply_qt<T>(ConstMatrixView<T>, const T*,        \
                                         MatrixView<T>);                      \
  PREFIX template void block_apply_q<T>(ConstMatrixView<T>, const T*,         \
                                        MatrixView<T>);                       \
  PREFIX template void stacked_geqr2<T>(RowTile<T>, idx, idx, T*, T*);        \
  PREFIX template void stacked_geqr2<T>(MatrixView<T>, idx, idx, T*, T*);     \
  PREFIX template void stacked_apply_qt<T>(ConstMatrixView<T>, idx, idx,      \
                                           const T*, RowTile<T>);             \
  PREFIX template void stacked_apply_qt<T>(ConstMatrixView<T>, idx, idx,      \
                                           const T*, MatrixView<T>);          \
  PREFIX template void stacked_apply_q<T>(ConstMatrixView<T>, idx, idx,       \
                                          const T*, RowTile<T>);              \
  PREFIX template void stacked_apply_q<T>(ConstMatrixView<T>, idx, idx,       \
                                          const T*, MatrixView<T>);

CAQR_BLOCK_OPS_INSTANCES(extern, float)
CAQR_BLOCK_OPS_INSTANCES(extern, double)

}  // namespace caqr::kernels
