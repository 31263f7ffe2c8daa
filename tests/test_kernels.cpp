// Tests for the CAQR kernel numerical cores and their exact operation
// counts. The flop-count functions must match the functional execution
// operation-for-operation (that equivalence is what makes ModelOnly timing
// exact), verified here with a counting scalar type.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "kernels/block_ops.hpp"
#include "kernels/cost_params.hpp"
#include "kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"

namespace caqr {
namespace {

using kernels::block_apply_qt;
using kernels::block_apply_qt_flops;
using kernels::block_geqr2;
using kernels::block_geqr2_flops;
using kernels::stacked_apply_qt;
using kernels::stacked_apply_qt_flops;
using kernels::stacked_geqr2;
using kernels::stacked_geqr2_flops;

// ---------------------------------------------------------------------------
// Counting scalar: every mul/add/sub/div/sqrt bumps a global counter.
// ---------------------------------------------------------------------------

struct Counted {
  double v = 0;
  static inline long long ops = 0;

  Counted() = default;
  Counted(double x) : v(x) {}  // NOLINT: implicit by design

  friend Counted operator+(Counted a, Counted b) { ++ops; return {a.v + b.v}; }
  friend Counted operator-(Counted a, Counted b) { ++ops; return {a.v - b.v}; }
  friend Counted operator*(Counted a, Counted b) { ++ops; return {a.v * b.v}; }
  friend Counted operator/(Counted a, Counted b) { ++ops; return {a.v / b.v}; }
  friend Counted operator-(Counted a) { return {-a.v}; }  // sign flip: free
  Counted& operator+=(Counted b) { ++ops; v += b.v; return *this; }
  Counted& operator-=(Counted b) { ++ops; v -= b.v; return *this; }
  Counted& operator*=(Counted b) { ++ops; v *= b.v; return *this; }
  friend bool operator==(Counted a, Counted b) { return a.v == b.v; }
  friend bool operator>=(Counted a, Counted b) { return a.v >= b.v; }
  friend Counted sqrt(Counted a) { ++ops; return {std::sqrt(a.v)}; }
};

template <typename Fn>
long long count_ops(Fn&& fn) {
  Counted::ops = 0;
  fn();
  return Counted::ops;
}

Matrix<Counted> counted_from(ConstMatrixView<double> src) {
  Matrix<Counted> m(src.rows(), src.cols());
  for (idx j = 0; j < src.cols(); ++j) {
    for (idx i = 0; i < src.rows(); ++i) m(i, j) = Counted(src(i, j));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Numerical equivalence with the reference LAPACK-style routines.
// ---------------------------------------------------------------------------

struct BlockShape {
  idx h, w;
};

class BlockGeqr2Shapes : public ::testing::TestWithParam<BlockShape> {};

TEST_P(BlockGeqr2Shapes, MatchesReferenceGeqr2) {
  const auto [h, w] = GetParam();
  auto a0 = gaussian_matrix<double>(h, w, 11);
  auto a_ref = a0.clone();
  auto a_fast = a0.clone();
  std::vector<double> tau_ref(static_cast<std::size_t>(w)), work(static_cast<std::size_t>(w));
  std::vector<double> tau_fast(static_cast<std::size_t>(w));
  geqr2(a_ref.view(), tau_ref.data(), work.data());
  block_geqr2(a_fast.view(), tau_fast.data());

  for (idx j = 0; j < w; ++j) {
    for (idx i = 0; i < h; ++i) {
      ASSERT_NEAR(a_fast(i, j), a_ref(i, j), 1e-11) << i << "," << j;
    }
  }
  const idx kmax = std::min(h, w);
  for (idx k = 0; k < kmax; ++k) {
    ASSERT_NEAR(tau_fast[static_cast<std::size_t>(k)],
                tau_ref[static_cast<std::size_t>(k)], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockGeqr2Shapes,
                         ::testing::Values(BlockShape{1, 1}, BlockShape{16, 16},
                                           BlockShape{64, 16}, BlockShape{128, 16},
                                           BlockShape{65, 16}, BlockShape{32, 4},
                                           BlockShape{200, 8}, BlockShape{17, 17}));

TEST(BlockApplyQt, ReproducesRFromOriginalBlock) {
  const idx h = 96, w = 12;
  auto a0 = gaussian_matrix<double>(h, w, 5);
  auto f = a0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  block_geqr2(f.view(), tau.data());

  // Applying Q^T to the original block must reproduce [R; 0].
  auto c = a0.clone();
  block_apply_qt(f.as_const(), tau.data(), c.view());
  for (idx j = 0; j < w; ++j) {
    for (idx i = 0; i < h; ++i) {
      const double expect = i <= j ? f(i, j) : 0.0;
      ASSERT_NEAR(c(i, j), expect, 1e-11);
    }
  }
}

TEST(BlockApplyQ, InverseOfApplyQt) {
  const idx h = 80, w = 16;
  auto a = gaussian_matrix<double>(h, w, 6);
  auto f = a.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  block_geqr2(f.view(), tau.data());

  auto c0 = gaussian_matrix<double>(h, 7, 8);
  auto c = c0.clone();
  block_apply_qt(f.as_const(), tau.data(), c.view());
  kernels::block_apply_q(f.as_const(), tau.data(), c.view());
  for (idx j = 0; j < 7; ++j) {
    for (idx i = 0; i < h; ++i) ASSERT_NEAR(c(i, j), c0(i, j), 1e-11);
  }
}

// ---------------------------------------------------------------------------
// Stacked-triangle (tree combine) kernels.
// ---------------------------------------------------------------------------

// Builds a stack of k random upper-triangular w x w blocks.
Matrix<double> random_triangle_stack(idx w, idx k, std::uint64_t seed) {
  auto stack = Matrix<double>::zeros(k * w, w);
  Rng rng(seed);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) {
        stack(b * w + i, j) = rng.uniform(-1.0, 1.0);
      }
    }
  }
  return stack;
}

class StackedQrParams : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(StackedQrParams, MatchesDenseQrUpToSigns) {
  const auto [w, k] = GetParam();
  auto s0 = random_triangle_stack(w, k, 21);

  // Structured QR.
  auto s = s0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  std::vector<double> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  // Dense reference QR on the same stack.
  auto d = s0.clone();
  std::vector<double> tau_d(static_cast<std::size_t>(w)), work(static_cast<std::size_t>(w));
  geqr2(d.view(), tau_d.data(), work.data());

  auto r_s = extract_r(s.block(0, 0, w, w));
  auto r_d = extract_r(d.block(0, 0, w, w));
  EXPECT_LT(r_factor_difference(r_d.view(), r_s.view()), 1e-12);

  // The structured result must preserve the sparsity pattern: entries of
  // lower blocks strictly below their local diagonal stay exactly zero.
  for (idx b = 1; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = j + 1; i < w; ++i) {
        ASSERT_EQ(s(b * w + i, j), 0.0) << "block " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, StackedQrParams,
                         ::testing::Combine(::testing::Values<idx>(1, 4, 8, 16),
                                            ::testing::Values<idx>(2, 3, 4, 8)));

TEST(StackedQr, SingletonStackIsPassThrough) {
  const idx w = 8;
  auto s0 = random_triangle_stack(w, 1, 3);
  auto s = s0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w), -1.0);
  std::vector<double> scratch(1);
  stacked_geqr2(s.view(), w, 1, tau.data(), scratch.data());
  for (idx j = 0; j < w; ++j) {
    EXPECT_EQ(tau[static_cast<std::size_t>(j)], 0.0);
    for (idx i = 0; i < w; ++i) ASSERT_EQ(s(i, j), s0(i, j));
  }
}

TEST(StackedApplyQt, ReproducesCombinedRFromStack) {
  const idx w = 8, k = 4;
  auto s0 = random_triangle_stack(w, k, 31);
  auto s = s0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  std::vector<double> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  // Q^T applied to the original stack must give [R; 0] (structured).
  auto c = s0.clone();
  stacked_apply_qt(s.as_const(), w, k, tau.data(), c.view());
  for (idx j = 0; j < w; ++j) {
    for (idx i = 0; i < k * w; ++i) {
      const double expect = i <= j ? s(i, j) : 0.0;
      ASSERT_NEAR(c(i, j), expect, 1e-12) << i << "," << j;
    }
  }
}

TEST(StackedApplyQ, InverseOfApplyQt) {
  const idx w = 6, k = 3;
  auto s = random_triangle_stack(w, k, 41);
  std::vector<double> tau(static_cast<std::size_t>(w));
  std::vector<double> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  auto c0 = gaussian_matrix<double>(k * w, 5, 42);
  auto c = c0.clone();
  stacked_apply_qt(s.as_const(), w, k, tau.data(), c.view());
  kernels::stacked_apply_q(s.as_const(), w, k, tau.data(), c.view());
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < k * w; ++i) ASSERT_NEAR(c(i, j), c0(i, j), 1e-12);
  }
}

// Structured combine must cost strictly fewer flops than a dense QR of the
// same stack — this is TSQR's sparsity saving.
TEST(StackedQr, StructuredFlopsBelowDense) {
  for (const idx w : {4, 8, 16, 32}) {
    for (const idx k : {2, 4, 8}) {
      EXPECT_LT(stacked_geqr2_flops(w, k), block_geqr2_flops(k * w, w))
          << "w=" << w << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Exact operation counting.
// ---------------------------------------------------------------------------

class FlopCountShapes : public ::testing::TestWithParam<BlockShape> {};

TEST_P(FlopCountShapes, BlockGeqr2CountIsExact) {
  const auto [h, w] = GetParam();
  auto a = counted_from(gaussian_matrix<double>(h, w, 7).view());
  std::vector<Counted> tau(static_cast<std::size_t>(w));
  const long long ops =
      count_ops([&] { block_geqr2(a.view(), tau.data()); });
  EXPECT_EQ(static_cast<double>(ops), block_geqr2_flops(h, w));
}

TEST_P(FlopCountShapes, BlockApplyQtCountIsExact) {
  const auto [h, w] = GetParam();
  auto f = counted_from(gaussian_matrix<double>(h, w, 7).view());
  std::vector<Counted> tau(static_cast<std::size_t>(w));
  block_geqr2(f.view(), tau.data());

  const idx ncols = 5;
  auto c = counted_from(gaussian_matrix<double>(h, ncols, 9).view());
  const long long ops = count_ops(
      [&] { block_apply_qt(f.as_const(), tau.data(), c.view()); });
  EXPECT_EQ(static_cast<double>(ops), block_apply_qt_flops(h, w, ncols));
}

INSTANTIATE_TEST_SUITE_P(Shapes, FlopCountShapes,
                         ::testing::Values(BlockShape{16, 16}, BlockShape{64, 16},
                                           BlockShape{128, 16}, BlockShape{33, 7},
                                           BlockShape{128, 32}, BlockShape{12, 12}));

TEST(FlopCount, StackedGeqr2CountIsExact) {
  for (const idx w : {4, 8, 16}) {
    for (const idx k : {2, 4}) {
      auto s_d = random_triangle_stack(w, k, 17);
      auto s = counted_from(s_d.view());
      std::vector<Counted> tau(static_cast<std::size_t>(w));
      std::vector<Counted> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
      const long long ops = count_ops(
          [&] { stacked_geqr2(s.view(), w, k, tau.data(), scratch.data()); });
      EXPECT_EQ(static_cast<double>(ops), stacked_geqr2_flops(w, k))
          << "w=" << w << " k=" << k;
    }
  }
}

TEST(FlopCount, StackedApplyQtCountIsExact) {
  const idx w = 8, k = 4, ncols = 6;
  auto s = counted_from(random_triangle_stack(w, k, 19).view());
  std::vector<Counted> tau(static_cast<std::size_t>(w));
  std::vector<Counted> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  auto c = counted_from(gaussian_matrix<double>(k * w, ncols, 23).view());
  const long long ops = count_ops(
      [&] { stacked_apply_qt(s.as_const(), w, k, tau.data(), c.view()); });
  EXPECT_EQ(static_cast<double>(ops), stacked_apply_qt_flops(w, k, ncols));
}

// The kernel structs' reported flops must equal the numeric cores' counts
// (the same functions back both, but this pins the wiring: offsets, tile
// decomposition, per-block dims).
TEST(KernelStats, FactorKernelFlopsMatchFlopFunctions) {
  auto panel = Matrix<float>::shape_only(300, 16);
  std::vector<idx> offsets = {0, 128, 300};
  std::vector<float> taus(2 * 16);
  kernels::FactorKernel<float> k{
      panel.view(), &offsets, taus.data(),
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed),
      8.0, 3.0, false};
  EXPECT_DOUBLE_EQ(k.block_stats(0).flops, block_geqr2_flops(128, 16));
  EXPECT_DOUBLE_EQ(k.block_stats(1).flops, block_geqr2_flops(172, 16));
}

TEST(KernelStats, ApplyKernelFlopsMatchTileDecomposition) {
  auto panel = Matrix<float>::shape_only(256, 16);
  auto trailing = Matrix<float>::shape_only(256, 40);  // tiles: 16, 16, 8
  std::vector<idx> offsets = {0, 128, 256};
  std::vector<float> taus(2 * 16);
  kernels::ApplyQtHKernel<float> k{
      panel.view(), &offsets, taus.data(), trailing.view(), 16,
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed),
      8.0, 3.0, false, true};
  ASSERT_EQ(k.num_blocks(), 6);
  // Block 2 of row-block 0: the ragged 8-wide tile.
  EXPECT_DOUBLE_EQ(k.block_stats(2).flops, block_apply_qt_flops(128, 16, 8));
  EXPECT_DOUBLE_EQ(k.block_stats(0).flops, block_apply_qt_flops(128, 16, 16));
}

// ---------------------------------------------------------------------------
// Cost parameterization sanity.
// ---------------------------------------------------------------------------

TEST(CostParams, VariantLadderIsMonotone) {
  using kernels::ReductionVariant;
  const auto v1 = kernels::cost_params(ReductionVariant::SmemParallelReduction);
  const auto v2 = kernels::cost_params(ReductionVariant::SmemSerialReduction);
  const auto v3 = kernels::cost_params(ReductionVariant::RegisterSerialReduction);
  const auto v4 = kernels::cost_params(ReductionVariant::RegisterSerialTransposed);
  // Each tuning step must strictly reduce the dominant cost terms.
  EXPECT_GT(v1.issue_mult, v2.issue_mult);
  EXPECT_GT(v2.smem_per_fma32, v3.smem_per_fma32);
  EXPECT_GT(v3.smem_per_fma32, v4.smem_per_fma32);
}

TEST(CostParams, VariantNames) {
  using kernels::ReductionVariant;
  EXPECT_STREQ(kernels::variant_name(ReductionVariant::RegisterSerialTransposed),
               "register_serial_transposed");
  EXPECT_STREQ(kernels::variant_name(ReductionVariant::SmemParallelReduction),
               "smem_parallel_reduction");
}

// ---------------------------------------------------------------------------
// Contiguity staging: FactorKernel / ApplyQtHKernel stage strided tall-panel
// tiles into contiguous arena buffers before the reflector sweeps. The
// staged path must be BIT-identical to running the numerical core directly
// on the strided view — same scalar operations, same order — including on
// ill-scaled data that trips the xLARFG rescue path.
// ---------------------------------------------------------------------------

template <typename T>
Matrix<T> scaled_panel(idx m, idx n, int seed, double scale) {
  auto a = gaussian_matrix<T>(m, n, seed);
  for (idx j = 0; j < n; ++j) {
    // Alternate extreme column scalings: underflow-adjacent, 1, overflow-
    // adjacent — the stress sweep's 1e±300 shapes.
    const double s = j % 3 == 0 ? scale : (j % 3 == 1 ? 1.0 : 1.0 / scale);
    for (idx i = 0; i < m; ++i) {
      a(i, j) = static_cast<T>(static_cast<double>(a(i, j)) * s);
    }
  }
  return a;
}

TEST(StagedKernels, FactorBitIdenticalToUnstagedOnStridedPanel) {
  for (const double scale : {1.0, 1e300, 1e-300}) {
    const idx m = 256, w = 12;
    auto panel = scaled_panel<double>(m, w, 7, scale);
    auto ref = Matrix<double>::from(panel.view().as_const());

    const std::vector<idx> offsets = {0, 64, 128, 192, m};
    std::vector<double> taus(4 * static_cast<std::size_t>(w), 0.0);
    kernels::FactorKernel<double> k{panel.view(), &offsets, taus.data(),
                                    kernels::cost_params(
                                        kernels::ReductionVariant::
                                            RegisterSerialTransposed),
                                    8.0, 1.0};
    for (idx b = 0; b < k.num_blocks(); ++b) k.run_block(b);  // staged path

    // Reference: the raw numerical core on each strided block view.
    std::vector<double> rtaus(4 * static_cast<std::size_t>(w), 0.0);
    for (idx b = 0; b < 4; ++b) {
      block_geqr2(ref.view().block(offsets[static_cast<std::size_t>(b)], 0,
                                   offsets[static_cast<std::size_t>(b) + 1] -
                                       offsets[static_cast<std::size_t>(b)],
                                   w),
                  rtaus.data() + b * w);
    }
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i < m; ++i) {
        ASSERT_EQ(panel(i, j), ref(i, j))
            << "scale " << scale << " at (" << i << "," << j << ")";
      }
    }
    for (std::size_t t = 0; t < taus.size(); ++t) {
      ASSERT_EQ(taus[t], rtaus[t]) << "tau " << t << " scale " << scale;
    }
  }
}

TEST(StagedKernels, ApplyQtBitIdenticalToUnstagedOnStridedTrailing) {
  for (const double scale : {1.0, 1e300, 1e-300}) {
    const idx m = 192, w = 8, nc = 20;
    auto panel = scaled_panel<double>(m, w, 11, scale);
    const std::vector<idx> offsets = {0, 96, m};
    std::vector<double> taus(2 * static_cast<std::size_t>(w), 0.0);
    kernels::FactorKernel<double> fk{panel.view(), &offsets, taus.data(),
                                     kernels::cost_params(
                                         kernels::ReductionVariant::
                                             RegisterSerialTransposed),
                                     8.0, 1.0};
    for (idx b = 0; b < fk.num_blocks(); ++b) fk.run_block(b);

    auto trailing = scaled_panel<double>(m, nc, 13, scale);
    auto ref = Matrix<double>::from(trailing.view().as_const());

    kernels::ApplyQtHKernel<double> ak{panel.view().as_const(), &offsets,
                                       taus.data(), trailing.view(), 16,
                                       kernels::cost_params(
                                           kernels::ReductionVariant::
                                               RegisterSerialTransposed),
                                       8.0, 1.0, false, true};
    for (idx b = 0; b < ak.num_blocks(); ++b) ak.run_block(b);  // staged

    // Reference: raw core on the strided views, same tile decomposition.
    for (idx b = 0; b < 2; ++b) {
      const idx r0 = offsets[static_cast<std::size_t>(b)];
      const idx h = offsets[static_cast<std::size_t>(b) + 1] - r0;
      for (idx c0 = 0; c0 < nc; c0 += 16) {
        const idx tc = std::min<idx>(16, nc - c0);
        block_apply_qt(panel.view().as_const().block(r0, 0, h, w),
                       taus.data() + b * w, ref.view().block(r0, c0, h, tc));
      }
    }
    for (idx j = 0; j < nc; ++j) {
      for (idx i = 0; i < m; ++i) {
        ASSERT_EQ(trailing(i, j), ref(i, j))
            << "scale " << scale << " at (" << i << "," << j << ")";
      }
    }
  }
}


// ---------------------------------------------------------------------------
// Lane kernels vs the per-column scalar form. The oracle below is the
// column-at-a-time implementation: every reflector updates one trailing
// column with a single-accumulator dot chain and a separate axpy. The lane
// kernels must reproduce it byte for byte on every shape, including ragged
// tile widths around the lane width, blocks shorter than they are wide,
// zero columns (tau == 0), length-1 reflectors and ill-scaled data.
// ---------------------------------------------------------------------------

namespace oracle {

template <typename T>
void apply_reflector_column(idx len, T tau, const T* v_rest, T* col) {
  T w = col[0];
  for (idx i = 0; i < len - 1; ++i) w += v_rest[i] * col[i + 1];
  const T tw = tau * w;
  col[0] -= tw;
  for (idx i = 0; i < len - 1; ++i) col[i + 1] -= tw * v_rest[i];
}

template <typename T>
void block_geqr2(MatrixView<T> a, T* tau) {
  const idx m = a.rows(), n = a.cols();
  const idx kmax = m < n ? m : n;
  for (idx k = 0; k < kmax; ++k) {
    T* colk = a.col(k) + k;
    tau[k] = kernels::fast_make_householder(m - k, colk[0], colk + 1);
    if (tau[k] == T(0)) continue;
    for (idx j = k + 1; j < n; ++j) {
      apply_reflector_column(m - k, tau[k], colk + 1, a.col(j) + k);
    }
  }
}

template <typename T>
void block_apply(ConstMatrixView<T> v, const T* tau, MatrixView<T> c,
                 bool transpose) {
  const idx h = v.rows();
  const idx w = v.cols() < h ? v.cols() : h;
  for (idx s = 0; s < w; ++s) {
    const idx j = transpose ? s : w - 1 - s;
    if (tau[j] == T(0)) continue;
    for (idx col = 0; col < c.cols(); ++col) {
      apply_reflector_column(h - j, tau[j], v.col(j) + j + 1, c.col(col) + j);
    }
  }
}

template <typename T>
void stacked_geqr2(MatrixView<T> s, idx w, idx k, T* tau, T* scratch) {
  for (idx j = 0; j < w; ++j) {
    const idx seg = j + 1;
    const idx len = 1 + (k - 1) * seg;
    scratch[0] = s(j, j);
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) scratch[1 + (b - 1) * seg + i] = s(b * w + i, j);
    }
    tau[j] = kernels::fast_make_householder(len, scratch[0], scratch + 1);
    s(j, j) = scratch[0];
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) s(b * w + i, j) = scratch[1 + (b - 1) * seg + i];
    }
    if (tau[j] == T(0)) continue;
    for (idx c = j + 1; c < w; ++c) {
      T acc = s(j, c);
      for (idx b = 1; b < k; ++b) {
        for (idx i = 0; i < seg; ++i) acc += s(b * w + i, j) * s(b * w + i, c);
      }
      const T tw = tau[j] * acc;
      s(j, c) -= tw;
      for (idx b = 1; b < k; ++b) {
        for (idx i = 0; i < seg; ++i) s(b * w + i, c) -= tw * s(b * w + i, j);
      }
    }
  }
}

template <typename T>
void stacked_apply(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                   MatrixView<T> c, bool transpose) {
  for (idx s = 0; s < w; ++s) {
    const idx j = transpose ? s : w - 1 - s;
    if (tau[j] == T(0)) continue;
    const idx seg = j + 1;
    for (idx col = 0; col < c.cols(); ++col) {
      T* cc = c.col(col);
      T acc = cc[j];
      for (idx b = 1; b < k; ++b) {
        const T* vb = v.col(j) + b * w;
        const T* cb = cc + b * w;
        for (idx i = 0; i < seg; ++i) acc += vb[i] * cb[i];
      }
      const T tw = tau[j] * acc;
      cc[j] -= tw;
      for (idx b = 1; b < k; ++b) {
        const T* vb = v.col(j) + b * w;
        T* cb = cc + b * w;
        for (idx i = 0; i < seg; ++i) cb[i] -= tw * vb[i];
      }
    }
  }
}

}  // namespace oracle

template <typename T>
bool same_bytes(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (idx j = 0; j < a.cols(); ++j) {
    if (std::memcmp(a.view().col(j), b.view().col(j),
                    sizeof(T) * static_cast<std::size_t>(a.rows())) != 0) {
      return false;
    }
  }
  return true;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(T) * a.size()) == 0;
}

// Gaussian data with zeroed columns (their reflectors get tau == 0) and,
// for double, the stress sweep's extreme column scalings.
template <typename T>
Matrix<T> lane_test_matrix(idx m, idx n, std::uint64_t seed, double scale,
                           idx zero_col) {
  auto a = gaussian_matrix<T>(m, n, seed);
  for (idx j = 0; j < n; ++j) {
    const double s = j % 3 == 0 ? scale : (j % 3 == 1 ? 1.0 : 1.0 / scale);
    for (idx i = 0; i < m; ++i) {
      a(i, j) = j == zero_col ? T(0) : static_cast<T>(static_cast<double>(a(i, j)) * s);
    }
  }
  return a;
}

template <typename T>
std::vector<double> lane_test_scales() {
  if constexpr (std::is_same_v<T, double>) return {1.0, 1e300, 1e-300};
  return {1.0, 1e30};
}

constexpr idx kL = kernels::kLanes;
const idx kTileWidths[] = {1, kL - 1, kL, kL + 1, 2 * kL + 3};

template <typename T>
class LaneKernels : public ::testing::Test {};
using LaneTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(LaneKernels, LaneTypes);

// (h, w) blocks: tall, square, h < w, and width around the lane width.
const BlockShape kLaneBlocks[] = {{64, 16}, {33, 7},  {12, 20}, {5, 1},
                                  {1, 5},   {17, 17}, {40, kL + 1},
                                  {70, 2 * kL + 3}, {128, 16}};

TYPED_TEST(LaneKernels, BlockGeqr2MatchesPerColumnForm) {
  using T = TypeParam;
  for (const double scale : lane_test_scales<T>()) {
    for (const auto [h, w] : kLaneBlocks) {
      for (const idx zero_col : {idx{-1}, idx{0}, w / 2}) {
        auto a = lane_test_matrix<T>(h, w, 31, scale, zero_col);
        auto ref = Matrix<T>::from(a.view());
        std::vector<T> tau(static_cast<std::size_t>(w), T(7));
        std::vector<T> rtau(tau);
        kernels::block_geqr2(a.view(), tau.data());
        oracle::block_geqr2(ref.view(), rtau.data());
        EXPECT_TRUE(same_bytes(a, ref))
            << h << "x" << w << " zero col " << zero_col << " scale " << scale;
        EXPECT_TRUE(same_bytes(tau, rtau)) << h << "x" << w;
      }
    }
  }
}

TYPED_TEST(LaneKernels, BlockApplyMatchesPerColumnForm) {
  using T = TypeParam;
  for (const double scale : lane_test_scales<T>()) {
    for (const auto [h, w] : kLaneBlocks) {
      auto v = lane_test_matrix<T>(h, w, 37, scale, w / 2);
      std::vector<T> tau(static_cast<std::size_t>(w), T(0));
      kernels::block_geqr2(v.view(), tau.data());
      // A nonzero tau on the length-1 reflector of a block with h <= w:
      // the pivot-only update must match as well.
      if (h <= w) tau[static_cast<std::size_t>(h - 1)] = T(0.5);
      for (const idx nc : kTileWidths) {
        for (const bool transpose : {true, false}) {
          auto c = lane_test_matrix<T>(h, nc, 41, scale, -1);
          auto ref = Matrix<T>::from(c.view());
          if (transpose) {
            kernels::block_apply_qt(v.as_const(), tau.data(), c.view());
          } else {
            kernels::block_apply_q(v.as_const(), tau.data(), c.view());
          }
          oracle::block_apply(v.as_const(), tau.data(), ref.view(), transpose);
          EXPECT_TRUE(same_bytes(c, ref))
              << h << "x" << w << " tile " << nc << " qt " << transpose
              << " scale " << scale;
        }
      }
    }
  }
}

template <typename T>
Matrix<T> triangle_stack(idx w, idx k, std::uint64_t seed, double scale) {
  auto s = Matrix<T>::zeros(k * w, w);
  Rng rng(seed);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      // Column 1 of every triangle is zero: its reflector has tau == 0.
      if (j == 1) continue;
      for (idx i = 0; i <= j; ++i) {
        s(b * w + i, j) = static_cast<T>(rng.uniform(-1.0, 1.0) * scale);
      }
    }
  }
  return s;
}

TYPED_TEST(LaneKernels, StackedGeqr2MatchesPerColumnForm) {
  using T = TypeParam;
  for (const double scale : lane_test_scales<T>()) {
    for (const idx w : kTileWidths) {
      for (const idx k : {1, 2, 4}) {
        auto s = triangle_stack<T>(w, k, 43, scale);
        auto ref = Matrix<T>::from(s.view());
        std::vector<T> tau(static_cast<std::size_t>(w)), rtau(tau);
        std::vector<T> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
        kernels::stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());
        oracle::stacked_geqr2(ref.view(), w, k, rtau.data(), scratch.data());
        EXPECT_TRUE(same_bytes(s, ref)) << "w " << w << " k " << k;
        EXPECT_TRUE(same_bytes(tau, rtau)) << "w " << w << " k " << k;
      }
    }
  }
}

TYPED_TEST(LaneKernels, StackedApplyMatchesPerColumnForm) {
  using T = TypeParam;
  for (const double scale : lane_test_scales<T>()) {
    for (const idx w : {idx{1}, idx{3}, kL, kL + 1}) {
      for (const idx k : {1, 2, 4}) {
        auto s = triangle_stack<T>(w, k, 47, scale);
        std::vector<T> tau(static_cast<std::size_t>(w));
        std::vector<T> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
        kernels::stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());
        for (const idx nc : kTileWidths) {
          for (const bool transpose : {true, false}) {
            auto c = lane_test_matrix<T>(k * w, nc, 53, scale, -1);
            auto ref = Matrix<T>::from(c.view());
            if (transpose) {
              kernels::stacked_apply_qt(s.as_const(), w, k, tau.data(), c.view());
            } else {
              kernels::stacked_apply_q(s.as_const(), w, k, tau.data(), c.view());
            }
            oracle::stacked_apply(s.as_const(), w, k, tau.data(), ref.view(),
                                  transpose);
            EXPECT_TRUE(same_bytes(c, ref))
                << "w " << w << " k " << k << " tile " << nc << " qt "
                << transpose;
          }
        }
      }
    }
  }
}

// The tree kernels gather their operands straight into row tiles; their
// results must equal the oracle on the gathered stacks.
TEST(LaneTreeKernels, MatchPerColumnForm) {
  const idx w = 8, nc = kL + 3;
  const idx m = 4 * w;
  auto panel = Matrix<float>::zeros(m, w);
  Rng rng(59);
  for (idx b = 0; b < 4; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i < w; ++i) {
        panel(b * w + i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
  }
  auto trailing = gaussian_matrix<float>(m, nc, 61);
  // One group of four triangles at panel rows 0, w, 2w, 3w.
  GroupList groups;
  const std::vector<idx> members = {0, w, 2 * w, 3 * w};
  groups.push_group(members.begin(), members.end());

  // Oracle: gather, run the per-column forms, compare after the kernels.
  auto stack = Matrix<float>::from(panel.view());
  auto cref = Matrix<float>::from(trailing.view());
  std::vector<float> rtau(static_cast<std::size_t>(w));
  std::vector<float> scratch(static_cast<std::size_t>(1 + 3 * w));
  oracle::stacked_geqr2(stack.view(), w, 4, rtau.data(), scratch.data());
  oracle::stacked_apply(stack.as_const(), w, 4, rtau.data(), cref.view(), true);

  const auto cost =
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed);
  std::vector<float> tau(static_cast<std::size_t>(w));
  kernels::FactorTreeKernel<float> ft{panel.view(), &groups, tau.data(), cost};
  ft.run_block(0);
  kernels::ApplyQtTreeKernel<float> at{panel.as_const(), &groups, tau.data(),
                                       trailing.view(), 8, cost};
  for (idx b = 0; b < at.num_blocks(); ++b) at.run_block(b);
  EXPECT_TRUE(same_bytes(panel, stack));
  EXPECT_TRUE(same_bytes(tau, rtau));
  EXPECT_TRUE(same_bytes(trailing, cref));
}

}  // namespace
}  // namespace caqr
