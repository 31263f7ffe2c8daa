// Tests for the one-sided Jacobi SVD used on the small R factor in the
// paper's tall-skinny SVD pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"

namespace caqr {
namespace {

template <typename T>
double svd_residual(In<ConstMatrixView<T>> a, const SvdResult<T>& f) {
  // ||A - U diag(sigma) V^T||_F / ||A||_F
  double num = 0.0;
  const idx m = a.rows(), n = a.cols();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      double s = 0.0;
      for (idx p = 0; p < n; ++p) {
        s += static_cast<double>(f.u(i, p)) *
             static_cast<double>(f.sigma[static_cast<std::size_t>(p)]) *
             static_cast<double>(f.v(j, p));
      }
      const double d = static_cast<double>(a(i, j)) - s;
      num += d * d;
    }
  }
  const double den = frobenius_norm(a);
  return den > 0 ? std::sqrt(num) / den : std::sqrt(num);
}

struct SvdShape {
  idx m, n;
};

class JacobiSvdShapes : public ::testing::TestWithParam<SvdShape> {};

TEST_P(JacobiSvdShapes, ReconstructsAFromFactors) {
  const auto [m, n] = GetParam();
  auto a = gaussian_matrix<double>(m, n, 41);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(orthogonality_error(f.u.view()), 1e-12);
  EXPECT_LT(orthogonality_error(f.v.view()), 1e-12);
  EXPECT_LT(svd_residual(a.view(), f), 1e-13);
  EXPECT_TRUE(std::is_sorted(f.sigma.rbegin(), f.sigma.rend()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, JacobiSvdShapes,
                         ::testing::Values(SvdShape{1, 1}, SvdShape{5, 2},
                                           SvdShape{8, 8}, SvdShape{50, 12},
                                           SvdShape{200, 30},
                                           SvdShape{33, 33},
                                           SvdShape{64, 3}));

TEST(JacobiSvd, DiagonalMatrixIsExact) {
  auto a = Matrix<double>::zeros(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 4.0;
  a(3, 3) = 2.0;
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_DOUBLE_EQ(f.sigma[0], 4.0);
  EXPECT_DOUBLE_EQ(f.sigma[1], 3.0);
  EXPECT_DOUBLE_EQ(f.sigma[2], 2.0);
  EXPECT_DOUBLE_EQ(f.sigma[3], 1.0);
}

TEST(JacobiSvd, RandomMatrixInvariants) {
  auto a = gaussian_matrix<double>(30, 12, 55);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(svd_residual(a.view(), f), 1e-13);
  EXPECT_LT(orthogonality_error(f.u.view()), 1e-13);
  EXPECT_LT(orthogonality_error(f.v.view()), 1e-13);
  EXPECT_TRUE(std::is_sorted(f.sigma.rbegin(), f.sigma.rend()));
  for (const double s : f.sigma) EXPECT_GE(s, 0.0);
}

TEST(JacobiSvd, SquareUpperTriangularInput) {
  // The pipeline always feeds R factors: exercise exactly that shape.
  auto g = gaussian_matrix<double>(50, 10, 66);
  std::vector<double> tau(10);
  geqrf(g.view(), tau.data());
  auto r = extract_r(g.view());
  auto f = jacobi_svd(r.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(svd_residual(r.view(), f), 1e-13);
}

TEST(JacobiSvd, RankDeficientGivesZeroSigmas) {
  // Rank-2 matrix 8x4.
  auto x = gaussian_matrix<double>(8, 2, 1);
  auto y = gaussian_matrix<double>(4, 2, 2);
  auto a = Matrix<double>::zeros(8, 4);
  gemm(Trans::No, Trans::Yes, 1.0, x.view(), y.view(), 0.0, a.view());
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_GT(f.sigma[1], 1e-8);
  EXPECT_LT(f.sigma[2], 1e-10);
  EXPECT_LT(f.sigma[3], 1e-10);
  EXPECT_LT(svd_residual(a.view(), f), 1e-12);
}

TEST(JacobiSvd, KnownSingularValuesRecovered) {
  const idx m = 40, n = 8;
  auto u = random_orthonormal<double>(m, n, 3);
  auto v = random_orthonormal<double>(n, n, 4);
  std::vector<double> sigma = {9, 7.5, 6, 4, 2, 1, 0.5, 0.125};
  auto us = u.clone();
  for (idx j = 0; j < n; ++j) {
    scal(m, sigma[static_cast<std::size_t>(j)], us.view().col(j));
  }
  auto a = Matrix<double>::zeros(m, n);
  gemm(Trans::No, Trans::Yes, 1.0, us.view(), v.view(), 0.0, a.view());
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  for (idx j = 0; j < n; ++j) {
    EXPECT_NEAR(f.sigma[static_cast<std::size_t>(j)],
                sigma[static_cast<std::size_t>(j)], 1e-11);
  }
}

TEST(JacobiSvd, IllConditionedSigmasAccurate) {
  auto a = matrix_with_condition<double>(120, 10, 1e9, 48);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  // Largest and smallest recovered to appropriate relative accuracy.
  EXPECT_NEAR(f.sigma.front(), 1.0, 1e-10);
  EXPECT_NEAR(f.sigma.back() / 1e-9, 1.0, 1e-4);
}

// The pipeline's premise: A and its R factor share singular values, so the
// small SVD of R stands in for the SVD of A.
TEST(JacobiSvd, SigmasOfRMatchSigmasOfA) {
  for (const auto& [m, n] : {std::pair<idx, idx>{30, 8}, {100, 20}, {16, 16}}) {
    auto a = gaussian_matrix<double>(m, n, static_cast<std::uint64_t>(m + n));
    auto g = a.clone();
    std::vector<double> tau(static_cast<std::size_t>(n));
    geqrf(g.view(), tau.data());
    auto r = extract_r(g.view());
    auto fr = jacobi_svd(r.view());
    auto fa = jacobi_svd(a.view());
    ASSERT_TRUE(fr.converged);
    ASSERT_TRUE(fa.converged);
    for (idx i = 0; i < n; ++i) {
      ASSERT_NEAR(fr.sigma[static_cast<std::size_t>(i)],
                  fa.sigma[static_cast<std::size_t>(i)],
                  1e-11 * (1.0 + fa.sigma[0]))
          << m << "x" << n;
    }
  }
}

TEST(JacobiSvd, FloatPrecision) {
  auto a = gaussian_matrix<float>(64, 16, 77);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(svd_residual(a.view(), f), 1e-5);
  EXPECT_LT(orthogonality_error(f.u.view()), 1e-4);
}

TEST(JacobiSvd, ZeroMatrix) {
  auto a = Matrix<double>::zeros(5, 3);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  for (const double s : f.sigma) EXPECT_EQ(s, 0.0);
}

TEST(JacobiSvd, SingleColumn) {
  auto a = Matrix<double>::zeros(4, 1);
  a(0, 0) = 3;
  a(1, 0) = 4;
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_NEAR(f.sigma[0], 5.0, 1e-14);
  EXPECT_NEAR(std::fabs(f.v(0, 0)), 1.0, 1e-14);
}

TEST(JacobiSvd, NuclearNormMatchesTrace) {
  // For SPD matrices the nuclear norm equals the trace.
  auto g = gaussian_matrix<double>(20, 6, 31);
  auto c = Matrix<double>::zeros(6, 6);
  syrk_t(1.0, g.view(), 0.0, c.view());
  auto f = jacobi_svd(c.view());
  double trace = 0.0, nuc = 0.0;
  for (idx i = 0; i < 6; ++i) trace += c(i, i);
  for (const double s : f.sigma) nuc += s;
  EXPECT_NEAR(nuc, trace, 1e-10 * trace);
}


// jacobi_svd reads each column pair's Gram entries from one fused pass; each
// of its three accumulators must equal the separate dot / nrm2_squared
// result bit for bit.
TEST(JacobiSvd, FusedPairGramMatchesSeparatePasses) {
  for (const idx m : {0, 1, 2, 3, 7, 16, 33, 100, 101}) {
    auto a = gaussian_matrix<double>(m, 2, 89);
    auto f = gaussian_matrix<float>(m, 2, 97);
    const auto gd = pair_gram(m, a.view().col(0), a.view().col(1));
    const double dxy = dot(m, a.view().col(0), a.view().col(1));
    const double dxx = nrm2_squared(m, a.view().col(0));
    const double dyy = nrm2_squared(m, a.view().col(1));
    EXPECT_EQ(std::memcmp(&gd.xy, &dxy, sizeof(double)), 0) << m;
    EXPECT_EQ(std::memcmp(&gd.xx, &dxx, sizeof(double)), 0) << m;
    EXPECT_EQ(std::memcmp(&gd.yy, &dyy, sizeof(double)), 0) << m;
    const auto gf = pair_gram(m, f.view().col(0), f.view().col(1));
    const float fxy = dot(m, f.view().col(0), f.view().col(1));
    const float fxx = nrm2_squared(m, f.view().col(0));
    const float fyy = nrm2_squared(m, f.view().col(1));
    EXPECT_EQ(std::memcmp(&gf.xy, &fxy, sizeof(float)), 0) << m;
    EXPECT_EQ(std::memcmp(&gf.xx, &fxx, sizeof(float)), 0) << m;
    EXPECT_EQ(std::memcmp(&gf.yy, &fyy, sizeof(float)), 0) << m;
  }
}

}  // namespace
}  // namespace caqr
