// Tests for BLAS1/2/3 primitives against naive reference computations,
// including parameterized shape sweeps over the block sizes CAQR uses.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "linalg/blas1.hpp"
#include "linalg/blas2.hpp"
#include "linalg/blas3.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"

namespace caqr {
namespace {

template <typename T>
Matrix<T> naive_gemm(Trans ta, Trans tb, T alpha, In<ConstMatrixView<T>> a,
                     In<ConstMatrixView<T>> b, T beta,
                     In<ConstMatrixView<T>> c0) {
  auto c = Matrix<T>::from(c0);
  const idx m = c.rows(), n = c.cols();
  const idx k = (ta == Trans::No) ? a.cols() : a.rows();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      long double acc = 0;
      for (idx p = 0; p < k; ++p) {
        const T av = (ta == Trans::No) ? a(i, p) : a(p, i);
        const T bv = (tb == Trans::No) ? b(p, j) : b(j, p);
        acc += static_cast<long double>(av) * bv;
      }
      c(i, j) = static_cast<T>(alpha * static_cast<T>(acc) + beta * c0(i, j));
    }
  }
  return c;
}

TEST(Blas1, DotAxpyScalNrm2) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(dot<double>(4, x.data(), y.data()), 4 + 6 + 6 + 4);
  EXPECT_DOUBLE_EQ(nrm2<double>(4, x.data()), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(nrm2_squared<double>(4, x.data()), 30.0);
  axpy<double>(4, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[3], 9.0);
  scal<double>(4, 0.5, x.data());
  EXPECT_DOUBLE_EQ(x[2], 1.5);
}

TEST(Blas1, Nrm2AvoidsOverflowAndUnderflow) {
  const float big = 1e20f;
  std::vector<float> x = {big, big, big};
  // Naive sum of squares would overflow to inf in float.
  EXPECT_FLOAT_EQ(nrm2<float>(3, x.data()), big * std::sqrt(3.0f));
  const float tiny = 1e-25f;
  std::vector<float> y = {tiny, tiny};
  EXPECT_GT(nrm2<float>(2, y.data()), 0.0f);
  EXPECT_FLOAT_EQ(nrm2<float>(2, y.data()), tiny * std::sqrt(2.0f));
}

TEST(Blas1, Iamax) {
  std::vector<double> x = {1, -5, 3};
  EXPECT_EQ(iamax<double>(3, x.data()), 1);
  EXPECT_EQ(iamax<double>(0, x.data()), -1);
}

TEST(Blas2, GemvMatchesNaive) {
  auto a = gaussian_matrix<double>(7, 5, 11);
  std::vector<double> x = {1, -1, 2, 0.5, 3};
  std::vector<double> y(7, 1.0), yr(7, 1.0);
  gemv_n<double>(2.0, a.view(), x.data(), 0.5, y.data());
  for (idx i = 0; i < 7; ++i) {
    double acc = 0;
    for (idx j = 0; j < 5; ++j) acc += a(i, j) * x[j];
    yr[i] = 2.0 * acc + 0.5 * 1.0;
    EXPECT_NEAR(y[i], yr[i], 1e-12);
  }
  std::vector<double> z(5, -1.0);
  gemv_t<double>(1.0, a.view(), yr.data(), 1.0, z.data());
  for (idx j = 0; j < 5; ++j) {
    double acc = 0;
    for (idx i = 0; i < 7; ++i) acc += a(i, j) * yr[i];
    EXPECT_NEAR(z[j], acc - 1.0, 1e-12);
  }
}

TEST(Blas2, GerRank1Update) {
  auto a = Matrix<double>::zeros(3, 2);
  std::vector<double> x = {1, 2, 3}, y = {4, 5};
  ger<double>(2.0, x.data(), y.data(), a.view());
  EXPECT_DOUBLE_EQ(a(2, 1), 2.0 * 3 * 5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0 * 1 * 4);
}

TEST(Blas2, TriangularSolvesRoundTrip) {
  auto u = Matrix<double>::zeros(4, 4);
  Rng rng(3);
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i <= j; ++i) u(i, j) = rng.uniform(0.5, 2.0);
  }
  std::vector<double> x = {1, -2, 3, -4};
  auto b = x;
  trmv_upper(u.view(), b.data());
  trsv_upper(u.view(), b.data());
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(b[i], x[i], 1e-12);
}

struct GemmShape {
  idx m, n, k;
};

class GemmAllTransposes
    : public ::testing::TestWithParam<std::tuple<GemmShape, int, int>> {};

TEST_P(GemmAllTransposes, MatchesNaive) {
  const auto [shape, tai, tbi] = GetParam();
  const Trans ta = tai != 0 ? Trans::Yes : Trans::No;
  const Trans tb = tbi != 0 ? Trans::Yes : Trans::No;
  const idx am = ta == Trans::No ? shape.m : shape.k;
  const idx an = ta == Trans::No ? shape.k : shape.m;
  const idx bm = tb == Trans::No ? shape.k : shape.n;
  const idx bn = tb == Trans::No ? shape.n : shape.k;
  auto a = gaussian_matrix<double>(am, an, 1);
  auto b = gaussian_matrix<double>(bm, bn, 2);
  auto c0 = gaussian_matrix<double>(shape.m, shape.n, 3);

  auto c = c0.clone();
  gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c.view());
  auto ref = naive_gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c0.view());

  for (idx j = 0; j < shape.n; ++j) {
    for (idx i = 0; i < shape.m; ++i) {
      ASSERT_NEAR(c(i, j), ref(i, j), 1e-10 * (1.0 + std::fabs(ref(i, j))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAllTransposes,
    ::testing::Combine(::testing::Values(GemmShape{1, 1, 1}, GemmShape{8, 4, 16},
                                         GemmShape{13, 7, 5}, GemmShape{32, 32, 32},
                                         GemmShape{65, 17, 33}, GemmShape{128, 16, 16},
                                         GemmShape{3, 50, 2}),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)));

TEST(Blas3, GemmEmptyDimensions) {
  auto a = Matrix<double>::zeros(4, 0);
  auto b = Matrix<double>::zeros(0, 3);
  auto c = Matrix<double>::identity(4, 3);
  // k == 0: C := beta * C only.
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 2.0, c.view());
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 0.0);
}

TEST(Blas3, SyrkMatchesGemm) {
  auto a = gaussian_matrix<double>(20, 6, 5);
  auto c1 = Matrix<double>::zeros(6, 6);
  auto c2 = Matrix<double>::zeros(6, 6);
  syrk_t(1.0, a.view(), 0.0, c1.view());
  gemm(Trans::Yes, Trans::No, 1.0, a.view(), a.view(), 0.0, c2.view());
  for (idx j = 0; j < 6; ++j) {
    for (idx i = 0; i < 6; ++i) EXPECT_NEAR(c1(i, j), c2(i, j), 1e-12);
  }
}

class TrsmCase : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TrsmCase, SolveThenMultiplyRoundTrips) {
  const auto [side_i, uplo_i, trans_i] = GetParam();
  const Side side = side_i != 0 ? Side::Right : Side::Left;
  const UpLo uplo = uplo_i != 0 ? UpLo::Lower : UpLo::Upper;
  const Trans trans = trans_i != 0 ? Trans::Yes : Trans::No;

  const idx n = 6;
  const idx bm = side == Side::Left ? n : 9;
  const idx bn = side == Side::Left ? 9 : n;
  auto t = Matrix<double>::zeros(n, n);
  Rng rng(9);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      const bool in_tri = uplo == UpLo::Upper ? i <= j : i >= j;
      if (in_tri) t(i, j) = i == j ? rng.uniform(1.0, 2.0) : rng.uniform(-0.5, 0.5);
    }
  }
  auto b0 = gaussian_matrix<double>(bm, bn, 17);
  auto b = b0.clone();
  trsm(side, uplo, trans, t.view(), b.view());

  // Reconstruct: op(T)*X (left) or X*op(T) (right) must equal B0.
  auto recon = Matrix<double>::zeros(bm, bn);
  if (side == Side::Left) {
    gemm(trans, Trans::No, 1.0, t.view(), b.view(), 0.0, recon.view());
  } else {
    gemm(Trans::No, trans, 1.0, b.view(), t.view(), 0.0, recon.view());
  }
  for (idx j = 0; j < bn; ++j) {
    for (idx i = 0; i < bm; ++i) ASSERT_NEAR(recon(i, j), b0(i, j), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TrsmCase,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// syrk_t and the right-upper trsm vs their scalar forms. The oracles are the
// entry-at-a-time implementations (a dot per Gram entry; a row-by-row
// substitution); the register-blocked kernels must match them byte for
// byte, across chunk boundaries and ragged block remainders.
// ---------------------------------------------------------------------------

template <typename T>
void syrk_t_oracle(T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c) {
  const idx n = a.cols();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) {
      const T s = dot(a.rows(), a.col(i), a.col(j));
      const T v = alpha * s + (beta == T(0) ? T(0) : beta * c(i, j));
      c(i, j) = v;
      c(j, i) = v;
    }
  }
}

template <typename T>
void trsm_right_upper_oracle(ConstMatrixView<T> t, MatrixView<T> b,
                             bool unit_diag) {
  const idx n = t.rows();
  for (idx i = 0; i < b.rows(); ++i) {
    for (idx j = 0; j < n; ++j) {
      T acc = b(i, j);
      for (idx p = 0; p < j; ++p) acc -= b(i, p) * t(p, j);
      b(i, j) = unit_diag ? acc : acc / t(j, j);
    }
  }
}

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
class Blas3Lanes : public ::testing::Test {};
using Blas3LaneTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Blas3Lanes, Blas3LaneTypes);

TYPED_TEST(Blas3Lanes, SyrkTMatchesDotPerEntry) {
  using T = TypeParam;
  for (const idx n : {1, 3, 4, 7, 8, 9, 17, 33, 64}) {
    for (const idx m : {0, 1, 5, 100, 700}) {
      for (const T beta : {T(0), T(0.75)}) {
        auto a = gaussian_matrix<T>(m, n, 71);
        auto c = gaussian_matrix<T>(n, n, 73);
        auto ref = Matrix<T>::from(c.view());
        syrk_t(T(1.5), a.view(), beta, c.view());
        syrk_t_oracle(T(1.5), a.view().as_const(), beta, ref.view());
        EXPECT_TRUE(same_bytes(c, ref))
            << m << "x" << n << " beta " << static_cast<double>(beta);
      }
    }
  }
}

TYPED_TEST(Blas3Lanes, TrsmRightUpperMatchesRowByRow) {
  using T = TypeParam;
  for (const idx n : {1, 5, 16, 37}) {
    auto t = Matrix<T>::zeros(n, n);
    Rng rng(79);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i <= j; ++i) {
        t(i, j) = static_cast<T>(i == j ? rng.uniform(1.0, 2.0)
                                        : rng.uniform(-0.5, 0.5));
      }
    }
    for (const idx m : {1, 15, 16, 17, 31, 32, 33, 100}) {
      for (const bool unit : {false, true}) {
        auto b = gaussian_matrix<T>(m, n, 83);
        auto ref = Matrix<T>::from(b.view());
        trsm(Side::Right, UpLo::Upper, Trans::No, t.view(), b.view(), unit);
        trsm_right_upper_oracle(t.view().as_const(), ref.view(), unit);
        EXPECT_TRUE(same_bytes(b, ref)) << m << "x" << n << " unit " << unit;
      }
    }
  }
}

TEST(Blas3, TrmmLeftMatchesGemm) {
  const idx n = 5;
  auto t = Matrix<double>::zeros(n, n);
  Rng rng(21);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) t(i, j) = rng.uniform(-1.0, 1.0);
  }
  auto b0 = gaussian_matrix<double>(n, 4, 22);

  for (const Trans trans : {Trans::No, Trans::Yes}) {
    auto b = b0.clone();
    trmm_left(UpLo::Upper, trans, t.view(), b.view());
    auto ref = Matrix<double>::zeros(n, 4);
    gemm(trans, Trans::No, 1.0, t.view(), b0.view(), 0.0, ref.view());
    for (idx j = 0; j < 4; ++j) {
      for (idx i = 0; i < n; ++i) ASSERT_NEAR(b(i, j), ref(i, j), 1e-12);
    }
  }
}

TEST(Norms, FrobeniusAndOrthogonality) {
  auto e = Matrix<double>::identity(5, 3);
  EXPECT_NEAR(frobenius_norm(e.view()), std::sqrt(3.0), 1e-14);
  EXPECT_NEAR(orthogonality_error(e.view()), 0.0, 1e-14);
  auto q = random_orthonormal<double>(40, 10, 77);
  EXPECT_LT(orthogonality_error(q.view()), 1e-13);
}

TEST(Norms, RFactorDifferenceSignInvariance) {
  auto r1 = Matrix<double>::zeros(3, 3);
  r1(0, 0) = 2;
  r1(0, 1) = 1;
  r1(1, 1) = 3;
  r1(2, 2) = -1;
  auto r2 = r1.clone();
  // Flip the sign of row 1 — equivalent QR up to reflector signs.
  for (idx j = 0; j < 3; ++j) r2(1, j) = -r2(1, j);
  EXPECT_NEAR(r_factor_difference(r1.view(), r2.view()), 0.0, 1e-15);
}

TEST(RandomMatrix, ConditionNumberIsRespected) {
  auto a = matrix_with_condition<double>(60, 10, 1e6, 5);
  auto svd = jacobi_svd(a.view());
  EXPECT_NEAR(svd.sigma.front() / svd.sigma.back(), 1e6, 1e6 * 1e-8);
}

}  // namespace
}  // namespace caqr
