// Tests for the adaptive QR front end and the least-squares solver — the
// §V.C "autotuning framework" extension: algorithm selection by predicted
// cost, correctness of both paths, and selection consistency with the
// underlying cost models.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "caqr/solver.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"

namespace caqr {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

TEST(AdaptiveQr, PicksCaqrForTallSkinny) {
  const auto model = GpuMachineModel::c2050();
  EXPECT_LT(predict_caqr_seconds<float>(model, 100000, 192),
            predict_hybrid_seconds<float>(model, 100000, 192));
}

TEST(AdaptiveQr, PicksHybridForLargeSquare) {
  const auto model = GpuMachineModel::c2050();
  EXPECT_GT(predict_caqr_seconds<float>(model, 8192, 8192),
            predict_hybrid_seconds<float>(model, 8192, 8192));
}

TEST(AdaptiveQr, AutoSelectionMatchesPrediction) {
  // Functional-size proxy shapes with the same ordering.
  Device dev;
  auto tall = gaussian_matrix<double>(4096, 16, 5);
  auto r1 = adaptive_qr(dev, tall.view());
  EXPECT_EQ(r1.used, QrAlgorithm::Caqr);

  auto square = gaussian_matrix<double>(256, 256, 6);
  const auto model = dev.model();
  const QrAlgorithm expect =
      predict_caqr_seconds<double>(model, 256, 256) <=
              predict_hybrid_seconds<double>(model, 256, 256)
          ? QrAlgorithm::Caqr
          : QrAlgorithm::Hybrid;
  auto r2 = adaptive_qr(dev, square.view());
  EXPECT_EQ(r2.used, expect);
}

TEST(AdaptiveQr, BothPathsProduceValidFactorizations) {
  auto a = gaussian_matrix<double>(300, 48, 7);
  for (const auto algo : {QrAlgorithm::Caqr, QrAlgorithm::Hybrid}) {
    Device dev;
    auto res = adaptive_qr(dev, a.view(), algo);
    EXPECT_EQ(res.used, algo);
    EXPECT_LT(orthogonality_error(res.q.view()), 1e-12);
    EXPECT_LT(factorization_residual(a.view(), res.q.view(), res.r.view()),
              1e-12);
    EXPECT_GT(res.simulated_seconds, 0.0);
  }
}

TEST(AdaptiveQr, ForcedAlgorithmIsRespected) {
  auto a = gaussian_matrix<float>(2048, 32, 8);
  Device dev;
  auto res = adaptive_qr(dev, a.view(), QrAlgorithm::Hybrid);
  EXPECT_EQ(res.used, QrAlgorithm::Hybrid);
}

TEST(LeastSquares, RecoversExactSolutionNoiseless) {
  const idx m = 500, n = 20, rhs = 3;
  auto a = gaussian_matrix<double>(m, n, 9);
  auto x_true = gaussian_matrix<double>(n, rhs, 10);
  auto b = Matrix<double>::zeros(m, rhs);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());

  for (const auto algo : {QrAlgorithm::Caqr, QrAlgorithm::Hybrid}) {
    Device dev;
    auto x = least_squares_solve(dev, a.view(), b.view(), algo);
    for (idx j = 0; j < rhs; ++j) {
      for (idx i = 0; i < n; ++i) {
        ASSERT_NEAR(x(i, j), x_true(i, j), 1e-10) << "algo path";
      }
    }
  }
}

TEST(LeastSquares, MinimizesResidualWithNoise) {
  // With noise, the QR solution must satisfy the normal equations:
  // A^T (A x - b) ~ 0.
  const idx m = 2000, n = 8;
  auto a = gaussian_matrix<double>(m, n, 11);
  auto b = gaussian_matrix<double>(m, 1, 12);
  Device dev;
  auto x = least_squares_solve(dev, a.view(), b.view());

  Matrix<double> res = Matrix<double>::from(b.view());
  gemm(Trans::No, Trans::No, -1.0, a.view(), x.view(), 1.0, res.view());
  Matrix<double> atres = Matrix<double>::zeros(n, 1);
  gemm(Trans::Yes, Trans::No, 1.0, a.view(), res.view(), 0.0, atres.view());
  EXPECT_LT(max_abs(atres.view()), 1e-9 * frobenius_norm(b.view()));
}

TEST(LeastSquares, IllConditionedStillAccurate) {
  const idx m = 600, n = 16;
  auto a = matrix_with_condition<double>(m, n, 1e8, 13);
  auto x_true = gaussian_matrix<double>(n, 1, 14);
  auto b = Matrix<double>::zeros(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());
  Device dev;
  auto x = least_squares_solve(dev, a.view(), b.view(), QrAlgorithm::Caqr);
  // Forward error bounded by cond * eps ~ 1e8 * 1e-16 * growth; the
  // residual-based check is the stable property.
  Matrix<double> res = Matrix<double>::from(b.view());
  gemm(Trans::No, Trans::No, -1.0, a.view(), x.view(), 1.0, res.view());
  EXPECT_LT(frobenius_norm(res.view()), 1e-7 * frobenius_norm(b.view()));
}

TEST(AdaptiveQr, PredictionIsDataFree) {
  // shape_only prediction must not allocate or touch storage: exercised at
  // a size whose data (32 GB) could not exist.
  const auto model = GpuMachineModel::c2050();
  const double t = predict_caqr_seconds<float>(model, 1 << 20, 8192);
  // ~1.3e14 flops at CAQR's ~200 GFLOP/s plateau is on the order of 10 min
  // of simulated time; the check brackets it.
  EXPECT_GT(t, 60.0);
  EXPECT_LT(t, 3600.0);
}

// The one Auto predicate: CAQR unless the hybrid is predicted strictly
// faster, on both sides of the crossover.
TEST(AdaptiveQr, PickHouseholderMatchesPredictions) {
  const auto model = GpuMachineModel::c2050();
  const std::pair<idx, idx> shapes[] = {
      {100000, 192}, {8192, 8192}, {4096, 64}, {256, 256}, {1024, 1024}};
  for (const auto& [m, n] : shapes) {
    const QrAlgorithm expect =
        predict_caqr_seconds<float>(model, m, n) <=
                predict_hybrid_seconds<float>(model, m, n)
            ? QrAlgorithm::Caqr
            : QrAlgorithm::Hybrid;
    EXPECT_EQ(pick_householder<float>(model, m, n), expect)
        << m << "x" << n;
  }
  EXPECT_EQ(pick_householder<float>(model, 100000, 192), QrAlgorithm::Caqr);
  EXPECT_EQ(pick_householder<float>(model, 8192, 8192), QrAlgorithm::Hybrid);
}

// On a ModelOnly device adaptive_qr takes a storage-free placeholder and
// returns storage-free factors of the right shapes, whatever it runs.
TEST(AdaptiveQr, ModelOnlyReturnsShapeOnlyFactors) {
  const idx m = 4096, n = 64;
  for (const auto algo : {QrAlgorithm::Caqr, QrAlgorithm::Hybrid,
                          QrAlgorithm::CholeskyQr2, QrAlgorithm::CholeskyQr3}) {
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    const auto a = Matrix<float>::shape_only(m, n);
    const auto res = adaptive_qr(dev, a.view(), algo);
    EXPECT_EQ(res.used, algo);
    EXPECT_EQ(res.q.rows(), m);
    EXPECT_EQ(res.q.cols(), n);
    EXPECT_EQ(res.r.rows(), n);
    EXPECT_EQ(res.r.cols(), n);
    EXPECT_EQ(res.q.data(), nullptr);
    EXPECT_EQ(res.r.data(), nullptr);
    EXPECT_GT(res.simulated_seconds, 0.0);
    EXPECT_EQ(res.simulated_seconds, dev.elapsed_seconds());
  }
}

// A ModelOnly run charges exactly the timeline of the Functional run it
// stands in for, including Auto's resolution.
TEST(AdaptiveQr, ModelOnlyTimelineMatchesFunctional) {
  const idx m = 1024, n = 48;
  const auto a = gaussian_matrix<float>(m, n, 31);
  for (const auto algo : {QrAlgorithm::Auto, QrAlgorithm::Caqr,
                          QrAlgorithm::Hybrid, QrAlgorithm::CholeskyQr2}) {
    Device fdev(GpuMachineModel::c2050(), ExecMode::Functional);
    Device mdev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    const auto f = adaptive_qr(fdev, a.view(), algo);
    const auto p = Matrix<float>::shape_only(m, n);
    const auto mo = adaptive_qr(mdev, p.view(), algo);
    EXPECT_EQ(mo.used, f.used);
    EXPECT_EQ(mo.simulated_seconds, f.simulated_seconds);
    EXPECT_EQ(mdev.elapsed_seconds(), fdev.elapsed_seconds());
  }
}

// ModelOnly serves large shapes without their data: the placeholder input
// is not copied and neither factor is allocated.
TEST(AdaptiveQr, ModelOnlyRunsOnLargePlaceholder) {
  const idx m = idx{1} << 20, n = 128;  // 512 MiB of floats if materialized
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  const auto a = Matrix<float>::shape_only(m, n);
  const auto res = adaptive_qr(dev, a.view());
  EXPECT_EQ(res.used, QrAlgorithm::Caqr);
  EXPECT_EQ(res.q.rows(), m);
  EXPECT_EQ(res.q.data(), nullptr);
  EXPECT_EQ(res.r.data(), nullptr);
  EXPECT_GT(res.simulated_seconds, 0.0);
}

TEST(RefinedLeastSquares, ReachesNearDoublePrecisionFromFloatFactor) {
  const idx m = 1500, n = 24;
  auto a = gaussian_matrix<double>(m, n, 55);
  auto xt = gaussian_matrix<double>(n, 1, 56);
  auto b = Matrix<double>::zeros(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), xt.view(), 0.0, b.view());

  Device dev;
  auto refined = least_squares_solve_refined(dev, a.view(), b.view());
  double err = 0;
  for (idx i = 0; i < n; ++i) {
    err = std::max(err, std::fabs(refined.x(i, 0) - xt(i, 0)));
  }
  // A single float solve gives ~1e-4; refinement must push well below that.
  EXPECT_LT(err, 1e-9);
  EXPECT_GE(refined.refinement_steps, 1);
  EXPECT_LT(refined.final_residual_norm, 1e-9);
}

TEST(RefinedLeastSquares, RefinementImprovesOnSingleFloatSolve) {
  const idx m = 1000, n = 16;
  auto a = gaussian_matrix<double>(m, n, 57);
  auto xt = gaussian_matrix<double>(n, 1, 58);
  auto b = Matrix<double>::zeros(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), xt.view(), 0.0, b.view());

  Device dev;
  auto refined = least_squares_solve_refined(dev, a.view(), b.view(), 0);
  auto refined5 = least_squares_solve_refined(dev, a.view(), b.view(), 5);
  double err0 = 0, err5 = 0;
  for (idx i = 0; i < n; ++i) {
    err0 = std::max(err0, std::fabs(refined.x(i, 0) - xt(i, 0)));
    err5 = std::max(err5, std::fabs(refined5.x(i, 0) - xt(i, 0)));
  }
  EXPECT_LT(err5, err0 * 1e-2);
}

}  // namespace
}  // namespace caqr
