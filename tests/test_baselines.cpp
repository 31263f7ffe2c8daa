// Tests for the baseline QR implementations: numerical correctness of each
// functional path, cost-model sanity (ordering and scaling), and the
// stability contrast between Householder-based methods and
// CholeskyQR / Gram-Schmidt that motivates the paper's algorithm choice.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/qr_baselines.hpp"
#include "caqr/caqr.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"

namespace caqr {
namespace {

using baselines::BaselineResult;
using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

template <typename T>
void expect_valid_qr(ConstMatrixView<T> a, const BaselineResult<T>& res,
                     double tol) {
  auto r = extract_r(res.factored.view());
  auto q = form_q(res.factored.view(), res.tau.data(),
                  std::min(a.rows(), a.cols()));
  EXPECT_LT(orthogonality_error(q.view()), tol);
  EXPECT_LT(factorization_residual(a, q.view(), r.view()), tol);
}

TEST(HybridQr, FunctionalFactorizationIsCorrect) {
  auto a = gaussian_matrix<double>(500, 96, 7);
  Device dev;
  auto res = baselines::hybrid_qr(dev, a.clone());
  expect_valid_qr<double>(a.view(), res, 1e-12);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.cpu_seconds, 0.0);
  EXPECT_GT(res.pcie_seconds, 0.0);
}

// The no-look-ahead schedule serializes every panel's transfer, CPU
// factorization and GPU update, so its makespan is exactly the sum of the
// reported components; the look-ahead makespan must never exceed it.
double serial_seconds(const BaselineResult<float>& r) {
  return r.cpu_seconds + r.pcie_seconds + r.gpu_seconds;
}

TEST(HybridQr, LookaheadNeverSlower) {
  for (const idx n : {192, 2048}) {
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    auto r = baselines::hybrid_qr(dev, Matrix<float>(8192, n));
    EXPECT_LE(r.seconds, serial_seconds(r) * 1.0001) << "n=" << n;
  }
}

TEST(HybridQr, LookaheadHelpsWideNotSkinny) {
  auto ratio_for = [](idx n) {
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    auto r = baselines::hybrid_qr(dev, Matrix<float>(8192, n));
    return serial_seconds(r) / r.seconds;
  };
  // Skinny: nothing to overlap (one or two panels). Wide: overlap wins.
  EXPECT_NEAR(ratio_for(192), 1.0, 0.05);
  EXPECT_GT(ratio_for(8192), 1.1);
}

TEST(GpuBlas2Qr, FunctionalFactorizationIsCorrect) {
  auto a = gaussian_matrix<double>(400, 48, 8);
  Device dev;
  auto res = baselines::gpu_blas2_qr(dev, a.clone(),
                                     baselines::GpuBlas2QrOptions::tuned());
  expect_valid_qr<double>(a.view(), res, 1e-12);
}

TEST(GpuBlas2Qr, TimeScalesWithMatrixHeight) {
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto r1 = baselines::gpu_blas2_qr(dev, Matrix<float>(10000, 100));
  auto r2 = baselines::gpu_blas2_qr(dev, Matrix<float>(100000, 100));
  EXPECT_GT(r2.seconds, 5.0 * r1.seconds);
  EXPECT_LT(r2.seconds, 15.0 * r1.seconds);
}

TEST(GpuBlockedQr, FunctionalFactorizationIsCorrect) {
  auto a = gaussian_matrix<double>(300, 80, 9);
  Device dev;
  auto res = baselines::gpu_blocked_qr(dev, a.clone());
  expect_valid_qr<double>(a.view(), res, 1e-12);
}

TEST(CpuBlockedQr, FunctionalFactorizationIsCorrect) {
  auto a = gaussian_matrix<double>(300, 64, 10);
  Device dev;
  auto res = baselines::cpu_blocked_qr(dev, a.clone(),
                                       gpusim::CpuMachineModel::nehalem_8core());
  expect_valid_qr<double>(a.view(), res, 1e-12);
}

TEST(Baselines, AllProduceSameRUpToSigns) {
  auto a = gaussian_matrix<double>(256, 64, 11);
  Device dev;
  auto hybrid = baselines::hybrid_qr(dev, a.clone());
  auto blas2 = baselines::gpu_blas2_qr(dev, a.clone());
  auto cpu = baselines::cpu_blocked_qr(dev, a.clone(),
                                       gpusim::CpuMachineModel::nehalem_8core());
  auto fcaqr = caqr_factor(dev, a.view());

  auto r0 = extract_r(hybrid.factored.view());
  for (const auto& r : {extract_r(blas2.factored.view()),
                        extract_r(cpu.factored.view()), fcaqr.r()}) {
    EXPECT_LT(r_factor_difference(r0.view(), r.view()), 1e-10);
  }
}

// The paper's core performance claim, as a property: for tall-skinny
// matrices CAQR beats every baseline on the simulated platform; for large
// square matrices the GEMM-rich libraries win (crossover, Figure 9).
TEST(Baselines, CaqrWinsTallSkinnyLosesSquare) {
  auto time_caqr = [](idx m, idx n) {
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    auto f = caqr_factor(dev, Matrix<float>(m, n).view());
    (void)f;
    return dev.elapsed_seconds();
  };
  auto time_magma = [](idx m, idx n) {
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    return baselines::hybrid_qr(dev, Matrix<float>(m, n)).seconds;
  };
  // Tall-skinny: 100k x 192.
  EXPECT_LT(time_caqr(100000, 192), 0.5 * time_magma(100000, 192));
  // Square 8192: MAGMA-like wins.
  EXPECT_GT(time_caqr(8192, 8192), time_magma(8192, 8192));
}

TEST(CholeskyQr, AccurateForWellConditioned) {
  auto a = matrix_with_condition<double>(200, 20, 10.0, 12);
  auto qr = baselines::cholesky_qr(a.view());
  ASSERT_TRUE(qr.ok);
  EXPECT_LT(orthogonality_error(qr.q.view()), 1e-13);
  EXPECT_LT(factorization_residual(a.view(), qr.q.view(), qr.r.view()), 1e-13);
}

TEST(CholeskyQr, LosesOrthogonalityForIllConditioned) {
  // cond^2 amplification: at cond 1e5 in double, Q^T Q - I ~ 1e-6, while
  // Householder stays at ~1e-15. This is §II's stability argument.
  auto a = matrix_with_condition<double>(400, 24, 1e5, 13);
  auto chol = baselines::cholesky_qr(a.view());
  ASSERT_TRUE(chol.ok);
  const double chol_err = orthogonality_error(chol.q.view());

  Device dev;
  auto f = caqr_factor(dev, a.view());
  auto q = f.form_q(dev, 24);
  const double caqr_err = orthogonality_error(q.view());

  EXPECT_GT(chol_err, 1e3 * caqr_err);
  EXPECT_LT(caqr_err, 1e-12);
}

TEST(CholeskyQr, BreaksDownWhenGramMatrixIndefinite) {
  // cond ~ 1e9 in double squares to 1e18 > 1/eps: Cholesky can fail or be
  // catastrophically inaccurate. Accept either breakdown or bad Q.
  auto a = matrix_with_condition<double>(300, 16, 1e9, 14);
  auto chol = baselines::cholesky_qr(a.view());
  if (chol.ok) {
    EXPECT_GT(orthogonality_error(chol.q.view()), 1e-4);
  } else {
    SUCCEED();
  }
}

TEST(GramSchmidt, ModifiedBeatsClassicalOnIllConditioned) {
  auto a = matrix_with_condition<double>(300, 24, 1e7, 15);
  auto cgs = baselines::gram_schmidt_qr(a.view(), baselines::GramSchmidt::Classical);
  auto mgs = baselines::gram_schmidt_qr(a.view(), baselines::GramSchmidt::Modified);
  const double cgs_err = orthogonality_error(cgs.q.view());
  const double mgs_err = orthogonality_error(mgs.q.view());
  EXPECT_LT(mgs_err, cgs_err * 0.1);
  // Both still factor A correctly (residual is fine; orthogonality is not).
  EXPECT_LT(factorization_residual(a.view(), cgs.q.view(), cgs.r.view()), 1e-10);
  EXPECT_LT(factorization_residual(a.view(), mgs.q.view(), mgs.r.view()), 1e-10);
}

TEST(GramSchmidt, BothAccurateOnWellConditioned) {
  auto a = gaussian_matrix<double>(100, 12, 16);
  for (const auto kind :
       {baselines::GramSchmidt::Classical, baselines::GramSchmidt::Modified}) {
    auto qr = baselines::gram_schmidt_qr(a.view(), kind);
    EXPECT_LT(orthogonality_error(qr.q.view()), 1e-12);
    EXPECT_LT(factorization_residual(a.view(), qr.q.view(), qr.r.view()),
              1e-13);
  }
}

TEST(PanelWork, ClosedFormMatchesLoopStructure) {
  // blas2_panel_work(4, 2): j=0: len 4, cols 2 -> 32 flops, 96 bytes;
  // j=1: len 3, cols 1 -> 12 flops, 36 bytes.
  const auto w = baselines::blas2_panel_work(4, 2);
  EXPECT_DOUBLE_EQ(w.flops, 44.0);
  EXPECT_DOUBLE_EQ(w.bytes, 132.0);
  EXPECT_EQ(w.columns, 2);
  // Degenerate: single row -> len 1 on the first column, no work.
  const auto w1 = baselines::blas2_panel_work(1, 1);
  EXPECT_EQ(w1.columns, 0);
  EXPECT_DOUBLE_EQ(w1.flops, 0.0);
}

}  // namespace
}  // namespace caqr
