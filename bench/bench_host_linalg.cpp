// Wall-clock microbenchmarks of the host linear-algebra substrate
// (google-benchmark). These measure the *functional* execution engine —
// the real arithmetic behind ExecMode::Functional — not the simulated GPU:
// they exist to keep the simulator's functional path fast enough for
// paper-scale validation runs and to catch performance regressions in the
// reference kernels every other module builds on.

#include <benchmark/benchmark.h>

#include <vector>

#include "kernels/block_ops.hpp"
#include "linalg/blas3.hpp"
#include "linalg/flops.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"

namespace {

using namespace caqr;

void BM_GemmSquare(benchmark::State& state) {
  const idx n = state.range(0);
  auto a = gaussian_matrix<float>(n, n, 1);
  auto b = gaussian_matrix<float>(n, n, 2);
  auto c = Matrix<float>::zeros(n, n);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTallSkinnyUpdate(benchmark::State& state) {
  // The larfb-shaped update: (m x k)^T * (m x n).
  const idx m = state.range(0), k = 16, n = 16;
  auto a = gaussian_matrix<float>(m, k, 3);
  auto b = gaussian_matrix<float>(m, n, 4);
  auto c = Matrix<float>::zeros(k, n);
  for (auto _ : state) {
    gemm(Trans::Yes, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * m * k * n));
}
BENCHMARK(BM_GemmTallSkinnyUpdate)->Arg(4096)->Arg(65536);

void BM_BlockGeqr2(benchmark::State& state) {
  // The factor kernel's numerical core on the paper's block shape.
  const idx h = state.range(0), w = 16;
  auto a0 = gaussian_matrix<float>(h, w, 5);
  Matrix<float> a(h, w);
  std::vector<float> tau(static_cast<std::size_t>(w));
  for (auto _ : state) {
    a.view().copy_from(a0.view());
    kernels::block_geqr2(a.view(), tau.data());
    benchmark::DoNotOptimize(tau.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::block_geqr2_flops(h, w)));
}
BENCHMARK(BM_BlockGeqr2)->Arg(64)->Arg(128)->Arg(256);

void BM_BlockApplyQt(benchmark::State& state) {
  const idx h = state.range(0), w = 16;
  auto f = gaussian_matrix<float>(h, w, 6);
  std::vector<float> tau(static_cast<std::size_t>(w));
  kernels::block_geqr2(f.view(), tau.data());
  auto c0 = gaussian_matrix<float>(h, w, 7);
  Matrix<float> c(h, w);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    kernels::block_apply_qt(f.as_const(), tau.data(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::block_apply_qt_flops(h, w, w)));
}
BENCHMARK(BM_BlockApplyQt)->Arg(64)->Arg(128)->Arg(256);

void BM_ReferenceGeqrf(benchmark::State& state) {
  const idx m = state.range(0), n = 64;
  auto a0 = gaussian_matrix<double>(m, n, 8);
  Matrix<double> a(m, n);
  std::vector<double> tau(static_cast<std::size_t>(n));
  for (auto _ : state) {
    a.view().copy_from(a0.view());
    geqrf(a.view(), tau.data());
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(geqrf_flop_count(m, n)));
}
BENCHMARK(BM_ReferenceGeqrf)->Arg(1024)->Arg(8192);

void BM_JacobiSvdSmall(benchmark::State& state) {
  // The R-factor SVD inside the application pipeline.
  const idx n = state.range(0);
  auto a = gaussian_matrix<double>(n, n, 9);
  for (auto _ : state) {
    auto f = jacobi_svd(a.view());
    benchmark::DoNotOptimize(f.sigma.data());
  }
}
BENCHMARK(BM_JacobiSvdSmall)->Arg(32)->Arg(100);

void BM_StackedGeqr2(benchmark::State& state) {
  // The factor_tree kernel core: a quad-tree combine of 16-wide triangles.
  const idx w = 16, k = state.range(0);
  auto stack0 = Matrix<float>::zeros(k * w, w);
  Rng rng(10);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) {
        stack0(b * w + i, j) = static_cast<float>(rng.uniform(-1, 1));
      }
    }
  }
  Matrix<float> s(k * w, w);
  std::vector<float> tau(static_cast<std::size_t>(w));
  std::vector<float> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  for (auto _ : state) {
    s.view().copy_from(stack0.view());
    kernels::stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::stacked_geqr2_flops(w, k)));
}
BENCHMARK(BM_StackedGeqr2)->Arg(2)->Arg(4)->Arg(8);

void BM_StackedApplyQt(benchmark::State& state) {
  // The apply_qt_tree kernel core: a k-stack of 16-wide triangles applied
  // to one 16-column trailing tile.
  const idx w = 16, k = state.range(0), nc = 16;
  auto stack = Matrix<float>::zeros(k * w, w);
  Rng rng(11);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) {
        stack(b * w + i, j) = static_cast<float>(rng.uniform(-1, 1));
      }
    }
  }
  std::vector<float> tau(static_cast<std::size_t>(w));
  std::vector<float> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  kernels::stacked_geqr2(stack.view(), w, k, tau.data(), scratch.data());
  auto c0 = gaussian_matrix<float>(k * w, nc, 12);
  Matrix<float> c(k * w, nc);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    kernels::stacked_apply_qt(stack.as_const(), w, k, tau.data(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::stacked_apply_qt_flops(w, k, nc)));
}
BENCHMARK(BM_StackedApplyQt)->Arg(2)->Arg(4)->Arg(8);

// CholeskyQR2's two host kernels at the qr_functional request shape: the
// Gram matrix (syrk_t, m n^2 useful flops counting the upper triangle once
// per entry pair) and the right-side triangular solve (m n^2 flops).
void BM_SyrkT(benchmark::State& state) {
  const idx m = state.range(0), n = state.range(1);
  auto a = gaussian_matrix<float>(m, n, 13);
  auto c = Matrix<float>::zeros(n, n);
  for (auto _ : state) {
    syrk_t(1.0f, a.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n * (n + 1)));
}
BENCHMARK(BM_SyrkT)->Args({16384, 128})->Unit(benchmark::kMillisecond);

void BM_TrsmRightUpper(benchmark::State& state) {
  const idx m = state.range(0), n = state.range(1);
  auto t = Matrix<float>::zeros(n, n);
  Rng rng(14);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) {
      t(i, j) = static_cast<float>(i == j ? rng.uniform(1, 2) : rng.uniform(-0.1, 0.1));
    }
  }
  auto b0 = gaussian_matrix<float>(m, n, 15);
  Matrix<float> b(m, n);
  for (auto _ : state) {
    b.view().copy_from(b0.view());
    trsm(Side::Right, UpLo::Upper, Trans::No, t.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n * n));
}
BENCHMARK(BM_TrsmRightUpper)->Args({16384, 128})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
