#pragma once

// The comparison QR implementations of §V, rebuilt per DESIGN.md:
//
//   * HybridQR    (MAGMA-like)  — panel factored on the host CPU (BLAS2,
//     bandwidth-bound), PCIe transfer each way, trailing update as GPU GEMM,
//     look-ahead overlap of the next panel with the current update.
//   * GpuBlas2QR  (CULA-like / "BLAS2 QR" of Table II) — the entire
//     factorization on the GPU using bandwidth-bound matrix-vector kernels;
//     a `tuned` profile models the paper's own tall-skinny-tuned BLAS2 QR
//     (fused kernels, high achieved bandwidth), the `cula` profile models a
//     generic library (per-column kernel pairs at low achieved bandwidth).
//   * CpuBlockedQR (MKL-like)   — multithreaded blocked Householder on the
//     host: BLAS2 panel at memory bandwidth, BLAS3 update at the CPU GEMM
//     rate.
//   * cholesky_qr / gram_schmidt — the numerically cheaper but unstable
//     alternatives §II dismisses; used by the stability comparisons.
//
// Numerics: in ExecMode::Functional each baseline really factors the matrix
// with the host reference routines (so every invariant test applies to them
// too); in ModelOnly only the simulated timeline advances. Timing: every
// baseline charges the same Device timeline used by CAQR, with its own cost
// model documented inline. Calibration targets are the paper's Table I and
// Figures 8/9; constants are frozen in the option structs.

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/gemm_model.hpp"
#include "gpusim/device.hpp"
#include "linalg/blas3.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/flops.hpp"
#include "linalg/qr.hpp"

namespace caqr::baselines {

// BLAS2 panel-factorization statistics for a panel of `rows` x `nb` columns:
// flops and bytes of the gemv + ger pair per column (the ger pass reads and
// writes the trailing panel; the gemv pass reads it).
struct PanelWork {
  double flops = 0;
  double bytes = 0;  // per scalar-size 4 (single precision)
  idx columns = 0;
};

inline PanelWork blas2_panel_work(idx rows, idx nb) {
  PanelWork w;
  for (idx j = 0; j < nb; ++j) {
    const double len = static_cast<double>(rows - j);
    const double cols = static_cast<double>(nb - j);
    if (len <= 1) break;
    w.flops += 4.0 * len * cols;       // matvec + rank-1 on the trailing panel
    w.bytes += 3.0 * len * cols * 4.0; // read (gemv), read+write (ger)
    ++w.columns;
  }
  return w;
}

// ---------------------------------------------------------------------------
// MAGMA-like hybrid QR.
// ---------------------------------------------------------------------------

template <typename T>
struct BaselineResult {
  Matrix<T> factored;   // GEQRF-format reflectors + R
  std::vector<T> tau;
  double seconds = 0;   // simulated time of this factorization
  // Hybrid breakdown (zero for single-device baselines).
  double cpu_seconds = 0;
  double pcie_seconds = 0;
  double gpu_seconds = 0;
};

template <typename T>
BaselineResult<T> hybrid_qr(gpusim::Device& dev, Matrix<T> a) {
  // MAGMA v1.0 default panel width.
  constexpr idx kNb = 128;
  // Effective host bandwidth for the multithreaded BLAS2 panel. The panel
  // work is charged as 3 passes (gemv read, ger read+write); partial cache
  // reuse between passes is folded into this effective rate.
  constexpr double kCpuPanelBwGbs = 24.0;
  const idx m = a.rows(), n = a.cols();
  const idx kmax = std::min(m, n);
  BaselineResult<T> out{std::move(a),
                        std::vector<T>(static_cast<std::size_t>(kmax)), 0};

  const double t0 = dev.elapsed_seconds();
  const gpusim::PcieModel link;

  // Schedule simulation: cpu_free / gpu_free are stream clocks.
  double cpu_free = 0, gpu_free = 0, pcie_total = 0, cpu_total = 0;
  double gpu_total = 0;
  double now = 0;
  gpusim::Device gemm_probe(dev.model(), gpusim::ExecMode::ModelOnly);

  for (idx k = 0; k < kmax; k += kNb) {
    const idx nb = std::min(kNb, kmax - k);
    const idx rows = m - k;
    // Panel to host, factor, back to device.
    const double panel_bytes = static_cast<double>(rows) * nb * sizeof(T);
    const PanelWork pw = blas2_panel_work(rows, nb);
    const double t_transfer = 2.0 * link.transfer_seconds(panel_bytes);
    const double t_panel = pw.bytes / (kCpuPanelBwGbs * 1e9);

    // Look-ahead: the CPU leg starts as soon as the panel's column block is
    // up-to-date on the GPU side, overlapping the factorization of panel
    // p+1 with the rest of panel p's trailing update. Only effective when
    // that update is wide enough to hide the panel (never for tall-skinny
    // shapes).
    const double cpu_start = std::max(cpu_free, now);
    const double cpu_done = cpu_start + t_transfer + t_panel;
    cpu_total += t_panel;
    pcie_total += t_transfer;
    cpu_free = cpu_done;

    // GPU trailing update waits for the factored panel.
    const idx trailing = n - k - nb;
    double t_update = 0;
    if (trailing > 0) {
      gemm_probe.reset_timeline();
      // Compact-WY update: W = V^T C (nb x trailing), W = T W, C -= V W.
      charge_gemm(gemm_probe, nb, trailing, rows, "probe");
      charge_gemm(gemm_probe, nb, trailing, nb, "probe");
      charge_gemm(gemm_probe, rows, trailing, nb, "probe");
      t_update = gemm_probe.elapsed_seconds();
    }
    const double gpu_start = std::max(gpu_free, cpu_done);
    gpu_free = gpu_start + t_update;
    gpu_total += t_update;
    now = gpu_start;
  }
  // The timeline advances by the schedule's makespan (overlap already
  // credited); the CPU/PCIe/GPU component sums are reported separately so
  // benches can show where hybrid time goes.
  const double makespan = std::max(cpu_free, gpu_free);
  dev.add_external_seconds(makespan, "hybrid_qr");
  out.cpu_seconds = cpu_total;
  out.pcie_seconds = pcie_total;
  out.gpu_seconds = gpu_total;

  if (dev.mode() == gpusim::ExecMode::Functional) {
    geqrf(out.factored.view(), out.tau.data(), kNb);
  }
  out.seconds = dev.elapsed_seconds() - t0;
  return out;
}

// ---------------------------------------------------------------------------
// Pure-GPU BLAS2 QR (bandwidth-bound): CULA-like and paper-tuned profiles.
// ---------------------------------------------------------------------------

struct GpuBlas2QrOptions {
  // Fraction of peak DRAM bandwidth the matrix-vector kernels achieve.
  double bw_fraction = 0.85;
  // Kernel launches per factored column (fused matvec+update when 1).
  double launches_per_column = 1.0;
  // Extra host-side synchronization per column (driver round trip), us.
  double column_sync_us = 0.0;
  const char* label = "gpu_blas2_qr";

  // The paper's own tall-skinny-tuned BLAS2 QR (Table II middle row):
  // fused kernels, streaming access, minimal launches.
  static GpuBlas2QrOptions tuned() { return {0.85, 1.0, 0.0, "blas2_qr_tuned"}; }
};

// Charges one bandwidth-bound Householder sweep over an m x n matrix
// (unblocked: per column a fused reflector+matvec pass and a rank-1 update
// pass). Shared by the factorization and the ORGQR-style Q formation.
inline void charge_blas2_sweep(gpusim::Device& dev, idx m, idx n,
                               const GpuBlas2QrOptions& opt) {
  const auto& mm = dev.model();
  const PanelWork pw = blas2_panel_work(m, std::min(m, n));
  const double t_mem = pw.bytes / (mm.dram_bw_gbs * 1e9 * opt.bw_fraction);
  const double t_launch = static_cast<double>(pw.columns) *
                          (opt.launches_per_column * mm.kernel_launch_us +
                           opt.column_sync_us) *
                          1e-6;
  dev.add_external_seconds(t_mem, std::string(opt.label) + ":mem");
  dev.add_external_seconds(t_launch, std::string(opt.label) + ":launch");
}

template <typename T>
BaselineResult<T> gpu_blas2_qr(gpusim::Device& dev, Matrix<T> a,
                               const GpuBlas2QrOptions& opt = {}) {
  const idx m = a.rows(), n = a.cols();
  const idx kmax = std::min(m, n);
  BaselineResult<T> out{std::move(a),
                        std::vector<T>(static_cast<std::size_t>(kmax)), 0};
  const double t0 = dev.elapsed_seconds();
  charge_blas2_sweep(dev, m, n, opt);

  if (dev.mode() == gpusim::ExecMode::Functional) {
    std::vector<T> work(static_cast<std::size_t>(std::max<idx>(n, 1)));
    geqr2(out.factored.view(), out.tau.data(), work.data());
  }
  out.seconds = dev.elapsed_seconds() - t0;
  return out;
}

// ---------------------------------------------------------------------------
// CULA-like GPU blocked Householder QR: BLAS2 panel on the GPU
// ("entirely bandwidth-bound operations", §I) + BLAS3 GEMM trailing update.
// ---------------------------------------------------------------------------

struct GpuBlockedQrOptions {
  idx nb = 64;
  // Achieved bandwidth fraction of the per-column gemv/ger kernels on a
  // moderately tall panel.
  double bw_fraction = 0.22;
  // Very tall panels degrade further (launch/occupancy effects per column
  // grow with the reduction depth); empirical penalty ramp, clamped.
  double tall_ramp_rows = 3000.0;
  double tall_penalty_max = 4.3;
  double launches_per_column = 2.0;  // gemv + ger
  double column_sync_us = 20.0;      // host round trip for the column norm
  const char* label = "cula_qr";
};

template <typename T>
BaselineResult<T> gpu_blocked_qr(gpusim::Device& dev, Matrix<T> a,
                                 const GpuBlockedQrOptions& opt = {}) {
  const idx m = a.rows(), n = a.cols();
  const idx kmax = std::min(m, n);
  BaselineResult<T> out{std::move(a),
                        std::vector<T>(static_cast<std::size_t>(kmax)), 0};
  const double t0 = dev.elapsed_seconds();
  const auto& mm = dev.model();

  double t_panels = 0, t_launch = 0;
  for (idx k = 0; k < kmax; k += opt.nb) {
    const idx nb = std::min(opt.nb, kmax - k);
    const idx rows = m - k;
    const PanelWork pw = blas2_panel_work(rows, nb);
    const double pen = std::clamp(static_cast<double>(rows) / opt.tall_ramp_rows,
                                  1.0, opt.tall_penalty_max);
    t_panels += pw.bytes * pen / (mm.dram_bw_gbs * 1e9 * opt.bw_fraction);
    t_launch += static_cast<double>(pw.columns) *
                (opt.launches_per_column * mm.kernel_launch_us +
                 opt.column_sync_us) *
                1e-6;
    const idx trailing = n - k - nb;
    if (trailing > 0) {
      charge_gemm(dev, nb, trailing, rows, "cula_gemm");
      charge_gemm(dev, nb, trailing, nb, "cula_gemm");
      charge_gemm(dev, rows, trailing, nb, "cula_gemm");
    }
  }
  dev.add_external_seconds(t_panels, std::string(opt.label) + ":panel");
  dev.add_external_seconds(t_launch, std::string(opt.label) + ":launch");

  if (dev.mode() == gpusim::ExecMode::Functional) {
    geqrf(out.factored.view(), out.tau.data(), opt.nb);
  }
  out.seconds = dev.elapsed_seconds() - t0;
  return out;
}

// ---------------------------------------------------------------------------
// MKL-like multithreaded CPU blocked QR.
// ---------------------------------------------------------------------------

struct CpuQrOptions {
  idx nb = 64;
  // Achieved bandwidth of the threaded BLAS2 panel (socket STREAM rate; the
  // panel is streamed once per column).
  double panel_bw_gbs = 18.0;
  // Fraction of the model's BLAS3 peak the trailing update achieves at
  // these narrow shapes.
  double gemm_fraction = 0.75;
  // Fork-join cost of each threaded panel column (dominates tiny matrices —
  // the paper's 1k x 192 MKL point).
  double column_overhead_us = 90.0;
  const char* label = "cpu_qr";
};

template <typename T>
BaselineResult<T> cpu_blocked_qr(gpusim::Device& dev, Matrix<T> a,
                                 const gpusim::CpuMachineModel& cpu,
                                 const CpuQrOptions& opt = {}) {
  const idx m = a.rows(), n = a.cols();
  const idx kmax = std::min(m, n);
  BaselineResult<T> out{std::move(a),
                        std::vector<T>(static_cast<std::size_t>(kmax)), 0};
  const double t0 = dev.elapsed_seconds();

  double panel_bytes = 0, panel_cols = 0, blas3_flops = 0;
  for (idx k = 0; k < kmax; k += opt.nb) {
    const idx nb = std::min(opt.nb, kmax - k);
    const PanelWork pw = blas2_panel_work(m - k, nb);
    panel_bytes += pw.bytes;
    panel_cols += static_cast<double>(pw.columns);
    const idx trailing = n - k - nb;
    if (trailing > 0) {
      // larfb: V^T C, T W, C -= V W.
      blas3_flops += gemm_flop_count(nb, trailing, m - k) +
                     gemm_flop_count(nb, trailing, nb) +
                     gemm_flop_count(m - k, trailing, nb);
    }
  }
  const double t_panel = panel_bytes / (opt.panel_bw_gbs * 1e9) +
                         panel_cols * opt.column_overhead_us * 1e-6;
  (void)cpu.parallel_overhead_us;
  const double t_blas3 =
      blas3_flops / (cpu.peak_blas3_flops() * opt.gemm_fraction);
  dev.add_external_seconds(t_panel, std::string(opt.label) + ":panel");
  dev.add_external_seconds(t_blas3, std::string(opt.label) + ":blas3");

  if (dev.mode() == gpusim::ExecMode::Functional) {
    geqrf(out.factored.view(), out.tau.data(), opt.nb);
  }
  out.seconds = dev.elapsed_seconds() - t0;
  return out;
}

// ---------------------------------------------------------------------------
// CholeskyQR and Gram-Schmidt (numerics-focused baselines).
// ---------------------------------------------------------------------------

template <typename T>
struct QrPair {
  Matrix<T> q;
  Matrix<T> r;
  bool ok = true;  // false if Cholesky broke down
};

// Q = A R^-1 with R^T R = A^T A. One pass over A for the Gram matrix, one
// for the solve — the communication-cheapest QR, but the Gram matrix squares
// the condition number.
template <typename VA>
QrPair<view_scalar_t<VA>> cholesky_qr(const VA& a_in) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const idx n = a.cols();
  QrPair<T> out{Matrix<T>::from(a), Matrix<T>::zeros(n, n), true};
  syrk_t(T(1), a, T(0), out.r.view());
  out.ok = potrf_upper(out.r.view());
  if (out.ok) {
    // Q = A R^-1  (solve X R = A row-block-wise).
    trsm(Side::Right, UpLo::Upper, Trans::No, out.r.view(), out.q.view());
  }
  return out;
}

enum class GramSchmidt { Classical, Modified };

template <typename VA>
QrPair<view_scalar_t<VA>> gram_schmidt_qr(const VA& a_in, GramSchmidt kind) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const idx m = a.rows(), n = a.cols();
  QrPair<T> out{Matrix<T>::from(a), Matrix<T>::zeros(n, n), true};
  MatrixView<T> q = out.q.view();
  for (idx j = 0; j < n; ++j) {
    T* qj = q.col(j);
    if (kind == GramSchmidt::Classical) {
      // Project against the ORIGINAL column (classical: all coefficients
      // computed from the unmodified column — the unstable variant).
      std::vector<T> coef(static_cast<std::size_t>(j));
      for (idx i = 0; i < j; ++i) {
        coef[static_cast<std::size_t>(i)] = dot(m, q.col(i), a.col(j));
      }
      for (idx i = 0; i < j; ++i) {
        out.r(i, j) = coef[static_cast<std::size_t>(i)];
        axpy(m, -coef[static_cast<std::size_t>(i)], q.col(i), qj);
      }
    } else {
      for (idx i = 0; i < j; ++i) {
        const T c = dot(m, q.col(i), qj);
        out.r(i, j) = c;
        axpy(m, -c, q.col(i), qj);
      }
    }
    const T norm = nrm2(m, qj);
    out.r(j, j) = norm;
    if (norm > T(0)) scal(m, T(1) / norm, qj);
  }
  return out;
}

}  // namespace caqr::baselines
