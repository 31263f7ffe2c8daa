#pragma once

// Same-shape batch QR for the serving layer. factor_batch() runs CAQR's
// Serial panel loop ONCE over k same-shape problems
// (CaqrFactorization::factor_batch, then form_q_batch for Q); every launch
// of that loop spans all k problems as one FusedKernel (kernels/fused.hpp),
// so the per-launch overhead is paid once, not k times. A k = 1 batch is a
// solo Serial run, ops named "factor", not "factor_batch". Every problem's
// Q and R are bit-identical to a solo adaptive_qr run with the same
// options (tests/test_serve).
//
// Thread safety: a plain function of (device, inputs) with no shared state;
// concurrent calls must target distinct devices (the repo-wide launch rule).

#include <algorithm>
#include <utility>
#include <vector>

#include "caqr/solver.hpp"
#include "gpusim/device.hpp"

namespace caqr::serve {

// Result of one fused batch: per-problem (Q, R) plus the batch timings.
template <typename T>
struct BatchQrResult {
  std::vector<QrSolveResult<T>> problems;  // bit-identical to solo runs
  QrAlgorithm used = QrAlgorithm::Caqr;
  double simulated_seconds = 0;  // whole fused batch, all k problems
  idx fused_launches = 0;        // timeline ops issued (vs k x unfused)
};

// Factors k same-shape problems with one fused CAQR schedule and returns
// per-problem explicit (Q, R), exactly what adaptive_qr returns for each
// problem alone. `algo` must be resolved (not Auto) by the caller — the
// serving layer resolves it through the PlanCache; QrAlgorithm::Hybrid
// batches degrade to a per-problem loop (the hybrid baseline models a
// library call and has no fusable launch structure).
//
// Functional mode consumes the problems' data; ModelOnly accepts
// Matrix::shape_only placeholders and only advances the timeline. All
// launches go to the synchronous legacy stream (the Serial schedule): the
// fused grid already exposes the cross-problem parallelism, so look-ahead
// has nothing left to overlap. checkpoint_path and halt_after_panels are
// ignored: a batch runs to the end and writes no snapshot.
template <typename T>
BatchQrResult<T> factor_batch(gpusim::Device& dev,
                              std::vector<Matrix<T>> problems,
                              QrAlgorithm algo = QrAlgorithm::Caqr,
                              const CaqrOptions& opt = {},
                              bool want_q = true) {
  CAQR_CHECK(!problems.empty());
  CAQR_CHECK(algo != QrAlgorithm::Auto);
  const idx m = problems.front().rows();
  const idx n = problems.front().cols();
  for (const auto& a : problems) {
    CAQR_CHECK_MSG(a.rows() == m && a.cols() == n,
                   "factor_batch requires same-shape problems");
  }
  const idx k = std::min(m, n);
  const bool functional = dev.mode() == gpusim::ExecMode::Functional;

  BatchQrResult<T> out;
  out.used = algo;
  const double t0 = dev.elapsed_seconds();

  if (algo != QrAlgorithm::Caqr || k == 0) {
    // Hybrid models a library call and CholeskyQR is already three BLAS3
    // launches per pass — neither has a fusable CAQR launch structure, so
    // they degrade to a per-problem loop.
    // Empty problems (k == 0) route through the Householder paths, which
    // handle degenerate shapes; CholeskyQR asserts tall non-empty inputs.
    const QrAlgorithm per_problem =
        k == 0 && is_cholqr(algo) ? QrAlgorithm::Caqr : algo;
    for (auto& a : problems) {
      out.problems.push_back(adaptive_qr(dev, a.as_const(), per_problem, opt));
    }
    out.simulated_seconds = dev.elapsed_seconds() - t0;
    return out;
  }

  // Every launch resolves to one trace event.
  const std::size_t events0 = dev.trace().size();
  const auto fs =
      CaqrFactorization<T>::factor_batch(dev, std::move(problems), opt);
  out.problems.resize(fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    auto& p = out.problems[i];
    p.used = QrAlgorithm::Caqr;
    p.r = functional ? fs[i].r() : Matrix<T>::shape_only(k, n);
    p.run_status = fs[i].status();
    p.severity = p.run_status.severity;
  }
  if (want_q) {
    auto qs = CaqrFactorization<T>::form_q_batch(dev, fs, k);
    for (std::size_t i = 0; i < fs.size(); ++i) {
      out.problems[i].q = std::move(qs[i]);
    }
  }
  out.fused_launches = static_cast<idx>(dev.trace().size() - events0);

  out.simulated_seconds = dev.elapsed_seconds() - t0;
  for (auto& p : out.problems) {
    p.simulated_seconds =
        out.simulated_seconds / static_cast<double>(out.problems.size());
  }
  return out;
}

}  // namespace caqr::serve
