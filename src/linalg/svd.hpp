#pragma once

// One-sided Jacobi SVD for small dense matrices (m >= n).
//
// This is the "small SVD of R" in the paper's tall-skinny SVD pipeline
// (A = QR, R = U Σ V^T, left vectors = Q U). One-sided Jacobi orthogonalizes
// the columns of a working copy W (initially A) by plane rotations while
// accumulating them into V; on convergence the column norms are the singular
// values and the normalized columns are U. Accurate to high relative
// precision for the well-scaled R factors this library produces.

#include <cmath>
#include <limits>
#include <vector>

#include "linalg/blas1.hpp"
#include "linalg/matrix.hpp"
#include "numerics/finite_check.hpp"

namespace caqr {

template <typename T>
struct SvdResult {
  Matrix<T> u;              // m x n, orthonormal columns
  std::vector<T> sigma;     // n, descending
  Matrix<T> v;              // n x n, orthogonal
  int sweeps = 0;           // Jacobi sweeps until convergence
  bool converged = false;
};

// Computes the thin SVD of a (m x n, m >= n) by one-sided Jacobi.
template <typename VA>
SvdResult<view_scalar_t<VA>> jacobi_svd(const VA& a_in, int max_sweeps = 60) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const idx m = a.rows(), n = a.cols();
  CAQR_CHECK(m >= n);

  CAQR_GUARD_FINITE(a, "jacobi_svd:input");
  SvdResult<T> out{Matrix<T>::from(a), std::vector<T>(static_cast<std::size_t>(n)),
                   Matrix<T>::identity(n, n), 0, false};
  MatrixView<T> w = out.u.view();
  MatrixView<T> v = out.v.view();

  // Equilibrate extreme inputs to a safe range: the rotations work on
  // squared column norms, which overflow/underflow for max|A| outside
  // roughly [2^-256, 2^256] even when A itself is representable. Scaling by
  // an exact power of two keeps every rotation bit-identical and scales the
  // singular values exactly; well-scaled inputs are untouched.
  T inv_scale = T(1);
  {
    double s = 0.0;
    for (idx j = 0; j < n; ++j) {
      const T* col = w.col(j);
      for (idx i = 0; i < m; ++i) {
        const double ax = std::abs(static_cast<double>(col[i]));
        if (ax > s) s = ax;
      }
    }
    const int e = s > 0.0 ? std::ilogb(s) : 0;
    if (e > 256 || e < -256) {
      const T f = static_cast<T>(std::exp2(static_cast<double>(-e)));
      for (idx j = 0; j < n; ++j) scal(m, f, w.col(j));
      inv_scale = T(1) / f;
    }
  }

  const T eps = std::numeric_limits<T>::epsilon();
  // Convergence: all column pairs orthogonal to machine precision relative
  // to the product of their norms.
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (idx p = 0; p < n - 1; ++p) {
      for (idx q = p + 1; q < n; ++q) {
        T* wp = w.col(p);
        T* wq = w.col(q);
        const auto [apq, app, aqq] = pair_gram(m, wp, wq);
        // Threshold as a product of square roots: app * aqq overflows (or
        // underflows to 0, disabling convergence) for extreme column norms
        // even when the threshold itself is representable.
        if (std::abs(apq) <= eps * std::sqrt(app) * std::sqrt(aqq) ||
            apq == T(0)) {
          continue;
        }
        rotated = true;
        // Jacobi rotation zeroing the (p, q) Gram entry.
        const T zeta = (aqq - app) / (T(2) * apq);
        const T t = std::copysign(
            T(1) / (std::abs(zeta) + std::sqrt(T(1) + zeta * zeta)), zeta);
        const T c = T(1) / std::sqrt(T(1) + t * t);
        const T s = c * t;
        for (idx i = 0; i < m; ++i) {
          const T wi = wp[i];
          wp[i] = c * wi - s * wq[i];
          wq[i] = s * wi + c * wq[i];
        }
        T* vp = v.col(p);
        T* vq = v.col(q);
        for (idx i = 0; i < n; ++i) {
          const T vi = vp[i];
          vp[i] = c * vi - s * vq[i];
          vq[i] = s * vi + c * vq[i];
        }
      }
    }
    out.sweeps = sweep + 1;
    if (!rotated) {
      out.converged = true;
      break;
    }
  }

  // Column norms -> singular values (undoing the equilibration); normalize
  // U columns (zero-safe).
  for (idx j = 0; j < n; ++j) {
    T* wj = w.col(j);
    const T sj = nrm2(m, wj);
    out.sigma[static_cast<std::size_t>(j)] = sj * inv_scale;
    if (sj > T(0)) scal(m, T(1) / sj, wj);
  }

  // Sort descending by sigma (selection sort; n is small), permuting U and V.
  for (idx i = 0; i < n; ++i) {
    idx best = i;
    for (idx j = i + 1; j < n; ++j) {
      if (out.sigma[static_cast<std::size_t>(j)] >
          out.sigma[static_cast<std::size_t>(best)]) {
        best = j;
      }
    }
    if (best != i) {
      std::swap(out.sigma[static_cast<std::size_t>(i)],
                out.sigma[static_cast<std::size_t>(best)]);
      for (idx r = 0; r < m; ++r) std::swap(w(r, i), w(r, best));
      for (idx r = 0; r < n; ++r) std::swap(v(r, i), v(r, best));
    }
  }
  CAQR_GUARD_FINITE(out.u.view(), "jacobi_svd:u");
  CAQR_GUARD_FINITE(out.v.view(), "jacobi_svd:v");
  return out;
}

}  // namespace caqr
