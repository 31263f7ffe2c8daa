#pragma once

// Matrix-matrix (BLAS3) primitives on column-major views.
//
// gemm uses register-blocked micro-tiles with an L1-sized K loop so the
// functional simulation stays tractable on the host. These routines back the
// reference (LAPACK-style) blocked QR, the baselines' trailing updates, and
// everything downstream (SVD, RPCA); the simulated-GPU kernels have their own
// small-block implementations in src/kernels.

#include <algorithm>

#include "common/arena.hpp"
#include "linalg/blas1.hpp"
#include "linalg/matrix.hpp"

namespace caqr {

enum class Trans { No, Yes };

namespace detail {

// C(mr x nr) += A(mr x k) * B(k x nr) with A,B addressed through lambdas.
// mr/nr small compile-time tile; accumulators live in registers.
template <typename T, int MR, int NR>
void gemm_micro(idx k, T alpha, const T* a, idx lda, const T* b, idx ldb, T* c,
                idx ldc) {
  T acc[MR][NR] = {};
  for (idx p = 0; p < k; ++p) {
    const T* ap = a + p * lda;
    const T* bp = b + p;
    for (int j = 0; j < NR; ++j) {
      const T bv = bp[j * ldb];
      for (int i = 0; i < MR; ++i) acc[i][j] += ap[i] * bv;
    }
  }
  for (int j = 0; j < NR; ++j) {
    for (int i = 0; i < MR; ++i) c[i + j * ldc] += alpha * acc[i][j];
  }
}

}  // namespace detail

// C := alpha * op(A) * op(B) + beta * C
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, In<ConstMatrixView<T>> a,
          In<ConstMatrixView<T>> b, T beta, In<MatrixView<T>> c) {
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = (ta == Trans::No) ? a.cols() : a.rows();
  CAQR_CHECK((ta == Trans::No ? a.rows() : a.cols()) == m);
  CAQR_CHECK((tb == Trans::No ? b.rows() : b.cols()) == k);
  CAQR_CHECK((tb == Trans::No ? b.cols() : b.rows()) == n);

  if (beta == T(0)) {
    c.fill(T(0));
  } else if (beta != T(1)) {
    for (idx j = 0; j < n; ++j) scal(m, beta, c.col(j));
  }
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;

  // Fast path: no transposes — register-blocked micro-kernel.
  if (ta == Trans::No && tb == Trans::No) {
    constexpr int MR = 8, NR = 4;
    const idx mb = m / MR * MR;
    const idx nb = n / NR * NR;
    for (idx j = 0; j < nb; j += NR) {
      for (idx i = 0; i < mb; i += MR) {
        detail::gemm_micro<T, MR, NR>(k, alpha, a.data() + i, a.ld(),
                                      b.data() + j * b.ld(), b.ld(),
                                      c.data() + i + j * c.ld(), c.ld());
      }
      // Row remainder for this column stripe.
      for (idx i = mb; i < m; ++i) {
        for (idx jj = j; jj < j + NR; ++jj) {
          T acc = T(0);
          for (idx p = 0; p < k; ++p) acc += a(i, p) * b(p, jj);
          c(i, jj) += alpha * acc;
        }
      }
    }
    // Column remainder.
    for (idx j = nb; j < n; ++j) {
      T* cj = c.col(j);
      for (idx p = 0; p < k; ++p) {
        const T bv = alpha * b(p, j);
        const T* ap = a.col(p);
        for (idx i = 0; i < m; ++i) cj[i] += bv * ap[i];
      }
    }
    return;
  }

  // A^T * B: both operands are walked down contiguous columns (dot products).
  // This is the larfb workhorse (W := V^T C).
  if (ta == Trans::Yes && tb == Trans::No) {
    for (idx j = 0; j < n; ++j) {
      const T* bj = b.col(j);
      for (idx i = 0; i < m; ++i) {
        c(i, j) += alpha * dot(k, a.col(i), bj);
      }
    }
    return;
  }

  // A * B^T: saxpy form, contiguous column updates (C -= V W^T in larfb).
  if (ta == Trans::No && tb == Trans::Yes) {
    for (idx j = 0; j < n; ++j) {
      T* cj = c.col(j);
      for (idx p = 0; p < k; ++p) {
        const T bv = alpha * b(j, p);
        const T* ap = a.col(p);
        for (idx i = 0; i < m; ++i) cj[i] += bv * ap[i];
      }
    }
    return;
  }

  // General path (handles all transpose combinations and any alpha).
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      T acc = T(0);
      for (idx p = 0; p < k; ++p) {
        const T av = (ta == Trans::No) ? a(i, p) : a(p, i);
        const T bv = (tb == Trans::No) ? b(p, j) : b(j, p);
        acc += av * bv;
      }
      c(i, j) += alpha * acc;
    }
  }
}

namespace detail {

// Register block of the Gram accumulation: S(i0.., j0..) += A(p, i)*A(p, j)
// over the rows p of a row-major chunk (ld = n). Lanes run across j; each
// entry keeps dot()'s single ascending-p chain.
template <typename T, int MI, int NJ>
void syrk_block(idx rows, const T* chunk, idx n, idx i0, idx j0, T* s) {
  T acc[MI][NJ];
  for (int ii = 0; ii < MI; ++ii) {
    for (int c = 0; c < NJ; ++c) acc[ii][c] = s[(i0 + ii) * n + j0 + c];
  }
  for (idx p = 0; p < rows; ++p) {
    const T* row = chunk + p * n;
    for (int ii = 0; ii < MI; ++ii) {
      const T ai = row[i0 + ii];
      for (int c = 0; c < NJ; ++c) acc[ii][c] += ai * row[j0 + c];
    }
  }
  for (int ii = 0; ii < MI; ++ii) {
    for (int c = 0; c < NJ; ++c) s[(i0 + ii) * n + j0 + c] = acc[ii][c];
  }
}

}  // namespace detail

// C := alpha * A^T * A + beta * C (upper triangle written, then mirrored).
//
// Each Gram entry is dot(A(:, i), A(:, j)): one chain over the rows in
// ascending order, so the result is bit-identical to a dot per entry. The
// rows of A are staged row-major in chunks, and a register block of MI Gram
// rows by NJ lanes advances all its chains together over a chunk; the
// partial sums carry over between chunks in a row-major n x n buffer.
template <typename T>
void syrk_t(T alpha, In<ConstMatrixView<T>> a, T beta, In<MatrixView<T>> c) {
  const idx m = a.rows();
  const idx n = a.cols();
  CAQR_CHECK(c.rows() == n && c.cols() == n);
  constexpr int MI = 4;
  constexpr int NJ = sizeof(T) >= 8 ? 4 : 8;
  // About 16 KiB of A per chunk, so a chunk stays in L1 while every
  // register block sweeps it.
  const idx row_bytes = std::max<idx>(1, n * static_cast<idx>(sizeof(T)));
  const idx chunk_rows = std::clamp<idx>(16384 / row_bytes, 16, 512);
  const idx ib = n / MI * MI;
  const idx jb = n / NJ * NJ;

  ArenaScope scope(Arena::thread_scratch());
  T* s = scope.alloc<T>(static_cast<std::size_t>(n * n));
  T* chunk = scope.alloc<T>(static_cast<std::size_t>(chunk_rows * n));
  for (idx q = 0; q < n * n; ++q) s[q] = T(0);
  for (idx p0 = 0; p0 < m; p0 += chunk_rows) {
    const idx rows = std::min(chunk_rows, m - p0);
    for (idx j = 0; j < n; ++j) {
      const T* aj = a.col(j) + p0;
      for (idx p = 0; p < rows; ++p) chunk[p * n + j] = aj[p];
    }
    // Register blocks holding at least one upper-triangle entry; the
    // entries below the diagonal they also compute are never read.
    for (idx i0 = 0; i0 < ib; i0 += MI) {
      for (idx j0 = i0 / NJ * NJ; j0 < jb; j0 += NJ) {
        detail::syrk_block<T, MI, NJ>(rows, chunk, n, i0, j0, s);
      }
    }
    // Upper entries outside the whole blocks: the last n % MI Gram rows
    // and the last n % NJ columns.
    for (idx i = 0; i < n; ++i) {
      for (idx j = i >= ib ? i : std::max(i, jb); j < n; ++j) {
        T acc = s[i * n + j];
        for (idx p = 0; p < rows; ++p) acc += chunk[p * n + i] * chunk[p * n + j];
        s[i * n + j] = acc;
      }
    }
  }
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) {
      const T v = alpha * s[i * n + j] + (beta == T(0) ? T(0) : beta * c(i, j));
      c(i, j) = v;
      c(j, i) = v;
    }
  }
}

enum class Side { Left, Right };
enum class UpLo { Upper, Lower };

namespace detail {

// X := B * T^-1 for upper-triangular T, in place:
//   x(i, j) = (b(i, j) - sum_{p<j} x(i, p) * t(p, j)) / t(j, j),
// the subtractions in ascending p, then the division. A block of R rows
// runs that chain on R lanes at once, one column j after another; each
// element sees the same operations in the same order as a row-by-row solve.
template <typename T>
void trsm_right_upper(ConstMatrixView<T> t, MatrixView<T> b, bool unit_diag) {
  const idx m = b.rows();
  const idx n = t.rows();
  constexpr idx R = std::max<idx>(1, 128 / sizeof(T));
  const idx mb = m / R * R;
  for (idx i0 = 0; i0 < mb; i0 += R) {
    for (idx j = 0; j < n; ++j) {
      T* bj = b.col(j) + i0;
      T acc[R];
      for (idx r = 0; r < R; ++r) acc[r] = bj[r];
      for (idx p = 0; p < j; ++p) {
        const T tpj = t(p, j);
        const T* bp = b.col(p) + i0;
        for (idx r = 0; r < R; ++r) acc[r] -= bp[r] * tpj;
      }
      if (unit_diag) {
        for (idx r = 0; r < R; ++r) bj[r] = acc[r];
      } else {
        const T tjj = t(j, j);
        for (idx r = 0; r < R; ++r) bj[r] = acc[r] / tjj;
      }
    }
  }
  for (idx i = mb; i < m; ++i) {
    for (idx j = 0; j < n; ++j) {
      T acc = b(i, j);
      for (idx p = 0; p < j; ++p) acc -= b(i, p) * t(p, j);
      b(i, j) = unit_diag ? acc : acc / t(j, j);
    }
  }
}

}  // namespace detail

// B := op(T)^-1 * B (Left) or B * op(T)^-1 (Right) for triangular T.
template <typename T>
void trsm(Side side, UpLo uplo, Trans trans, In<ConstMatrixView<T>> t,
          MatrixView<T> b, bool unit_diag = false) {
  const idx n = t.rows();
  CAQR_CHECK(t.cols() == n);
  if (side == Side::Left) {
    CAQR_CHECK(b.rows() == n);
    for (idx j = 0; j < b.cols(); ++j) {
      T* x = b.col(j);
      if (uplo == UpLo::Upper && trans == Trans::No) {
        trsv_upper(t, x, unit_diag);
      } else if (uplo == UpLo::Lower && trans == Trans::No) {
        trsv_lower(t, x, unit_diag);
      } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
        // U^T is lower triangular; solve row-wise forward.
        for (idx i = 0; i < n; ++i) {
          T acc = x[i];
          for (idx p = 0; p < i; ++p) acc -= t(p, i) * x[p];
          x[i] = unit_diag ? acc : acc / t(i, i);
        }
      } else {  // Lower, transposed: backward substitution, L^T(i,p) = L(p,i).
        for (idx i = n - 1; i >= 0; --i) {
          T acc = x[i];
          for (idx p = i + 1; p < n; ++p) acc -= t(p, i) * x[p];
          x[i] = unit_diag ? acc : acc / t(i, i);
        }
      }
    }
  } else {
    CAQR_CHECK(b.cols() == n);
    if (uplo == UpLo::Upper && trans == Trans::No) {
      detail::trsm_right_upper(t, b, unit_diag);
      return;
    }
    // Solve X * op(T) = B row by row: equivalent to op(T)^T X^T = B^T.
    for (idx i = 0; i < b.rows(); ++i) {
      if (uplo == UpLo::Lower && trans == Trans::No) {
        for (idx j = n - 1; j >= 0; --j) {
          T acc = b(i, j);
          for (idx p = j + 1; p < n; ++p) acc -= b(i, p) * t(p, j);
          b(i, j) = unit_diag ? acc : acc / t(j, j);
        }
      } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
        for (idx j = n - 1; j >= 0; --j) {
          T acc = b(i, j);
          for (idx p = j + 1; p < n; ++p) acc -= b(i, p) * t(j, p);
          b(i, j) = unit_diag ? acc : acc / t(j, j);
        }
      } else {  // Lower, transposed
        for (idx j = 0; j < n; ++j) {
          T acc = b(i, j);
          for (idx p = 0; p < j; ++p) acc -= b(i, p) * t(j, p);
          b(i, j) = unit_diag ? acc : acc / t(j, j);
        }
      }
    }
  }
}

// B := op(T) * B (Left) for triangular T, in place.
template <typename T>
void trmm_left(UpLo uplo, Trans trans, In<ConstMatrixView<T>> t, MatrixView<T> b,
               bool unit_diag = false) {
  const idx n = t.rows();
  CAQR_CHECK(t.cols() == n && b.rows() == n);
  for (idx j = 0; j < b.cols(); ++j) {
    T* x = b.col(j);
    if (uplo == UpLo::Upper && trans == Trans::No) {
      trmv_upper(t, x, unit_diag);
    } else if (uplo == UpLo::Lower && trans == Trans::No) {
      for (idx i = n - 1; i >= 0; --i) {
        T acc = unit_diag ? x[i] : t(i, i) * x[i];
        for (idx p = 0; p < i; ++p) acc += t(i, p) * x[p];
        x[i] = acc;
      }
    } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
      for (idx i = n - 1; i >= 0; --i) {
        T acc = unit_diag ? x[i] : t(i, i) * x[i];
        for (idx p = 0; p < i; ++p) acc += t(p, i) * x[p];
        x[i] = acc;
      }
    } else {  // Lower, transposed
      for (idx i = 0; i < n; ++i) {
        T acc = unit_diag ? x[i] : t(i, i) * x[i];
        for (idx p = i + 1; p < n; ++p) acc += t(p, i) * x[p];
        x[i] = acc;
      }
    }
  }
}

}  // namespace caqr
