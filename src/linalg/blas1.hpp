#pragma once

// Vector (BLAS1) primitives over raw strided/contiguous spans.
//
// These are the scalar building blocks used inside Householder generation and
// the reference kernels. Loops are written so the compiler's auto-vectorizer
// handles the contiguous (stride-1) fast path.

#include <cmath>

#include "linalg/matrix.hpp"

namespace caqr {

template <typename T>
T dot(idx n, const T* x, const T* y) {
  T acc = T(0);
  for (idx i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

template <typename T>
T nrm2_squared(idx n, const T* x) {
  T acc = T(0);
  for (idx i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

// x.y, x.x and y.y in one pass over both vectors. Three independent
// accumulators, each summing in dot()'s order, so every value is
// bit-identical to the separate dot / nrm2_squared calls.
template <typename T>
struct PairGram {
  T xy;
  T xx;
  T yy;
};

template <typename T>
PairGram<T> pair_gram(idx n, const T* x, const T* y) {
  T xy = T(0), xx = T(0), yy = T(0);
  for (idx i = 0; i < n; ++i) {
    xy += x[i] * y[i];
    xx += x[i] * x[i];
    yy += y[i] * y[i];
  }
  return {xy, xx, yy};
}

// Overflow/underflow-guarded two-norm (scaled accumulation, as in LAPACK's
// dnrm2). The guard matters for the ill-conditioned test matrices.
template <typename T>
T nrm2(idx n, const T* x) {
  T scale = T(0);
  T ssq = T(1);
  for (idx i = 0; i < n; ++i) {
    const T ax = std::abs(x[i]);
    if (ax == T(0)) continue;
    if (scale < ax) {
      const T r = scale / ax;
      ssq = T(1) + ssq * r * r;
      scale = ax;
    } else {
      const T r = ax / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

template <typename T>
void axpy(idx n, T alpha, const T* x, T* y) {
  for (idx i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
void scal(idx n, T alpha, T* x) {
  for (idx i = 0; i < n; ++i) x[i] *= alpha;
}

template <typename T>
void copy_n(idx n, const T* x, T* y) {
  for (idx i = 0; i < n; ++i) y[i] = x[i];
}

// Index of the element with the largest magnitude; -1 for empty input.
template <typename T>
idx iamax(idx n, const T* x) {
  idx best = n > 0 ? 0 : -1;
  T best_abs = n > 0 ? std::abs(x[0]) : T(0);
  for (idx i = 1; i < n; ++i) {
    const T a = std::abs(x[i]);
    if (a > best_abs) {
      best_abs = a;
      best = i;
    }
  }
  return best;
}

}  // namespace caqr
