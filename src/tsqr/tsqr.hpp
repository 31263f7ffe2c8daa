#pragma once

// Tall-Skinny QR (TSQR, §II.B) on the simulated GPU.
//
// The panel is split vertically into blocks of ~block_rows; each block is
// factored independently (`factor`), then the per-block R triangles are
// combined up a reduction tree (`factor_tree`) whose arity defaults to the
// paper's choice block_rows / width (a quad-tree for 64 x 16 blocks). All
// state — reflectors from every stage — lives in the panel itself plus the
// tau arrays recorded in PanelFactor, exactly like the paper's in-place
// scheme: the tree-level reflectors overwrite the R entries they consume.
//
// PanelFactor is the replay script: CAQR's trailing-matrix update and the
// later apply-Q/form-Q entry points re-walk the same offsets/groups.
//
// tsqr_factor_batch/tsqr_apply_batch run one launch sequence over k
// same-shape panels: the plain kernels for k = 1 (the solo tsqr_factor and
// tsqr_apply* wrappers), one FusedKernel per launch for k > 1.
//
// Fault tolerance: every launch's ft::Severity folds into the optional
// `severity_out` argument, and when the device's policy enables recovery, an
// Unrecovered factorization (a launch whose corruption survived the ABFT
// retries) triggers a whole-panel recompute from the input saved before the
// first attempt — the poisoned subtree's reflectors are abandoned, not
// patched — up to FtOptions::max_panel_retries times.

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/group_list.hpp"
#include "common/profile.hpp"
#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "kernels/fused.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "numerics/finite_check.hpp"

namespace caqr::tsqr {

// Explicit reduction-tree specification: the level-0 block decomposition
// plus the grouping of survivors at every tree level, expressed in level-0
// BLOCK INDICES (not row offsets). The combine arithmetic of a group is a
// pure function of the stacked R-triangle values, so any two factorizations
// that run the same spec over the same data produce bit-identical results —
// this is the seam dist:: uses to make a multi-device factorization (local
// trees per device + a cross-device tree over the device roots) bitwise
// reproducible by a single-device run of the merged spec.
struct TreeSpec {
  std::vector<idx> offsets;  // nblocks + 1 panel-row offsets, every block
                             // at least `width` rows tall
  // levels[l][g] lists the blocks whose surviving R triangles group g of
  // level l combines; the first listed block's triangle receives the
  // combined R. Every listed block must be a survivor (level-0 blocks are
  // all survivors; after a level only each group's first block survives;
  // blocks not listed in a level pass through unchanged). Singleton groups
  // are allowed and are no-ops. Each level is a flat GroupList (two arrays
  // per level, not one heap vector per group — this metadata is rebuilt per
  // panel on the serving hot path).
  std::vector<GroupList> levels;

  idx num_blocks() const { return static_cast<idx>(offsets.size()) - 1; }
};

struct TsqrOptions {
  idx block_rows = 128;  // H: nominal vertical block height (>= width)
  // Reduction-tree fan-in; 0 derives the paper's choice max(2, H / W).
  idx arity = 0;
  kernels::ReductionVariant variant =
      kernels::ReductionVariant::RegisterSerialTransposed;
  // Pre-transpose panels (out-of-place, §IV.E.4). Adds a transpose kernel
  // per panel; the reduction variant's cost parameters assume the matching
  // layout. Ignored (no transpose charged) for non-transposed variants.
  bool transposed_panels = true;
  // Trailing-matrix tile width for the CAQR update kernels.
  idx tile_cols = 16;
  // Explicit decomposition override for a (rows, width) panel; null uses
  // the uniform split_rows + effective_arity construction. The provider
  // must be deterministic: tsqr_factor may call it more than once (panel
  // retries) and replay relies on identical specs.
  std::function<TreeSpec(idx rows, idx width)> tree_spec;

  idx effective_arity(idx width) const {
    if (arity >= 2) return arity;
    const idx derived = width > 0 ? block_rows / width : 2;
    return derived >= 2 ? derived : 2;
  }
};

// Immutable replay structure of one panel decomposition, in PANEL-ROW
// coordinates (a TreeSpec translated through its own offsets): the level-0
// block offsets plus, per tree level, the row offsets of the R triangles
// each group combines. This is everything about a factorization that does
// NOT depend on the data — every panel of the same (rows, width, block_rows,
// arity) shape replays the identical structure, so PanelFactors share one
// ReplayMeta by shared_ptr instead of copying offsets + per-level GroupLists
// per panel (the last per-request metadata copies on the serve hot path).
struct ReplayMeta {
  std::vector<idx> offsets;       // nblocks + 1 panel-row offsets
  std::vector<GroupList> levels;  // per-level groups, panel-row offsets

  idx num_blocks() const { return static_cast<idx>(offsets.size()) - 1; }
};

// Translates a validated TreeSpec (block indices) into shared panel-row
// replay metadata.
inline std::shared_ptr<const ReplayMeta> make_replay_meta(
    const TreeSpec& spec) {
  auto meta = std::make_shared<ReplayMeta>();
  meta->offsets = spec.offsets;
  meta->levels.reserve(spec.levels.size());
  for (const auto& groups : spec.levels) {
    GroupList g;
    g.starts = groups.starts;
    g.data.resize(groups.data.size());
    for (std::size_t i = 0; i < groups.data.size(); ++i) {
      g.data[i] = meta->offsets[static_cast<std::size_t>(groups.data[i])];
    }
    meta->levels.push_back(std::move(g));
  }
  return meta;
}

// Metadata describing one panel's TSQR factorization: the shared immutable
// replay structure plus this factorization's tau scalars. The kernels take
// `const std::vector<idx>*` / `const GroupList*`, so they point straight
// into the shared ReplayMeta.
template <typename T>
struct PanelFactor {
  idx rows = 0;   // panel height
  idx width = 0;  // panel width
  // Shared replay structure; set by every factorization (never null after
  // tsqr_factor returns).
  std::shared_ptr<const ReplayMeta> meta;
  std::vector<T> taus0;  // width scalars per level-0 block
  // taus[l]: width scalars per group of tree level l. Functional
  // factorizations only: ModelOnly runs never execute blocks, so the outer
  // vector is left empty (level_taus returns nullptr, never dereferenced).
  std::vector<std::vector<T>> taus;

  const std::vector<idx>& offsets() const { return meta->offsets; }
  idx num_blocks() const { return meta ? meta->num_blocks() : 0; }
  idx num_levels() const {
    return meta ? static_cast<idx>(meta->levels.size()) : 0;
  }
  const GroupList& level_groups(idx l) const {
    return meta->levels[static_cast<std::size_t>(l)];
  }
  const T* level_taus(idx l) const {
    return taus.empty() ? nullptr : taus[static_cast<std::size_t>(l)].data();
  }
};

// Splits `rows` into blocks of ~block_rows with every block >= width:
// the last block absorbs the remainder (height in [block_rows, 2*block_rows)
// when there are at least two blocks).
inline std::vector<idx> split_rows(idx rows, idx block_rows, idx width) {
  CAQR_CHECK(rows >= width);
  CAQR_CHECK(block_rows >= width);
  const idx nblocks = rows / block_rows > 1 ? rows / block_rows : 1;
  std::vector<idx> offsets;
  offsets.reserve(static_cast<std::size_t>(nblocks) + 1);
  for (idx b = 0; b < nblocks; ++b) offsets.push_back(b * block_rows);
  offsets.push_back(rows);
  return offsets;
}

// The default decomposition: split_rows level-0 blocks combined by a
// uniform-arity tree (consecutive runs of `effective_arity` survivors per
// level, last run possibly smaller, until one survives).
inline TreeSpec uniform_tree_spec(idx rows, idx width, const TsqrOptions& opt) {
  TreeSpec spec;
  spec.offsets = split_rows(rows, opt.block_rows, width);
  const idx nblocks = spec.num_blocks();
  const idx arity = opt.effective_arity(width);
  std::vector<idx> survivors;
  survivors.reserve(static_cast<std::size_t>(nblocks));
  for (idx b = 0; b < nblocks; ++b) survivors.push_back(b);
  while (static_cast<idx>(survivors.size()) > 1) {
    GroupList groups;
    groups.reserve(
        static_cast<idx>((survivors.size() + static_cast<std::size_t>(arity) -
                          1) /
                         static_cast<std::size_t>(arity)),
        static_cast<idx>(survivors.size()));
    std::vector<idx> next;
    for (std::size_t g = 0; g < survivors.size();
         g += static_cast<std::size_t>(arity)) {
      const std::size_t end =
          std::min(survivors.size(), g + static_cast<std::size_t>(arity));
      groups.push_group(survivors.begin() + static_cast<std::ptrdiff_t>(g),
                        survivors.begin() + static_cast<std::ptrdiff_t>(end));
      next.push_back(survivors[g]);
    }
    survivors = std::move(next);
    spec.levels.push_back(std::move(groups));
  }
  return spec;
}

namespace detail {

inline void check_tree_spec(const TreeSpec& spec, idx rows, idx width);

// The uniform spec is a pure function of (rows, width, block_rows, arity):
// serving replays the same few panel shapes per request, so rebuilding (and
// re-validating) the spec every time was the largest steady-state
// allocation source after the GroupList flattening. Memoize per thread —
// std::map node stability lets callers hold the reference across
// insertions, and worker threads each serve a handful of shapes, so the
// map stays tiny. Wiped wholesale if it ever grows past a bound (a serving
// mix cycling through >256 shapes per thread re-plans, it doesn't leak).
inline const TreeSpec& cached_uniform_spec(idx rows, idx width,
                                           const TsqrOptions& opt) {
  using Key = std::array<idx, 4>;
  thread_local std::map<Key, TreeSpec> cache;
  const idx arity = opt.effective_arity(width);
  const Key key{rows, width, opt.block_rows, arity};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  if (cache.size() >= 256) cache.clear();
  TreeSpec spec = uniform_tree_spec(rows, width, opt);
  check_tree_spec(spec, rows, width);
  return cache.emplace(key, std::move(spec)).first->second;
}

// Shared replay metadata for the uniform decomposition, memoized alongside
// the spec with the same key/bound policy. A warm hit is one shared_ptr
// copy — no allocation, no translation — which is what makes a PanelFactor
// metadata-free on the serving hot path.
inline std::shared_ptr<const ReplayMeta> cached_replay_meta(
    idx rows, idx width, const TsqrOptions& opt) {
  using Key = std::array<idx, 4>;
  thread_local std::map<Key, std::shared_ptr<const ReplayMeta>> cache;
  const idx arity = opt.effective_arity(width);
  const Key key{rows, width, opt.block_rows, arity};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  if (cache.size() >= 256) cache.clear();
  auto meta = make_replay_meta(cached_uniform_spec(rows, width, opt));
  return cache.emplace(key, std::move(meta)).first->second;
}

// Structural validation of a spec against a (rows, width) panel: well-formed
// offsets, every block tall enough to hold a W x W triangle, every group
// member a distinct current survivor.
inline void check_tree_spec(const TreeSpec& spec, idx rows, idx width) {
  const idx nblocks = spec.num_blocks();
  CAQR_CHECK_MSG(nblocks >= 1, "tree spec needs at least one block");
  CAQR_CHECK(spec.offsets.front() == 0 && spec.offsets.back() == rows);
  for (idx b = 0; b < nblocks; ++b) {
    CAQR_CHECK_MSG(spec.offsets[static_cast<std::size_t>(b) + 1] -
                           spec.offsets[static_cast<std::size_t>(b)] >=
                       width,
                   "every level-0 block must be at least `width` rows tall");
  }
  std::vector<char> survivor(static_cast<std::size_t>(nblocks), 1);
  for (const auto& groups : spec.levels) {
    std::vector<char> used(static_cast<std::size_t>(nblocks), 0);
    for (idx gi = 0; gi < groups.size(); ++gi) {
      const auto g = groups[gi];
      CAQR_CHECK(!g.empty());
      for (std::size_t i = 0; i < g.size(); ++i) {
        const idx b = g[i];
        CAQR_CHECK(b >= 0 && b < nblocks);
        CAQR_CHECK_MSG(survivor[static_cast<std::size_t>(b)] &&
                           !used[static_cast<std::size_t>(b)],
                       "tree spec group member is not a distinct survivor");
        used[static_cast<std::size_t>(b)] = 1;
        if (i > 0) survivor[static_cast<std::size_t>(b)] = 0;  // consumed
      }
    }
  }
  idx remaining = 0;
  for (const char s : survivor) remaining += s;
  CAQR_CHECK_MSG(remaining == 1, "tree spec must reduce to a single survivor");
}

// One factorization attempt over k same-shape panels sharing one
// ReplayMeta; folds every launch's severity into `sev`.
template <typename T>
void tsqr_factor_attempt(gpusim::Device& dev, gpusim::StreamId stream,
                         std::span<const MatrixView<T>> panels,
                         std::span<PanelFactor<T>* const> fs,
                         const TsqrOptions& opt, ft::Severity& sev) {
  const std::size_t k = panels.size();
  CAQR_CHECK(k >= 1 && fs.size() == k);
  const idx rows = panels.front().rows();
  const idx width = panels.front().cols();
  CAQR_CHECK(rows >= width && width >= 0);
  for (const auto& p : panels) {
    CAQR_CHECK(p.rows() == rows && p.cols() == width);
  }

  // Custom providers are built, validated, and translated per call; the
  // uniform default comes from the per-thread memo and a warm hit is one
  // shared_ptr copy.
  std::shared_ptr<const ReplayMeta> shared;
  if (width == 0) {
    shared = std::make_shared<ReplayMeta>(ReplayMeta{{0, rows}, {}});
  } else {
    CAQR_PROF_SCOPE("tsqr.meta_build_ns");
    if (opt.tree_spec) {
      TreeSpec custom = opt.tree_spec(rows, width);
      check_tree_spec(custom, rows, width);
      shared = make_replay_meta(custom);
    } else {
      shared = cached_replay_meta(rows, width, opt);
    }
  }
  const ReplayMeta& meta = *shared;

  // Boundary guards only see data in Functional mode: ModelOnly panels are
  // storage-free placeholders. Taus are written by run_block and read by
  // apply — both functional-only. ModelOnly requests skip the allocation
  // (and its zero-fill): ~100 KB per paper-scale panel that would never be
  // touched. The kernels receive data() == nullptr, which no ModelOnly path
  // dereferences.
  const bool functional = dev.mode() == gpusim::ExecMode::Functional;
  for (std::size_t i = 0; i < k; ++i) {
    PanelFactor<T>& f = *fs[i];
    f.rows = rows;
    f.width = width;
    f.meta = shared;
    f.taus.clear();
    if (functional && width > 0) {
      CAQR_GUARD_FINITE(panels[i], "tsqr_factor:input");
      f.taus0.assign(static_cast<std::size_t>(meta.num_blocks() * width),
                     T(0));
      f.taus.reserve(meta.levels.size());
    }
  }
  if (width == 0) return;

  const auto cost = kernels::cost_params(opt.variant);
  const double pen = dev.model().uncoalesced_penalty;
  const double tile_pen = dev.model().tile_locality_penalty;
  const bool charge_transpose =
      opt.transposed_panels &&
      opt.variant == kernels::ReductionVariant::RegisterSerialTransposed;
  if (charge_transpose) {
    kernels::launch_same_shape(dev, stream, k, [&](std::size_t) {
      return kernels::TransposeKernel<T>{rows, width, opt.block_rows};
    });
  }

  auto factor_kernel = [&](std::size_t i) {
    return kernels::FactorKernel<T>{panels[i], &meta.offsets,
                                    fs[i]->taus0.data(), cost, pen, tile_pen};
  };
  sev = ft::worse(sev,
                  kernels::launch_same_shape(dev, stream, k, factor_kernel));

  // Reduction tree over the surviving R triangles, one launch per level.
  // The groups are already in panel-row coordinates inside the shared
  // ReplayMeta; only each factorization's taus are allocated here.
  for (const auto& groups : meta.levels) {
    if (functional) {
      for (PanelFactor<T>* f : fs) {
        f->taus.emplace_back(static_cast<std::size_t>(groups.size()) *
                                 static_cast<std::size_t>(width),
                             T(0));
      }
    }
    auto tree_kernel = [&](std::size_t i) {
      T* taus = functional ? fs[i]->taus.back().data() : nullptr;
      return kernels::FactorTreeKernel<T>{panels[i], &groups, taus,
                                          cost,      pen,     tile_pen};
    };
    sev = ft::worse(sev,
                    kernels::launch_same_shape(dev, stream, k, tree_kernel));
  }
  for (std::size_t i = 0; functional && i < k; ++i) {
    CAQR_GUARD_FINITE(panels[i], "tsqr_factor:output");
  }
}

}  // namespace detail

// Public seam of the structural spec validation (detail::check_tree_spec):
// aborts via CAQR_CHECK unless `spec` is a well-formed reduction tree for a
// (rows, width) panel. Custom tree_spec providers — the dist/ merged-replay
// specs and the topology-aware hierarchical trees in particular — are
// checked through this on every tsqr_factor call; tests and builders call
// it directly to validate emitted specs without running a factorization.
inline void validate_tree_spec(const TreeSpec& spec, idx rows, idx width) {
  detail::check_tree_spec(spec, rows, width);
}

// In-place TSQR factorization of k same-shape panels, every launch on
// `stream` spanning all k; panel i's replay script goes to *fs[i]. On
// return each panel holds R (top width x width, from the tree root at row
// offset 0) and the distributed reflectors of every stage. A zero-width
// panel is a well-defined no-op (LAPACK xGEQRF semantics for n == 0).
//
// `severity_out` (optional) is merged with the worst outcome of the whole
// factorization including panel-level recovery; `panel_retries_out`
// (optional) accumulates how many whole-panel recomputes ran. Fused
// launches carry no ABFT guard, so only a solo panel (k = 1) can come back
// Unrecovered and be recomputed.
template <typename T>
void tsqr_factor_batch(gpusim::Device& dev, gpusim::StreamId stream,
                       std::span<const MatrixView<T>> panels,
                       std::span<PanelFactor<T>* const> fs,
                       const TsqrOptions& opt,
                       ft::Severity* severity_out = nullptr,
                       int* panel_retries_out = nullptr) {
  const ft::FtOptions& ftopt = dev.fault_tolerance();
  ft::Severity sev = ft::Severity::Ok;
  const bool panel_redo = panels.size() == 1 &&
                          dev.mode() == gpusim::ExecMode::Functional &&
                          ftopt.abft && ftopt.recovery() &&
                          ftopt.max_panel_retries > 0 &&
                          panels.front().cols() > 0;
  Matrix<T> saved;
  if (panel_redo) saved = Matrix<T>::from(panels.front().as_const());
  detail::tsqr_factor_attempt(dev, stream, panels, fs, opt, sev);
  if (panel_redo) {
    int redo = 0;
    while (sev == ft::Severity::Unrecovered &&
           redo < ftopt.max_panel_retries) {
      panels.front().copy_from(saved.as_const());
      sev = ft::Severity::Ok;
      detail::tsqr_factor_attempt(dev, stream, panels, fs, opt, sev);
      if (sev == ft::Severity::Ok) sev = ft::Severity::Corrected;
      ++redo;
    }
    if (panel_retries_out != nullptr) *panel_retries_out += redo;
  }
  if (severity_out != nullptr) *severity_out = ft::worse(*severity_out, sev);
}

// Solo TSQR factorization of `panel` (tsqr_factor_batch with k = 1).
template <typename T>
PanelFactor<T> tsqr_factor(gpusim::Device& dev, gpusim::StreamId stream,
                           MatrixView<T> panel, const TsqrOptions& opt,
                           ft::Severity* severity_out = nullptr,
                           int* panel_retries_out = nullptr) {
  PanelFactor<T> f;
  PanelFactor<T>* fp = &f;
  tsqr_factor_batch<T>(dev, stream, {&panel, 1}, {&fp, 1}, opt, severity_out,
                       panel_retries_out);
  return f;
}

template <typename T>
PanelFactor<T> tsqr_factor(gpusim::Device& dev, MatrixView<T> panel,
                           const TsqrOptions& opt) {
  return tsqr_factor(dev, gpusim::kDefaultStream, panel, opt);
}

// Applies Q^T (transpose_q) or Q of k same-shape factored panels to
// targets cs[i] in panel i's row space, every launch spanning all k.
// Zero-width panels and zero-column right-hand sides are no-ops.
template <typename T>
void tsqr_apply_batch(gpusim::Device& dev, gpusim::StreamId stream,
                      std::span<const ConstMatrixView<T>> panels,
                      std::span<const PanelFactor<T>* const> fs,
                      std::span<const MatrixView<T>> cs,
                      const TsqrOptions& opt, bool transpose_q,
                      ft::Severity* severity_out = nullptr) {
  const std::size_t k = panels.size();
  CAQR_CHECK(k >= 1 && fs.size() == k && cs.size() == k);
  for (std::size_t i = 0; i < k; ++i) {
    CAQR_CHECK(panels[i].rows() == fs[i]->rows &&
               panels[i].cols() == fs[i]->width);
    CAQR_CHECK(cs[i].rows() == fs[i]->rows);
  }
  const PanelFactor<T>& lead = *fs.front();
  if (cs.front().cols() == 0 || lead.width == 0) return;
  const auto cost = kernels::cost_params(opt.variant);
  const double pen = dev.model().uncoalesced_penalty;
  const double tile_pen = dev.model().tile_locality_penalty;

  auto note = [&](ft::Severity s) {
    if (severity_out != nullptr) *severity_out = ft::worse(*severity_out, s);
  };
  auto launch_h = [&] {
    note(kernels::launch_same_shape(dev, stream, k, [&](std::size_t i) {
      return kernels::ApplyQtHKernel<T>{
          panels[i], &fs[i]->offsets(), fs[i]->taus0.data(), cs[i],
          opt.tile_cols, cost, pen, tile_pen, false, transpose_q};
    }));
  };
  auto launch_tree = [&](idx l) {
    note(kernels::launch_same_shape(dev, stream, k, [&](std::size_t i) {
      return kernels::ApplyQtTreeKernel<T>{
          panels[i], &fs[i]->level_groups(l), fs[i]->level_taus(l), cs[i],
          opt.tile_cols, cost, pen, tile_pen, false, transpose_q};
    }));
  };

  if (transpose_q) {
    // Q^T = Q_L^T ... Q_1^T Q_0^T: level 0 first, then up the tree.
    launch_h();
    for (idx l = 0; l < lead.num_levels(); ++l) launch_tree(l);
  } else {
    // Q = Q_0 Q_1 ... Q_L: down the tree, level 0 last.
    for (idx l = lead.num_levels() - 1; l >= 0; --l) launch_tree(l);
    launch_h();
  }
}

// Solo application (k = 1); c.rows() == panel.rows().
template <typename T>
void tsqr_apply(gpusim::Device& dev, gpusim::StreamId stream,
                In<ConstMatrixView<T>> panel, const PanelFactor<T>& f,
                In<MatrixView<T>> c, const TsqrOptions& opt, bool transpose_q,
                ft::Severity* severity_out = nullptr) {
  const PanelFactor<T>* fp = &f;
  tsqr_apply_batch<T>(dev, stream, {&panel, 1}, {&fp, 1}, {&c, 1}, opt,
                      transpose_q, severity_out);
}

template <typename T>
void tsqr_apply_qt(gpusim::Device& dev, gpusim::StreamId stream,
                   In<ConstMatrixView<T>> panel, const PanelFactor<T>& f,
                   In<MatrixView<T>> c, const TsqrOptions& opt,
                   ft::Severity* severity_out = nullptr) {
  tsqr_apply(dev, stream, panel, f, c, opt, /*transpose_q=*/true,
             severity_out);
}

template <typename T>
void tsqr_apply_qt(gpusim::Device& dev, In<ConstMatrixView<T>> panel,
                   const PanelFactor<T>& f, In<MatrixView<T>> c,
                   const TsqrOptions& opt) {
  tsqr_apply(dev, gpusim::kDefaultStream, panel, f, c, opt,
             /*transpose_q=*/true);
}

template <typename T>
void tsqr_apply_q(gpusim::Device& dev, In<ConstMatrixView<T>> panel,
                  const PanelFactor<T>& f, In<MatrixView<T>> c,
                  const TsqrOptions& opt) {
  tsqr_apply(dev, gpusim::kDefaultStream, panel, f, c, opt,
             /*transpose_q=*/false);
}

// Convenience single-panel TSQR: factors a copy of `a` and returns
// (factored storage, metadata). R is the top width x width triangle of the
// factored storage.
template <typename T>
struct TsqrResult {
  Matrix<T> storage;  // factored panel (reflectors + R)
  PanelFactor<T> meta;

  Matrix<T> r() const {
    const idx w = meta.width;
    Matrix<T> out = Matrix<T>::zeros(w, w);
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) out(i, j) = storage(i, j);
    }
    return out;
  }

  // Explicit thin Q (rows x width).
  Matrix<T> form_q(gpusim::Device& dev, const TsqrOptions& opt) const {
    Matrix<T> q = Matrix<T>::identity(meta.rows, meta.width);
    tsqr_apply_q(dev, storage.view(), meta, q.view(), opt);
    return q;
  }
};

template <typename VA>
TsqrResult<view_scalar_t<VA>> tsqr(gpusim::Device& dev, const VA& a,
                                   const TsqrOptions& opt = {}) {
  using T = view_scalar_t<VA>;
  TsqrResult<T> out{Matrix<T>::from(cview(a)), {}};
  out.meta = tsqr_factor(dev, out.storage.view(), opt);
  return out;
}

}  // namespace caqr::tsqr
