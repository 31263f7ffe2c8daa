#pragma once

// Same-shape launch fusion, the simulated analogue of batched GPU kernels
// (cuBLAS geqrfBatched, MAGMA batched QR): one launch covers k problems'
// grids, so launch overhead is paid once and small grids are stacked until
// every SM is busy. The TSQR/CAQR schedule issues every launch through
// launch_same_shape(): k = 1 solo, k > 1 batched.
//
// A FusedKernel runs fused block b as block b % per_part of part
// b / per_part on that problem's own storage; blocks write disjoint
// outputs, so the results are bit-identical to k solo launches. Its cost
// sums the k problems' work, with one launch overhead and one problem's
// latency floor. Fused ops appear in profiles()/trace() as "<name>_batch".

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"

namespace caqr::kernels {

// One launchable kernel spanning k same-shape kernels (equal block counts).
// Satisfies the Device::launch kernel contract; forwards stats_summary when
// the part type has one (paper-scale ModelOnly stays O(classes)). It does
// not opt into ABFT guarding or bit-flip injection.
template <typename K>
struct FusedKernel {
  explicit FusedKernel(std::vector<K> p)
      : parts(std::move(p)),
        per_part(parts.front().num_blocks()),
        label(std::string(parts.front().name()) + "_batch") {
    for (const K& part : parts) {
      CAQR_CHECK_MSG(part.num_blocks() == per_part,
                     "fused parts must have equal block counts");
    }
  }

  std::vector<K> parts;
  idx per_part;
  std::string label;

  const char* name() const { return label.c_str(); }
  idx num_blocks() const {
    return per_part * static_cast<idx>(parts.size());
  }

  void run_block(idx b) const { part(b).run_block(b % per_part); }

  gpusim::BlockStats block_stats(idx b) const {
    return part(b).block_stats(b % per_part);
  }

  auto stats_summary() const
    requires gpusim::HasStatsSummary<K>
  {
    // Same-shape parts have identical summaries (block stats depend on
    // shapes and cost parameters, never on data): summarize part 0 once and
    // scale the class counts by the part count.
    auto out = parts.front().stats_summary();
    for (auto& c : out) c.count *= static_cast<idx>(parts.size());
    return out;
  }

 private:
  const K& part(idx b) const {
    return parts[static_cast<std::size_t>(b / per_part)];
  }
};

// Launches the k same-shape kernels make(0), ..., make(k - 1) on `stream`.
// k == 1 launches the plain kernel, so a solo schedule keeps its kernel
// type, op name, ABFT guard and fault surface; k > 1 launches one
// FusedKernel over all k.
template <typename Make>
ft::Severity launch_same_shape(gpusim::Device& dev, gpusim::StreamId stream,
                               std::size_t k, Make&& make) {
  if (k == 1) {
    const auto kernel = make(std::size_t{0});
    return dev.launch(stream, kernel, kernel.num_blocks());
  }
  using K = std::decay_t<decltype(make(std::size_t{0}))>;
  std::vector<K> parts;
  parts.reserve(k);
  for (std::size_t i = 0; i < k; ++i) parts.push_back(make(i));
  const FusedKernel<K> fused(std::move(parts));
  return dev.launch(stream, fused, fused.num_blocks());
}

}  // namespace caqr::kernels
