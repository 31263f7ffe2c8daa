#include "caqr/autotune.hpp"

#include "gpusim/device.hpp"
#include "kernels/kernels.hpp"

namespace caqr::autotune {

double microbench_apply_qt_h(const gpusim::GpuMachineModel& model, idx block_h,
                             idx block_w, kernels::ReductionVariant variant,
                             idx nblocks) {
  CAQR_CHECK(block_h >= block_w && block_w >= 1);
  gpusim::Device dev(model, gpusim::ExecMode::ModelOnly);

  const idx rows = block_h * nblocks;
  auto panel = Matrix<float>::shape_only(rows, block_w);
  auto trailing = Matrix<float>::shape_only(rows, block_w);
  // Filled by index: a push_back loop here (4097 appends per probe, 35
  // probes per plan build) compiled to code whose speed swung 1.5x with
  // inlining decisions elsewhere in this translation unit.
  std::vector<idx> offsets(static_cast<std::size_t>(nblocks) + 1);
  for (idx b = 0; b <= nblocks; ++b) {
    offsets[static_cast<std::size_t>(b)] = b * block_h;
  }

  // A ModelOnly launch never reads the reflector scalars, so none are
  // allocated: filling up to 1 MiB of them per probe was most of a plan
  // build's host time.
  kernels::ApplyQtHKernel<float> k{panel.view(),
                                   &offsets,
                                   /*taus=*/nullptr,
                                   trailing.view(),
                                   block_w,
                                   kernels::cost_params(variant),
                                   model.uncoalesced_penalty,
                                   /*tile_penalty=*/1.0,
                                   /*resident=*/true,
                                   /*transpose_q=*/true};
  dev.launch(k, k.num_blocks());
  const auto* p = dev.profile(k.name());
  return p != nullptr ? p->gflops() : 0.0;
}

TunedBlock autotune_block_size(const gpusim::GpuMachineModel& model,
                               kernels::ReductionVariant variant) {
  TunedBlock best;
  best.gflops = 0;
  for (const idx h : {32, 64, 128, 192, 256, 384, 512}) {
    for (const idx w : {4, 8, 16, 32, 64}) {
      if (h < w) continue;
      const double g = microbench_apply_qt_h(model, h, w, variant);
      if (g > best.gflops) {
        best = TunedBlock{h, w, g};
      }
    }
  }
  return best;
}

}  // namespace caqr::autotune
