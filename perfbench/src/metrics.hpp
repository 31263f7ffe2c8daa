#pragma once

// The canonical metric lists. They must match BENCHMARK.json name for name
// (run.py checks every result line against it). End-to-end metrics are
// reported by every workload, untraced; per-layer metrics come from the
// traced run. The end-to-end set is measured in CPU time and on the
// simulated clock: on a shared host, wall-clock throughput and latency
// swung by 2x and more between runs, so they are per-layer wall.* metrics. What each one means on each workload, and which end-to-end
// metric a per-layer metric is expected to move, is in perfbench/README.md.

#include <vector>

#include "harness.hpp"

namespace perfbench {

inline std::vector<MetricDef> end_to_end_metrics() {
  return {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"cpu_ms_per_unit", "ms"},
      {"sim_gflops", "GFLOP/s"},
  };
}

// The four CAQR kernels whose computed work the kernels.* metrics report.
inline const char* const kKernelNames[] = {"factor", "factor_tree",
                                           "apply_qt_h", "apply_qt_tree"};

inline std::vector<MetricDef> per_layer_metrics() {
  return {
      // wall clock of the workload's untraced phase
      {"wall.throughput_per_s", "1/s"},
      {"wall.latency_p50_ms", "ms"},
      // serve
      {"serve.submit_us", "us"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.host_us_per_req", "us/req"},
      {"serve.lock_wait_us_per_req", "us/req"},
      {"serve.allocs_per_req", "allocs/req"},
      {"serve.rps_1worker", "1/s"},
      {"serve.scaling", "ratio"},
      {"serve.open_loop_p99_ms", "ms"},
      {"serve.gen_lag_ms.p99", "ms"},
      {"serve.backlog_growth", "req"},
      // serve/plan_cache + caqr/autotune
      {"plan.hit_ratio", "ratio"},
      {"plan.evictions", "count"},
      {"plan.build_ms", "ms"},
      {"plan.resolve_us_per_req", "us/req"},
      // gpusim
      {"gpusim.launches_per_req", "launches/req"},
      {"gpusim.enqueue_us_per_req", "us/req"},
      {"gpusim.resolve_us_per_req", "us/req"},
      {"gpusim.model_factor_us", "us"},
      // tsqr
      {"tsqr.meta_build_us_per_req", "us/req"},
      {"tsqr.cholqr_gflops", "GFLOP/s"},
      // caqr
      {"caqr.factor_gflops", "GFLOP/s"},
      {"caqr.form_q_gflops", "GFLOP/s"},
      {"qr.host_gflops", "GFLOP/s"},
      // kernels: computed from the cost model, simulated clock
      {"kernels.factor.flops", "flop"},
      {"kernels.factor.gmem_bytes", "B"},
      {"kernels.factor.sim_ms", "sim_ms"},
      {"kernels.factor_tree.flops", "flop"},
      {"kernels.factor_tree.gmem_bytes", "B"},
      {"kernels.factor_tree.sim_ms", "sim_ms"},
      {"kernels.apply_qt_h.flops", "flop"},
      {"kernels.apply_qt_h.gmem_bytes", "B"},
      {"kernels.apply_qt_h.sim_ms", "sim_ms"},
      {"kernels.apply_qt_tree.flops", "flop"},
      {"kernels.apply_qt_tree.gmem_bytes", "B"},
      {"kernels.apply_qt_tree.sim_ms", "sim_ms"},
      // svd / linalg / rpca
      {"svd.qr_ms_per_it", "ms/it"},
      {"svd.small_svd_ms", "ms/call"},
      {"linalg.gemm_gflops", "GFLOP/s"},
      {"rpca.elementwise_ms_per_it", "ms/it"},
      {"rpca.iterations", "count"},
      {"rpca.sim_it_per_s", "sim_it/s"},
      // common
      {"common.cpu_util", "ratio"},
      {"trace.overhead_pct", "%"},
  };
}

}  // namespace perfbench
