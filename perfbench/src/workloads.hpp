#pragma once

// The three workloads and the layer probes they share.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "linalg/matrix.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // length of the measured window(s)
  bool trace = false;   // traced run: per-layer metrics instead of end-to-end
  std::string out_dir;  // where the detail JSON and chrome trace go
};

// Each fills `rep` with its metrics and output checks. A traced run also
// returns (through `device_trace`) the gpusim chrome trace to put beside
// the host spans.
void run_serve_model(const RunConfig& cfg, Report& rep,
                     std::string& device_trace);
void run_qr_functional(const RunConfig& cfg, Report& rep,
                       std::string& device_trace);
void run_rpca_video(const RunConfig& cfg, Report& rep,
                    std::string& device_trace);

// The paper's Robust PCA / serving shape (§VI: 110,592 x 100).
inline constexpr caqr::idx kPaperRows = 110592;
inline constexpr caqr::idx kPaperCols = 100;

struct Shape {
  caqr::idx rows = 0, cols = 0;
};

// serve_model's shape catalogue in popularity order (rank 0 = the paper
// shape). Fixed: the run seed draws requests from it, it does not change it.
const std::vector<Shape>& serve_catalogue();

// Useful flops of one explicit-Q factorization (GEQRF + ORGQR counts).
double qr_useful_flops(caqr::idx m, caqr::idx n);

// Same shape and bit-for-bit equal entries.
bool same_bits(const caqr::Matrix<float>& a, const caqr::Matrix<float>& b);

// Serve-layer counters since the last prof::reset(), per request:
// serve.host_us_per_req, serve.lock_wait_us_per_req, serve.allocs_per_req,
// plan.resolve_us_per_req, gpusim.{launches,enqueue_us,resolve_us}_per_req,
// tsqr.meta_build_us_per_req.
void report_host_counters(Report& rep, long long requests);
// serve.queue_wait_us.{p50,p99} from the pool's queue-wait histogram.
void report_queue_wait(Report& rep);

// Workload-independent layer probes run in every traced run: plan.build_ms
// (cold PlanCache lookups over the serve catalogue), gpusim.model_factor_us
// and the kernels.* computed work at the paper shape. Returns the chrome
// trace of the probe's simulated device.
std::string layer_probes(Report& rep);

}  // namespace perfbench
