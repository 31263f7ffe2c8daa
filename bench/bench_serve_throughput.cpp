// Serving-layer throughput bench: problems/sec for same-shape tall-skinny
// QR traffic through serve::SolverPool, swept over
//
//   workers     x  batch size  x  plan-cache on/off
//
// Traffic is the paper's Robust PCA shape (110,592 x 100 floats, §VI) in
// ModelOnly mode — the serving question is scheduling and planning cost,
// not numerics, and ModelOnly runs the exact timeline at paper scale.
//
// Two throughput views, matching how the repo reports every paper-scale
// result:
//   * simulated problems/sec = problems / makespan over the workers'
//     simulated devices (each worker owns one simulated GPU, so the worker
//     axis is the simulated analogue of a multi-GPU serving box);
//   * host problems/sec = problems / host wall-clock, the view where the
//     plan cache shows up (planning — the autotune sweep plus two cost
//     predictions — is host work).
//
// A third artifact, BENCH_serve_profile.json, reports WHERE the host time
// and allocations go: after a warmup pass the profiling registry
// (common/profile.hpp) is reset, a measured window of requests runs, and
// the per-stage host-time counters plus process-wide allocation counts are
// dumped per request. This is the flatline's postmortem data: planning vs
// metadata construction vs cost accounting vs lock waits.
//
// The 4-worker vs 1-worker wall gate is decided apart from the sweep, whose
// windows last only milliseconds: kWallTrials alternating 1-worker/4-worker
// trials each time a warm pool over at least kTrialWindowSeconds, and the
// gate reads the median trial ratio.
//
// Writes BENCH_serve_throughput.json + BENCH_serve_profile.json. Flags:
// --rows --cols --problems --quick

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/profile.hpp"
#include "serve/solver_pool.hpp"

namespace {

using namespace caqr;
using namespace caqr::serve;
using gpusim::ExecMode;

constexpr int kWallTrials = 5;
constexpr double kTrialWindowSeconds = 0.2;
// Requests kept in flight during a timed window, for either worker count.
constexpr int kInFlight = 16;

double wall_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Cell {
  int workers = 1;
  int batch = 1;
  bool cache = true;
  int problems = 0;
  double wall = 0;          // host seconds, submit to drain
  double sim_makespan = 0;  // max simulated busy seconds over workers
  double sim_busy = 0;      // total simulated busy seconds, all workers
  long long hits = 0;
  long long misses = 0;
  idx fused_launches = 0;

  double sim_pps() const { return sim_makespan > 0 ? problems / sim_makespan : 0; }
  double wall_pps() const { return wall > 0 ? problems / wall : 0; }
  // Per-problem device time: imbalance-free, isolates the fusion win.
  double sim_per_problem() const {
    return problems > 0 ? sim_busy / problems : 0;
  }
};

Cell run_config(idx m, idx n, int problems, int workers, int batch,
                bool cache) {
  PoolOptions po;
  po.workers = workers;
  po.queue_capacity = static_cast<std::size_t>(problems) + 8;
  po.mode = ExecMode::ModelOnly;
  po.use_plan_cache = cache;
  SolverPool pool(po);
  RequestOptions req;  // Auto algorithm, planned (cached or per-request)

  Cell c;
  c.workers = workers;
  c.batch = batch;
  c.cache = cache;
  c.problems = problems;
  const double t0 = wall_seconds();
  if (batch <= 1) {
    std::vector<std::future<QrResponse<float>>> futs;
    futs.reserve(static_cast<std::size_t>(problems));
    for (int i = 0; i < problems; ++i) {
      futs.push_back(pool.submit(Matrix<float>::shape_only(m, n), req));
    }
    for (auto& f : futs) {
      if (f.get().status != RequestStatus::Done) std::abort();
    }
  } else {
    std::vector<std::future<BatchResponse<float>>> futs;
    for (int i = 0; i < problems; i += batch) {
      const int b = std::min(batch, problems - i);
      std::vector<Matrix<float>> probs;
      probs.reserve(static_cast<std::size_t>(b));
      for (int j = 0; j < b; ++j) {
        probs.push_back(Matrix<float>::shape_only(m, n));
      }
      futs.push_back(pool.submit_batch(std::move(probs), req));
    }
    for (auto& f : futs) {
      BatchResponse<float> resp = f.get();
      if (resp.status != RequestStatus::Done) std::abort();
      c.fused_launches += resp.result.fused_launches;
    }
  }
  pool.drain();
  c.wall = wall_seconds() - t0;
  const PoolStats stats = pool.stats();
  c.sim_makespan = stats.makespan_simulated_seconds();
  for (double s : stats.worker_busy_simulated_seconds) c.sim_busy += s;
  c.hits = pool.plan_cache().hits();
  c.misses = pool.plan_cache().misses();
  return c;
}

// Host requests/sec of a warm, cache-on `workers`-worker pool: kInFlight
// requests stay queued, each completion is replaced until the window has
// lasted kTrialWindowSeconds, and the window closes at the last completion.
// One warmup round first absorbs the plan miss and device construction.
double steady_state_pps(idx m, idx n, int workers) {
  PoolOptions po;
  po.workers = workers;
  po.queue_capacity = kInFlight + 8;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);
  RequestOptions req;
  std::deque<std::future<QrResponse<float>>> futs;
  auto submit = [&] {
    futs.push_back(pool.submit(Matrix<float>::shape_only(m, n), req));
  };
  auto finish = [&] {
    if (futs.front().get().status != RequestStatus::Done) std::abort();
    futs.pop_front();
  };

  for (int i = 0; i < kInFlight; ++i) submit();
  while (!futs.empty()) finish();

  long long done = 0;
  const double t0 = wall_seconds();
  for (int i = 0; i < kInFlight; ++i) submit();
  while (!futs.empty()) {
    finish();
    ++done;
    if (wall_seconds() - t0 < kTrialWindowSeconds) submit();
  }
  return static_cast<double>(done) / (wall_seconds() - t0);
}

struct WallTrial {
  double pps_1 = 0;
  double pps_4 = 0;
  double ratio() const { return pps_4 / pps_1; }
};

// Steady-state profile window: warm a cache-on pool up, zero the profiling
// registry AND the process-wide allocation counters, run `measured` more
// requests, and dump the counters. Warmup absorbs the one-time costs (plan
// miss, worker/device construction, allocator warm pools) so the window is
// the per-request marginal cost — the quantity the arena work targets.
std::string run_profile_window(idx m, idx n, int workers, int warmup,
                               int measured) {
  PoolOptions po;
  po.workers = workers;
  po.queue_capacity = static_cast<std::size_t>(warmup + measured) + 8;
  po.mode = ExecMode::ModelOnly;
  po.use_plan_cache = true;
  SolverPool pool(po);
  RequestOptions req;

  auto run_n = [&](int count) {
    std::vector<std::future<QrResponse<float>>> futs;
    futs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      futs.push_back(pool.submit(Matrix<float>::shape_only(m, n), req));
    }
    for (auto& f : futs) {
      if (f.get().status != RequestStatus::Done) std::abort();
    }
    pool.drain();
  };

  run_n(warmup);
  caqr::prof::reset();
  const double t0 = wall_seconds();
  run_n(measured);
  const double wall = wall_seconds() - t0;

  const long long allocs = caqr::prof::allocation_count();
  const long long alloc_bytes = caqr::prof::allocation_bytes();
  std::printf(
      "\nProfile window (%d workers, %d measured requests after %d warmup):\n"
      "  host wall            %10.4f s  (%.1f problems/s)\n"
      "  allocations          %10lld    (%.0f per request)\n"
      "  allocated bytes      %10lld    (%.0f KiB per request)\n",
      workers, measured, warmup, wall, measured / wall, allocs,
      static_cast<double>(allocs) / measured, alloc_bytes,
      static_cast<double>(alloc_bytes) / measured / 1024.0);
  for (const auto& s : caqr::prof::snapshot()) {
    std::printf("  %-28s count %10lld   value %14lld\n", s.name.c_str(),
                s.count, s.value);
  }

  char buf[256];
  std::string json = "{\"shape\":{";
  std::snprintf(buf, sizeof(buf),
                "\"rows\":%lld,\"cols\":%lld,\"dtype\":\"float\"},"
                "\"mode\":\"ModelOnly\",\"workers\":%d,"
                "\"warmup_requests\":%d,\"measured_requests\":%d,"
                "\"wall_seconds\":%.4f,",
                static_cast<long long>(m), static_cast<long long>(n), workers,
                warmup, measured, wall);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "\"per_request\":{\"allocations\":%.1f,"
                "\"allocated_bytes\":%.0f,\"host_us\":%.1f},",
                static_cast<double>(allocs) / measured,
                static_cast<double>(alloc_bytes) / measured,
                wall * 1e6 / measured);
  json += buf;
  json += "\"profile\":";
  json += caqr::prof::to_json();
  // Pre-arena baseline for the same window shape (4 workers, plan cache
  // on), measured on the seed revision with a malloc-interposer shim as the
  // marginal allocation count between --problems 64 and --problems 256
  // runs of a single-config table; wall numbers are the seed bench's own
  // 1/4/8-worker cache-on rows from the same host.
  json +=
      ",\"seed_baseline\":{\"per_request\":{\"allocations\":2424,"
      "\"allocated_bytes\":809612},"
      "\"wall_problems_per_sec\":{\"w1\":1952.4,\"w4\":1839.2,\"w8\":1731.0},"
      "\"method\":\"malloc interposer, marginal over 192 extra requests\"}";
  json += "}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const idx m = args.get_int("rows", 110592);
  const idx n = args.get_int("cols", 100);
  const int problems =
      static_cast<int>(args.get_int("problems", quick ? 16 : 128));

  std::printf("Serve throughput bench: %d requests of %lld x %lld float "
              "(ModelOnly, C2050 per worker)\n\n",
              problems, static_cast<long long>(m), static_cast<long long>(n));

  std::vector<Cell> cells;
  // Worker scaling x plan cache, unbatched.
  for (const bool cache : {true, false}) {
    for (const int workers : {1, 2, 4, 8}) {
      cells.push_back(run_config(m, n, problems, workers, 1, cache));
    }
  }
  // Batch fusion at a fixed worker count, cache on.
  for (const int batch : {4, 8}) {
    cells.push_back(run_config(m, n, problems, 4, batch, true));
  }

  std::printf("%-8s %-6s %-6s %14s %16s %14s %14s %12s\n", "workers",
              "batch", "cache", "sim makespan", "sim problems/s",
              "sim s/problem", "host wall s", "host pps");
  for (const auto& c : cells) {
    std::printf("%-8d %-6d %-6s %12.4f s %16.2f %14.5f %12.4f s %12.1f\n",
                c.workers, c.batch, c.cache ? "on" : "off", c.sim_makespan,
                c.sim_pps(), c.sim_per_problem(), c.wall, c.wall_pps());
  }

  auto find = [&](int workers, int batch, bool cache) -> const Cell& {
    for (const auto& c : cells) {
      if (c.workers == workers && c.batch == batch && c.cache == cache)
        return c;
    }
    std::abort();
  };
  // Simulated and wall scaling, both reported explicitly: the old single
  // `scaling_8_vs_1_workers` key was computed from simulated time only and
  // silently masked a wall-clock regression (8 workers slower than 1).
  const double sim_scaling_8v1 =
      find(8, 1, true).sim_pps() / find(1, 1, true).sim_pps();
  const double sweep_wall_scaling_4v1 =
      find(4, 1, true).wall_pps() / find(1, 1, true).wall_pps();
  const double wall_scaling_8v4 =
      find(8, 1, true).wall_pps() / find(4, 1, true).wall_pps();
  const double cache_gain =
      find(4, 1, true).wall_pps() / find(4, 1, false).wall_pps();
  // Per-problem device seconds (total busy / problems) isolates the fused
  // launch win from queue load imbalance on the finite request stream.
  const double batch_gain =
      find(4, 1, true).sim_per_problem() / find(4, 8, true).sim_per_problem();
  const double wall_batch_gain =
      find(4, 4, true).wall_pps() / find(4, 1, true).wall_pps();

  std::printf("\nWall scaling trials (%d x %.0f ms windows, %d in flight):\n",
              kWallTrials, kTrialWindowSeconds * 1e3, kInFlight);
  std::vector<WallTrial> trials;
  std::vector<double> ratios;
  for (int t = 0; t < kWallTrials; ++t) {
    WallTrial w;
    w.pps_1 = steady_state_pps(m, n, 1);
    w.pps_4 = steady_state_pps(m, n, 4);
    trials.push_back(w);
    ratios.push_back(w.ratio());
    std::printf("  trial %d: 1 worker %9.1f problems/s, 4 workers %9.1f "
                "problems/s, ratio %.3f\n",
                t, w.pps_1, w.pps_4, w.ratio());
  }
  std::sort(ratios.begin(), ratios.end());
  const double wall_median = ratios[ratios.size() / 2];
  const double wall_min = ratios.front();
  const double wall_max = ratios.back();

  // Only the batch gain and the median trial ratio are gated. The batch
  // gain compares simulated seconds per problem, which are deterministic.
  // The rest are reported: with a short request stream the 8-vs-1
  // simulated scaling depends on which workers wake before the first one
  // drains the queue, and the sweep's wall ratios come from windows of a
  // few milliseconds that move with host load.
  std::printf(
      "\n8-worker vs 1-worker simulated scaling:   %.2fx\n"
      "4-worker vs 1-worker WALL scaling:        %.2fx median (min %.2fx, "
      "max %.2fx; acceptance: median >= 1)\n"
      "4-worker vs 1-worker sweep WALL scaling:  %.2fx\n"
      "8-worker vs 4-worker WALL scaling:        %.2fx\n"
      "plan-cache on vs off host throughput:     %.2fx\n"
      "batch=8 vs unbatched sim s/problem gain:  %.3fx (acceptance: > 1)\n"
      "batch=4 vs unbatched WALL throughput:     %.3fx\n",
      sim_scaling_8v1, wall_median, wall_min, wall_max, sweep_wall_scaling_4v1,
      wall_scaling_8v4, cache_gain, batch_gain, wall_batch_gain);

  std::string json = "{\"shape\":{";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"rows\":%lld,\"cols\":%lld,\"dtype\":\"float\"},"
                "\"problems\":%d,\"mode\":\"ModelOnly\",\"results\":[",
                static_cast<long long>(m), static_cast<long long>(n),
                problems);
  json += buf;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"workers\":%d,\"batch\":%d,\"plan_cache\":%s,"
        "\"sim_makespan_seconds\":%.6e,\"sim_problems_per_sec\":%.3f,"
        "\"sim_seconds_per_problem\":%.6e,"
        "\"wall_seconds\":%.4f,\"wall_problems_per_sec\":%.1f,"
        "\"plan_hits\":%lld,\"plan_misses\":%lld,\"fused_launches\":%lld}",
        i ? "," : "", c.workers, c.batch, c.cache ? "true" : "false",
        c.sim_makespan, c.sim_pps(), c.sim_per_problem(), c.wall,
        c.wall_pps(), c.hits, c.misses,
        static_cast<long long>(c.fused_launches));
    json += buf;
  }
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::snprintf(buf, sizeof(buf),
                "],\"acceptance\":{\"batch8_vs_unbatched\":%.3f,"
                "\"wall_scaling_4_vs_1_workers\":{\"median\":%.3f,"
                "\"min\":%.3f,\"max\":%.3f,\"window_seconds\":%.3f,"
                "\"in_flight\":%d,\"trials\":[",
                batch_gain, wall_median, wall_min, wall_max,
                kTrialWindowSeconds, kInFlight);
  json += buf;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"w1_problems_per_sec\":%.1f,"
                  "\"w4_problems_per_sec\":%.1f,\"ratio\":%.3f}",
                  i ? "," : "", trials[i].pps_1, trials[i].pps_4,
                  trials[i].ratio());
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "]},\"hardware_threads\":%u,\"wall_gate_enforced\":%s},"
                "\"report\":{\"sim_scaling_8_vs_1_workers\":%.3f,"
                "\"plan_cache_on_vs_off\":%.3f,"
                "\"sweep_wall_scaling_4_vs_1_workers\":%.3f,"
                "\"wall_scaling_8_vs_4_workers\":%.3f,"
                "\"wall_batch4_vs_unbatched\":%.3f}}",
                hw_threads, hw_threads >= 4 ? "true" : "false",
                sim_scaling_8v1, cache_gain, sweep_wall_scaling_4v1,
                wall_scaling_8v4, wall_batch_gain);
  json += buf;

  const char* json_path = "BENCH_serve_throughput.json";
  if (std::FILE* jf = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), jf);
    std::fclose(jf);
    std::printf("\nWrote %s\n", json_path);
  }

  // Steady-state host profile window at the acceptance worker count.
  const std::string profile_json =
      run_profile_window(m, n, 4, /*warmup=*/8, quick ? 16 : 64);
  const char* prof_path = "BENCH_serve_profile.json";
  if (std::FILE* pf = std::fopen(prof_path, "w")) {
    std::fputs(profile_json.c_str(), pf);
    std::fclose(pf);
    std::printf("Wrote %s\n", prof_path);
  }

  // Fusing 8 same-shape problems into one launch schedule must cost less
  // simulated time per problem than serving them one by one.
  if (batch_gain <= 1.0) {
    std::printf(
        "\nFAIL: batch=8 vs unbatched sim s/problem gain is %.3fx (<= 1.0): "
        "batch fusion saves no simulated time.\n",
        batch_gain);
    return 1;
  }
  // A median wall scaling at 4 workers below 1.0 means adding workers LOSES
  // wall throughput — the regression this bench exists to catch. Only
  // enforce where 4 workers can actually run in parallel: on fewer cores
  // the host work is serialized by the machine, not by the code under test.
  if (wall_median < 1.0) {
    if (hw_threads >= 4) {
      std::printf(
          "\nFAIL: median wall scaling at 4 workers is %.3fx (< 1.0): "
          "multi-worker serving is a wall-clock regression.\n",
          wall_median);
      return 1;
    }
    std::printf(
        "\nNOTE: median wall scaling at 4 workers is %.3fx on %u hardware "
        "thread(s); not enforced below 4 cores.\n",
        wall_median, hw_threads);
  }
  return 0;
}
