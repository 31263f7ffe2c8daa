// serve_model: ModelOnly float QR requests through serve::SolverPool.
//
// Why: the serving front door at paper scale with no arithmetic. All host
// time is queueing, plan lookup and plan build, kernel construction, cost
// accounting and timeline resolve, which is where the serving and simulator
// optimisations act. 3 workers plus this file's one generator thread keep
// the workload at 4 busy threads.
//
// Traffic: Zipf(1.5) over the 80-shape catalogue (more shapes than the
// PlanCache holds), so most requests hit the plan cache and a measured share
// miss it: hits set the median, misses set the tail. Two phases:
//   * closed loop, kWindow requests kept in flight: capacity (requests/s)
//     and program CPU per request; the untraced run is this phase alone;
//   * open loop (traced run), seeded Poisson arrivals at kOpenLoopRate:
//     latency from each request's due time, so a stall also charges the
//     requests it delays. The rate is half the lowest closed-loop capacity
//     seen on a shared 4-vCPU host (8-23k req/s as neighbours come and go);
//     at a rate near a slow period's capacity the queue grows and latency
//     explodes.

#include <algorithm>
#include <future>
#include <thread>

#include "common/profile.hpp"
#include "linalg/flops.hpp"
#include "serve/solver_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caqr;

namespace {

constexpr int kWorkers = 3;
constexpr double kZipfS = 1.5;
constexpr std::size_t kWindow = 24;  // closed-loop requests in flight
constexpr auto kPollNap = std::chrono::microseconds(50);
constexpr double kOpenLoopRate = 4000.0;  // requests per second
constexpr int kSetupRepeats = 5;
constexpr int kSubWindows = 8;  // closed-loop capacity trials per run
// Open-loop latency trials per run: each sub-window's p50 and p99 come from
// thousands of samples, and their medians shrug off a stalled sub-window.
constexpr int kOpenWindows = 12;

serve::PoolOptions pool_options(int workers) {
  serve::PoolOptions po;
  po.workers = workers;
  po.mode = gpusim::ExecMode::ModelOnly;
  po.model = gpusim::GpuMachineModel::c2050();
  po.use_plan_cache = true;
  return po;
}

// Simulated seconds of one request of every catalogue shape, served alone by
// a fresh 1-worker pool: the reference every measured response must match
// bit for bit.
std::vector<double> reference_seconds() {
  serve::SolverPool ref(pool_options(1));
  std::vector<std::future<serve::QrResponse<float>>> futs;
  for (const Shape& s : serve_catalogue()) {
    futs.push_back(ref.submit(Matrix<float>::shape_only(s.rows, s.cols)));
  }
  std::vector<double> out;
  for (auto& f : futs) out.push_back(f.get().simulated_seconds);
  return out;
}

// Warms a pool: one request per catalogue shape, least popular first, so the
// cache ends holding the most popular plans.
void warm_up(serve::SolverPool& pool) {
  std::vector<std::future<serve::QrResponse<float>>> futs;
  const auto& cat = serve_catalogue();
  for (std::size_t i = cat.size(); i-- > 0;) {
    futs.push_back(
        pool.submit(Matrix<float>::shape_only(cat[i].rows, cat[i].cols)));
  }
  for (auto& f : futs) f.get();
}

// One thread driving one pool: submits, polls the futures it holds and
// checks every response against the reference.
class Driver {
 public:
  Driver(serve::SolverPool& pool, const std::vector<double>& ref,
         Report& rep, std::uint64_t seed)
      : pool_(pool), ref_(ref), rep_(rep), rng_(seed),
        zipf_(serve_catalogue().size(), kZipfS) {}

  struct PhaseResult {
    // Open loop only (the closed loop keeps no per-request samples, so they
    // do not count in its peak RSS): due time to completion by the
    // sub-window the request was due in, and time inside submit.
    std::vector<std::vector<double>> window_latency_ms;
    std::vector<double> submit_us;
    std::vector<double> lag_ms;      // generator lateness (open loop)
    std::vector<double> window_rps;  // closed-loop sub-window capacity
    // Program CPU ms per request, ditto: the process's CPU time less the
    // generator thread's own.
    std::vector<double> window_cpu_ms;
    std::vector<double> backlog;     // requests in flight at each arrival
    long long completed = 0;
    long long plan_misses = 0;  // responses whose plan was not cached
    double flops = 0, sim_seconds = 0;
  };

  // Keeps kWindow requests in flight for `seconds`.
  PhaseResult closed_loop(const char* phase, double seconds) {
    PhaseResult res;
    start(phase, res, 0);
    const auto t0 = Clock::now();
    const double sub = seconds / kSubWindows;
    long long before = 0;
    double cpu_before = other_threads_cpu_seconds();
    for (int w = 0; w < kSubWindows; ++w) {
      const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(sub * (w + 1)));
      while (Clock::now() < end) {
        while (inflight_.size() < kWindow) submit(Clock::now());
        // The window keeps every worker busy for longer than this nap, and
        // a generator that does not spin leaves the workers their cores.
        std::this_thread::sleep_for(kPollNap);
        poll();
      }
      const double done = static_cast<double>(res.completed - before);
      const double cpu = other_threads_cpu_seconds();
      res.window_rps.push_back(done / sub);
      res.window_cpu_ms.push_back((cpu - cpu_before) * 1e3 / done);
      before = res.completed;
      cpu_before = cpu;
    }
    drain();
    return res;
  }

  // Seeded Poisson arrivals at `rate` for `seconds`.
  PhaseResult open_loop(const char* phase, double rate, double seconds,
                        std::uint64_t seed) {
    PhaseResult res;
    start(phase, res, kOpenWindows);
    const std::vector<double> due = poisson_schedule(rate, seconds, seed);
    res.lag_ms.reserve(due.size());
    const auto t0 = Clock::now();
    for (const double d : due) {
      const auto due_t = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(d));
      auto now = Clock::now();
      while (now < due_t) {
        poll();
        now = Clock::now();
      }
      res.lag_ms.push_back(seconds_between(due_t, now) * 1e3);
      window_ = std::min(kOpenWindows - 1,
                         static_cast<int>(d / seconds * kOpenWindows));
      res.backlog.push_back(static_cast<double>(inflight_.size()));
      submit(due_t);
    }
    drain();
    return res;
  }

 private:
  struct InFlight {
    std::future<serve::QrResponse<float>> fut;
    Clock::time_point due;
    std::size_t shape;
    int window;
  };

  void start(const char* phase, PhaseResult& res, int windows) {
    phase_ = phase;
    res_ = &res;
    res.window_latency_ms.assign(static_cast<std::size_t>(windows), {});
    window_ = 0;
  }

  void submit(Clock::time_point due) {
    const std::size_t k = zipf_.sample(rng_);
    const Shape& s = serve_catalogue()[k];
    ++requests_;
    SpanScope span("serve.submit", requests_);
    const auto t0 = Clock::now();
    auto fut = pool_.submit(Matrix<float>::shape_only(s.rows, s.cols));
    if (!res_->window_latency_ms.empty()) {
      res_->submit_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    inflight_.push_back({std::move(fut), due, k, window_});
  }

  void poll() {
    for (std::size_t i = 0; i < inflight_.size();) {
      if (inflight_[i].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const auto done = Clock::now();
      finish(inflight_[i], done);
      inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
    }
  }

  void drain() {
    while (!inflight_.empty()) {
      poll();
      std::this_thread::yield();
    }
  }

  void finish(InFlight& r, Clock::time_point done) {
    serve::QrResponse<float> resp = r.fut.get();
    rep_.attempt(phase_);
    if (resp.status != serve::RequestStatus::Done) {
      rep_.failure(phase_, std::string("request ") +
                               serve::request_status_name(resp.status));
      return;
    }
    if (resp.run_status.severity == ft::Severity::Unrecovered) {
      rep_.failure(phase_, "unrecovered solve");
      return;
    }
    if (resp.simulated_seconds != ref_[r.shape]) {
      rep_.failure(phase_, "simulated_seconds differs from the reference run");
      return;
    }
    const Shape& s = serve_catalogue()[r.shape];
    if (!res_->window_latency_ms.empty()) {
      res_->window_latency_ms[static_cast<std::size_t>(r.window)].push_back(
          seconds_between(r.due, done) * 1e3);
    }
    if (!resp.plan_cache_hit) ++res_->plan_misses;
    res_->flops += qr_useful_flops(s.rows, s.cols);
    res_->sim_seconds += resp.simulated_seconds;
    ++res_->completed;
  }

  serve::SolverPool& pool_;
  const std::vector<double>& ref_;
  Report& rep_;
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<InFlight> inflight_;
  const char* phase_ = "";
  PhaseResult* res_ = nullptr;
  int window_ = 0;  // sub-window the next submitted request belongs to
  std::uint64_t requests_ = 0;
};

// Per open-loop sub-window latency p50 and p99. A sub-window of a normal run
// holds thousands of samples, so its p99 has more than ten beyond it; in a
// run too short for that the sub-window maximum stands in.
void window_quantiles(const Driver::PhaseResult& r, std::vector<double>& p50,
                      std::vector<double>& p99) {
  for (const auto& w : r.window_latency_ms) {
    p50.push_back(percentile(w, 0.5));
    p99.push_back(tail_latency(w));
  }
}

// Mean in-flight count over the last quarter of arrivals minus the first:
// near zero when the open-loop rate is sustainable.
double backlog_growth(const std::vector<double>& b) {
  const std::size_t q = b.size() / 4;
  if (q == 0) return 0;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += b[i];
    last += b[b.size() - 1 - i];
  }
  return (last - first) / static_cast<double>(q);
}

}  // namespace

void run_serve_model(const RunConfig& cfg, Report& rep,
                     std::string& device_trace) {
  const std::vector<double> ref = reference_seconds();
  rep.note("catalogue_shapes", static_cast<double>(serve_catalogue().size()));
  rep.note("paper_shape_share", ZipfSampler(serve_catalogue().size(), kZipfS)
                                    .probability(0));

  // Set-up: pool construction plus one warm-up request per shape (plan
  // builds included), repeated; the last pool serves the measured phases.
  // setup_s is the program's CPU time for it; the wall time is noted.
  std::vector<double> setup_cpu, setup_wall;
  std::unique_ptr<serve::SolverPool> pool;
  for (int i = 0; i < kSetupRepeats; ++i) {
    pool.reset();
    SpanScope span("bench.setup");
    const double c0 = other_threads_cpu_seconds();
    const auto t0 = Clock::now();
    pool = std::make_unique<serve::SolverPool>(pool_options(kWorkers));
    warm_up(*pool);
    setup_wall.push_back(seconds_between(t0, Clock::now()));
    setup_cpu.push_back(other_threads_cpu_seconds() - c0);
  }
  Driver drv(*pool, ref, rep, cfg.seed);

  if (!cfg.trace) {
    rep.trials("setup_s", setup_cpu);
    rep.trials("setup_wall_s", setup_wall);
    rep.set("setup_s", summarize(setup_cpu).median);
    const auto closed = drv.closed_loop("closed_loop", cfg.seconds);
    rep.trials("cpu_ms_per_unit", closed.window_cpu_ms);
    rep.set("cpu_ms_per_unit", summarize(closed.window_cpu_ms).median);
    rep.trials("wall_throughput_per_s", closed.window_rps);
    rep.set("sim_gflops", closed.flops / closed.sim_seconds * 1e-9);
    rep.set("peak_rss_mb", peak_rss_mib());
    return;
  }

  // Traced run. Untraced closed loop first (host counters and the tracing
  // overhead baseline), then the same loop traced, then one worker alone,
  // then the open loop for queue wait, submit time and generator lag.
  Tracer& tracer = Tracer::get();
  const double s = cfg.seconds;
  const serve::PlanCache& pc = pool->plan_cache();
  const long long hits0 = pc.hits(), misses0 = pc.misses(),
                  evict0 = pc.evictions();
  tracer.pause();
  prof::reset();
  const double cpu0 = process_cpu_seconds();
  const auto w0 = Clock::now();
  const auto plain = drv.closed_loop("closed_loop", 0.2 * s);
  const double wall = seconds_between(w0, Clock::now());
  const double cpu = process_cpu_seconds() - cpu0;
  report_host_counters(rep, plain.completed);
  const long long hits = pc.hits() - hits0, misses = pc.misses() - misses0;
  rep.set("plan.hit_ratio", static_cast<double>(hits) /
                                static_cast<double>(std::max(1LL, hits + misses)));
  rep.set("plan.evictions",
          static_cast<double>(pc.evictions() - evict0));
  rep.set("common.cpu_util", cpu / (wall * hardware_threads()));
  tracer.resume();

  const auto traced = drv.closed_loop("closed_loop_traced", 0.2 * s);
  const double rps = summarize(plain.window_rps).median;
  rep.set("wall.throughput_per_s", rps);
  const double rps_traced = summarize(traced.window_rps).median;
  rep.set("trace.overhead_pct", (rps / rps_traced - 1.0) * 100.0);

  double rps1 = 0;
  {
    serve::SolverPool one(pool_options(1));
    warm_up(one);
    Driver d1(one, ref, rep, cfg.seed + 1);
    rps1 = summarize(d1.closed_loop("closed_loop_1worker", 0.2 * s).window_rps)
               .median;
  }
  rep.set("serve.rps_1worker", rps1);
  rep.set("serve.scaling", rps / rps1);

  prof::reset();
  const auto open = drv.open_loop("open_loop", kOpenLoopRate, 0.3 * s,
                                  cfg.seed ^ 0x0be9ULL);
  report_queue_wait(rep);
  std::vector<double> p50, p99;
  window_quantiles(open, p50, p99);
  rep.trials("wall.latency_p50_ms", p50);
  rep.set("wall.latency_p50_ms", summarize(p50).median);
  rep.trials("serve.open_loop_p99_ms", p99);
  rep.set("serve.open_loop_p99_ms", summarize(p99).median);
  rep.set("serve.submit_us", percentile(open.submit_us, 0.5));
  rep.set("serve.gen_lag_ms.p99", percentile(open.lag_ms, 0.99));
  rep.set("serve.backlog_growth", backlog_growth(open.backlog));
  rep.note("open_loop_plan_miss_share",
           static_cast<double>(open.plan_misses) /
               static_cast<double>(std::max(1LL, open.completed)));

  device_trace = layer_probes(rep);
}

}  // namespace perfbench
