// qr_functional: Functional float QR through serve::SolverPool, 1 worker
// and one closed-loop client (this thread). Device blocks run on the global
// ThreadPool, so the worker plus the pool's threads fill the host.
//
// Why: the same serve layer in its other mode. Real arithmetic in kernels,
// linalg and tsqr dominates and the serving overhead is negligible, so a
// ModelOnly-only gain that costs Functional serving shows here, and so does
// any vector-rate kernel work.
//
// Traffic: a fixed list of three requests, issued in a seeded order each
// pass: a TSQR-dominated tall-skinny shape, a trailing-update-dominated
// shape, and a well-conditioned request whose condition estimate lets the
// picker route it to CholeskyQR2. Inputs are seeded Gaussian matrices.
// verify_qr costs more than the factorization, so it runs once per input
// after the timed window; every timed response must then equal the verified
// factors bit for bit (the pool's determinism contract).

#include <algorithm>

#include "common/profile.hpp"
#include "gpusim/report.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"
#include "serve/solver_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caqr;

namespace {

struct RequestSpec {
  const char* label;
  Shape shape;
  double cond_estimate;  // 0 = none: Householder algorithms only
};

// Working sets stay at 6-16 MiB: an 8192 x 512 trailing-update request
// swung by up to 2x between repeats on a shared 4-vCPU host, these by ~1.3x.
constexpr RequestSpec kRequests[] = {
    {"tsqr_65536x64", {65536, 64}, 0.0},
    {"trailing_4096x384", {4096, 384}, 0.0},
    {"cholqr_16384x128", {16384, 128}, 10.0},
};
constexpr std::size_t kNumRequests = std::size(kRequests);
constexpr int kSetupRepeats = 3;

serve::PoolOptions pool_options() {
  serve::PoolOptions po;
  po.workers = 1;
  po.mode = gpusim::ExecMode::Functional;
  po.model = gpusim::GpuMachineModel::c2050();
  return po;
}

serve::RequestOptions request_options(const RequestSpec& r) {
  serve::RequestOptions ro;
  ro.cond_estimate = r.cond_estimate;
  return ro;
}

const char* algo_name(QrAlgorithm a) {
  switch (a) {
    case QrAlgorithm::Auto: return "auto";
    case QrAlgorithm::Caqr: return "caqr";
    case QrAlgorithm::Hybrid: return "hybrid";
    case QrAlgorithm::CholeskyQr2: return "cholqr2";
    case QrAlgorithm::CholeskyQr3: return "cholqr3";
    case QrAlgorithm::CholeskyQr2Mixed: return "cholqr2_mixed";
  }
  return "?";
}

struct Sample {
  std::size_t request;
  double latency_s;
  double submit_us;
  double sim_seconds;
};

// One request through the pool, timed from submit to the response; the
// response is checked against the reference factors.
Sample serve_one(serve::SolverPool& pool, const Matrix<float>& input,
                 std::size_t k, const serve::QrResponse<float>* ref,
                 Report& rep, const char* phase, std::uint64_t id) {
  Matrix<float> a = Matrix<float>::from(input.view());  // outside the clock
  SpanScope span("serve.request", id);
  const auto t0 = Clock::now();
  std::future<serve::QrResponse<float>> fut;
  {
    SpanScope s("serve.submit", id);
    fut = pool.submit(std::move(a), request_options(kRequests[k]));
  }
  const auto t1 = Clock::now();
  serve::QrResponse<float> resp;
  {
    SpanScope s("serve.wait", id);
    resp = fut.get();
  }
  const auto t2 = Clock::now();
  rep.attempt(phase);
  const std::string what = kRequests[k].label;
  if (resp.status != serve::RequestStatus::Done) {
    rep.failure(phase, what + " " + serve::request_status_name(resp.status));
  } else if (resp.run_status.severity == ft::Severity::Unrecovered) {
    rep.failure(phase, what + " unrecovered solve");
  } else if (ref != nullptr && (!same_bits(resp.result.q, ref->result.q) ||
                                !same_bits(resp.result.r, ref->result.r))) {
    rep.failure(phase, what + " factors differ from the verified reference");
  }
  return {k, seconds_between(t0, t2), seconds_between(t0, t1) * 1e6,
          resp.simulated_seconds};
}

}  // namespace

void run_qr_functional(const RunConfig& cfg, Report& rep,
                       std::string& device_trace) {
  std::vector<Matrix<float>> inputs;
  for (std::size_t k = 0; k < kNumRequests; ++k) {
    const Shape& s = kRequests[k].shape;
    inputs.push_back(gaussian_matrix<float>(s.rows, s.cols,
                                            cfg.seed * 1000003ULL + k));
  }

  // Set-up: pool construction plus one warm-up request per shape (plan
  // builds included), repeated. The last warm-up responses are the
  // references the timed responses must reproduce. setup_s is the program's
  // CPU time for it (this client thread only copies inputs and waits).
  std::vector<double> setup, setup_wall;
  std::unique_ptr<serve::SolverPool> pool;
  std::vector<serve::QrResponse<float>> refs(kNumRequests);
  const int repeats = cfg.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    pool.reset();
    SpanScope span("bench.setup");
    const double c0 = other_threads_cpu_seconds();
    const auto t0 = Clock::now();
    pool = std::make_unique<serve::SolverPool>(pool_options());
    for (std::size_t k = 0; k < kNumRequests; ++k) {
      refs[k] = pool->submit(Matrix<float>::from(inputs[k].view()),
                             request_options(kRequests[k]))
                    .get();
    }
    setup_wall.push_back(seconds_between(t0, Clock::now()));
    setup.push_back(other_threads_cpu_seconds() - c0);
  }
  std::string used = "{";
  for (std::size_t k = 0; k < kNumRequests; ++k) {
    used += (k ? "," : "") + json_string(kRequests[k].label) + ":" +
            json_string(algo_name(refs[k].result.used));
  }
  rep.note("algorithm_used", used + "}");

  // Passes over the three requests in a seeded order, whole passes only, so
  // every shape contributes equally to the latency distribution.
  Rng order(cfg.seed ^ 0x9f0cULL);
  std::uint64_t id = 0;
  // Runs one pass; returns its summed request latency in seconds.
  auto pass = [&](const char* phase, std::vector<Sample>& out) {
    std::size_t idx[kNumRequests] = {0, 1, 2};
    for (std::size_t i = kNumRequests; i > 1; --i) {
      std::swap(idx[i - 1], idx[order.next() % i]);
    }
    double seconds = 0;
    for (const std::size_t k : idx) {
      out.push_back(
          serve_one(*pool, inputs[k], k, &refs[k], rep, phase, ++id));
      seconds += out.back().latency_s;
    }
    return seconds;
  };
  auto totals = [](const std::vector<Sample>& v, double& flops,
                   double& wall, double& sim) {
    flops = wall = sim = 0;
    for (const Sample& s : v) {
      const Shape& sh = kRequests[s.request].shape;
      flops += qr_useful_flops(sh.rows, sh.cols);
      wall += s.latency_s;
      sim += s.sim_seconds;
    }
  };

  if (!cfg.trace) {
    rep.trials("setup_s", setup);
    rep.trials("setup_wall_s", setup_wall);
    rep.set("setup_s", summarize(setup).median);
    std::vector<Sample> samples;
    std::vector<double> pass_s, pass_cpu_s;
    const auto t0 = Clock::now();
    do {
      const double c0 = other_threads_cpu_seconds();
      pass_s.push_back(pass("closed_loop", samples));
      pass_cpu_s.push_back(other_threads_cpu_seconds() - c0);
    } while (seconds_between(t0, Clock::now()) < cfg.seconds ||
             pass_s.size() < 2);
    double flops, wall, sim;
    totals(samples, flops, wall, sim);
    rep.trials("pass_s", pass_s);
    std::vector<double> cpu_ms;
    for (const double c : pass_cpu_s) cpu_ms.push_back(c * 1e3 / kNumRequests);
    rep.trials("cpu_ms_per_unit", cpu_ms);
    rep.set("cpu_ms_per_unit", summarize(cpu_ms).median);
    for (std::size_t k = 0; k < kNumRequests; ++k) {
      std::vector<double> ms;
      for (const Sample& s : samples) {
        if (s.request == k) ms.push_back(s.latency_s * 1e3);
      }
      rep.trials(std::string("latency_ms.") + kRequests[k].label, ms);
    }
    rep.note("requests", static_cast<double>(samples.size()));
    rep.note("host_gflops", flops / wall * 1e-9);
    rep.set("sim_gflops", flops / sim * 1e-9);
  } else {
    // Plain and traced passes alternate for the run's length; the host
    // counters, CPU use and hit ratio cover all of them (spans live in this
    // file only, so the program's counters see the same work either way).
    Tracer& tracer = Tracer::get();
    const auto& pc = pool->plan_cache();
    const long long hits0 = pc.hits(), misses0 = pc.misses(),
                    evict0 = pc.evictions();
    prof::reset();
    std::vector<Sample> plain, traced;
    std::vector<double> plain_pass, traced_pass;
    const double cpu0 = process_cpu_seconds();
    const auto w0 = Clock::now();
    do {
      tracer.pause();
      plain_pass.push_back(pass("closed_loop", plain));
      tracer.resume();
      traced_pass.push_back(pass("closed_loop_traced", traced));
    } while (seconds_between(w0, Clock::now()) < cfg.seconds ||
             plain_pass.size() < 2);
    const double wall_s = seconds_between(w0, Clock::now());
    const double cpu = process_cpu_seconds() - cpu0;
    report_host_counters(rep,
                         static_cast<long long>(plain.size() + traced.size()));
    report_queue_wait(rep);
    rep.set("common.cpu_util", cpu / (wall_s * hardware_threads()));
    const long long hits = pc.hits() - hits0, misses = pc.misses() - misses0;
    rep.set("plan.hit_ratio",
            static_cast<double>(hits) /
                static_cast<double>(std::max(1LL, hits + misses)));
    rep.set("plan.evictions", static_cast<double>(pc.evictions() - evict0));

    double flops, wall, sim;
    totals(plain, flops, wall, sim);
    rep.set("qr.host_gflops", flops / wall * 1e-9);
    rep.trials("pass_s", plain_pass);
    rep.trials("traced_pass_s", traced_pass);
    rep.set("wall.throughput_per_s",
            kNumRequests / summarize(plain_pass).median);
    std::vector<double> plain_ms;
    for (const Sample& s : plain) plain_ms.push_back(s.latency_s * 1e3);
    rep.set("wall.latency_p50_ms", percentile(plain_ms, 0.5));
    rep.set("trace.overhead_pct", (summarize(traced_pass).median /
                                       summarize(plain_pass).median -
                                   1.0) *
                                      100.0);
    std::vector<double> submit_us, cholqr_gflops;
    for (const Sample& s : plain) {
      submit_us.push_back(s.submit_us);
      if (refs[s.request].result.used == QrAlgorithm::CholeskyQr2) {
        const Shape& sh = kRequests[s.request].shape;
        cholqr_gflops.push_back(qr_useful_flops(sh.rows, sh.cols) /
                                s.latency_s * 1e-9);
      }
    }
    rep.set("serve.submit_us", percentile(submit_us, 0.5));
    rep.set("tsqr.cholqr_gflops", summarize(cholqr_gflops).median);

    // caqr.factor / form_q timed directly on the CAQR-routed inputs, with
    // the options their plans chose; results must equal the served factors.
    const auto model = gpusim::GpuMachineModel::c2050();
    gpusim::Device dev(model, gpusim::ExecMode::Functional);
    double factor_flops = 0, factor_s = 0, formq_flops = 0, formq_s = 0;
    for (std::size_t k = 0; k < kNumRequests; ++k) {
      if (refs[k].result.used != QrAlgorithm::Caqr) continue;
      const Shape& sh = kRequests[k].shape;
      const serve::QrPlan plan = serve::make_plan<float>(
          model, sh.rows, sh.cols, QrAlgorithm::Auto, {},
          kRequests[k].cond_estimate);
      Matrix<float> a = Matrix<float>::from(inputs[k].view());
      dev.reset_timeline();
      const auto t0 = Clock::now();
      auto f = [&] {
        SpanScope s("caqr.factor");
        return CaqrFactorization<float>::factor(dev, std::move(a), plan.caqr);
      }();
      const auto t1 = Clock::now();
      Matrix<float> q = [&] {
        SpanScope s("caqr.form_q");
        return f.form_q(dev, std::min(sh.rows, sh.cols));
      }();
      const auto t2 = Clock::now();
      factor_flops += geqrf_flop_count(sh.rows, sh.cols);
      formq_flops += orgqr_flop_count(sh.rows, std::min(sh.rows, sh.cols));
      factor_s += seconds_between(t0, t1);
      formq_s += seconds_between(t1, t2);
      rep.attempt("probes");
      if (!same_bits(q, refs[k].result.q) || !same_bits(f.r(), refs[k].result.r)) {
        rep.failure("probes", std::string(kRequests[k].label) +
                                  " direct CAQR differs from the served factors");
      }
    }
    rep.set("caqr.factor_gflops", factor_flops / factor_s * 1e-9);
    rep.set("caqr.form_q_gflops", formq_flops / formq_s * 1e-9);
    device_trace = gpusim::trace_json(dev);
    layer_probes(rep);
  }

  if (!cfg.trace) rep.set("peak_rss_mb", peak_rss_mib());
  // Every reference factorization passes the Verifier bounds (after the
  // timed window and the memory reading: verification costs more than the
  // factorization and allocates double-precision copies).
  for (std::size_t k = 0; k < kNumRequests; ++k) {
    rep.attempt("verify");
    SpanScope span("numerics.verify_qr");
    const numerics::VerifyReport v =
        numerics::verify_qr(inputs[k].view(), refs[k].result.q.view(),
                            refs[k].result.r.view());
    if (!v.pass) {
      rep.failure("verify", std::string(kRequests[k].label) +
                                " fails verify_qr (residual " +
                                json_number(v.residual) + ")");
    }
  }
}

}  // namespace perfbench
