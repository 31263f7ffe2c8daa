// Layer probes and counter readings shared by the workloads.

#include <algorithm>
#include <cstring>

#include "common/profile.hpp"
#include "gpusim/report.hpp"
#include "linalg/flops.hpp"
#include "metrics.hpp"
#include "serve/plan_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caqr;

const std::vector<Shape>& serve_catalogue() {
  // 4 heights x 20 widths = 80 shapes, more than the default PlanCache
  // capacity (64), so Zipf traffic over it mostly hits and sometimes misses.
  // Ranks after the paper shape follow a fixed shuffle, so popularity does
  // not track size.
  static const std::vector<Shape> cat = [] {
    std::vector<Shape> rest;
    for (const idx m : {32768, 65536, 110592, 163840}) {
      for (idx n = 16; n <= 160; n += 8) rest.push_back({m, n});
      rest.push_back({m, 100});
    }
    rest.erase(std::remove_if(rest.begin(), rest.end(),
                              [](const Shape& s) {
                                return s.rows == kPaperRows &&
                                       s.cols == kPaperCols;
                              }),
               rest.end());
    Rng rng(0x5EEDCA7A106ULL);  // fixed: the catalogue is not seeded per run
    for (std::size_t i = rest.size(); i > 1; --i) {
      std::swap(rest[i - 1], rest[rng.next() % i]);
    }
    std::vector<Shape> out{{kPaperRows, kPaperCols}};
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return cat;
}

double qr_useful_flops(idx m, idx n) {
  return geqrf_flop_count(m, n) + orgqr_flop_count(m, std::min(m, n));
}

bool same_bits(const Matrix<float>& a, const Matrix<float>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

namespace {

const prof::Sample* find_sample(const std::vector<prof::Sample>& s,
                                const char* name) {
  for (const prof::Sample& x : s) {
    if (x.name == name) return &x;
  }
  return nullptr;
}

double ns_value(const std::vector<prof::Sample>& s, const char* name) {
  const prof::Sample* x = find_sample(s, name);
  return x == nullptr ? 0.0 : static_cast<double>(x->value);
}

double event_count(const std::vector<prof::Sample>& s, const char* name) {
  const prof::Sample* x = find_sample(s, name);
  return x == nullptr ? 0.0 : static_cast<double>(x->count);
}

}  // namespace

void report_host_counters(Report& rep, long long requests) {
  const std::vector<prof::Sample> s = prof::snapshot();
  const double n = requests > 0 ? static_cast<double>(requests) : 1.0;
  auto us_per_req = [&](double ns) { return ns * 1e-3 / n; };
  rep.set("serve.host_us_per_req", us_per_req(ns_value(s, "serve.request_ns")));
  rep.set("serve.lock_wait_us_per_req",
          us_per_req(ns_value(s, "serve.pool_lock_wait_ns") +
                     ns_value(s, "plan_cache.lock_wait_ns")));
  rep.set("serve.allocs_per_req",
          static_cast<double>(prof::allocation_count()) / n);
  rep.set("plan.resolve_us_per_req",
          us_per_req(ns_value(s, "serve.plan_resolve_ns")));
  rep.set("gpusim.launches_per_req",
          event_count(s, "device.enqueue_cost_ns") / n);
  rep.set("gpusim.enqueue_us_per_req",
          us_per_req(ns_value(s, "device.enqueue_cost_ns")));
  rep.set("gpusim.resolve_us_per_req",
          us_per_req(ns_value(s, "device.resolve_ns")));
  rep.set("tsqr.meta_build_us_per_req",
          us_per_req(ns_value(s, "tsqr.meta_build_ns")));
}

void report_queue_wait(Report& rep) {
  for (const prof::HistogramSample& h : prof::histogram_snapshot()) {
    if (h.name != "serve.queue_wait") continue;
    rep.set("serve.queue_wait_us.p50", h.p50_ns * 1e-3);
    rep.set("serve.queue_wait_us.p99", h.p99_ns * 1e-3);
    rep.note("queue_wait_samples", static_cast<double>(h.count));
    return;
  }
}

std::string layer_probes(Report& rep) {
  SpanScope span("bench.layer_probes");
  const auto model = gpusim::GpuMachineModel::c2050();

  // plan.build_ms: one cold lookup per catalogue shape on an empty cache.
  {
    serve::PlanCache cache(serve_catalogue().size());
    std::vector<double> ms;
    for (const Shape& s : serve_catalogue()) {
      SpanScope lookup("plan.lookup_cold");
      const auto t0 = Clock::now();
      const auto lk = cache.lookup<float>(model, s.rows, s.cols);
      ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      if (lk.hit) rep.failure("probes", "cold plan lookup reported a hit");
    }
    rep.attempt("probes", static_cast<long long>(ms.size()));
    rep.trials("plan.build_ms", ms);
    rep.set("plan.build_ms", summarize(ms).median);
  }

  // gpusim.model_factor_us: the ModelOnly factorization a served paper-shape
  // request runs, with the plan's tuned options.
  const serve::QrPlan plan = serve::make_plan<float>(model, kPaperRows, kPaperCols);
  gpusim::Device dev(model, gpusim::ExecMode::ModelOnly);
  {
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      SpanScope f("caqr.factor_model_only");
      dev.reset_timeline();
      const auto t0 = Clock::now();
      auto fac = CaqrFactorization<float>::factor(
          dev, Matrix<float>::shape_only(kPaperRows, kPaperCols), plan.caqr);
      (void)dev.elapsed_seconds();  // forces the timeline resolve
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    rep.trials("gpusim.model_factor_us", us);
    rep.set("gpusim.model_factor_us", summarize(us).median);
  }

  // kernels.*: computed work of the last factorization above, per kernel.
  for (const char* k : kKernelNames) {
    const gpusim::KernelProfile* p = dev.profile(k);
    const std::string base = std::string("kernels.") + k;
    rep.attempt("probes");
    if (p == nullptr) {
      rep.failure("probes", base + " missing from the device profile");
      continue;
    }
    rep.set(base + ".flops", p->flops);
    rep.set(base + ".gmem_bytes", p->gmem_bytes);
    rep.set(base + ".sim_ms", p->seconds * 1e3);
  }
  return gpusim::trace_json(dev);
}

}  // namespace perfbench
