// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload serve_model|qr_functional|rpca_video --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--source-id ID]
//
// Prints one detail line (provenance, within-run trials, per-phase output
// checks) and then, as the last line of standard output, the result object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run also writes
// one chrome trace (host spans beside the simulated device timeline) into
// --out-dir. Exits 1 when an output check failed, 2 on a usage or internal
// error (then without a result line).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_model|qr_functional|rpca_video --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--source-id ID]\n",
               msg);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

std::string cpu_flags() {
  std::string f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto add = [&f](bool on, const char* name) {
    if (!on) return;
    if (!f.empty()) f += " ";
    f += name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
#endif
  return f.empty() ? "unknown" : f;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(val, n)) return usage("--seed takes a whole number");
      cfg.seed = n;
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_u64(val, n) || n < 1 || n > 3600) {
        return usage("--seconds takes a whole number from 1 to 3600");
      }
      cfg.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      cfg.trace = val == "1";
      have_trace = true;
    } else if (key == "--out-dir") {
      cfg.out_dir = val;
    } else if (key == "--source-id") {
      source_id = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*run)(const RunConfig&, Report&, std::string&) = nullptr;
  if (cfg.workload == "serve_model") run = run_serve_model;
  if (cfg.workload == "qr_functional") run = run_qr_functional;
  if (cfg.workload == "rpca_video") run = run_rpca_video;
  if (run == nullptr) return usage(("unknown workload " + cfg.workload).c_str());

  Report rep(cfg.trace ? per_layer_metrics() : end_to_end_metrics(),
             cfg.workload);
  std::string device_trace;
  try {
    if (cfg.trace) Tracer::get().enable(400000);
    SpanScope root("bench.run");
    run(cfg, rep, device_trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }
  if (!cfg.trace && !rep.unset().empty()) {
    std::fprintf(stderr, "perfbench: %s left end-to-end metric %s unset\n",
                 cfg.workload.c_str(), rep.unset().front().c_str());
    return 2;
  }
  // Per-layer metrics of layers this workload does not exercise read 0.
  if (cfg.trace) rep.zero_unset("not_exercised");

  const std::string stem = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                           (cfg.trace ? "-traced" : "");
  if (cfg.trace && !cfg.out_dir.empty()) {
    Tracer& t = Tracer::get();
    const std::string path = cfg.out_dir + "/" + stem + ".trace.json";
    rep.note("trace_spans", static_cast<double>(t.recorded()));
    rep.note("trace_spans_dropped", static_cast<double>(t.dropped()));
    std::string self = "{";
    for (const auto& [name, us] : t.self_time_us()) {
      self += (self.size() > 1 ? "," : "") + json_string(name) + ":" +
              json_number(us);
    }
    rep.note("span_self_time_us", self + "}");
    if (!t.write_chrome_trace(path, device_trace)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    rep.note("chrome_trace", json_string(path));
  }

  const std::map<std::string, std::string> prov = {
      {"hardware_threads", std::to_string(hardware_threads())},
      {"cpu_flags", cpu_flags()},
      {"compiler", compiler()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"source", source_id},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", std::to_string(static_cast<long long>(cfg.seconds))},
      {"trace", cfg.trace ? "1" : "0"},
  };
  const std::string detail = rep.detail_json(prov);
  if (!cfg.out_dir.empty()) {
    const std::string path = cfg.out_dir + "/" + stem + ".detail.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(detail.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
  std::printf("%s\n%s\n", detail.c_str(), rep.result_line().c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
