#pragma once

// Shared plumbing of the repository benchmark: the seeded random source and
// traffic schedules, order statistics, host resource readings, in-memory
// spans, and the report that prints every metric by name.
//
// Nothing here touches the program under test; the workloads in the other
// files call into the program's public API and hand their measurements to
// a Report.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// splitmix64. The benchmark's only random source: the standard
// distributions are implementation-defined, and a seed must fix every
// generated input on any toolchain.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform();                 // [0, 1)
  double exponential(double rate);  // mean 1 / rate

 private:
  std::uint64_t s_;
};

// Zipf(s) over ranks 0..n-1: P(rank k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;
  double probability(std::size_t rank) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// Due times, in seconds from the phase start, of a Poisson arrival process
// of `rate` per second over `seconds`.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

// q-quantile (q in [0, 1]) by linear interpolation between closest ranks,
// the convention of numpy's default and Python's statistics "inclusive".
double percentile(std::vector<double> v, double q);

struct Summary {
  std::size_t n = 0;
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
};
Summary summarize(std::vector<double> v);

// Samples strictly above the q-quantile's rank: the guide's "at least ten
// samples beyond" test for reporting a percentile.
std::size_t samples_beyond(std::size_t n, double q);

// The 99th percentile when at least ten samples lie beyond it, otherwise
// the maximum.
double tail_latency(const std::vector<double>& v);

// Host resources of this process. CPU time leaves out the time the
// hypervisor gives this machine's vCPUs to other machines, which wall time
// on a shared host does not.
double peak_rss_mib();
double process_cpu_seconds();
double thread_cpu_seconds();  // of the calling thread
// CPU time of every thread but the calling one: the program's share when the
// caller is the benchmark's own driving thread.
double other_threads_cpu_seconds();
unsigned hardware_threads();

// ---------------------------------------------------------------------------
// Spans: name, start, end, the span that caused it, and the thread. Kept in
// memory while the workload runs and written out once as a chrome trace.
// Off unless enable() was called; a disabled SpanScope costs one branch.

class Tracer {
 public:
  static Tracer& get();

  void enable(std::size_t max_spans);
  bool enabled() const { return recording_.load(std::memory_order_relaxed); }
  // Stops / restarts recording after enable(), for untraced baselines
  // inside a traced run.
  void pause() { recording_.store(false, std::memory_order_relaxed); }
  void resume() { recording_.store(armed_, std::memory_order_relaxed); }

  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    std::uint64_t request;  // spans of one request share it; 0 = none
    int tid;
    double t0_us, t1_us;  // since the tracer epoch
  };

  // Writes {"traceEvents":[device events..., host spans...]} to `path`.
  // `device_trace_json` is gpusim::trace_json output (pid 0, simulated
  // microseconds); host spans go under pid 1 in host microseconds.
  bool write_chrome_trace(const std::string& path,
                          const std::string& device_trace_json) const;

  std::size_t recorded() const;
  std::size_t dropped() const;
  // Self time of every span name: duration minus the part covered by its
  // direct children, summed (microseconds).
  std::map<std::string, double> self_time_us() const;

 private:
  friend class SpanScope;
  std::uint64_t next_id();
  void record(const Span& s);
  double now_us() const;
  int thread_index();

  bool armed_ = false;
  std::atomic<bool> recording_{false};
  std::size_t max_spans_ = 0;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::uint64_t ids_ = 0;
  std::map<std::uint64_t, int> tids_;  // hashed thread id -> small index
};

class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0, parent_ = 0, request_ = 0;
  double t0_us_ = 0;
};

// ---------------------------------------------------------------------------
// Result report. Every metric is declared up front with its unit (the
// canonical list in metrics.hpp); workloads set values by name. The last
// line of standard output is result_line().

struct MetricDef {
  const char* name;
  const char* unit;
};

class Report {
 public:
  Report(std::vector<MetricDef> defs, std::string workload);

  // Sets a declared metric. Setting an undeclared name is a benchmark bug
  // and aborts.
  void set(const std::string& name, double value);

  // Within-run trials behind a metric: recorded with count, median and
  // quartiles in the detail output.
  void trials(const std::string& name, const std::vector<double>& values);

  // Output checks, counted per phase.
  void attempt(const std::string& phase, long long n = 1);
  void failure(const std::string& phase, const std::string& what,
               long long n = 1);

  // Free-form JSON values for the detail output.
  void note(const std::string& key, const std::string& json_value);
  void note(const std::string& key, double value);

  long long attempted() const;
  long long failed() const;
  bool correct() const { return failed() == 0; }

  // Names declared but never set (the workload does not exercise them).
  std::vector<std::string> unset() const;
  // Sets every unset metric to 0 and notes which were filled.
  void zero_unset(const char* why);

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string result_line() const;
  // Provenance, trials, per-phase checks and notes as one JSON object.
  std::string detail_json(const std::map<std::string, std::string>& prov)
      const;

 private:
  struct Slot {
    MetricDef def;
    double value = 0;
    bool set = false;
  };
  struct Phase {
    long long attempted = 0, failed = 0;
    std::vector<std::string> reasons;  // first few failure reasons
  };
  std::string workload_;
  std::vector<Slot> slots_;
  std::map<std::string, Summary> trials_;
  std::map<std::string, std::vector<double>> trial_values_;
  std::map<std::string, Phase> phases_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// JSON helpers.
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
