#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::probability(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate)) {
    due.push_back(t);
  }
  return due;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = percentile(v, 0.5);
  s.q1 = percentile(v, 0.25);
  s.q3 = percentile(v, 0.75);
  s.min = v.front();
  s.max = v.back();
  return s;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - rank;
}

double tail_latency(const std::vector<double>& v) {
  if (samples_beyond(v.size(), 0.99) >= 10) return percentile(v, 0.99);
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double other_threads_cpu_seconds() {
  return process_cpu_seconds() - thread_cpu_seconds();
}

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---------------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_current_span = 0;
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::enable(std::size_t max_spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = true;
  recording_.store(true, std::memory_order_relaxed);
  max_spans_ = max_spans;
  spans_.reserve(std::min<std::size_t>(max_spans, 1 << 16));
  epoch_ = Clock::now();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++ids_;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int Tracer::thread_index() {
  const std::uint64_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto it = tids_.find(h);
  if (it != tids_.end()) return it->second;
  const int idx = static_cast<int>(tids_.size()) + 1;
  tids_.emplace(h, idx);
  return idx;
}

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  Span copy = s;
  copy.tid = thread_index();
  spans_.push_back(copy);
}

std::size_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::map<std::string, double> Tracer::self_time_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, double> child_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.t1_us - s.t0_us;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    self[s.name] += std::max(0.0, (s.t1_us - s.t0_us) - covered);
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& device_trace_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"simulated device (us of simulated time)\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"host spans (us of wall time)\"}}",
      f);
  // Splice the device events out of gpusim::trace_json's array.
  const std::string key = "\"traceEvents\":[";
  const std::size_t b = device_trace_json.find(key);
  const std::size_t e = device_trace_json.rfind(']');
  if (b != std::string::npos && e != std::string::npos &&
      e > b + key.size()) {
    std::fputc(',', f);
    const std::string events =
        device_trace_json.substr(b + key.size(), e - (b + key.size()));
    std::fwrite(events.data(), 1, events.size(), f);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",{\"name\":%s,\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 json_string(s.name).c_str(), s.tid, s.t0_us,
                 s.t1_us - s.t0_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  Tracer& t = Tracer::get();
  if (!t.enabled()) return;
  id_ = t.next_id();
  parent_ = t_current_span;
  t_current_span = id_;
  t0_us_ = t.now_us();
}

SpanScope::~SpanScope() {
  if (id_ == 0) return;
  Tracer& t = Tracer::get();
  t.record({name_, id_, parent_, request_, 0, t0_us_, t.now_us()});
  t_current_span = parent_;
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

Report::Report(std::vector<MetricDef> defs, std::string workload)
    : workload_(std::move(workload)) {
  for (const MetricDef& d : defs) slots_.push_back({d});
}

void Report::set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    failure("metrics", name + " is not finite");
    value = 0;
  }
  for (Slot& s : slots_) {
    if (name == s.def.name) {
      s.value = value;
      s.set = true;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric %s is not declared\n", name.c_str());
  std::abort();
}

void Report::trials(const std::string& name, const std::vector<double>& v) {
  trials_[name] = summarize(v);
  trial_values_[name] = v;
}

void Report::attempt(const std::string& phase, long long n) {
  phases_[phase].attempted += n;
}

void Report::failure(const std::string& phase, const std::string& what,
                     long long n) {
  Phase& p = phases_[phase];
  p.failed += n;
  if (p.reasons.size() < 8) p.reasons.push_back(what);
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

void Report::note(const std::string& key, double value) {
  note(key, json_number(value));
}

long long Report::attempted() const {
  long long n = 0;
  for (const auto& [_, p] : phases_) n += p.attempted;
  return n;
}

long long Report::failed() const {
  long long n = 0;
  for (const auto& [_, p] : phases_) n += p.failed;
  return n;
}

std::vector<std::string> Report::unset() const {
  std::vector<std::string> out;
  for (const Slot& s : slots_) {
    if (!s.set) out.emplace_back(s.def.name);
  }
  return out;
}

void Report::zero_unset(const char* why) {
  std::string names = "[";
  for (Slot& s : slots_) {
    if (s.set) continue;
    if (names.size() > 1) names += ",";
    names += json_string(s.def.name);
    s.value = 0;
    s.set = true;
  }
  names += "]";
  note(why, names);
}

std::string Report::result_line() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted());
  out += ",\"failed\":" + std::to_string(failed());
  out += ",\"metrics\":{";
  bool first = true;
  for (const Slot& s : slots_) {
    if (!first) out += ",";
    first = false;
    out += json_string(s.def.name) + ":{\"value\":" + json_number(s.value) +
           ",\"unit\":" + json_string(s.def.unit) + "}";
  }
  return out + "}}";
}

std::string Report::detail_json(
    const std::map<std::string, std::string>& prov) const {
  std::string out = "{\"workload\":" + json_string(workload_);
  out += ",\"provenance\":{";
  bool first = true;
  for (const auto& [k, v] : prov) {
    out += (first ? "" : ",") + json_string(k) + ":" + json_string(v);
    first = false;
  }
  out += "},\"trials\":{";
  first = true;
  for (const auto& [name, s] : trials_) {
    out += (first ? "" : ",") + json_string(name) +
           ":{\"runs\":" + std::to_string(s.n) +
           ",\"median\":" + json_number(s.median) +
           ",\"q1\":" + json_number(s.q1) + ",\"q3\":" + json_number(s.q3) +
           ",\"min\":" + json_number(s.min) + ",\"max\":" + json_number(s.max) +
           ",\"values\":[";
    const auto& vals = trial_values_.at(name);
    for (std::size_t i = 0; i < vals.size() && i < 64; ++i) {
      out += (i ? "," : "") + json_number(vals[i]);
    }
    out += "]}";
    first = false;
  }
  out += "},\"checks\":{";
  first = true;
  for (const auto& [phase, p] : phases_) {
    out += (first ? "" : ",") + json_string(phase) +
           ":{\"attempted\":" + std::to_string(p.attempted) +
           ",\"failed\":" + std::to_string(p.failed) + ",\"reasons\":[";
    for (std::size_t i = 0; i < p.reasons.size(); ++i) {
      out += (i ? "," : "") + json_string(p.reasons[i]);
    }
    out += "]}";
    first = false;
  }
  out += "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : notes_) {
    out += (first ? "" : ",") + json_string(k) + ":" + v;
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
