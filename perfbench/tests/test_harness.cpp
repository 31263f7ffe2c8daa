// Tests of the benchmark's own plumbing: order statistics, the seeded
// Zipf and Poisson schedules, spans, and the metric-by-name result line.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2);
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, SummaryMatchesPythonInclusiveQuartiles) {
  // statistics.quantiles([1..10], n=4, method="inclusive") == [3.25, 5.5, 7.75]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 10u);
  EXPECT_DOUBLE_EQ(s.q1, 3.25);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q3, 7.75);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 10);
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  // 902 is the smallest sample count with ten samples above the p99.
  EXPECT_EQ(samples_beyond(901, 0.99), 9u);
  EXPECT_EQ(samples_beyond(902, 0.99), 10u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);

  std::vector<double> v;
  for (int i = 0; i < 901; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_latency(v), 900);  // the maximum
  v.push_back(901);
  const double p99 = tail_latency(v);
  EXPECT_DOUBLE_EQ(p99, percentile(v, 0.99));
  EXPECT_EQ(std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > p99; }),
            10);
}

TEST(Schedules, ZipfIsFixedBySeed) {
  const ZipfSampler z(80, 1.5);
  Rng a(7), b(7), c(8);
  std::vector<std::size_t> sa, sb, sc;
  for (int i = 0; i < 1000; ++i) {
    sa.push_back(z.sample(a));
    sb.push_back(z.sample(b));
    sc.push_back(z.sample(c));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  for (const std::size_t k : sa) EXPECT_LT(k, 80u);
}

TEST(Schedules, ZipfFrequenciesFollowTheWeights) {
  const ZipfSampler z(80, 1.5);
  double total = 0;
  for (std::size_t k = 0; k < z.size(); ++k) total += z.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(z.probability(0), z.probability(1));
  Rng rng(123);
  const int n = 200000;
  int top = 0;
  for (int i = 0; i < n; ++i) top += z.sample(rng) == 0 ? 1 : 0;
  const double p = z.probability(0);
  const double sigma = std::sqrt(p * (1 - p) / n);
  EXPECT_NEAR(static_cast<double>(top) / n, p, 5 * sigma);
}

TEST(Schedules, PoissonIsFixedBySeed) {
  const std::vector<double> a = poisson_schedule(1000, 2.0, 42);
  const std::vector<double> b = poisson_schedule(1000, 2.0, 42);
  const std::vector<double> c = poisson_schedule(1000, 2.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  // 2000 expected arrivals, standard deviation ~45.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 5 * 45.0);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  Tracer& t = Tracer::get();
  t.enable(1000);
  {
    SpanScope outer("outer");
    SpanScope inner("inner");
  }
  t.pause();
  { SpanScope ignored("ignored"); }
  t.resume();
  EXPECT_EQ(t.recorded(), 2u);
  const auto self = t.self_time_us();
  EXPECT_EQ(self.count("ignored"), 0u);
  ASSERT_EQ(self.count("outer"), 1u);
  EXPECT_GE(self.at("outer"), 0.0);
}

TEST(Report, PrintsEveryMetricByNameWithItsUnit) {
  Report rep(end_to_end_metrics(), "w");
  for (const MetricDef& d : end_to_end_metrics()) rep.set(d.name, 1.5);
  rep.attempt("phase", 3);
  const std::string line = rep.result_line();
  EXPECT_EQ(line.rfind("{\"correct\":true,\"attempted\":3,\"failed\":0,"
                       "\"metrics\":{",
                       0),
            0u);
  for (const MetricDef& d : end_to_end_metrics()) {
    const std::string entry = std::string("\"") + d.name +
                              "\":{\"value\":1.5,\"unit\":\"" + d.unit + "\"}";
    EXPECT_NE(line.find(entry), std::string::npos) << entry;
  }
}

TEST(Report, FailuresMakeTheRunIncorrect) {
  Report rep(per_layer_metrics(), "w");
  rep.attempt("a", 5);
  rep.failure("a", "bad", 2);
  rep.attempt("b", 1);
  EXPECT_EQ(rep.attempted(), 6);
  EXPECT_EQ(rep.failed(), 2);
  EXPECT_FALSE(rep.correct());
  EXPECT_NE(rep.result_line().find("\"correct\":false"), std::string::npos);
}

TEST(Report, UnsetMetricsAreListedAndZeroed) {
  Report rep(per_layer_metrics(), "w");
  rep.set("plan.hit_ratio", 0.9);
  EXPECT_EQ(rep.unset().size(), per_layer_metrics().size() - 1);
  rep.zero_unset("not_exercised");
  EXPECT_TRUE(rep.unset().empty());
  EXPECT_NE(rep.detail_json({}).find("\"not_exercised\":["), std::string::npos);
}

TEST(Report, MetricNamesAreUniqueAndWithinTheFormatLimits) {
  std::set<std::string> names;
  auto check = [&](const std::vector<MetricDef>& defs) {
    for (const MetricDef& d : defs) {
      const std::string n = d.name, u = d.unit;
      EXPECT_TRUE(names.insert(n).second) << n;
      EXPECT_LE(n.size(), 64u);
      EXPECT_LE(u.size(), 16u);
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(n[0]))) << n;
    }
  };
  check(end_to_end_metrics());
  check(per_layer_metrics());
  EXPECT_TRUE(names.count("setup_s"));
}

TEST(Report, NonFiniteMetricIsAFailure) {
  Report rep(end_to_end_metrics(), "w");
  rep.set("setup_s", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(rep.failed(), 1);
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench
