// Pins down kge_bench's own arithmetic; run.sh runs it before any
// workload so a broken statistic never reaches a result.
#include "bench_stats.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace kgebench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(double(101 - i));  // unsorted
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 0.90), 90.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Percentile({1.0, 2.0, 3.0}, 0.5), 2.0);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, TenBeyondRule) {
  // p99 needs 1000 samples (10 beyond rank 990); 999 leave only 9.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  // p90 needs 100; p50 needs 20.
  EXPECT_TRUE(PercentileSupported(100, 0.90));
  EXPECT_FALSE(PercentileSupported(99, 0.90));
  EXPECT_TRUE(PercentileSupported(20, 0.50));
  EXPECT_FALSE(PercentileSupported(19, 0.50));
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PoissonSchedule, ReproducesExactly) {
  const std::vector<int64_t> a = PoissonSchedule(7, 1000.0, 2'000'000'000);
  const std::vector<int64_t> b = PoissonSchedule(7, 1000.0, 2'000'000'000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(8, 1000.0, 2'000'000'000));
  // Pinned values: a change to the generator or the gap formula changes
  // every workload's inputs and must show up here first.
  ASSERT_GE(a.size(), 3u);
  EXPECT_EQ(a.size(), 2053u);
  EXPECT_EQ(a[0], 56951);
  EXPECT_EQ(a[1], 245833);
  EXPECT_EQ(a[2], 1510180);
}

TEST(PoissonSchedule, RateAndBounds) {
  const int64_t duration = 20'000'000'000;
  const std::vector<int64_t> due = PoissonSchedule(3, 500.0, duration);
  // 10000 expected arrivals; a Poisson count is within ±4σ (±400).
  EXPECT_NEAR(double(due.size()), 10000.0, 400.0);
  for (size_t i = 0; i < due.size(); ++i) {
    EXPECT_GE(due[i], 0);
    EXPECT_LT(due[i], duration);
    if (i > 0) {
      EXPECT_GE(due[i], due[i - 1]);
    }
  }
}

TEST(SummarizeRequests, LatencyFromDueTimeAndLateness) {
  std::vector<RequestTiming> r;
  // 20 OK requests: due at 10 ms steps, sent 1 ms late, done 2 ms after
  // the send — latency from due is 3 ms for each.
  for (int i = 0; i < 20; ++i) {
    const int64_t due = int64_t(i) * 10'000'000;
    r.push_back({due, due + 1'000'000, due + 3'000'000, true});
  }
  // A stall: due at 200 ms, sent 50 ms late, answered 1 ms after.
  r.push_back({200'000'000, 250'000'000, 251'000'000, true});
  // A failed request counts as sent and failed, never as a latency.
  r.push_back({210'000'000, 250'000'000, 250'500'000, false});
  const RequestSummary s = SummarizeRequests(r);
  EXPECT_EQ(s.sent, 22u);
  EXPECT_EQ(s.ok, 21u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.p90_ms, 3.0);
  // The stalled request's latency includes its 50 ms in the generator.
  EXPECT_DOUBLE_EQ(s.p99_ms, 51.0);
  EXPECT_DOUBLE_EQ(s.late_p99_ms, 50.0);
}

TEST(SelfTimes, SubtractsUnionOfChildren) {
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},
      {"rtt", 10, 90, 0, 1},
      {"server", 20, 60, 1, 1},
      {"overlap_a", 20, 40, 1, 1},  // overlaps "server": counted once
      {"scan", 30, 50, 2, 1},
      {"clipped", 80, 120, 1, 1},   // runs past its parent: clipped
      {"other_root", 0, 5, -1, 2},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 80);
  EXPECT_EQ(self[1], 80 - (40 + 10));  // children cover [20,60) ∪ [80,90)
  EXPECT_EQ(self[2], 40 - 20);
  EXPECT_EQ(self[3], 20);
  EXPECT_EQ(self[4], 20);
  EXPECT_EQ(self[5], 40);
  EXPECT_EQ(self[6], 5);
}

TEST(ChromeTrace, OneEventPerSpan) {
  const std::string json =
      ChromeTraceJson({{"a", 1000, 3000, -1, 4}, {"b", 1500, 2500, 0, 4}});
  EXPECT_NE(json.find("\"name\":\"a\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500,\"dur\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":4"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

}  // namespace
}  // namespace kgebench
