// The arithmetic behind every number kge_bench reports: percentiles,
// the seeded Poisson arrival schedule, open-loop latency and lateness
// accounting, and span self time. Kept apart from kge_bench so
// bench_stats_test can pin it down without a server.
#ifndef KGE_BENCHMARK_BENCH_STATS_H_
#define KGE_BENCHMARK_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kgebench {

// Nearest-rank percentile: the smallest sample with at least ceil(q·n)
// samples at or below it. q in (0, 1]; `values` must be non-empty.
double Percentile(std::vector<double> values, double q);

// Median of `values` (mean of the two middle samples for even n), the
// statistic every "median within the run" figure uses.
double Median(std::vector<double> values);

// How many of n samples lie strictly beyond the nearest-rank q
// percentile: n − ceil(q·n).
size_t SamplesBeyond(size_t n, double q);

// True when the q percentile of n samples has at least ten samples
// beyond it, the smallest tail that still says something about the
// distribution rather than about its single worst sample.
bool PercentileSupported(size_t n, double q);

// Due times, in ns from the start of an open-loop phase, of a Poisson
// arrival process at `rate_per_s`: exponential gaps drawn from a
// kge::Rng seeded with `seed`, every time strictly below `duration_ns`.
// Identical on every run and platform for the same arguments.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t duration_ns);

// One request. `due_ns` is when the schedule wanted it sent (in a closed
// loop, when it was sent), `sent_ns` when the generator actually wrote
// it, `done_ns` when its reply arrived (all on one monotonic clock).
struct RequestTiming {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

struct RequestSummary {
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  // Latency from the due time, over OK replies only (a failed request
  // misses every latency limit and is counted in `failed` instead).
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  // How late the generator sent, sent − due, over every request.
  double late_p99_ms = 0.0;
};

// Latency is timed from when a request was due, not from when it went
// out, so a stall that delays later sends is charged to them.
RequestSummary SummarizeRequests(const std::vector<RequestTiming>& requests);

// A timed interval. `parent` indexes the enclosing span in the same
// vector (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

// Self time of every span: its duration minus the part of it that the
// union of its direct children covers (children are clipped to the
// parent, and overlapping children are counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// The spans as a Chrome trace-event document ("X" events, µs).
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace kgebench

#endif  // KGE_BENCHMARK_BENCH_STATS_H_
