#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/random.h"

namespace kgebench {
namespace {

// 1-based nearest rank of the q percentile among n samples.
size_t NearestRank(size_t n, double q) {
  KGE_CHECK(q > 0.0 && q <= 1.0);
  const size_t rank = size_t(std::ceil(q * double(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double NsToMs(double ns) { return ns / 1e6; }

}  // namespace

double Percentile(std::vector<double> values, double q) {
  KGE_CHECK(!values.empty());
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + long(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  KGE_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t duration_ns) {
  KGE_CHECK(rate_per_s > 0.0);
  kge::Rng rng(seed);
  std::vector<int64_t> due;
  due.reserve(size_t(rate_per_s * double(duration_ns) / 1e9 * 1.1) + 16);
  double t_ns = 0.0;
  while (true) {
    // Inverse-CDF exponential gap; 1 − u is in (0, 1], so the log is
    // finite.
    t_ns += -std::log(1.0 - rng.NextDouble()) / rate_per_s * 1e9;
    if (t_ns >= double(duration_ns)) break;
    due.push_back(int64_t(t_ns));
  }
  return due;
}

RequestSummary SummarizeRequests(const std::vector<RequestTiming>& requests) {
  RequestSummary summary;
  std::vector<double> latency_ns;
  std::vector<double> late_ns;
  latency_ns.reserve(requests.size());
  late_ns.reserve(requests.size());
  for (const RequestTiming& r : requests) {
    ++summary.sent;
    late_ns.push_back(double(r.sent_ns - r.due_ns));
    if (r.ok) {
      ++summary.ok;
      latency_ns.push_back(double(r.done_ns - r.due_ns));
    } else {
      ++summary.failed;
    }
  }
  if (!latency_ns.empty()) {
    summary.p50_ms = NsToMs(Percentile(latency_ns, 0.50));
    summary.p90_ms = NsToMs(Percentile(latency_ns, 0.90));
    summary.p99_ms = NsToMs(Percentile(latency_ns, 0.99));
  }
  if (!late_ns.empty()) summary.late_p99_ms = NsToMs(Percentile(late_ns, 0.99));
  return summary;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    KGE_CHECK(size_t(s.parent) < spans.size());
    const Span& p = spans[size_t(s.parent)];
    const int64_t begin = std::max(s.start_ns, p.start_ns);
    const int64_t end = std::min(s.end_ns, p.end_ns);
    if (begin < end) children[size_t(s.parent)].emplace_back(begin, end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t from = std::max(begin, cursor);
      if (end > from) {
        covered += end - from;
        cursor = end;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[\n";
  char line[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // One track per request: its spans nest, while different requests
    // overlap in time and would not render on a shared track.
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<unsigned long long>(s.request),
                  double(s.start_ns) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3, s.parent);
    out += line;
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace kgebench
