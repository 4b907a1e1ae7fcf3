// kge_bench: runs one benchmark workload and prints every metric it
// measured, then, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics of BENCHMARK.json (or, with --trace 1,
// its per-layer metrics). Run it through run.sh, which builds it first:
//
//   benchmark/run.sh --workload serve-small --seed 1 --seconds 15 --trace 0
//
// Exit status: 0 when every output checked out, 1 when a check failed
// (the result says "correct": false), 2 when the run could not finish.
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "math/simd.h"
#include "workloads.h"

namespace kgebench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer metrics.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
};
constexpr MetricSpec kPerLayer[] = {
    {"datagen.gen_s", "s"},
    {"checkpoint.save_ms", "ms"},
    {"snapshot.verify_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"scan.query_us_p50", "us"},
    {"scan.effective_gb_per_s", "GB/s"},
    {"scan.frac_of_peak", "frac"},
    {"simd.dot_batch_multi_gflops", "GFLOP/s"},
};

constexpr const char* kWorkloads[] = {"serve-small", "serve-xl-hot",
                                      "serve-swap", "train"};

std::string Number(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// FNV-1a over the bytes of kge_bench and kge_serve: a traced run states
// its overhead only against an untraced run of the same build.
std::string BuildId(const std::string& serve_bin) {
  uint64_t h = 14695981039346656037ull;
  std::vector<char> buf(1 << 16);
  for (const std::string& path : {std::string("/proc/self/exe"), serve_bin}) {
    std::ifstream in(path, std::ios::binary);
    while (in.read(buf.data(), std::streamsize(buf.size())) || in.gcount() > 0) {
      for (std::streamsize i = 0; i < in.gcount(); ++i) {
        h = (h ^ uint8_t(buf[size_t(i)])) * 1099511628211ull;
      }
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void PrintMeta(const std::string& git_rev) {
  std::string l3 = ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::printf("meta isa=%s nproc=%u l3=%s compiler=\"%s\" git_rev=%s\n",
              kge::simd::IsaName(), std::thread::hardware_concurrency(),
              l3.empty() ? "unknown" : l3.c_str(), __VERSION__, git_rev.c_str());
}

// Per span name: count and median self time.
void PrintSelfTimes(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(double(self[i]) / 1e3);
  }
  for (const auto& [name, us] : by_name) {
    std::printf("span %s count=%zu self_us_p50=%s\n", name.c_str(), us.size(),
                Number(Median(us)).c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: kge_bench --workload NAME --seed N [--seconds S] "
               "--trace 0|1 --out-dir DIR [--git-rev REV]\n");
  return 2;
}

int Run(int argc, char** argv) {
  RunOptions options;
  options.serve_bin = KGE_SERVE_PATH;
  std::string git_rev = "unknown";
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    key.erase(0, 2);
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage();
    }
  }
  for (const auto& [key, value] : args) {
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::stoull(value);
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
    } else if (key == "trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (key == "out-dir") {
      options.out_dir = value;
    } else if (key == "git-rev") {
      git_rev = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known || options.out_dir.empty() || options.seconds < 1.0) return Usage();
  std::filesystem::create_directories(options.out_dir);

  PrintMeta(git_rev);
  std::printf("workload %s seed %llu seconds %s trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              Number(options.seconds).c_str(), int(options.trace));
  std::fflush(stdout);

  kge::Result<Outcome> ran = IsServeWorkload(options.workload)
                                 ? RunServeWorkload(options)
                                 : RunTrainWorkload(options);
  if (!ran.ok()) {
    std::fprintf(stderr, "kge_bench: %s\n", ran.status().ToString().c_str());
    return 2;
  }
  Outcome& outcome = *ran;

  std::map<std::string, double> measured;
  for (const Metric& m : outcome.metrics) measured[m.name] = m.value;
  // The untraced throughput is kept so that a later traced run with the
  // same workload, seed, length and build can state what tracing cost.
  const std::string untraced_path =
      options.out_dir + "/untraced-" + options.workload + "-seed" +
      std::to_string(options.seed) + "-s" + Number(options.seconds) + "-" +
      BuildId(options.serve_bin) + ".txt";
  if (!options.trace) {
    std::ofstream(untraced_path) << Number(measured["throughput_per_s"]) << "\n";
  } else {
    // Probed after the workload, so its arrays stay out of the workload's
    // peak resident set.
    const double triad = StreamTriadGbPerS();
    std::printf("meta stream_triad_gb_per_s=%s\n", Number(triad).c_str());
    outcome.Add("scan.frac_of_peak", measured["scan.effective_gb_per_s"] / triad,
                "frac");
    if (const std::string prior = ReadFirstLine(untraced_path); !prior.empty()) {
      outcome.Add("trace.overhead_frac",
                  std::stod(prior) / measured["throughput_per_s"] - 1.0, "frac");
    } else {
      std::printf("no trace.overhead_frac: no untraced run of this workload, "
                  "seed, length and build in %s\n", options.out_dir.c_str());
    }
    for (const Metric& m : outcome.metrics) measured[m.name] = m.value;
  }

  for (const Metric& m : outcome.metrics) {
    std::printf("metric %s = %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  if (options.trace) {
    PrintSelfTimes(outcome.spans);
    const std::string trace_path =
        options.out_dir + "/trace-" + options.workload + ".json";
    std::ofstream(trace_path) << ChromeTraceJson(outcome.spans);
    std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(),
                outcome.spans.size());
  }

  std::string json = std::string("{\"correct\": ") +
                     (outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : options.trace ? std::span<const MetricSpec>(kPerLayer)
                                              : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = measured.find(spec.name);
    if (it == measured.end()) {
      std::fprintf(stderr, "kge_bench: %s did not measure %s\n",
                   options.workload.c_str(), spec.name);
      return 2;
    }
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + Number(it->second) + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace kgebench

int main(int argc, char** argv) { return kgebench::Run(argc, argv); }
