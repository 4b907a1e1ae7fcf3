// The serving side of kge_bench: a kge_serve child process, and a
// one-thread load generator that drives it over loopback TCP with
// poll(2) across a few connections, in an open loop (Poisson arrivals,
// each request timed from when it was due) or a closed loop (one
// outstanding request per connection).
#ifndef KGE_BENCHMARK_LOAD_CLIENT_H_
#define KGE_BENCHMARK_LOAD_CLIENT_H_

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "serve/serve_protocol.h"
#include "util/status.h"

namespace kgebench {

// Every benchmark request asks for the top 10.
inline constexpr uint32_t kTopK = 10;

// Monotonic clock shared by the client, the spans and the replay.
int64_t NowNs();

// Peak resident set (VmHWM) of process `pid` ("self" for this one), in
// MiB.
double PeakRssMb(const std::string& pid);

class ServeProcess {
 public:
  ServeProcess() = default;
  // Kills and reaps a child that was never stopped.
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  // Runs argv[0] with `argv`, stdout on a pipe and stderr appended to
  // `log_path`, and returns once it prints its `port=` line. The child
  // is killed if this process dies.
  kge::Status Start(const std::vector<std::string>& argv,
                    const std::string& log_path);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  // Exec to the `port=` line.
  double setup_seconds() const { return setup_seconds_; }

  // SIGTERM, then waits for a clean exit. Returns what the server
  // printed after its port line (the drain summary).
  kge::Result<std::string> Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  double setup_seconds_ = 0.0;
  std::string output_;
};

struct Query {
  kge::QuerySide side = kge::QuerySide::kTail;
  kge::EntityId entity = 0;
  kge::RelationId relation = 0;
};

// Query `index` of a phase; pure, so every run with the same seed sends
// the same requests.
using QueryFn = std::function<Query(uint64_t index)>;

struct Reply {
  uint64_t index = 0;  // which query of the phase this answers
  RequestTiming timing;
  kge::ServeStatusCode status = kge::ServeStatusCode::kError;
  uint64_t snapshot_version = 0;
  uint32_t count = 0;
  std::array<kge::ScoredEntity, kTopK> results{};
};

class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  kge::Status Connect(int port, int connections);

  // Open loop: query first_index + i is due at start + due_ns[i]. A due
  // request waits for a free connection, and that wait counts in its
  // latency.
  kge::Status RunOpen(const QueryFn& query, uint64_t first_index,
                      const std::vector<int64_t>& due_ns,
                      std::vector<Reply>* replies);

  // Closed loop over queries first_index, first_index + 1, ...: each
  // connection sends its next query as soon as the previous reply
  // arrives, until `duration_ns` has passed; requests in flight then are
  // awaited. Returns how many OK replies completed within the window.
  kge::Result<size_t> RunClosed(const QueryFn& query, uint64_t first_index,
                                int64_t duration_ns,
                                std::vector<Reply>* replies);

  // Called on the client thread for every reply, as it arrives.
  std::function<void(const Reply&)> on_reply;

 private:
  struct Connection;
  // One engine for both loops; `due_ns` null selects the closed loop.
  kge::Status Run(const QueryFn& query, uint64_t first_index,
                  const std::vector<int64_t>* due_ns, int64_t duration_ns,
                  std::vector<Reply>* replies);

  std::vector<int> fds_;
};

}  // namespace kgebench

#endif  // KGE_BENCHMARK_LOAD_CLIENT_H_
