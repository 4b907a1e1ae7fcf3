#include "load_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <span>

namespace kgebench {
namespace {

using kge::Status;

// A server that prints nothing for this long is treated as hung.
constexpr int64_t kStallNs = 120'000'000'000;

timespec ToTimespec(int64_t ns) {
  timespec ts;
  ts.tv_sec = time_t(ns / 1'000'000'000);
  ts.tv_nsec = long(ns % 1'000'000'000);
  return ts;
}

// Appends what `fd` has to *text until `until` (a substring) appears,
// or with `until` null until EOF. False on timeout, and on an EOF that
// comes before `until`.
bool ReadUntil(int fd, const char* until, int64_t deadline_ns,
               std::string* text) {
  char buf[4096];
  while (until == nullptr || text->find(until) == std::string::npos) {
    const int64_t left = deadline_ns - NowNs();
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const timespec ts = ToTimespec(left);
    const int ready = ::ppoll(&p, 1, &ts, nullptr);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) return until == nullptr;
    text->append(buf, size_t(n));
  }
  return true;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0.0;
}

// ---- ServeProcess ----------------------------------------------------------

ServeProcess::~ServeProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

Status ServeProcess::Start(const std::vector<std::string>& argv,
                           const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return Status::IoError("pipe2");
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::IoError("cannot open " + log_path);
  }
  const pid_t parent = ::getpid();
  const int64_t start_ns = NowNs();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(pipe_fds[0]);
    return Status::IoError("fork");
  }
  pid_ = pid;
  out_fd_ = pipe_fds[0];
  if (!ReadUntil(out_fd_, "\n", start_ns + kStallNs, &output_) ||
      output_.find("port=") == std::string::npos) {
    return Status::IoError("kge_serve did not start; see " + log_path);
  }
  setup_seconds_ = double(NowNs() - start_ns) / 1e9;
  port_ = std::atoi(output_.c_str() + output_.find("port=") + 5);
  output_.erase(0, output_.find('\n') + 1);
  return Status::Ok();
}

kge::Result<std::string> ServeProcess::Stop() {
  if (pid_ <= 0) return Status::FailedPrecondition("not running");
  ::kill(pid_, SIGTERM);
  // The drain summary is the last line; EOF follows the exit.
  if (!ReadUntil(out_fd_, nullptr, NowNs() + kStallNs, &output_)) {
    ::kill(pid_, SIGKILL);
  }
  int wstatus = 0;
  ::waitpid(pid_, &wstatus, 0);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("kge_serve exited abnormally:\n" + output_);
  }
  return output_;
}

// ---- LoadClient ------------------------------------------------------------

struct LoadClient::Connection {
  int fd = -1;
  bool busy = false;
  uint64_t index = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  size_t have = 0;
  size_t need = kge::kFrameHeaderBytes;
  std::array<uint8_t, kge::MaxResponseFrameBytes(kTopK)> buf{};
};

LoadClient::~LoadClient() {
  for (int fd : fds_) ::close(fd);
}

Status LoadClient::Connect(int port, int connections) {
  // Wake for each due time as close to it as the kernel can, rather than
  // within the default 50 µs timer slack, which would otherwise show up
  // as generator lateness in every open-loop latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  for (int i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::IoError("socket");
    fds_.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::IoError("connect to kge_serve");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Status::Ok();
}

Status LoadClient::RunOpen(const QueryFn& query, uint64_t first_index,
                           const std::vector<int64_t>& due_ns,
                           std::vector<Reply>* replies) {
  return Run(query, first_index, &due_ns, 0, replies);
}

kge::Result<size_t> LoadClient::RunClosed(const QueryFn& query,
                                          uint64_t first_index,
                                          int64_t duration_ns,
                                          std::vector<Reply>* replies) {
  const size_t first = replies->size();
  KGE_RETURN_IF_ERROR(Run(query, first_index, nullptr, duration_ns, replies));
  // Closed-loop requests are due when sent, so the earliest due time is
  // the window's start.
  if (replies->size() == first) return Status::Internal("no closed-loop reply");
  int64_t start = (*replies)[first].timing.due_ns;
  for (size_t i = first; i < replies->size(); ++i) {
    start = std::min(start, (*replies)[i].timing.due_ns);
  }
  size_t ok = 0;
  for (size_t i = first; i < replies->size(); ++i) {
    const Reply& r = (*replies)[i];
    ok += r.timing.ok && r.timing.done_ns < start + duration_ns;
  }
  return ok;
}

Status LoadClient::Run(const QueryFn& query, uint64_t first_index,
                       const std::vector<int64_t>* due_ns, int64_t duration_ns,
                       std::vector<Reply>* replies) {
  std::vector<Connection> conns(fds_.size());
  for (size_t c = 0; c < conns.size(); ++c) conns[c].fd = fds_[c];
  std::vector<pollfd> polls;
  std::vector<Connection*> polled;
  const int64_t start_ns = NowNs();
  const uint64_t total = due_ns != nullptr ? due_ns->size() : UINT64_MAX;
  uint64_t next = 0;
  size_t in_flight = 0;

  auto send_next = [&](Connection* c, int64_t now) -> Status {
    const Query q = query(first_index + next);
    kge::ServeRequest request;
    request.side = q.side;
    request.entity = q.entity;
    request.relation = q.relation;
    request.k = kTopK;
    request.request_id = first_index + next;
    uint8_t frame[kge::kRequestFrameBytes];
    const size_t len = kge::EncodeServeRequest(request, frame);
    c->busy = true;
    c->index = first_index + next;
    c->due_ns = due_ns != nullptr ? start_ns + (*due_ns)[next] : now;
    c->sent_ns = now;
    c->have = 0;
    c->need = kge::kFrameHeaderBytes;
    ++next;
    ++in_flight;
    if (::send(c->fd, frame, len, MSG_NOSIGNAL) != ssize_t(len)) {
      return Status::IoError("send to kge_serve");
    }
    return Status::Ok();
  };

  // Consumes what the socket has; on a complete frame records the reply
  // and frees the connection.
  auto receive = [&](Connection* c) -> Status {
    const ssize_t n = ::recv(c->fd, c->buf.data() + c->have, c->need - c->have,
                             MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) return Status::Ok();
    if (n <= 0) return Status::IoError("kge_serve closed a connection");
    c->have += size_t(n);
    if (c->have < c->need) return Status::Ok();
    if (c->need == kge::kFrameHeaderBytes) {
      uint32_t magic = 0;
      uint32_t body = 0;
      kge::DecodeFrameHeader(std::span<const uint8_t>(c->buf.data(), c->have),
                             &magic, &body);
      if (magic != kge::kServeResponseMagic ||
          body > c->buf.size() - kge::kFrameHeaderBytes) {
        return Status::IoError("malformed response frame");
      }
      c->need += body;
      return Status::Ok();
    }
    const int64_t done = NowNs();
    kge::ServeResponseHeader header;
    std::vector<kge::ScoredEntity> results;
    KGE_RETURN_IF_ERROR(kge::DecodeServeResponseFrame(
        std::span<const uint8_t>(c->buf.data(), c->have), &header, &results));
    if (header.request_id != c->index || results.size() > kTopK) {
      return Status::IoError("response does not match its request");
    }
    Reply reply;
    reply.index = c->index;
    reply.timing = {c->due_ns, c->sent_ns, done,
                    header.status == kge::ServeStatusCode::kOk};
    reply.status = header.status;
    reply.snapshot_version = header.snapshot_version;
    reply.count = uint32_t(results.size());
    std::copy(results.begin(), results.end(), reply.results.begin());
    replies->push_back(reply);
    if (on_reply) on_reply(reply);
    c->busy = false;
    --in_flight;
    return Status::Ok();
  };

  while (true) {
    int64_t now = NowNs();
    for (Connection& c : conns) {
      if (c.busy || next >= total) continue;
      const bool go = due_ns != nullptr ? start_ns + (*due_ns)[next] <= now
                                        : now < start_ns + duration_ns;
      if (!go) break;
      KGE_RETURN_IF_ERROR(send_next(&c, now));
    }
    const bool sending_done =
        due_ns != nullptr ? next >= total : now >= start_ns + duration_ns;
    if (sending_done && in_flight == 0) return Status::Ok();

    // Sleep until a reply arrives or the next send is due.
    int64_t wait_ns = kStallNs;
    const bool have_free = in_flight < conns.size();
    if (have_free && !sending_done) {
      wait_ns = due_ns != nullptr ? start_ns + (*due_ns)[next] - now
                                  : start_ns + duration_ns - now;
    }
    polls.clear();
    polled.clear();
    for (Connection& c : conns) {
      if (!c.busy) continue;
      polls.push_back({c.fd, POLLIN, 0});
      polled.push_back(&c);
    }
    const timespec ts = ToTimespec(std::max<int64_t>(wait_ns, 0));
    const int ready = ::ppoll(polls.data(), polls.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) return Status::IoError("ppoll");
    if (ready == 0 && wait_ns >= kStallNs) {
      return Status::IoError("kge_serve stopped answering");
    }
    for (size_t i = 0; ready > 0 && i < polls.size(); ++i) {
      if (polls[i].revents != 0) KGE_RETURN_IF_ERROR(receive(polled[i]));
    }
  }
}

}  // namespace kgebench
