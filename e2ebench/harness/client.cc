#include "harness/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/macros.h"

namespace e2e {

using ppdb::Result;
using ppdb::Status;

namespace {

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Requests sent before the measured window starts: connections, the
/// server's caches and the broker's workers settle first.
constexpr std::chrono::milliseconds kWarmup{500};
/// How long the client waits for the replies still owed after the window.
constexpr std::chrono::seconds kTailTimeout{30};
constexpr size_t kMaxMismatchesKept = 8;

}  // namespace

bool ParseReplyLine(const std::string& line, Reply* reply) {
  const size_t space = line.find(' ');
  if (space == std::string::npos || space == 0) return false;
  char* end = nullptr;
  const long long id = std::strtoll(line.c_str(), &end, 10);
  if (end != line.c_str() + space) return false;
  reply->id = id;
  if (line.compare(space + 1, 2, "ok") == 0) {
    reply->ok = true;
    reply->payload =
        line.size() > space + 4 ? line.substr(space + 4) : std::string();
    return true;
  }
  if (line.compare(space + 1, 5, "error") == 0) {
    reply->ok = false;
    reply->payload =
        line.size() > space + 7 ? line.substr(space + 7) : std::string();
    return true;
  }
  return false;
}

Result<std::unique_ptr<SocketSink>> SocketSink::Connect(uint16_t port,
                                                        int conns) {
  std::unique_ptr<SocketSink> sink(new SocketSink());
  for (int i = 0; i < conns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
    sink->conns_.push_back(Conn{fd, {}, 0, {}});
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Unavailable("connect: " + std::string(strerror(errno)));
    }
  }
  return sink;
}

SocketSink::~SocketSink() {
  for (Conn& conn : conns_) ::close(conn.fd);
}

void SocketSink::Send(int conn, const std::string& line) {
  conns_[static_cast<size_t>(conn)].out += line;
  conns_[static_cast<size_t>(conn)].out += '\n';
}

Status SocketSink::FlushConn(Conn& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return Status::Unavailable("send: " + std::string(strerror(errno)));
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  return Status::OK();
}

void SocketSink::Flush() {
  for (Conn& conn : conns_) (void)FlushConn(conn);
}

Status SocketSink::Poll(std::chrono::microseconds timeout,
                        std::vector<Reply>* out) {
  std::vector<pollfd> fds;
  for (const Conn& conn : conns_) {
    short events = POLLIN;
    if (conn.out_offset < conn.out.size()) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd, events, 0});
  }
  const int64_t us = std::max<int64_t>(0, timeout.count());
  timespec ts{static_cast<time_t>(us / 1000000),
              static_cast<long>((us % 1000000) * 1000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::Internal("ppoll: " + std::string(strerror(errno)));
  }
  const Clock::time_point now = Clock::now();
  char chunk[65536];
  for (size_t i = 0; i < fds.size(); ++i) {
    Conn& conn = conns_[i];
    if (fds[i].revents & POLLOUT) PPDB_RETURN_NOT_OK(FlushConn(conn));
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    while (true) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        conn.in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return Status::Unavailable("connection " + std::to_string(i) +
                                 (n == 0 ? " closed by the server"
                                         : ": " + std::string(strerror(errno))));
    }
    size_t start = 0;
    size_t newline;
    while ((newline = conn.in.find('\n', start)) != std::string::npos) {
      Reply reply;
      reply.conn = static_cast<int>(i);
      reply.at = now;
      if (!ParseReplyLine(conn.in.substr(start, newline - start), &reply)) {
        return Status::Internal("malformed reply: " +
                                conn.in.substr(start, newline - start));
      }
      out->push_back(std::move(reply));
      start = newline + 1;
    }
    conn.in.erase(0, start);
  }
  return Status::OK();
}

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double WindowedPercentile(const std::vector<Sample>& samples, double seconds,
                          int windows, double q) {
  std::vector<std::vector<double>> parts(static_cast<size_t>(windows));
  for (const Sample& sample : samples) {
    const int part = static_cast<int>(sample.at_s / seconds * windows);
    if (part >= 0 && part < windows) {
      parts[static_cast<size_t>(part)].push_back(sample.us);
    }
  }
  std::vector<double> per_part;
  for (std::vector<double>& part : parts) {
    if (!part.empty()) per_part.push_back(Percentile(part, q));
  }
  return Percentile(per_part, 0.5);
}

double WindowedCpuPerOp(const std::vector<double>& cpu_marks,
                        const std::vector<double>& done_s, double seconds) {
  if (cpu_marks.size() < 2) return 0.0;
  const int parts = static_cast<int>(cpu_marks.size()) - 1;
  std::vector<double> ops(static_cast<size_t>(parts), 0.0);
  for (double at : done_s) {
    const int part = static_cast<int>(at / seconds * parts);
    if (part >= 0 && part < parts) ops[static_cast<size_t>(part)] += 1.0;
  }
  std::vector<double> per_part;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] > 0) {
      per_part.push_back((cpu_marks[i + 1] - cpu_marks[i]) * 1e6 / ops[i]);
    }
  }
  return Percentile(per_part, 0.5);
}

Result<double> ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15, in clock ticks.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return Status::NotFound("no /proc/" + std::to_string(pid) + "/stat");
  }
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<Reply> RoundTrip(Sink& sink, int conn, int64_t id,
                        const std::string& line) {
  sink.Send(conn, line);
  sink.Flush();
  const Clock::time_point give_up = Clock::now() + kTailTimeout;
  std::vector<Reply> replies;
  while (Clock::now() < give_up) {
    PPDB_RETURN_NOT_OK(sink.Poll(std::chrono::milliseconds(100), &replies));
    for (Reply& reply : replies) {
      if (reply.conn == conn && reply.id == id) return std::move(reply);
    }
    replies.clear();
  }
  return Status::DeadlineExceeded("no reply to '" + line + "'");
}

namespace {

struct Pending {
  GeneratedRequest request;
  Clock::time_point due;
  bool measured = false;
};

struct ConnState {
  ConnState(ConnSpec s, RequestSource src) : spec(s), source(std::move(src)) {}

  ConnSpec spec;
  RequestSource source;
  int64_t next_id = 1;
  /// Open loop: when the next request is due.
  Clock::time_point next_due;
  /// Closed loop: due times of free slots (when the freeing reply came).
  std::vector<Clock::time_point> free_slots;
  std::unordered_map<int64_t, Pending> pending;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

Result<DriveResult> Drive(Sink& sink, Workload workload, uint64_t seed,
                          double seconds, const Expectations& expect,
                          const CpuClock& server_cpu, int cpu_parts) {
  const std::vector<ConnSpec> specs = ConnectionsFor(workload);
  int writers = 0;
  for (const ConnSpec& spec : specs) {
    if (spec.stream == ConnSpec::Stream::kWrite) ++writers;
  }
  std::vector<ConnState> conns;
  int writer_index = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const int index = specs[i].stream == ConnSpec::Stream::kWrite
                          ? writer_index++
                          : static_cast<int>(i);
    conns.emplace_back(specs[i], RequestSource(workload, index, specs[i], seed,
                                               std::max(writers, 1)));
  }
  const ConnSpec::Stream primary = specs.front().stream;

  DriveResult result;
  result.acked_events.resize(conns.size());
  size_t mismatches = 0;
  auto mismatch = [&](const std::string& what) {
    if (mismatches++ < kMaxMismatchesKept) result.mismatches.push_back(what);
  };

  const Clock::time_point begin = Clock::now();
  const Clock::time_point window_start = begin + kWarmup;
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (ConnState& conn : conns) {
    conn.next_due = begin;
    conn.free_slots.assign(static_cast<size_t>(conn.spec.depth), begin);
  }

  auto send = [&](size_t c, Clock::time_point due, Clock::time_point now) {
    ConnState& conn = conns[c];
    Pending pending;
    pending.request = conn.source.Next();
    pending.due = due;
    pending.measured = due >= window_start && due < window_end;
    const double lag = Us(now - due);
    if (pending.measured) result.lag_us.push_back(lag);
    if (conn.spec.loop == ConnSpec::Loop::kOpen && lag > kLateSendUs) {
      ++result.late_sends;
      ++result.failed;
    }
    ++result.attempted;
    sink.Send(static_cast<int>(c), pending.request.line);
    conn.pending.emplace(conn.next_id++, std::move(pending));
  };

  // The next bound of the window's parts at which to read the server's
  // CPU clock.
  const Clock::duration cpu_part = (window_end - window_start) / cpu_parts;
  Clock::time_point next_cpu_mark = window_start;

  std::vector<Reply> replies;
  while (true) {
    Clock::time_point now = Clock::now();
    // A stalled loop reads every bound it passed, so the marks always
    // bound `cpu_parts` parts.
    while (server_cpu && now >= next_cpu_mark &&
           result.server_cpu_marks.size() <= static_cast<size_t>(cpu_parts)) {
      PPDB_ASSIGN_OR_RETURN(double cpu_s, server_cpu());
      result.server_cpu_marks.push_back(cpu_s);
      next_cpu_mark += cpu_part;
    }
    const bool sending = now < window_end;
    Clock::time_point wake = window_end;
    if (server_cpu && next_cpu_mark < window_end) wake = next_cpu_mark;
    if (now < window_start) wake = window_start;
    if (sending) {
      for (size_t c = 0; c < conns.size(); ++c) {
        ConnState& conn = conns[c];
        if (conn.spec.loop == ConnSpec::Loop::kOpen) {
          const auto interval = std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(1.0 / conn.spec.rate));
          while (conn.next_due <= now) {
            send(c, conn.next_due, now);
            conn.next_due += interval;
          }
          wake = std::min(wake, conn.next_due);
        } else {
          for (Clock::time_point due : conn.free_slots) send(c, due, now);
          conn.free_slots.clear();
        }
      }
      sink.Flush();
    } else {
      size_t owed = 0;
      for (const ConnState& conn : conns) owed += conn.pending.size();
      if (owed == 0) break;
      if (now > window_end + kTailTimeout) {
        result.failed += static_cast<int64_t>(owed);
        break;
      }
      wake = now + std::chrono::milliseconds(100);
    }
    replies.clear();
    PPDB_RETURN_NOT_OK(sink.Poll(
        std::chrono::duration_cast<std::chrono::microseconds>(wake - now),
        &replies));
    for (Reply& reply : replies) {
      ConnState& conn = conns[static_cast<size_t>(reply.conn)];
      auto it = conn.pending.find(reply.id);
      if (it == conn.pending.end()) {
        return Status::Internal("reply to unknown request id " +
                                std::to_string(reply.id));
      }
      Pending pending = std::move(it->second);
      conn.pending.erase(it);
      if (conn.spec.loop == ConnSpec::Loop::kClosed && reply.at < window_end) {
        conn.free_slots.push_back(reply.at);
      }
      const std::string& line = pending.request.line;
      if (!reply.ok) {
        ++result.failed;
        if (result.failures.size() < kMaxMismatchesKept) {
          result.failures.push_back("'" + line + "': " + reply.payload);
        }
        continue;
      }
      if (conn.spec.stream == primary && reply.at >= window_start &&
          reply.at < window_end) {
        result.op_done_s.push_back(Us(reply.at - window_start) / 1e6);
      }
      if (pending.measured && conn.spec.stream == ConnSpec::Stream::kRead) {
        // Open-loop reads count the wait a stall imposed from their due
        // time; closed-loop requests are due when they are sent.
        result.read.push_back(Sample{Us(pending.due - window_start) / 1e6,
                                     Us(reply.at - pending.due)});
      }
      if (pending.request.is_event) {
        result.acked_events[static_cast<size_t>(reply.conn)].push_back(line);
      } else if (pending.request.provider > 0 && !expect.provider.empty()) {
        const std::string& want =
            expect.provider[static_cast<size_t>(pending.request.provider - 1)];
        if (reply.payload != want) {
          mismatch("'" + line + "': got '" + reply.payload + "' want '" +
                   want + "'");
        }
      } else if (line == "query pw" && !expect.pw.empty()) {
        if (reply.payload != expect.pw) {
          mismatch("'query pw': got '" + reply.payload + "' want '" +
                   expect.pw + "'");
        }
      } else if (line == "analyze" && !expect.analyze.empty()) {
        if (reply.payload != expect.analyze) {
          mismatch("'analyze': got '" + reply.payload + "' want '" +
                   expect.analyze + "'");
        }
      } else if (line == "stats" && !expect.stats_model.empty()) {
        if (!StartsWith(reply.payload, expect.stats_model + " ")) {
          mismatch("'stats': got '" + reply.payload + "' want prefix '" +
                   expect.stats_model + "'");
        }
      }
    }
  }
  result.first_conn_sent = conns.front().next_id - 1;
  if (mismatches > kMaxMismatchesKept) {
    result.mismatches.push_back(std::to_string(mismatches - kMaxMismatchesKept) +
                                " more mismatches");
  }
  return result;
}

}  // namespace e2e
