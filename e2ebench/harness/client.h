#ifndef E2EBENCH_HARNESS_CLIENT_H_
#define E2EBENCH_HARNESS_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness/inputs.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// One response line as the client received it.
struct Reply {
  int conn = 0;
  /// The per-connection 1-based request id the server echoed.
  int64_t id = 0;
  bool ok = false;
  /// Everything after "<id> ok " (or after "<id> error ").
  std::string payload;
  Clock::time_point at;
};

/// Where the client's request lines go: the real server over loopback
/// (`SocketSink`) or, in the traced run, the serve pieces composed in this
/// process. Single-threaded use only.
class Sink {
 public:
  virtual ~Sink() = default;
  /// Queues one request line (no terminator) on connection `conn`.
  virtual void Send(int conn, const std::string& line) = 0;
  /// Pushes every queued line towards the server.
  virtual void Flush() = 0;
  /// Waits up to `timeout` for replies and appends them to `out`. Returns
  /// an error when a connection failed.
  virtual ppdb::Status Poll(std::chrono::microseconds timeout,
                            std::vector<Reply>* out) = 0;
};

/// Blocking-connect, non-blocking-I/O client over `conns` loopback TCP
/// connections to `port`.
class SocketSink : public Sink {
 public:
  static ppdb::Result<std::unique_ptr<SocketSink>> Connect(uint16_t port,
                                                           int conns);
  ~SocketSink() override;
  SocketSink(const SocketSink&) = delete;
  SocketSink& operator=(const SocketSink&) = delete;

  void Send(int conn, const std::string& line) override;
  void Flush() override;
  ppdb::Status Poll(std::chrono::microseconds timeout,
                    std::vector<Reply>* out) override;

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_offset = 0;
    std::string in;
  };
  SocketSink() = default;
  ppdb::Status FlushConn(Conn& conn);

  std::vector<Conn> conns_;
};

/// Parses "<id> ok <payload>" / "<id> error <rest>"; false on anything else.
bool ParseReplyLine(const std::string& line, Reply* reply);

/// Answers the client checks against while the load runs; for an empty
/// field only the reply's status is checked.
struct Expectations {
  /// Expected `query provider <id>` payload by id (index id - 1); empty
  /// when the state changes under the load (consent).
  std::vector<std::string> provider;
  std::string pw;
  std::string analyze;
  /// The leading model fields of `stats`.
  std::string stats_model;
};

/// One timed request: when it was due, relative to the start of the
/// measured window, and how long it took.
struct Sample {
  double at_s = 0.0;
  double us = 0.0;
};

/// Everything one measured run of a workload produced.
struct DriveResult {
  /// Read latencies. Reads from an open-loop connection are timed from
  /// their due time, closed-loop ones from their send time.
  std::vector<Sample> read;
  /// When each primary-stream operation completed inside the window.
  std::vector<double> op_done_s;
  /// How late each request was sent: open loop, after its scheduled due
  /// time; closed loop, after the reply that freed its slot arrived.
  std::vector<double> lag_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Open-loop sends made later than `kLateSendUs` after their due time.
  int64_t late_sends = 0;
  /// A sample of the requests that failed, with their error.
  std::vector<std::string> failures;
  /// Checked answers that differed from the oracle.
  std::vector<std::string> mismatches;
  /// Requests sent on connection 0 (its next request id is one more).
  int64_t first_conn_sent = 0;
  /// Acknowledged event lines per connection, in acknowledgement order.
  std::vector<std::vector<std::string>> acked_events;
  /// The server's CPU clock, in seconds, read at the start of each of the
  /// window's equal parts and at its end (empty when no clock was given).
  std::vector<double> server_cpu_marks;
};

/// An open-loop send later than this after its due time counts as failed:
/// the generator, not the server, fell behind. Timer wake-ups on this kind
/// of host slip by up to a few milliseconds while the server's analytics
/// threads run (an unrelated sleeping process sees the same), so the limit
/// is ten schedule intervals of the open-loop reader.
inline constexpr double kLateSendUs = 50000.0;

/// Reads the server's CPU time consumed so far, in seconds.
using CpuClock = std::function<ppdb::Result<double>()>;

/// Drives `workload` through `sink` for `seconds` after a short warm-up,
/// then waits for every outstanding reply. `expect` is checked on every
/// reply it covers. When `server_cpu` is given it is read at the bounds of
/// `cpu_parts` equal parts of the measured window.
ppdb::Result<DriveResult> Drive(Sink& sink, Workload workload, uint64_t seed,
                                double seconds, const Expectations& expect,
                                const CpuClock& server_cpu = {},
                                int cpu_parts = 1);

/// The CPU time (user + system, all threads) process `pid` has used, from
/// /proc/<pid>/stat.
ppdb::Result<double> ProcessCpuSeconds(int pid);

/// Sends one line on `conn` and waits for its reply (end-of-run checks).
ppdb::Result<Reply> RoundTrip(Sink& sink, int conn, int64_t id,
                              const std::string& line);

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& values, double q);

/// The run's window split into `windows` equal parts: the median over the
/// parts of each part's `q` latency percentile. Medians over parts keep a
/// few seconds of host contention from moving the whole run's figure.
double WindowedPercentile(const std::vector<Sample>& samples, double seconds,
                          int windows, double q);

/// The median over the window's parts of the server CPU time per operation
/// completed in each part: `cpu_marks` bound the parts (see DriveResult),
/// `done_s` are the completion times.
double WindowedCpuPerOp(const std::vector<double>& cpu_marks,
                        const std::vector<double>& done_s, double seconds);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_CLIENT_H_
