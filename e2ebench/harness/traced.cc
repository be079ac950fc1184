// The traced run: per-layer numbers for one workload, from the same seed
// and inputs as the untraced end-to-end run, measured in this process.
//
// Pass 1 composes the public serve pieces the way `net::TcpServer` does:
// LineFramer -> ParseRequest -> LaneForRequest -> RequestBroker::Submit(
// MakeRequestWork(...)) -> RenderResponse, over a `DatabaseService` on the
// counting FileSystem. It runs the workload twice on fresh copies of the
// database, once without spans and once with them (the difference is the
// tracing overhead). With spans, each request records when each piece ran;
// the journal and checkpoint I/O its work caused become its child spans (a
// thread-local request id is set inside the work closure). Lookup and
// census send no events, so their pass 1 ends with a short consent phase
// through the same pieces, which the write-side layers are measured on.
//
// Pass 2 runs `net::TcpServer` over the counting Transport and drives it
// over loopback, for the socket layer's counts.
//
// Isolated replays of the same inputs time LoadDatabase, the DSL parse and
// serialize, LivePopulationMonitor::Create / ForProvider / Snapshot and the
// seed's consent events, ViolationDetector (analyze, what-if, estimate) and
// SaveDatabase.
//
// Every request's spans stay in memory; the slowest requests and a sample
// of the rest are written to .bench_build/e2ebench/traces/ at the end.
#include "harness/traced.h"

#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "common/macros.h"
#include "common/rng.h"
#include "harness/client.h"
#include "harness/counting.h"
#include "harness/inputs.h"
#include "harness/oracle.h"
#include "privacy/policy_dsl.h"
#include "server/broker.h"
#include "server/net/framer.h"
#include "server/net/tcp_server.h"
#include "server/serve_core.h"
#include "server/service.h"
#include "storage/database_io.h"
#include "violation/detector.h"
#include "violation/probability.h"
#include "violation/what_if.h"

namespace e2e {

using ppdb::Result;
using ppdb::Status;
namespace fs = std::filesystem;

namespace {

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double MeanLatency(const std::vector<Sample>& samples) {
  double sum = 0.0;
  for (const Sample& sample : samples) sum += sample.us;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Repetitions of each isolated replay; the median is reported.
constexpr int kReplayReps = 3;
/// Seed events replayed into a bare monitor for the view's delta cost.
constexpr int kDeltaEvents = 4000;
/// `ForProvider` calls timed for the view's materialization cost.
constexpr int kMaterializeCalls = 4000;
/// Length of the consent phase lookup and census end pass 1 with.
constexpr double kWriteProbeSeconds = 2.0;
/// Requests whose spans are written out: the slowest, and every n-th.
constexpr size_t kSlowestWritten = 50;
constexpr size_t kSampleEvery = 2000;

/// One timed call a request's work made into the storage layer.
struct IoSpan {
  std::string op;
  Clock::time_point start, end;
  int64_t bytes = 0;
};

/// The spans of one request through the composed pieces. Times are when
/// each piece ended; `fed` is when the client handed the line over.
struct RequestSpans {
  int conn = 0;
  int64_t id = 0;
  std::string kind;
  bool write = false;
  bool cheap = false;
  Clock::time_point fed, framed, parsed, laned, submitted, work_start,
      work_end, rendered;
  std::vector<IoSpan> io;
};

/// Request id of the work running on this thread (0 outside a request).
thread_local int64_t t_request = 0;

/// All spans of the traced pass, kept in memory until the end.
class SpanStore {
 public:
  int64_t Begin(RequestSpans spans) {
    std::lock_guard<std::mutex> lock(mu_);
    requests_.push_back(std::move(spans));
    return static_cast<int64_t>(requests_.size());
  }
  template <typename F>
  void Update(int64_t key, F&& f) {
    std::lock_guard<std::mutex> lock(mu_);
    f(requests_[static_cast<size_t>(key - 1)]);
  }
  void AddIo(int64_t key, IoSpan span) {
    if (key <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    requests_[static_cast<size_t>(key - 1)].io.push_back(std::move(span));
  }
  /// Read once the pass has drained.
  std::vector<RequestSpans>& requests() { return requests_; }

 private:
  std::mutex mu_;
  std::vector<RequestSpans> requests_;
};

/// The serve pieces composed in-process, as `net::TcpServer` composes them,
/// behind the client's `Sink` interface. With `spans` null nothing is
/// recorded.
class ComposedSink : public Sink {
 public:
  ComposedSink(ppdb::server::DatabaseService& service,
               ppdb::server::RequestBroker& broker, int conns,
               SpanStore* spans)
      : service_(service),
        broker_(broker),
        framers_(static_cast<size_t>(conns)),
        next_ids_(static_cast<size_t>(conns), 0),
        spans_(spans) {}
  /// Completions call back into the sink, so none may be outstanding.
  ~ComposedSink() override { broker_.Drain(); }
  ComposedSink(const ComposedSink&) = delete;
  ComposedSink& operator=(const ComposedSink&) = delete;

  void Send(int conn, const std::string& line) override {
    const Clock::time_point fed = Clock::now();
    ppdb::server::net::LineFramer& framer = framers_[static_cast<size_t>(conn)];
    framer.Feed(line);
    framer.Feed("\n");
    ppdb::server::net::LineFramer::Line framed;
    while (framer.Next(&framed)) {
      const int64_t id = ++next_ids_[static_cast<size_t>(conn)];
      RequestSpans rs;
      rs.conn = conn;
      rs.id = id;
      rs.fed = fed;
      rs.framed = Clock::now();
      Result<ppdb::server::Request> request =
          ppdb::server::ParseRequest(framed.text);
      rs.parsed = Clock::now();
      if (!request.ok()) {
        Complete(conn, id, 0, ppdb::server::Response{request.status(), {}});
        continue;
      }
      const ppdb::server::Lane lane = ppdb::server::LaneForRequest(*request);
      rs.laned = Clock::now();
      rs.kind = std::string(ppdb::server::RequestKindName(request->kind));
      rs.write = request->IsWrite();
      rs.cheap = request->IsCheap();
      const int64_t key = spans_ ? spans_->Begin(rs) : 0;
      const std::chrono::milliseconds budget = request->deadline;
      ppdb::server::RequestBroker::Work inner =
          ppdb::server::MakeRequestWork(service_, broker_, *std::move(request));
      SpanStore* spans = spans_;
      Status admitted = broker_.Submit(
          lane, budget,
          [inner = std::move(inner), key, spans](const ppdb::Deadline& deadline) {
            const Clock::time_point start = Clock::now();
            t_request = key;
            ppdb::server::Response response = inner(deadline);
            t_request = 0;
            const Clock::time_point end = Clock::now();
            if (spans) {
              spans->Update(key, [&](RequestSpans& r) {
                r.work_start = start;
                r.work_end = end;
              });
            }
            return response;
          },
          [this, conn, id, key](const ppdb::server::Response& response) {
            Complete(conn, id, key, response);
          });
      if (spans_) {
        const Clock::time_point submitted = Clock::now();
        spans_->Update(key, [&](RequestSpans& r) { r.submitted = submitted; });
      }
      if (!admitted.ok()) {
        Complete(conn, id, key, ppdb::server::Response{admitted, {}});
      }
    }
  }

  void Flush() override {}

  Status Poll(std::chrono::microseconds timeout,
              std::vector<Reply>* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout, [this] { return !ready_.empty(); });
    for (Reply& reply : ready_) out->push_back(std::move(reply));
    ready_.clear();
    return Status::OK();
  }

 private:
  void Complete(int conn, int64_t id, int64_t key,
                const ppdb::server::Response& response) {
    std::string wire = ppdb::server::RenderResponse(id, response);
    const Clock::time_point rendered = Clock::now();
    if (spans_ && key > 0) {
      spans_->Update(key, [&](RequestSpans& r) { r.rendered = rendered; });
    }
    Reply reply;
    reply.conn = conn;
    reply.at = rendered;
    if (!wire.empty() && wire.back() == '\n') wire.pop_back();
    if (!ParseReplyLine(wire, &reply)) reply.ok = false;
    reply.conn = conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_.push_back(std::move(reply));
    }
    cv_.notify_one();
  }

  ppdb::server::DatabaseService& service_;
  ppdb::server::RequestBroker& broker_;
  std::vector<ppdb::server::net::LineFramer> framers_;
  std::vector<int64_t> next_ids_;
  SpanStore* spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Reply> ready_;
};

/// A fresh copy of the generated database for one pass.
Result<std::string> FreshCopy(const std::string& db, const std::string& work,
                              const std::string& name) {
  const fs::path dest = fs::path(work) / name;
  std::error_code ec;
  fs::remove_all(dest, ec);
  fs::copy(db, dest, fs::copy_options::recursive, ec);
  if (ec) return Status::Internal("copy " + db + ": " + ec.message());
  return dest.string();
}

ppdb::server::DatabaseService::Options ServeDefaults() {
  // The `ppdb_cli serve` defaults: checkpoint every 32 events, journal on
  // with group-commit window 0, analytics on every hardware thread.
  return ppdb::server::DatabaseService::Options();
}

/// What one drive through a sink left behind, checked against the oracle.
struct PassOutcome {
  DriveResult drive;
  bool correct = true;
  std::string stats;
  double seconds = 0.0;
};

/// Drives `workload` through `sink`, replays its acknowledged events into
/// `oracle` and runs the end-of-run checks on connection 0.
Result<PassOutcome> DriveAndCheck(Sink& sink, Workload workload, uint64_t seed,
                                  double seconds, Oracle& oracle) {
  Expectations expect;
  if (workload != Workload::kConsent) expect = oracle.StaticExpectations();
  PassOutcome outcome;
  const Clock::time_point start = Clock::now();
  PPDB_ASSIGN_OR_RETURN(outcome.drive,
                        Drive(sink, workload, seed, seconds, expect));
  outcome.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (const auto& events : outcome.drive.acked_events) {
    for (const std::string& line : events) {
      if (Status applied = oracle.Apply(line); !applied.ok()) {
        outcome.drive.mismatches.push_back("oracle rejected '" + line + "'");
      }
    }
  }
  int64_t next_id = outcome.drive.first_conn_sent + 1;
  PPDB_ASSIGN_OR_RETURN(outcome.stats,
                        CheckFinalState(sink, 0, &next_id, oracle, seed,
                                        &outcome.drive.mismatches));
  for (const std::string& m : outcome.drive.mismatches) {
    std::fprintf(stderr, "oracle mismatch (traced): %s\n", m.c_str());
  }
  outcome.correct = outcome.drive.mismatches.empty();
  return outcome;
}

/// The integer after "<key>=" in a `stats` payload (-1 when absent).
int64_t StatsField(const std::string& stats, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = (" " + stats).find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(stats.c_str() + at + needle.size() - 1);
}

/// Per-layer numbers collected while the run goes.
struct Layers {
  JsonObject metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Add(const std::string& name, double value, const std::string& unit) {
    JsonObject metric;
    metric.Add("value", value);
    metric.Add("unit", unit);
    metrics.Raw(name, metric.Render());
  }
  void Count(const PassOutcome& outcome) {
    attempted += outcome.drive.attempted;
    failed += outcome.drive.failed;
    correct = correct && outcome.correct;
  }
};

/// Isolated replays of each layer on the seed's inputs.
Status ReplayLayers(const std::string& db, const std::string& work,
                    uint64_t seed, Layers* layers) {
  std::vector<double> load_ms, parse_ms, serialize_ms, build_ms, save_ms;
  ppdb::storage::Database database;
  for (int i = 0; i < kReplayReps; ++i) {
    const Clock::time_point start = Clock::now();
    PPDB_ASSIGN_OR_RETURN(database, ppdb::storage::LoadDatabase(db));
    load_ms.push_back(Ms(Clock::now() - start));
  }
  ppdb::storage::FileSystem& real = ppdb::storage::GetRealFileSystem();
  PPDB_ASSIGN_OR_RETURN(std::string current,
                        real.ReadFile((fs::path(db) / "CURRENT").string()));
  while (!current.empty() && current.back() == '\n') current.pop_back();
  PPDB_ASSIGN_OR_RETURN(
      std::string dsl,
      real.ReadFile((fs::path(db) / current / "privacy.ppdb").string()));
  for (int i = 0; i < kReplayReps; ++i) {
    const Clock::time_point start = Clock::now();
    PPDB_ASSIGN_OR_RETURN(ppdb::privacy::PrivacyConfig parsed,
                          ppdb::privacy::ParsePrivacyConfig(dsl));
    parse_ms.push_back(Ms(Clock::now() - start));
    const Clock::time_point serialize_start = Clock::now();
    std::string text = ppdb::privacy::SerializePrivacyConfig(parsed);
    serialize_ms.push_back(Ms(Clock::now() - serialize_start));
    if (text.empty()) return Status::Internal("empty serialization");
  }
  std::optional<ppdb::violation::LivePopulationMonitor> monitor;
  for (int i = 0; i < kReplayReps; ++i) {
    ppdb::privacy::PrivacyConfig copy = database.config;
    const Clock::time_point start = Clock::now();
    PPDB_ASSIGN_OR_RETURN(
        ppdb::violation::LivePopulationMonitor created,
        ppdb::violation::LivePopulationMonitor::Create(std::move(copy)));
    build_ms.push_back(Ms(Clock::now() - start));
    monitor.emplace(std::move(created));
  }
  layers->Add("load.ms", Median(load_ms), "ms");
  layers->Add("privacy.dsl_parse_ms", Median(parse_ms), "ms");
  layers->Add("privacy.dsl_serialize_ms", Median(serialize_ms), "ms");
  layers->Add("view.build_ms", Median(build_ms), "ms");

  ppdb::Rng rng(seed ^ 0xabcdefULL);
  std::vector<double> materialize_us;
  for (int i = 0; i < kMaterializeCalls; ++i) {
    const int64_t id = 1 + static_cast<int64_t>(rng.NextBounded(kProviders));
    const Clock::time_point start = Clock::now();
    Result<ppdb::violation::ProviderViolation> v = monitor->ForProvider(id);
    materialize_us.push_back(Us(Clock::now() - start));
    if (!v.ok()) return v.status();
  }
  layers->Add("view.materialize_us", Median(materialize_us), "us");

  std::vector<double> snapshot_ms, analyze_ms, whatif_ms, estimate_ms, cores;
  for (int i = 0; i < kReplayReps; ++i) {
    Clock::time_point start = Clock::now();
    ppdb::violation::ViolationReport report = monitor->Snapshot();
    snapshot_ms.push_back(Ms(Clock::now() - start));

    const double cpu_before = CpuSeconds();
    start = Clock::now();
    ppdb::violation::ViolationDetector detector(&monitor->config());
    PPDB_ASSIGN_OR_RETURN(ppdb::violation::ViolationReport analyzed,
                          detector.Analyze());
    const double wall = std::chrono::duration<double>(Clock::now() - start).count();
    analyze_ms.push_back(wall * 1e3);
    cores.push_back((CpuSeconds() - cpu_before) / wall);

    ppdb::violation::WhatIfAnalyzer analyzer(
        &monitor->config(), ppdb::violation::WhatIfAnalyzer::Options());
    start = Clock::now();
    PPDB_ASSIGN_OR_RETURN(
        std::vector<ppdb::violation::ExpansionPoint> points,
        analyzer.RunSchedule(ppdb::violation::WhatIfAnalyzer::UniformSchedule(
            ppdb::privacy::Dimension::kVisibility, 1)));
    whatif_ms.push_back(Ms(Clock::now() - start));

    ppdb::Rng trials_rng(seed + static_cast<uint64_t>(i));
    start = Clock::now();
    PPDB_ASSIGN_OR_RETURN(ppdb::violation::TrialEstimate estimate,
                          ppdb::violation::EstimateViolationProbability(
                              report, kEstimateTrials, trials_rng,
                              static_cast<int>(std::thread::hardware_concurrency())));
    estimate_ms.push_back(Ms(Clock::now() - start));
    if (points.empty() || analyzed.num_providers() != report.num_providers() ||
        estimate.trials != kEstimateTrials) {
      return Status::Internal("isolated analytics disagree");
    }
  }
  layers->Add("view.snapshot_ms", Median(snapshot_ms), "ms");
  layers->Add("detector.analyze_ms", Median(analyze_ms), "ms");
  layers->Add("detector.cores_used", Median(cores), "cores");
  layers->Add("detector.whatif_ms", Median(whatif_ms), "ms");
  layers->Add("detector.estimate_ms", Median(estimate_ms), "ms");

  // The seed's consent stream, as event calls on a bare monitor.
  RequestSource source(Workload::kConsent, 0,
                       ConnectionsFor(Workload::kConsent).front(), seed, 1);
  std::vector<ppdb::server::Request> events;
  for (int i = 0; i < kDeltaEvents; ++i) {
    PPDB_ASSIGN_OR_RETURN(ppdb::server::Request event,
                          ppdb::server::ParseRequest(source.Next().line));
    events.push_back(std::move(event));
  }
  std::vector<double> delta_us;
  double cells = 0.0;
  const int64_t rebuilds_before = monitor->view().rebuild_events();
  for (const ppdb::server::Request& event : events) {
    const Clock::time_point start = Clock::now();
    PPDB_RETURN_NOT_OK(ApplyEvent(*monitor, event));
    delta_us.push_back(Us(Clock::now() - start));
    cells += static_cast<double>(monitor->view().last_delta_cells());
  }
  layers->Add("view.delta_us", Median(delta_us), "us");
  layers->Add("view.delta_cells", cells / kDeltaEvents, "cells/event");
  layers->Add("view.rebuilds",
              static_cast<double>(monitor->view().rebuild_events() -
                                  rebuilds_before),
              "count");

  for (int i = 0; i < kReplayReps; ++i) {
    const std::string dir = (fs::path(work) / "save").string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    const Clock::time_point start = Clock::now();
    PPDB_RETURN_NOT_OK(ppdb::storage::SaveDatabase(dir, database));
    save_ms.push_back(Ms(Clock::now() - start));
    fs::remove_all(dir, ec);
  }
  layers->Add("checkpoint.save_ms", Median(save_ms), "ms");
  return Status::OK();
}

void WriteSpans(const std::vector<RequestSpans>& requests,
                const std::string& path) {
  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  auto total = [&](size_t i) { return requests[i].rendered - requests[i].fed; };
  std::partial_sort(order.begin(),
                    order.begin() + std::min(kSlowestWritten, order.size()),
                    order.end(),
                    [&](size_t a, size_t b) { return total(a) > total(b); });
  std::vector<size_t> keep(order.begin(),
                           order.begin() + std::min(kSlowestWritten, order.size()));
  for (size_t i = 0; i < requests.size(); i += kSampleEvery) keep.push_back(i);
  std::ofstream out(path);
  if (!out) return;
  for (size_t i : keep) {
    const RequestSpans& r = requests[i];
    const Clock::time_point t0 = r.fed;
    auto at = [&](Clock::time_point t) { return Us(t - t0); };
    out << "{\"conn\": " << r.conn << ", \"id\": " << r.id << ", \"kind\": \""
        << r.kind << "\", \"spans_us\": {\"frame\": " << at(r.framed)
        << ", \"parse\": " << at(r.parsed) << ", \"lane\": " << at(r.laned)
        << ", \"submit\": " << at(r.submitted)
        << ", \"work_start\": " << at(r.work_start)
        << ", \"work_end\": " << at(r.work_end)
        << ", \"render\": " << at(r.rendered) << "}, \"io\": [";
    for (size_t k = 0; k < r.io.size(); ++k) {
      out << (k ? ", " : "") << "{\"op\": \"" << r.io[k].op
          << "\", \"start_us\": " << at(r.io[k].start)
          << ", \"end_us\": " << at(r.io[k].end)
          << ", \"bytes\": " << r.io[k].bytes << "}";
    }
    out << "]}\n";
  }
}

/// Composed pass with spans: request-path and write-side numbers. Returns
/// the mean time a read of the workload spent on its blocking path
/// (frame, parse, lane, queue, execute, render).
Result<double> TracedPass(const std::string& db, const std::string& work,
                          Workload workload, uint64_t seed, double seconds,
                          double untraced_read_us,
                          const std::string& spans_path, Layers* layers) {
  PPDB_ASSIGN_OR_RETURN(std::string dir, FreshCopy(db, work, "traced"));
  CountingFileSystem counting(&ppdb::storage::GetRealFileSystem());
  SpanStore store;
  counting.set_observer([&store](std::string_view op, Clock::time_point start,
                                 Clock::time_point end, int64_t bytes) {
    store.AddIo(t_request, IoSpan{std::string(op), start, end, bytes});
  });
  PPDB_ASSIGN_OR_RETURN(
      std::unique_ptr<ppdb::server::DatabaseService> service,
      ppdb::server::DatabaseService::Create(dir, &counting, ServeDefaults()));
  PPDB_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Load(db));
  ppdb::server::RequestBroker broker{ppdb::server::RequestBroker::Options()};
  const int conns = static_cast<int>(ConnectionsFor(workload).size());
  ComposedSink sink(*service, broker, conns, &store);
  const CountingFileSystem::Counts& counts = counting.counts();
  const int64_t commits_before = counts.commits.load();
  const int64_t syncs_before = counts.syncs.load();
  const int64_t append_bytes_before = counts.append_bytes.load();
  const int64_t write_bytes_before = counts.write_bytes.load();
  PPDB_ASSIGN_OR_RETURN(PassOutcome pass,
                        DriveAndCheck(sink, workload, seed, seconds, oracle));
  layers->Count(pass);
  const size_t workload_requests = store.requests().size();
  std::vector<double> lag = pass.drive.lag_us;

  // Write-side layers: consent's own events, or a short consent phase.
  PassOutcome writes = pass;
  size_t writes_from = 0;
  double write_seconds = pass.seconds;
  if (workload != Workload::kConsent) {
    ComposedSink probe_sink(*service, broker,
                            static_cast<int>(ConnectionsFor(Workload::kConsent).size()),
                            &store);
    writes_from = store.requests().size();
    PPDB_ASSIGN_OR_RETURN(writes, DriveAndCheck(probe_sink, Workload::kConsent,
                                                seed, kWriteProbeSeconds, oracle));
    layers->Count(writes);
    write_seconds = writes.seconds;
  }
  broker.Drain();

  std::vector<RequestSpans>& requests = store.requests();
  std::vector<double> frame, parse, submit, render, queue_wait, blocking_read,
      service_read, service_write, append_us, checkpoint_ms;
  int64_t events = 0;
  double checkpoint_total_ms = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    RequestSpans& r = requests[i];
    if (r.rendered.time_since_epoch().count() == 0 ||
        r.work_end.time_since_epoch().count() == 0) {
      continue;
    }
    double journal_us = 0.0;
    bool committed = false;
    for (const IoSpan& io : r.io) {
      if (io.op == "journal.append" || io.op == "journal.sync") {
        journal_us += Us(io.end - io.start);
      }
      if (io.op == "fs.rename" && r.write) committed = true;
    }
    const double execute = Us(r.work_end - r.work_start);
    if (i < workload_requests) {
      frame.push_back(Us(r.framed - r.fed));
      parse.push_back(Us(r.parsed - r.framed));
      submit.push_back(Us(r.submitted - r.laned));
      // Queue wait runs from the call into Submit to the start of the
      // work closure, which may begin before Submit has returned.
      queue_wait.push_back(Us(r.work_start - r.laned));
      render.push_back(Us(r.rendered - r.work_end));
      if (r.cheap && !r.write) {
        service_read.push_back(execute);
        blocking_read.push_back(Us(r.rendered - r.fed));
      }
    }
    if (r.write && i >= writes_from) {
      ++events;
      service_write.push_back(execute);
      append_us.push_back(journal_us);
      if (committed) {
        checkpoint_ms.push_back(execute / 1e3);
        checkpoint_total_ms += execute / 1e3;
      }
    }
  }

  layers->Add("request.frame_us", Mean(frame), "us");
  layers->Add("request.parse_us", Mean(parse), "us");
  layers->Add("request.render_us", Mean(render), "us");
  layers->Add("broker.submit_us", Mean(submit), "us");
  layers->Add("broker.queue_wait_p50_us", Percentile(queue_wait, 0.5), "us");
  layers->Add("broker.queue_wait_p99_us", Percentile(queue_wait, 0.99), "us");
  layers->Add("broker.shed",
              static_cast<double>(StatsField(pass.stats, "shed")), "count");
  layers->Add("service.read_p50_us", Percentile(service_read, 0.5), "us");
  layers->Add("service.write_p50_us", Percentile(service_write, 0.5), "us");
  layers->Add("service.write_p99_us", Percentile(service_write, 0.99), "us");
  layers->Add("journal.append_p50_us", Percentile(append_us, 0.5), "us");
  layers->Add("journal.append_p99_us", Percentile(append_us, 0.99), "us");
  const double ev = std::max<int64_t>(events, 1);
  layers->Add("journal.syncs_per_event",
              static_cast<double>(counts.syncs.load() - syncs_before) / ev,
              "syncs/event");
  layers->Add("journal.bytes_per_event",
              static_cast<double>(counts.append_bytes.load() -
                                  append_bytes_before) / ev,
              "B/event");
  layers->Add("checkpoint.per_kevent",
              1e3 * static_cast<double>(counts.commits.load() -
                                        commits_before) / ev,
              "1/kevent");
  layers->Add("checkpoint.p50_ms", Percentile(checkpoint_ms, 0.5), "ms");
  layers->Add("checkpoint.bytes_per_event",
              static_cast<double>(counts.write_bytes.load() -
                                  write_bytes_before) / ev,
              "B/event");
  layers->Add("checkpoint.busy_share", checkpoint_total_ms / 1e3 / write_seconds,
              "ratio");
  layers->Add("client.lag_p99_us", Percentile(lag, 0.99), "us");
  const double traced_read_us = MeanLatency(pass.drive.read);
  layers->Add("trace.overhead_pct",
              untraced_read_us > 0
                  ? 100.0 * (traced_read_us / untraced_read_us - 1.0)
                  : 0.0,
              "%");
  const std::string& final_stats =
      workload == Workload::kConsent ? pass.stats : writes.stats;
  for (const char* key : {"checkpoints", "view_delta_events",
                          "view_rebuild_events", "journal_records"}) {
    layers->Add(std::string("stats.") + key,
                static_cast<double>(StatsField(final_stats, key)), "count");
  }
  WriteSpans(requests, spans_path);
  return Mean(blocking_read);
}

/// Composed pass without spans: the baseline for the tracing overhead.
/// Returns the mean read latency the client saw.
Result<double> UntracedPass(const std::string& db, const std::string& work,
                            Workload workload, uint64_t seed, double seconds,
                            Layers* layers) {
  PPDB_ASSIGN_OR_RETURN(std::string dir, FreshCopy(db, work, "untraced"));
  PPDB_ASSIGN_OR_RETURN(
      std::unique_ptr<ppdb::server::DatabaseService> service,
      ppdb::server::DatabaseService::Create(
          dir, &ppdb::storage::GetRealFileSystem(), ServeDefaults()));
  PPDB_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Load(db));
  ppdb::server::RequestBroker broker{ppdb::server::RequestBroker::Options()};
  ComposedSink sink(*service, broker,
                    static_cast<int>(ConnectionsFor(workload).size()), nullptr);
  PPDB_ASSIGN_OR_RETURN(PassOutcome pass,
                        DriveAndCheck(sink, workload, seed, seconds, oracle));
  broker.Drain();
  layers->Count(pass);
  return MeanLatency(pass.drive.read);
}

/// `net::TcpServer` over the counting Transport, driven over loopback.
/// Reconciles the traced pass's blocking read path, plus this pass's socket
/// I/O per request, against the reads' latency as the client saw it here.
Status SocketPass(const std::string& db, const std::string& work,
                  Workload workload, uint64_t seed, double seconds,
                  double blocking_read_us, Layers* layers) {
  PPDB_ASSIGN_OR_RETURN(std::string dir, FreshCopy(db, work, "socket"));
  PPDB_ASSIGN_OR_RETURN(
      std::unique_ptr<ppdb::server::DatabaseService> service,
      ppdb::server::DatabaseService::Create(
          dir, &ppdb::storage::GetRealFileSystem(), ServeDefaults()));
  PPDB_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Load(db));
  ppdb::server::RequestBroker broker{ppdb::server::RequestBroker::Options()};
  CountingTransport transport(&ppdb::server::net::GetRealTransport());
  ppdb::server::net::TcpServer::Options options;
  options.transport = &transport;
  ppdb::server::net::TcpServer server(options, *service, broker);
  PPDB_RETURN_NOT_OK(server.Start());
  Status served;
  std::thread loop([&] { served = server.Serve(); });
  Result<PassOutcome> pass = [&]() -> Result<PassOutcome> {
    PPDB_ASSIGN_OR_RETURN(
        std::unique_ptr<SocketSink> sink,
        SocketSink::Connect(server.port(),
                            static_cast<int>(ConnectionsFor(workload).size())));
    return DriveAndCheck(*sink, workload, seed, seconds, oracle);
  }();
  server.Shutdown();
  loop.join();
  PPDB_RETURN_NOT_OK(pass.status());
  PPDB_RETURN_NOT_OK(served);
  layers->Count(pass.value());
  const double requests = static_cast<double>(
      std::max<int64_t>(pass->drive.attempted, 1));
  const CountingTransport::Counts& c = transport.counts();
  layers->Add("net.reads_per_req", static_cast<double>(c.reads.load()) / requests,
              "calls/req");
  layers->Add("net.writes_per_req",
              static_cast<double>(c.writes.load()) / requests, "calls/req");
  const double io_us_per_req = static_cast<double>(c.io_ns.load()) / 1e3 / requests;
  layers->Add("net.io_us_per_req", io_us_per_req, "us/req");
  const double observed_us = MeanLatency(pass->drive.read);
  layers->Add("trace.reconcile",
              observed_us > 0 ? (blocking_read_us + io_us_per_req) / observed_us
                              : 0.0,
              "ratio");
  return Status::OK();
}

}  // namespace

int RunTrace(const Flags& flags) {
  Result<std::string> workload_name = Flag(flags, "workload");
  Result<std::string> seed_text = Flag(flags, "seed");
  Result<std::string> seconds_text = Flag(flags, "seconds");
  Result<std::string> db = Flag(flags, "db");
  Result<std::string> work = Flag(flags, "work");
  Result<std::string> spans = Flag(flags, "spans");
  for (const auto* r : {&workload_name, &seed_text, &seconds_text, &db, &work,
                        &spans}) {
    if (!r->ok()) return Fail(r->status());
  }
  Result<Workload> workload = ParseWorkload(workload_name.value());
  if (!workload.ok()) return Fail(workload.status());
  const uint64_t seed = std::strtoull(seed_text->c_str(), nullptr, 10);
  // The run's seconds are shared by its three driven passes.
  const double pass_seconds = std::strtod(seconds_text->c_str(), nullptr) / 3.0;

  Layers layers;
  Status status = ReplayLayers(db.value(), work.value(), seed, &layers);
  if (!status.ok()) return Fail(status);
  Result<double> untraced_read_us =
      UntracedPass(db.value(), work.value(), workload.value(), seed,
                   pass_seconds, &layers);
  if (!untraced_read_us.ok()) return Fail(untraced_read_us.status());
  Result<double> blocking_read_us =
      TracedPass(db.value(), work.value(), workload.value(), seed,
                 pass_seconds, untraced_read_us.value(), spans.value(), &layers);
  if (!blocking_read_us.ok()) return Fail(blocking_read_us.status());
  status = SocketPass(db.value(), work.value(), workload.value(), seed,
                      pass_seconds, blocking_read_us.value(), &layers);
  if (!status.ok()) return Fail(status);

  JsonObject out;
  out.Add("correct", layers.correct);
  out.Add("attempted", layers.attempted);
  out.Add("failed", layers.failed);
  out.Raw("metrics", layers.metrics.Render());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace e2e
