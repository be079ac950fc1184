#include "server/service.h"

#include <chrono>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/macros.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/dimension.h"
#include "storage/database_io.h"
#include "violation/detector.h"
#include "violation/incremental.h"
#include "violation/policy_search.h"
#include "violation/probability.h"
#include "violation/what_if.h"

namespace ppdb::server {

namespace {

using violation::LivePopulationMonitor;

/// `text` as one space-free token of a `key=value` line: '%', '=' and
/// every byte outside printable ASCII or a space are percent-encoded
/// (a space reads %20).
std::string EscapeToken(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const unsigned char byte = static_cast<unsigned char>(c);
    if (byte > ' ' && byte < 0x7f && c != '%' && c != '=') {
      out += c;
    } else {
      char escaped[4];
      std::snprintf(escaped, sizeof(escaped), "%%%02X", byte);
      out += escaped;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Response Err(Status status) { return Response{std::move(status), {}}; }

Response Ok(std::string payload) {
  return Response{Status::OK(), std::move(payload)};
}

/// Every request kind, for eager per-kind counter registration. Must list
/// the full RequestKind enum.
constexpr RequestKind kAllKinds[] = {
    RequestKind::kPing,           RequestKind::kStats,
    RequestKind::kMetrics,        RequestKind::kTrace,
    RequestKind::kAnalyze,        RequestKind::kCertify,
    RequestKind::kEstimate,       RequestKind::kWhatIf,
    RequestKind::kSearch,         RequestKind::kEventAdd,
    RequestKind::kEventRemove,    RequestKind::kEventSetPref,
    RequestKind::kEventRemovePref, RequestKind::kEventSetThreshold,
    RequestKind::kQuery,          RequestKind::kExpansionCheck,
    RequestKind::kDriftCheck,     RequestKind::kSave,
    RequestKind::kDrain,
};

/// Numeric encoding of the breaker state for the ppdb_service_breaker_state
/// gauge: 0 closed, 1 open, 2 half_open.
double BreakerStateValue(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed: return 0.0;
    case CircuitBreaker::State::kOpen: return 1.0;
    case CircuitBreaker::State::kHalfOpen: return 2.0;
  }
  return -1.0;
}

/// The service's registry instruments, registered as one batch on first use
/// (the first DatabaseService construction): per-kind request counters,
/// read/write latency, and the breaker mirror.
struct ServiceMetrics {
  std::unordered_map<RequestKind, obs::Counter*> requests;
  obs::Histogram* read_seconds;
  obs::Histogram* write_seconds;
  obs::Gauge* breaker_state;
  obs::Counter* transitions_to[3];  // indexed by BreakerStateValue(to)

  static const ServiceMetrics& Get() {
    static const ServiceMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      ServiceMetrics m;
      for (RequestKind kind : kAllKinds) {
        m.requests[kind] = r.GetCounter(
            "ppdb_service_requests_total",
            "Requests executed by the service, by parsed kind.",
            {{"kind", std::string(RequestKindName(kind))}});
      }
      m.read_seconds = r.GetHistogram(
          "ppdb_service_read_seconds",
          "Execute latency of read requests (IsWrite() == false).");
      m.write_seconds = r.GetHistogram(
          "ppdb_service_write_seconds",
          "Execute latency of write requests (IsWrite() == true).");
      m.breaker_state = r.GetGauge(
          "ppdb_service_breaker_state",
          "Storage circuit breaker state: 0 closed, 1 open, 2 half_open.");
      const CircuitBreaker::State targets[] = {
          CircuitBreaker::State::kClosed, CircuitBreaker::State::kOpen,
          CircuitBreaker::State::kHalfOpen};
      for (CircuitBreaker::State to : targets) {
        m.transitions_to[static_cast<int>(BreakerStateValue(to))] =
            r.GetCounter(
                "ppdb_service_breaker_transitions_total",
                "Breaker state transitions, by destination state.",
                {{"to", std::string(CircuitBreaker::StateName(to))}});
      }
      return m;
    }();
    return metrics;
  }
};

/// Translates a mutating request into its journal payload. The purpose
/// travels as its *name* (ids are registry-relative and would not survive
/// a reload).
Result<storage::JournalEvent> JournalEventFromRequest(
    const Request& request) {
  using Kind = storage::JournalEvent::Kind;
  storage::JournalEvent event;
  event.provider = request.provider;
  switch (request.kind) {
    case RequestKind::kEventAdd:
      event.kind = Kind::kAddProvider;
      event.threshold = request.threshold;
      break;
    case RequestKind::kEventRemove:
      event.kind = Kind::kRemoveProvider;
      break;
    case RequestKind::kEventSetPref:
      event.kind = Kind::kSetPreference;
      event.attribute = request.attribute;
      event.purpose = request.purpose;
      event.visibility = request.visibility;
      event.granularity = request.granularity;
      event.retention = request.retention;
      break;
    case RequestKind::kEventRemovePref:
      event.kind = Kind::kRemovePreference;
      event.attribute = request.attribute;
      event.purpose = request.purpose;
      break;
    case RequestKind::kEventSetThreshold:
      event.kind = Kind::kSetThreshold;
      event.threshold = request.threshold;
      break;
    default:
      return Status::Internal("not an event");
  }
  return event;
}

/// Installs the metrics mirror into the breaker options, chaining any
/// callback the caller configured.
CircuitBreaker::Options WithBreakerMirror(CircuitBreaker::Options options) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  auto prior = std::move(options.on_transition);
  options.on_transition = [prior = std::move(prior), &metrics](
                              CircuitBreaker::State from,
                              CircuitBreaker::State to) {
    metrics.breaker_state->Set(BreakerStateValue(to));
    metrics.transitions_to[static_cast<int>(BreakerStateValue(to))]->Add();
    if (prior) prior(from, to);
  };
  return options;
}

}  // namespace

Result<std::unique_ptr<DatabaseService>> DatabaseService::Create(
    std::string dir, storage::FileSystem* fs, Options options) {
  storage::RecoveryReport recovery;
  PPDB_ASSIGN_OR_RETURN(storage::Database database,
                        storage::LoadDatabase(dir, *fs, &recovery));
  violation::ViolationDetector::Options detector_options;
  detector_options.num_threads = options.num_threads;
  PPDB_ASSIGN_OR_RETURN(LivePopulationMonitor monitor,
                        LivePopulationMonitor::CreateWithConfigHierarchy(
                            std::move(database.config), detector_options));
  database.config = privacy::PrivacyConfig();
  // The journal resumes the segment LoadDatabase just replayed (its base
  // is the loaded generation), so acknowledged-but-uncheckpointed events
  // stay covered until the next checkpoint prunes them.
  storage::Journal::Options journal_options;
  journal_options.batch_window = options.journal_batch_window;
  PPDB_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::Journal> journal,
      storage::Journal::Open(dir, recovery.loaded_generation, *fs,
                             journal_options));
  // ppdb-lint: allow(raw-new) -- private ctor, make_unique cannot reach it.
  std::unique_ptr<DatabaseService> service(new DatabaseService(
      std::move(dir), fs, options, std::move(recovery), std::move(monitor),
      std::move(database), std::move(journal)));
  return service;
}

DatabaseService::DatabaseService(std::string dir, storage::FileSystem* fs,
                                 Options options,
                                 storage::RecoveryReport recovery,
                                 LivePopulationMonitor monitor,
                                 storage::Database database,
                                 std::unique_ptr<storage::Journal> journal)
    : dir_(std::move(dir)),
      fs_(fs),
      options_(options),
      recovery_(std::move(recovery)),
      monitor_(std::move(monitor)),
      database_(std::move(database)),
      journal_(std::move(journal)),
      last_checkpoint_generation_(recovery_.loaded_generation),
      breaker_(WithBreakerMirror(options.breaker)) {
  ServiceMetrics::Get().breaker_state->Set(
      BreakerStateValue(breaker_.state()));
}

Status DatabaseService::Checkpoint(bool bypass_breaker) {
  Status status = bypass_breaker ? Status::OK() : breaker_.Allow();
  std::string committed;
  if (status.ok()) {
    storage::SaveOptions save_options;
    save_options.retry = options_.save_retry;
    status = storage::SaveDatabase(
        dir_,
        storage::DatabaseRef{database_.catalog, monitor_.config(),
                             database_.ledger, database_.log},
        *fs_, save_options, &committed);
    breaker_.Record(status);
  }
  // Log the state changes only: the first failure of a run, with its
  // cause, and the recovery. The attempts in between show in `stats`.
  if (!status.ok()) {
    if (last_checkpoint_status_.ok()) {
      PPDB_LOG(kWarning) << "checkpoint failed: " << status.ToString();
    }
    last_checkpoint_failure_ = status;
    last_checkpoint_failure_unix_ms_ =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
  } else if (!last_checkpoint_status_.ok()) {
    PPDB_LOG(kInfo) << "checkpoint recovered: committed " << committed;
  }
  last_checkpoint_status_ = status;
  if (!status.ok()) return status;
  ++checkpoints_taken_;
  events_since_checkpoint_ = 0;
  last_checkpoint_generation_ = committed;
  // The commit pruned every journal segment; start the next one. A
  // rotation failure leaves the journal wedged — the checkpoint itself
  // still succeeded (all applied events are in `committed`), and the
  // next event's rescue checkpoint retries the rotation.
  if (Status rotated = journal_->RotateTo(committed); !rotated.ok()) {
    PPDB_LOG(kWarning) << "journal rotation to " << committed
                       << " failed: " << rotated.message();
  }
  return Status::OK();
}

Status DatabaseService::FinalCheckpoint() {
  WriterMutexLock lock(mu_);
  // Deliberately not breaker-gated: this is the last save this process
  // will ever attempt, so it runs even against a backend the breaker
  // currently distrusts. Its outcome is still recorded so the breaker's
  // counters tell the truth in post-mortem logs.
  return Checkpoint(/*bypass_breaker=*/true);
}

Response DatabaseService::Execute(const Request& request,
                                  const Deadline& deadline) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  if (auto it = metrics.requests.find(request.kind);
      it != metrics.requests.end()) {
    it->second->Add();
  }
  obs::SpanScope span(RequestKindName(request.kind));
  const auto started = std::chrono::steady_clock::now();
  Response response = [&] {
    if (deadline.Expired()) {
      return Err(deadline.Check(RequestKindName(request.kind)));
    }
    if (request.IsWrite() &&
        breaker_.state() == CircuitBreaker::State::kOpen) {
      return Err(Status::Unavailable(
          "service is read-only: storage breaker open; retry_after_ms=" +
          std::to_string(options_.breaker.open_duration.count())));
    }
    return ExecuteLocked(request, deadline);
  }();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  (request.IsWrite() ? metrics.write_seconds : metrics.read_seconds)
      ->Observe(elapsed);
  return response;
}

Response DatabaseService::ExecuteLocked(const Request& request,
                                        const Deadline& deadline) {
  switch (request.kind) {
    case RequestKind::kPing:
      return Ok("pong");
    case RequestKind::kDrain:
      // The serve loop intercepts drain before it reaches the service;
      // answering here keeps direct callers (tests) working.
      return Ok("draining");
    case RequestKind::kStats: {
      ReaderMutexLock lock(mu_);
      return Stats();
    }
    case RequestKind::kMetrics:
      // The registry synchronizes itself; no service lock needed.
      return Ok(obs::MetricsRegistry::Default().RenderPrometheus());
    case RequestKind::kTrace:
      return Ok(obs::Tracer::Default().SnapshotJson());
    case RequestKind::kAnalyze: {
      ReaderMutexLock lock(mu_);
      return Analyze(deadline);
    }
    case RequestKind::kCertify: {
      ReaderMutexLock lock(mu_);
      return Certify(request, deadline);
    }
    case RequestKind::kEstimate: {
      ReaderMutexLock lock(mu_);
      return Estimate(request, deadline);
    }
    case RequestKind::kWhatIf: {
      ReaderMutexLock lock(mu_);
      return WhatIf(request, deadline);
    }
    case RequestKind::kSearch: {
      ReaderMutexLock lock(mu_);
      return Search(request, deadline);
    }
    case RequestKind::kQuery: {
      ReaderMutexLock lock(mu_);
      return Query(request);
    }
    case RequestKind::kExpansionCheck: {
      ReaderMutexLock lock(mu_);
      return ExpansionCheck(request);
    }
    case RequestKind::kDriftCheck: {
      WriterMutexLock lock(mu_);
      return DriftCheck();
    }
    case RequestKind::kEventAdd:
    case RequestKind::kEventRemove:
    case RequestKind::kEventSetPref:
    case RequestKind::kEventRemovePref:
    case RequestKind::kEventSetThreshold: {
      WriterMutexLock lock(mu_);
      return Event(request);
    }
    case RequestKind::kSave: {
      WriterMutexLock lock(mu_);
      Status status = Checkpoint();
      if (!status.ok()) return Err(std::move(status));
      return Ok("checkpoints_taken=" + std::to_string(checkpoints_taken_));
    }
  }
  return Err(Status::Internal("unhandled request kind"));
}

// The census answers below read the maintained view under the reader lock:
// its counters and Eq. 16 total are bitwise what a full scan reports (the
// drift-oracle contract), so none of them builds a ViolationDetector.

Response DatabaseService::Analyze(const Deadline& deadline) {
  if (Status due = deadline.Check("analyze"); !due.ok()) {
    return Err(std::move(due));
  }
  return Ok("providers=" + std::to_string(monitor_.num_providers()) +
            " violated=" + std::to_string(monitor_.num_violated()) +
            " pw=" + Num(monitor_.ProbabilityOfViolation()) +
            " total_severity=" + Num(monitor_.TotalViolations()));
}

Response DatabaseService::Certify(const Request& request,
                                  const Deadline& deadline) {
  if (Status due = deadline.Check("certify"); !due.ok()) {
    return Err(std::move(due));
  }
  Result<violation::AlphaCertification> cert = violation::CertifyAlphaPpdb(
      monitor_.num_violated(), monitor_.num_providers(), request.alpha);
  if (!cert.ok()) return Err(cert.status());
  const violation::AlphaCertification& c = cert.value();
  return Ok("alpha=" + Num(c.alpha) + " pw=" + Num(c.p_violation) +
            " certified=" + (c.certified ? std::string("1") : "0") +
            " certified_with_margin=" +
            (c.certified_with_margin ? std::string("1") : "0") +
            " ci95=[" + Num(c.interval.lo) + "," + Num(c.interval.hi) + "]");
}

Response DatabaseService::Estimate(const Request& request,
                                   const Deadline& deadline) {
  if (Status due = deadline.Check("estimate"); !due.ok()) {
    return Err(std::move(due));
  }
  const violation::ViolationView& view = std::as_const(monitor_).view();
  const bool pw = request.target == "pw";
  Rng rng(request.seed);
  Result<violation::TrialEstimate> estimate = violation::EstimateFromFlags(
      pw ? view.ViolatedFlags() : view.DefaultedFlags(),
      pw ? view.ProbabilityOfViolation() : view.ProbabilityOfDefault(),
      request.trials, rng, options_.num_threads);
  if (!estimate.ok()) return Err(estimate.status());
  const violation::TrialEstimate& e = estimate.value();
  return Ok("estimate=" + Num(e.estimate) + " census=" + Num(e.census) +
            " trials=" + std::to_string(e.trials) +
            " hits=" + std::to_string(e.hits) + " ci95=[" + Num(e.ci95.lo) +
            "," + Num(e.ci95.hi) + "]");
}

Response DatabaseService::WhatIf(const Request& request,
                                 const Deadline& deadline) {
  Result<privacy::Dimension> dimension =
      privacy::DimensionFromName(request.dimension);
  if (!dimension.ok()) return Err(dimension.status());
  if (dimension.value() == privacy::Dimension::kPurpose) {
    return Err(Status::InvalidArgument(
        "whatif widens an ordered dimension (v|g|r), not purpose"));
  }
  violation::WhatIfAnalyzer::Options options;
  options.extra_utility_per_step = request.extra_utility_per_step;
  options.detector_options = violation::WithConfigHierarchy(monitor_.config());
  options.detector_options.deadline = deadline;
  violation::WhatIfAnalyzer analyzer(&monitor_.config(), options);
  // Serial on this broker worker: each point is one O(N·Δ) pass over the
  // view, and fanning points out would hold pool threads the open-loop
  // readers need.
  Result<std::vector<violation::ExpansionPoint>> points =
      analyzer.RunScheduleFromView(
          std::as_const(monitor_).view(),
          violation::WhatIfAnalyzer::UniformSchedule(dimension.value(),
                                                     request.steps));
  if (!points.ok()) return Err(points.status());
  const violation::ExpansionPoint& last = points.value().back();
  int justified = 0;
  for (const violation::ExpansionPoint& point : points.value()) {
    if (point.justified) ++justified;
  }
  return Ok("points=" + std::to_string(points.value().size()) +
            " justified=" + std::to_string(justified) +
            " final_pw=" + Num(last.p_violation) +
            " final_pdefault=" + Num(last.p_default) +
            " final_n_remaining=" + std::to_string(last.n_remaining) +
            " break_even_extra_utility=" +
            Num(last.break_even_extra_utility));
}

Response DatabaseService::Search(const Request& request,
                                 const Deadline& deadline) {
  violation::SearchOptions options;
  options.value_model = violation::MakeLinearExposureValue(request.value_scale);
  options.max_steps = request.max_steps;
  options.detector_options = violation::WithConfigHierarchy(monitor_.config());
  options.detector_options.num_threads = options_.num_threads;
  options.detector_options.deadline = deadline;
  Result<violation::SearchResult> result =
      violation::GreedyPolicySearch(monitor_.config(), options);
  if (!result.ok()) return Err(result.status());
  const violation::SearchResult& r = result.value();
  return Ok("accepted_moves=" + std::to_string(r.trajectory.size()) +
            " best_utility=" + Num(r.best_utility) +
            " baseline_utility=" + Num(r.baseline_utility));
}

Response DatabaseService::Event(const Request& request) {
  // A wedged journal means an earlier append/fsync failed: nothing can be
  // acknowledged atop an uncertain tail. Rescue with a checkpoint — a
  // committed generation captures every applied event, prunes the bad
  // segment, and rotation re-arms the journal.
  if (journal_->wedged()) {
    // Checkpoint records its outcome; whether it re-armed the journal is
    // what decides this event.
    PPDB_IGNORE_ERROR(Checkpoint());
    if (journal_->wedged()) {
      return Err(Status::Unavailable(
          "journal unavailable and rescue checkpoint failed; "
          "retry_after_ms=" +
          std::to_string(options_.breaker.open_duration.count())));
    }
  }

  Result<storage::JournalEvent> event = JournalEventFromRequest(request);
  if (!event.ok()) return Err(event.status());
  // Validate against the authoritative config *before* appending: the
  // journal must only ever hold events that get acknowledged `ok`, or a
  // replay would diverge from the acknowledged history.
  if (Status valid = event->Validate(monitor_.config()); !valid.ok()) {
    return Err(std::move(valid));
  }
  if (Status appended = journal_->Append(event->Encode()); !appended.ok()) {
    // One breaker-visible failure per failed event, always coded transient
    // so even a permanent fault (ENOSPC is kOutOfRange) opens the breaker
    // and turns the service read-only.
    breaker_.Record(Status::Unavailable("journal append failed"));
    return Err(Status::Unavailable("event not durable: " +
                                   appended.message()));
  }

  Status status;
  switch (request.kind) {
    case RequestKind::kEventAdd:
      status = monitor_.AddProvider(request.provider, request.threshold);
      break;
    case RequestKind::kEventRemove:
      status = monitor_.RemoveProvider(request.provider);
      break;
    case RequestKind::kEventSetPref: {
      Result<privacy::PurposeId> purpose =
          monitor_.config().purposes.Lookup(request.purpose);
      if (!purpose.ok()) return Err(purpose.status());
      privacy::PrivacyTuple tuple;
      tuple.purpose = purpose.value();
      tuple.visibility = request.visibility;
      tuple.granularity = request.granularity;
      tuple.retention = request.retention;
      status = monitor_.SetPreference(request.provider, request.attribute,
                                      tuple);
      break;
    }
    case RequestKind::kEventRemovePref: {
      Result<privacy::PurposeId> purpose =
          monitor_.config().purposes.Lookup(request.purpose);
      if (!purpose.ok()) return Err(purpose.status());
      status = monitor_.RemovePreference(request.provider, request.attribute,
                                         purpose.value());
      break;
    }
    case RequestKind::kEventSetThreshold:
      status = monitor_.SetThreshold(request.provider, request.threshold);
      break;
    default:
      return Err(Status::Internal("not an event"));
  }
  // Validate() mirrors the monitor's preconditions, so a failure here
  // means they diverged (a bug): the journal now holds one record the
  // memory state rejected. Replay stops at it the same way, so recovery
  // still converges to the acknowledged history.
  if (!status.ok()) return Err(std::move(status));
  // Periodic checkpoint: the event is already durable in the journal, so
  // a failed checkpoint never fails it. The failure is recorded in
  // last_checkpoint_status_ and the breaker, and the next event retries.
  ++events_since_checkpoint_;
  if (options_.checkpoint_every_events > 0 &&
      events_since_checkpoint_ >= options_.checkpoint_every_events) {
    PPDB_IGNORE_ERROR(Checkpoint());
  }
  // Periodic drift oracle: at the configured cadence, force a full
  // recompute and bitwise-compare it against the maintained view. Runs
  // under the writer lock we already hold. Drift never fails the event —
  // it is logged, counted, and left for the runbook; the check itself
  // resets the cadence either way.
  if (options_.drift_check_every_events > 0 &&
      ++events_since_drift_check_ >= options_.drift_check_every_events) {
    events_since_drift_check_ = 0;
    Result<violation::ViolationView::DriftReport> drift =
        monitor_.view().CheckDrift();
    if (drift.ok() && !drift.value().clean) {
      PPDB_LOG(kWarning) << "periodic drift check failed: "
                         << drift.value().detail;
    }
  }
  return Ok("providers=" + std::to_string(monitor_.num_providers()) +
            " pw=" + Num(monitor_.ProbabilityOfViolation()) +
            " pdefault=" + Num(monitor_.ProbabilityOfDefault()));
}

Response DatabaseService::Query(const Request& request) {
  if (request.target == "pw") {
    return Ok("pw=" + Num(monitor_.ProbabilityOfViolation()));
  }
  if (request.target == "pdefault") {
    return Ok("pdefault=" + Num(monitor_.ProbabilityOfDefault()));
  }
  if (request.target == "monitor") {
    return Ok("providers=" + std::to_string(monitor_.num_providers()) +
              " violated=" + std::to_string(monitor_.num_violated()) +
              " defaulted=" + std::to_string(monitor_.num_defaulted()) +
              " total_severity=" + Num(monitor_.TotalViolations()) +
              " checkpoints=" + std::to_string(checkpoints_taken_) +
              " events_since_checkpoint=" +
              std::to_string(events_since_checkpoint_) +
              " last_checkpoint=" +
              std::string(StatusCodeToString(last_checkpoint_status_.code())));
  }
  if (request.target == "provider") {
    // One lookup of maintained state; the incidents themselves are never
    // materialized, only counted.
    Result<violation::ViolationView::ProviderSummary> summary =
        std::as_const(monitor_).view().Summarize(request.provider);
    if (!summary.ok()) return Err(summary.status());
    const violation::ViolationView::ProviderSummary& v = summary.value();
    return Ok("provider=" + std::to_string(v.provider) +
              " violated=" + (v.violated ? std::string("1") : "0") +
              " severity=" + Num(v.severity) +
              " incidents=" + std::to_string(v.incidents) +
              " defaulted=" + (v.defaulted ? std::string("1") : "0"));
  }
  return Err(Status::InvalidArgument("unknown query target"));
}

Response DatabaseService::ExpansionCheck(const Request& request) {
  Result<violation::ViolationView::ExpansionCheck> check =
      monitor_.view().CheckExpansion(request.utility_per_provider,
                                     request.extra_utility);
  if (!check.ok()) return Err(check.status());
  const violation::ViolationView::ExpansionCheck& c = check.value();
  return Ok("justified=" + std::string(c.justified ? "1" : "0") +
            " n_current=" + std::to_string(c.n_current) +
            " n_defaulted=" + std::to_string(c.n_defaulted) +
            " n_future=" + std::to_string(c.n_future) +
            " utility_current=" + Num(c.utility_current) +
            " utility_future=" + Num(c.utility_future) +
            " break_even_extra_utility=" +
            (c.has_break_even ? Num(c.break_even_extra_utility)
                              : std::string("none")));
}

Response DatabaseService::DriftCheck() {
  Result<violation::ViolationView::DriftReport> report =
      monitor_.view().CheckDrift();
  if (!report.ok()) return Err(report.status());
  const violation::ViolationView::DriftReport& r = report.value();
  if (!r.clean) {
    PPDB_LOG(kWarning) << "view drift detected: " << r.detail;
  }
  return Ok("clean=" + std::string(r.clean ? "1" : "0") +
            " providers_checked=" + std::to_string(r.providers_checked) +
            " mismatched_providers=" +
            std::to_string(r.mismatched_providers) +
            " drift_checks_clean=" +
            std::to_string(monitor_.view().drift_checks_clean()) +
            " drift_checks_failed=" +
            std::to_string(monitor_.view().drift_checks_failed()));
}

Response DatabaseService::Stats() {
  // One locked snapshot instead of three separate breaker reads, so state
  // and counters cannot interleave with a trip happening between them.
  const CircuitBreaker::StatsSnapshot breaker = breaker_.Snapshot();
  // Durability posture: lets the shed-storm runbook tell "behind on
  // checkpoints" (events_since_checkpoint high, journal growing) from
  // "broker overload" (both small, queues deep).
  const std::string journal =
      " journal=" + journal_->segment_name() +
      (journal_->wedged() ? " journal_wedged=1" : "") +
      " journal_bytes=" + std::to_string(journal_->active_segment_bytes()) +
      " journal_records=" + std::to_string(journal_->records_in_segment());
  // View posture: how the O(Δ) maintenance is doing. delta vs rebuild
  // event counts tell whether the serve path is actually riding the cheap
  // lane; nonzero drift_checks_failed is a page (see OBSERVABILITY.md).
  const violation::ViolationView& view = std::as_const(monitor_).view();
  return Ok(
      "providers=" + std::to_string(monitor_.num_providers()) +
      " violated=" + std::to_string(monitor_.num_violated()) +
      " defaulted=" + std::to_string(monitor_.num_defaulted()) +
      " pw=" + Num(monitor_.ProbabilityOfViolation()) +
      " pdefault=" + Num(monitor_.ProbabilityOfDefault()) +
      " view_cells=" + std::to_string(view.total_cells()) +
      " view_delta_events=" + std::to_string(view.delta_events()) +
      " view_rebuild_events=" + std::to_string(view.rebuild_events()) +
      " view_last_delta_cells=" + std::to_string(view.last_delta_cells()) +
      " drift_checks_clean=" + std::to_string(view.drift_checks_clean()) +
      " drift_checks_failed=" + std::to_string(view.drift_checks_failed()) +
      " breaker=" + std::string(CircuitBreaker::StateName(breaker.state)) +
      " breaker_trips=" + std::to_string(breaker.trips) +
      " breaker_rejected=" + std::to_string(breaker.rejected) +
      " checkpoints=" + std::to_string(checkpoints_taken_) +
      " events_since_checkpoint=" + std::to_string(events_since_checkpoint_) +
      " last_checkpoint=" +
      std::string(StatusCodeToString(last_checkpoint_status_.code())) +
      " last_checkpoint_generation=" +
      (last_checkpoint_generation_.empty() ? "none"
                                           : last_checkpoint_generation_) +
      journal +
      // Last: the most recent failed checkpoint's cause, one token.
      " last_checkpoint_failure=" +
      (last_checkpoint_failure_.ok()
           ? std::string("none")
           : EscapeToken(last_checkpoint_failure_.ToString())) +
      " last_checkpoint_failure_unix_ms=" +
      std::to_string(last_checkpoint_failure_unix_ms_));
}

}  // namespace ppdb::server
