#ifndef PPDB_SERVER_SERVICE_H_
#define PPDB_SERVER_SERVICE_H_

#include <chrono>
#include <memory>
#include <string>

#include "audit/audit_log.h"
#include "audit/ledger.h"
#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_annotations.h"
#include "relational/catalog.h"
#include "server/request.h"
#include "storage/database_io.h"
#include "storage/fs.h"
#include "storage/journal.h"
#include "violation/live_monitor.h"

namespace ppdb::server {

/// The engine behind the broker: one loaded database, a live population
/// monitor as the authoritative copy of its privacy config, a write-ahead
/// event journal, and a circuit breaker guarding every save.
///
/// Durability: each mutating event is validated, appended to the journal
/// and fsync'd, then applied in memory and acknowledged — in that order,
/// under the writer lock. A crash at any point loses no acknowledged
/// event (`LoadDatabase` replays the journal) and applies no
/// unacknowledged one. Journal append failures feed the circuit breaker
/// exactly like save failures; a wedged journal triggers a rescue
/// checkpoint on the next event and keeps events failing `kUnavailable`
/// until one succeeds.
///
/// Concurrency: reads take a shared lock and run concurrently with each
/// other; events and saves take an exclusive lock. The census reads are
/// answered from the monitor's maintained view, bitwise what a full scan
/// would report: `analyze`, `certify` and every `query` in O(1) (O(log N)
/// for one provider), `estimate` in O(N) flag reads plus its trials, and
/// each `whatif` point in one serial O(N·Δ) pass. Only `search` and
/// `driftcheck` run full detector scans, which parallelize through the
/// engine's own `ThreadPool`.
///
/// Degraded mode: every save — the periodic live-monitor checkpoint and the
/// explicit `save` request — passes through the circuit breaker. After
/// `failure_threshold` consecutive transient storage faults the breaker
/// opens and the service turns *read-only*: mutating requests are rejected
/// with `kUnavailable` (a retry-after hint in the message) instead of
/// accepting events whose durability cannot be promised, while every read
/// keeps serving from memory. Once `open_duration` passes, the next save
/// probes the backend and a success restores writes. Checkpoint failures
/// inside an *admitted* event never fail the event (the monitor records
/// them; see `LivePopulationMonitor::CheckpointHook`) — they feed the
/// breaker instead.
class DatabaseService {
 public:
  struct Options {
    /// Live-monitor checkpoint cadence, in successful mutating events.
    /// 0 disables periodic checkpoints (explicit `save` still works).
    int64_t checkpoint_every_events = 32;
    /// Breaker guarding the storage backend.
    CircuitBreaker::Options breaker;
    /// Bounded retry inside each save attempt (one breaker outcome).
    RetryOptions save_retry;
    /// Threads for the heavy analytics (0 = hardware concurrency).
    int num_threads = 0;
    /// Write-ahead journal: every mutating event is appended and fsync'd
    /// *before* it is applied and acknowledged, so acknowledged events
    /// survive a crash between checkpoints. false restores the seed's
    /// checkpoint-granular durability (tests use it to isolate save
    /// faults).
    bool journal_enabled = true;
    /// Group-commit window: how long a journal flush leader waits for
    /// concurrent events to join its fsync. 0 = sync immediately.
    std::chrono::microseconds journal_batch_window{0};
    /// Drift-oracle cadence: every N successful mutating events, run a
    /// full re-analysis and bitwise-compare it against the maintained
    /// view (the `driftcheck` request does the same on demand). 0
    /// disables the periodic check. A detected drift is logged and
    /// counted (ppdb_view_delta_drift_checks_total{result="drift"}) but
    /// never fails the event that triggered it.
    int64_t drift_check_every_events = 0;
  };

  /// Loads the database at `dir` through `fs` and starts monitoring it.
  /// `fs` must outlive the service. Recovery (discarded staging dirs, torn
  /// generations) is not an error; it is reported in `recovery()`.
  static Result<std::unique_ptr<DatabaseService>> Create(std::string dir,
                                                         storage::FileSystem* fs,
                                                         Options options);

  DatabaseService(const DatabaseService&) = delete;
  DatabaseService& operator=(const DatabaseService&) = delete;

  /// Executes one parsed request. Never throws; every failure is a Status
  /// in the response. `deadline` reaches the engine's cooperative
  /// checkpoints, so heavy work bails with `kDeadlineExceeded` mid-scan.
  Response Execute(const Request& request, const Deadline& deadline)
      PPDB_EXCLUDES(mu_);

  /// One last save, bypassing the circuit breaker — at shutdown there is
  /// no later retry, so even a probably-failing backend gets the attempt.
  Status FinalCheckpoint() PPDB_EXCLUDES(mu_);

  /// What `LoadDatabase` skipped or repaired at startup.
  const storage::RecoveryReport& recovery() const { return recovery_; }

  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  DatabaseService(std::string dir, storage::FileSystem* fs, Options options,
                  storage::RecoveryReport recovery,
                  violation::LivePopulationMonitor monitor,
                  storage::Database database,
                  std::unique_ptr<storage::Journal> journal);

  /// Assembles the full on-disk Database around `config` and saves it,
  /// with bounded retry. One call = one breaker-visible outcome. On
  /// success the journal (whose segments the save just pruned) rotates to
  /// the new generation, clearing any wedge.
  Status SaveNow(const privacy::PrivacyConfig& config) PPDB_REQUIRES(mu_);

  /// The breaker-gated save installed as the monitor's checkpoint hook.
  /// Always invoked with mu_ held exclusively (the hook only fires inside
  /// monitor_ event calls, which happen under the writer lock); asserted
  /// to the analysis via mu_.AssertHeld() because the call arrives through
  /// a std::function the analysis cannot follow.
  Status GuardedSave(const privacy::PrivacyConfig& config);

  Response ExecuteLocked(const Request& request, const Deadline& deadline)
      PPDB_EXCLUDES(mu_);
  Response Analyze(const Deadline& deadline) PPDB_REQUIRES_SHARED(mu_);
  Response Certify(const Request& request, const Deadline& deadline)
      PPDB_REQUIRES_SHARED(mu_);
  Response Estimate(const Request& request, const Deadline& deadline)
      PPDB_REQUIRES_SHARED(mu_);
  Response WhatIf(const Request& request, const Deadline& deadline)
      PPDB_REQUIRES_SHARED(mu_);
  Response Search(const Request& request, const Deadline& deadline)
      PPDB_REQUIRES_SHARED(mu_);
  Response Event(const Request& request) PPDB_REQUIRES(mu_);
  Response Query(const Request& request) PPDB_REQUIRES_SHARED(mu_);
  Response Stats() PPDB_REQUIRES_SHARED(mu_);
  /// §9 expansion inequality from the view's maintained counters — O(1),
  /// no scan, so it rides the broker's priority lane.
  Response ExpansionCheck(const Request& request)
      PPDB_REQUIRES_SHARED(mu_);
  /// On-demand drift oracle: full O(N·|HP|) re-analysis bitwise-compared
  /// against the view. Needs the writer lock — CheckDrift bumps the
  /// view's counters.
  Response DriftCheck() PPDB_REQUIRES(mu_);

  const std::string dir_;
  storage::FileSystem* const fs_;
  const Options options_;
  storage::RecoveryReport recovery_;

  /// Guards monitor_ + database_. Shared = analytics and queries;
  /// exclusive = events and saves. While held the service may acquire the
  /// journal (event append), the breaker (save gating), the thread pool
  /// (sharded analytics) and the tracer clock (span timestamps) — all
  /// below it in the documented global lock order.
  SharedMutex mu_{"service"} PPDB_LOCK_LEVEL(service)
      PPDB_ACQUIRED_AFTER(broker)
      PPDB_ACQUIRED_BEFORE(journal, breaker, pool);
  violation::LivePopulationMonitor monitor_ PPDB_GUARDED_BY(mu_);
  /// The loaded database minus its privacy config, whose authoritative
  /// copy lives in monitor_; `SaveNow` patches the current config in just
  /// before each save (under the exclusive lock — Catalog is move-only,
  /// so the Database cannot be copied into a scratch value).
  storage::Database database_ PPDB_GUARDED_BY(mu_);
  /// Write-ahead journal (null when Options::journal_enabled is false).
  /// Internally synchronized; the pointer itself is set once at
  /// construction and never reseated.
  const std::unique_ptr<storage::Journal> journal_;
  /// Generation holding the last successful checkpoint — the journal's
  /// base. Starts at the loaded generation.
  std::string last_checkpoint_generation_ PPDB_GUARDED_BY(mu_);
  /// Successful mutating events since the last periodic drift check
  /// (only advanced when Options::drift_check_every_events > 0).
  int64_t events_since_drift_check_ PPDB_GUARDED_BY(mu_) = 0;

  CircuitBreaker breaker_;
};

}  // namespace ppdb::server

#endif  // PPDB_SERVER_SERVICE_H_
