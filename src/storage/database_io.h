#ifndef PPDB_STORAGE_DATABASE_IO_H_
#define PPDB_STORAGE_DATABASE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit_log.h"
#include "audit/ledger.h"
#include "common/result.h"
#include "common/retry.h"
#include "privacy/config.h"
#include "relational/catalog.h"
#include "storage/fs.h"

namespace ppdb::storage {

/// Everything that constitutes one ppdb database on disk.
struct Database {
  rel::Catalog catalog;
  privacy::PrivacyConfig config;
  audit::IngestLedger ledger;
  audit::AuditLog log;
};

/// The parts of a database a save writes, by reference, so that a caller
/// whose parts live apart (a server's live monitor owns the config) saves
/// them without first copying them into a `Database`.
struct DatabaseRef {
  const rel::Catalog& catalog;
  const privacy::PrivacyConfig& config;
  const audit::IngestLedger& ledger;
  const audit::AuditLog& log;
};

/// On-disk layout (all human-readable text, matching the library's
/// existing formats). A database directory holds numbered, immutable
/// generations plus a pointer file naming the committed one:
///
///   <dir>/CURRENT               "gen-<N>\n" — the committed generation
///   <dir>/gen-<N>/MANIFEST      format version + table inventory
///   <dir>/gen-<N>/privacy.ppdb  the privacy DSL (policy_dsl.h)
///   <dir>/gen-<N>/tables/<name>.csv
///                               one CSV per table (provider_id first)
///   <dir>/gen-<N>/ledger.csv    table,provider,attribute,ingest_day
///   <dir>/gen-<N>/audit.csv     the append-only audit log
///   <dir>/.staging-<N>/         an in-progress save; never read
///   <dir>/journal-gen-<N>       write-ahead event journal atop gen-<N>
///                               (see storage/journal.h; "journal-flat"
///                               for the pre-generation layout)
///
/// Commit protocol (crash-safe at every step):
///   1. every file is written into a fresh `.staging-<N>/`,
///   2. the staging dir is renamed to `gen-<N>/`,
///   3. `CURRENT` is swapped via temp-file + rename — the commit point.
/// The previous generation is retained for rollback; older ones and stray
/// staging dirs are pruned best-effort after commit. A crash anywhere
/// leaves either the old or the new generation committed, never a hybrid;
/// `LoadDatabase` discards torn leftovers (see `RecoveryReport`).
///
/// Pre-generation directories (MANIFEST at the top level) still load.
///
/// Thread safety: the free functions here are thread-compatible — they
/// mutate only the directory passed in and keep no shared mutable state
/// (metric instruments are sharded/atomic). Callers serialize saves per
/// database directory; `DatabaseService` does so under its writer lock.
struct SaveOptions {
  /// Bounded retry for transient (`kUnavailable`) filesystem faults on the
  /// staging writes and commit renames. `max_attempts = 1` disables.
  RetryOptions retry;
};

/// What `LoadDatabase` had to skip or repair to produce a database.
struct RecoveryReport {
  /// Name of the generation actually loaded, e.g. "gen-3"; "flat" for a
  /// pre-generation directory.
  std::string loaded_generation;
  /// Entries ignored during load: uncommitted staging dirs, generations
  /// newer than CURRENT, torn generations (with the load error), and
  /// stale or damaged journal segments.
  std::vector<std::string> discarded;
  /// True when the generation CURRENT named could not be loaded and an
  /// older committed generation was used instead.
  bool used_fallback = false;
  /// Write-ahead journal records replayed on top of the loaded
  /// generation — acknowledged events a crash kept out of a checkpoint.
  int64_t journal_replayed = 0;
  /// True when the journal ended in a torn record (amputated cleanly;
  /// a torn record was never acknowledged).
  bool journal_torn_tail = false;

  /// True when the load needed no recovery of any kind. Replayed journal
  /// events count as recovery: the in-memory state is ahead of the
  /// committed generation until the next checkpoint re-commits it.
  bool clean() const {
    return discarded.empty() && !used_fallback && journal_replayed == 0 &&
           !journal_torn_tail;
  }
  /// Human-readable multi-line summary.
  std::string ToString() const;
};

/// Atomically saves `database` (commit protocol above) via the process-wide
/// real filesystem.
Status SaveDatabase(std::string_view dir, const Database& database);

/// As above through an explicit filesystem (tests inject faults here).
Status SaveDatabase(std::string_view dir, const Database& database,
                    FileSystem& fs, const SaveOptions& options = {});

/// As above; on success `committed_generation` (when non-null) receives
/// the generation name just committed, e.g. "gen-4" — the base the
/// service rotates its journal segment to. A successful save prunes all
/// `journal-*` segments (their events are inside the new generation).
Status SaveDatabase(std::string_view dir, const Database& database,
                    FileSystem& fs, const SaveOptions& options,
                    std::string* committed_generation);

/// As above for parts held apart.
Status SaveDatabase(std::string_view dir, const DatabaseRef& database,
                    FileSystem& fs, const SaveOptions& options,
                    std::string* committed_generation);

/// Loads the committed generation of a database directory. Schema types
/// are recorded in the manifest, so round-trips preserve typing exactly.
/// A nonexistent `dir` is `kNotFound` naming the path.
Result<Database> LoadDatabase(std::string_view dir);

/// As above through an explicit filesystem. When `report` is non-null it
/// receives what was skipped or recovered; falling back to an older
/// committed generation is not an error (the save that produced the newer
/// one never reported success).
Result<Database> LoadDatabase(std::string_view dir, FileSystem& fs,
                              RecoveryReport* report = nullptr);

/// Serializes an audit log to CSV (also usable standalone).
std::string AuditLogToCsv(const audit::AuditLog& log);

/// Parses an audit log from `AuditLogToCsv` output.
Result<audit::AuditLog> AuditLogFromCsv(std::string_view csv);

/// Serializes an ingest ledger to CSV.
std::string LedgerToCsv(const audit::IngestLedger& ledger);

/// Parses a ledger from `LedgerToCsv` output.
Result<audit::IngestLedger> LedgerFromCsv(std::string_view csv);

}  // namespace ppdb::storage

#endif  // PPDB_STORAGE_DATABASE_IO_H_
