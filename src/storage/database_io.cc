#include "storage/database_io.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/policy_dsl.h"
#include "relational/csv.h"
#include "storage/journal.h"

namespace ppdb::storage {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "ppdb-manifest v1";
constexpr char kCurrentName[] = "CURRENT";
constexpr char kCurrentTmpName[] = "CURRENT.tmp";
constexpr char kGenPrefix[] = "gen-";
constexpr char kStagingPrefix[] = ".staging-";

std::string GenName(int64_t generation) {
  return kGenPrefix + std::to_string(generation);
}

/// Parses "<prefix><digits>" into the number; -1 when it does not match.
int64_t ParseNumberedName(std::string_view name, std::string_view prefix) {
  if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
    return -1;
  }
  Result<int64_t> n = ParseInt64(name.substr(prefix.size()));
  return (n.ok() && *n >= 0) ? *n : -1;
}

std::string OptionalToField(const std::optional<std::string>& value) {
  return value.value_or("");
}

/// Writes the full file set of `database` into `dir` (which must already
/// contain a `tables/` subdirectory), retrying transient faults.
Status WriteDatabaseFiles(FileSystem& fsys, const RetryOptions& retry,
                          const fs::path& dir, const DatabaseRef& database) {
  auto write = [&](const fs::path& path, const std::string& contents) {
    return RetryWithBackoff(retry, "write '" + path.string() + "'", [&] {
      return fsys.WriteFile(path.string(), contents);
    });
  };

  // Manifest: version plus one line per table with mode and typed schema.
  std::string manifest = kManifestHeader;
  manifest += '\n';
  for (const std::string& name : database.catalog.TableNames()) {
    PPDB_ASSIGN_OR_RETURN(const rel::Table* table,
                          database.catalog.GetTable(name));
    manifest += "table " + name;
    manifest += table->multi_record() ? " multi" : " single";
    for (const rel::AttributeDef& def : table->schema().attributes()) {
      manifest += ' ' + def.name + ':';
      manifest += rel::DataTypeName(def.type);
    }
    manifest += '\n';
    PPDB_RETURN_NOT_OK(
        write(dir / "tables" / (name + ".csv"), rel::TableToCsv(*table)));
  }
  PPDB_RETURN_NOT_OK(write(dir / kManifestName, manifest));
  PPDB_RETURN_NOT_OK(write(dir / "privacy.ppdb",
                           privacy::SerializePrivacyConfig(database.config)));
  PPDB_RETURN_NOT_OK(write(dir / "ledger.csv", LedgerToCsv(database.ledger)));
  PPDB_RETURN_NOT_OK(write(dir / "audit.csv", AuditLogToCsv(database.log)));
  return Status::OK();
}

/// Loads the full file set of one generation (or legacy flat) directory.
Result<Database> LoadDatabaseFiles(FileSystem& fsys, const fs::path& dir) {
  PPDB_ASSIGN_OR_RETURN(std::string manifest,
                        fsys.ReadFile((dir / kManifestName).string()));
  std::vector<std::string_view> lines = Split(manifest, '\n');
  if (lines.empty() || TrimWhitespace(lines[0]) != kManifestHeader) {
    return Status::ParseError("'" + dir.string() +
                              "' is not a ppdb database (bad manifest)");
  }

  Database database;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = TrimWhitespace(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string_view> fields = SplitAndTrim(line, ' ');
    std::erase_if(fields,
                  [](std::string_view field) { return field.empty(); });
    if (fields.size() < 3 || fields[0] != "table") {
      return Status::ParseError("bad manifest line: '" + std::string(line) +
                                "'");
    }
    std::string name(fields[1]);
    bool multi = fields[2] == "multi";
    if (!multi && fields[2] != "single") {
      return Status::ParseError("bad table mode '" + std::string(fields[2]) +
                                "' in manifest");
    }
    std::vector<rel::AttributeDef> defs;
    for (size_t f = 3; f < fields.size(); ++f) {
      size_t colon = fields[f].find(':');
      if (colon == std::string_view::npos) {
        return Status::ParseError("bad attribute spec '" +
                                  std::string(fields[f]) + "' in manifest");
      }
      rel::AttributeDef def;
      def.name = std::string(fields[f].substr(0, colon));
      PPDB_ASSIGN_OR_RETURN(
          def.type, rel::DataTypeFromName(fields[f].substr(colon + 1)));
      defs.push_back(std::move(def));
    }
    PPDB_ASSIGN_OR_RETURN(rel::Schema schema,
                          rel::Schema::Create(std::move(defs)));
    PPDB_ASSIGN_OR_RETURN(
        std::string csv,
        fsys.ReadFile((dir / "tables" / (name + ".csv")).string()));

    // TableFromCsv builds single-record tables; rebuild by hand for multi.
    PPDB_ASSIGN_OR_RETURN(rel::Table parsed,
                          [&]() -> Result<rel::Table> {
                            if (!multi) {
                              return rel::TableFromCsv(name, schema, csv);
                            }
                            PPDB_ASSIGN_OR_RETURN(auto rows,
                                                  rel::ParseCsv(csv));
                            PPDB_ASSIGN_OR_RETURN(
                                rel::Table table,
                                rel::Table::CreateMultiRecord(name, schema));
                            for (size_t r = 1; r < rows.size(); ++r) {
                              const auto& row = rows[r];
                              if (static_cast<int>(row.size()) !=
                                  schema.num_attributes() + 1) {
                                return Status::ParseError(
                                    "table CSV row arity mismatch");
                              }
                              PPDB_ASSIGN_OR_RETURN(int64_t provider,
                                                    ParseInt64(row[0]));
                              std::vector<rel::Value> values;
                              for (int j = 0; j < schema.num_attributes();
                                   ++j) {
                                PPDB_ASSIGN_OR_RETURN(
                                    rel::Value value,
                                    rel::Value::Parse(
                                        row[static_cast<size_t>(j) + 1],
                                        schema.attribute(j).type));
                                values.push_back(std::move(value));
                              }
                              PPDB_RETURN_NOT_OK(
                                  table.Insert(provider, std::move(values)));
                            }
                            return table;
                          }());
    PPDB_RETURN_NOT_OK(database.catalog.AddTable(std::move(parsed)).status());
  }

  {
    // The DSL text is the largest thing a load holds; free it as soon as
    // it is parsed.
    PPDB_ASSIGN_OR_RETURN(std::string dsl,
                          fsys.ReadFile((dir / "privacy.ppdb").string()));
    PPDB_ASSIGN_OR_RETURN(database.config, privacy::ParsePrivacyConfig(dsl));
  }
  PPDB_ASSIGN_OR_RETURN(std::string ledger_csv,
                        fsys.ReadFile((dir / "ledger.csv").string()));
  PPDB_ASSIGN_OR_RETURN(database.ledger, LedgerFromCsv(ledger_csv));
  PPDB_ASSIGN_OR_RETURN(std::string audit_csv,
                        fsys.ReadFile((dir / "audit.csv").string()));
  PPDB_ASSIGN_OR_RETURN(database.log, AuditLogFromCsv(audit_csv));
  return database;
}

/// Directory inventory relevant to the commit protocol.
struct DirScan {
  std::vector<int64_t> generations;      // numbers of gen-<N> entries
  std::vector<std::string> stagings;     // names of .staging-<N> entries
  std::vector<std::string> journals;     // names of journal-* segments
  bool has_current = false;
  bool has_current_tmp = false;
  bool has_flat_manifest = false;        // pre-generation layout
};

Result<DirScan> ScanDirectory(FileSystem& fsys, const fs::path& root) {
  DirScan scan;
  PPDB_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                        fsys.ListDirectory(root.string()));
  for (const std::string& entry : entries) {
    if (entry == kCurrentName) {
      scan.has_current = true;
    } else if (entry == kCurrentTmpName) {
      scan.has_current_tmp = true;
    } else if (entry == kManifestName) {
      scan.has_flat_manifest = true;
    } else if (entry.starts_with(Journal::kSegmentPrefix)) {
      scan.journals.push_back(entry);
    } else if (int64_t g = ParseNumberedName(entry, kGenPrefix); g >= 0) {
      scan.generations.push_back(g);
    } else if (ParseNumberedName(entry, kStagingPrefix) >= 0) {
      scan.stagings.push_back(entry);
    }
  }
  std::sort(scan.generations.rbegin(), scan.generations.rend());
  return scan;
}

/// Reads CURRENT and parses the generation it names; -1 when absent or
/// corrupt (`corrupt_note` gets a diagnostic in the latter case).
int64_t ReadCommittedGeneration(FileSystem& fsys, const fs::path& root,
                                const DirScan& scan,
                                std::string* corrupt_note) {
  if (!scan.has_current) return -1;
  Result<std::string> current = fsys.ReadFile((root / kCurrentName).string());
  if (!current.ok()) {
    *corrupt_note = "CURRENT (unreadable: " + current.status().message() + ")";
    return -1;
  }
  int64_t g = ParseNumberedName(TrimWhitespace(*current), kGenPrefix);
  if (g < 0) {
    *corrupt_note = "CURRENT (corrupt pointer '" +
                    std::string(TrimWhitespace(*current)) + "')";
  }
  return g;
}

/// The storage layer's registry instruments, registered as one batch on
/// first use (the first Save/Load — in a server, the startup load). The
/// fault counters are registered here too so they export as zeros in
/// production; `FaultInjectingFileSystem` bumps them under test.
struct StorageMetrics {
  obs::Histogram* save_seconds;
  obs::Histogram* load_seconds;
  obs::Counter* save_ok;
  obs::Counter* save_error;
  obs::Counter* load_ok;
  obs::Counter* load_error;
  obs::Counter* recovery_discarded;
  obs::Counter* recovery_fallback;

  static const StorageMetrics& Get() {
    static const StorageMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      StorageMetrics m;
      m.save_seconds = r.GetHistogram(
          "ppdb_storage_save_seconds",
          "Wall time of one SaveDatabase generation commit.");
      m.load_seconds = r.GetHistogram(
          "ppdb_storage_load_seconds",
          "Wall time of one LoadDatabase call, recovery included.");
      m.save_ok =
          r.GetCounter("ppdb_storage_save_total", "SaveDatabase outcomes.",
                       {{"result", "ok"}});
      m.save_error =
          r.GetCounter("ppdb_storage_save_total", "SaveDatabase outcomes.",
                       {{"result", "error"}});
      m.load_ok =
          r.GetCounter("ppdb_storage_load_total", "LoadDatabase outcomes.",
                       {{"result", "ok"}});
      m.load_error =
          r.GetCounter("ppdb_storage_load_total", "LoadDatabase outcomes.",
                       {{"result", "error"}});
      m.recovery_discarded = r.GetCounter(
          "ppdb_storage_recovery_discarded_total",
          "Entries discarded during load recovery (stagings, uncommitted "
          "or torn generations, corrupt CURRENT).");
      m.recovery_fallback = r.GetCounter(
          "ppdb_storage_recovery_fallback_total",
          "Loads that fell back past the committed generation.");
      for (FaultKind kind :
           {FaultKind::kFailOp, FaultKind::kTornWrite, FaultKind::kNoSpace,
            FaultKind::kCrash}) {
        r.GetCounter("ppdb_storage_faults_injected_total",
                     "Faults injected by FaultInjectingFileSystem (tests "
                     "only; zero in production).",
                     {{"kind", std::string(FaultKindName(kind))}});
      }
      return m;
    }();
    return metrics;
  }
};

/// Replays the journal segment matching the loaded generation onto
/// `database` and reports every other (stale/damaged) segment as
/// discarded. Never fails the load: a journal problem costs at most the
/// un-replayable tail, which was never checkpoint-committed.
void ReplayJournals(FileSystem& fsys, const fs::path& root,
                    const std::vector<std::string>& journals,
                    Database& database, RecoveryReport& rep) {
  const std::string expected =
      Journal::SegmentNameFor(rep.loaded_generation);
  for (const std::string& name : journals) {
    if (name != expected) {
      rep.discarded.push_back(name + " (stale journal)");
      continue;
    }
    Result<std::string> contents = fsys.ReadFile((root / name).string());
    if (!contents.ok()) {
      rep.discarded.push_back(name + " (unreadable journal: " +
                              contents.status().message() + ")");
      continue;
    }
    Result<JournalReplayResult> replay =
        ReplayJournal(*contents, rep.loaded_generation, database.config);
    if (!replay.ok()) {
      rep.discarded.push_back(name + " (invalid journal: " +
                              replay.status().message() + ")");
      continue;
    }
    rep.journal_replayed += replay->replayed;
    if (replay->torn_tail) {
      rep.journal_torn_tail = true;
      rep.discarded.push_back(name + " (torn tail: " + replay->torn_detail +
                              ")");
    }
    if (!replay->stopped.ok()) {
      rep.discarded.push_back(name + " (replay stopped: " +
                              replay->stopped.message() + ")");
    }
  }
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = "loaded " + loaded_generation;
  out += used_fallback ? " (fallback to an older committed generation)\n"
                       : "\n";
  for (const std::string& entry : discarded) {
    out += "discarded " + entry + '\n';
  }
  if (journal_replayed > 0) {
    out += "replayed " + std::to_string(journal_replayed) +
           " journal event" + (journal_replayed == 1 ? "" : "s") + '\n';
  }
  if (journal_torn_tail) {
    out += "journal ended in a torn record (amputated; it was never "
           "acknowledged)\n";
  }
  if (clean()) out += "clean: nothing discarded\n";
  return out;
}

std::string AuditLogToCsv(const audit::AuditLog& log) {
  std::string out =
      "sequence,timestamp,kind,requester,purpose,table,provider,attribute,"
      "detail\n";
  for (const audit::AuditEvent& event : log.events()) {
    out += std::to_string(event.sequence);
    out += ',' + std::to_string(event.timestamp);
    out += ',';
    out += AuditEventKindName(event.kind);
    out += ',' + CsvEscape(event.requester);
    out += ',' + std::to_string(event.purpose);
    out += ',' + CsvEscape(event.table);
    out += ',';
    if (event.provider.has_value()) out += std::to_string(*event.provider);
    out += ',' + CsvEscape(OptionalToField(event.attribute));
    out += ',' + CsvEscape(event.detail);
    out += '\n';
  }
  return out;
}

Result<audit::AuditLog> AuditLogFromCsv(std::string_view csv) {
  PPDB_ASSIGN_OR_RETURN(auto rows, rel::ParseCsv(csv));
  if (rows.empty()) return Status::ParseError("audit CSV has no header");
  audit::AuditLog log;
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != 9) {
      return Status::ParseError("audit CSV row " + std::to_string(r) +
                                " has " + std::to_string(row.size()) +
                                " fields, expected 9");
    }
    audit::AuditEvent event;
    PPDB_ASSIGN_OR_RETURN(event.timestamp, ParseInt64(row[1]));
    PPDB_ASSIGN_OR_RETURN(event.kind, audit::AuditEventKindFromName(row[2]));
    event.requester = row[3];
    PPDB_ASSIGN_OR_RETURN(int64_t purpose, ParseInt64(row[4]));
    event.purpose = static_cast<privacy::PurposeId>(purpose);
    event.table = row[5];
    if (!row[6].empty()) {
      PPDB_ASSIGN_OR_RETURN(int64_t provider, ParseInt64(row[6]));
      event.provider = provider;
    }
    if (!row[7].empty()) event.attribute = row[7];
    event.detail = row[8];
    log.Append(std::move(event));  // Reassigns sequence densely, in order.
  }
  return log;
}

std::string LedgerToCsv(const audit::IngestLedger& ledger) {
  std::string out = "table,provider,attribute,ingest_day\n";
  for (const audit::IngestLedger::Entry& entry : ledger.Entries()) {
    out += CsvEscape(entry.table);
    out += ',' + std::to_string(entry.provider);
    out += ',' + CsvEscape(entry.attribute);
    out += ',' + std::to_string(entry.day);
    out += '\n';
  }
  return out;
}

Result<audit::IngestLedger> LedgerFromCsv(std::string_view csv) {
  PPDB_ASSIGN_OR_RETURN(auto rows, rel::ParseCsv(csv));
  if (rows.empty()) return Status::ParseError("ledger CSV has no header");
  audit::IngestLedger ledger;
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != 4) {
      return Status::ParseError("ledger CSV row " + std::to_string(r) +
                                " has " + std::to_string(row.size()) +
                                " fields, expected 4");
    }
    PPDB_ASSIGN_OR_RETURN(int64_t provider, ParseInt64(row[1]));
    PPDB_ASSIGN_OR_RETURN(int64_t day, ParseInt64(row[3]));
    ledger.RecordIngest(row[0], provider, row[2], day);
  }
  return ledger;
}

Status SaveDatabase(std::string_view dir, const Database& database) {
  return SaveDatabase(dir, database, GetRealFileSystem());
}

static Status SaveDatabaseImpl(std::string_view dir,
                               const DatabaseRef& database,
                               FileSystem& fsys, const SaveOptions& options,
                               std::string* committed_generation) {
  const fs::path root{std::string(dir)};
  const RetryOptions& retry = options.retry;
  auto retried = [&](const std::string& what,
                     const std::function<Status()>& op) {
    return RetryWithBackoff(retry, what, op);
  };

  PPDB_RETURN_NOT_OK(retried("create '" + root.string() + "'", [&] {
    return fsys.CreateDirectories(root.string());
  }));

  // Pick the next generation number: one past everything on disk, whether
  // committed, torn, or staged, so the staging dir is always fresh.
  PPDB_ASSIGN_OR_RETURN(DirScan scan, ScanDirectory(fsys, root));
  std::string corrupt_note;
  int64_t committed = ReadCommittedGeneration(fsys, root, scan, &corrupt_note);
  int64_t next = committed;
  for (int64_t g : scan.generations) next = std::max(next, g);
  for (const std::string& staging : scan.stagings) {
    next = std::max(next, ParseNumberedName(staging, kStagingPrefix));
  }
  ++next;  // -1 (empty dir) becomes gen-0.

  const fs::path staging = root / (kStagingPrefix + std::to_string(next));
  const fs::path gen_dir = root / GenName(next);
  PPDB_RETURN_NOT_OK(retried("create '" + staging.string() + "'", [&] {
    return fsys.CreateDirectories((staging / "tables").string());
  }));
  PPDB_RETURN_NOT_OK(WriteDatabaseFiles(fsys, retry, staging, database));
  PPDB_RETURN_NOT_OK(retried("publish '" + gen_dir.string() + "'", [&] {
    return fsys.Rename(staging.string(), gen_dir.string());
  }));

  // Commit point: swap CURRENT via temp file + rename. Before the rename
  // lands the save never happened; after it the save is complete.
  const fs::path current_tmp = root / kCurrentTmpName;
  const fs::path current = root / kCurrentName;
  PPDB_RETURN_NOT_OK(retried("stage CURRENT", [&] {
    return fsys.WriteFile(current_tmp.string(), GenName(next) + "\n");
  }));
  PPDB_RETURN_NOT_OK(retried("commit CURRENT", [&] {
    return fsys.Rename(current_tmp.string(), current.string());
  }));
  if (committed_generation != nullptr) *committed_generation = GenName(next);

  // Best-effort prune: keep the new generation and the one it replaced
  // (rollback target); everything else — older generations, stray staging
  // dirs, and every journal segment (this commit captured all applied
  // events, so surviving segments are stale and would be discarded on
  // load anyway) — is garbage. Prune failures never fail a committed
  // save.
  for (int64_t g : scan.generations) {
    if (g == next || g == committed) continue;
    (void)fsys.RemoveAll((root / GenName(g)).string());
  }
  for (const std::string& stale : scan.stagings) {
    (void)fsys.RemoveAll((root / stale).string());
  }
  for (const std::string& journal : scan.journals) {
    (void)fsys.RemoveAll((root / journal).string());
  }
  return Status::OK();
}

Status SaveDatabase(std::string_view dir, const Database& database,
                    FileSystem& fsys, const SaveOptions& options) {
  return SaveDatabase(dir, database, fsys, options, nullptr);
}

Status SaveDatabase(std::string_view dir, const Database& database,
                    FileSystem& fsys, const SaveOptions& options,
                    std::string* committed_generation) {
  return SaveDatabase(dir,
                      DatabaseRef{database.catalog, database.config,
                                  database.ledger, database.log},
                      fsys, options, committed_generation);
}

Status SaveDatabase(std::string_view dir, const DatabaseRef& database,
                    FileSystem& fsys, const SaveOptions& options,
                    std::string* committed_generation) {
  const StorageMetrics& metrics = StorageMetrics::Get();
  obs::SpanScope span("storage_save");
  const auto started = std::chrono::steady_clock::now();
  Status status =
      SaveDatabaseImpl(dir, database, fsys, options, committed_generation);
  metrics.save_seconds->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count());
  (status.ok() ? metrics.save_ok : metrics.save_error)->Add();
  return status;
}

Result<Database> LoadDatabase(std::string_view dir) {
  return LoadDatabase(dir, GetRealFileSystem());
}

static Result<Database> LoadDatabaseImpl(std::string_view dir,
                                         FileSystem& fsys,
                                         RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport{};

  const fs::path root{std::string(dir)};
  if (!fsys.Exists(root.string())) {
    return Status::NotFound("database directory '" + root.string() +
                            "' does not exist");
  }
  if (!fsys.IsDirectory(root.string())) {
    return Status::InvalidArgument("'" + root.string() +
                                   "' is not a directory");
  }

  PPDB_ASSIGN_OR_RETURN(DirScan scan, ScanDirectory(fsys, root));
  std::string corrupt_note;
  int64_t committed = ReadCommittedGeneration(fsys, root, scan, &corrupt_note);
  if (!corrupt_note.empty()) rep.discarded.push_back(corrupt_note);

  if (!scan.has_current && scan.generations.empty()) {
    // Pre-generation layout: the whole file set lives at the top level.
    if (scan.has_flat_manifest) {
      rep.loaded_generation = "flat";
      PPDB_ASSIGN_OR_RETURN(Database database, LoadDatabaseFiles(fsys, root));
      ReplayJournals(fsys, root, scan.journals, database, rep);
      return database;
    }
    return Status::NotFound("'" + root.string() +
                            "' is not a ppdb database directory "
                            "(no CURRENT, generation, or MANIFEST)");
  }

  // Anything never committed is discarded sight unseen: staging dirs, a
  // stray CURRENT.tmp, and generations newer than the CURRENT pointer
  // (their save crashed between the publish rename and the commit swap).
  for (const std::string& staging : scan.stagings) {
    rep.discarded.push_back(staging + " (uncommitted staging)");
  }
  if (scan.has_current_tmp) {
    rep.discarded.push_back(std::string(kCurrentTmpName) +
                            " (crash during commit)");
  }
  std::vector<int64_t> candidates;  // newest first
  for (int64_t g : scan.generations) {
    if (committed >= 0 && g > committed) {
      rep.discarded.push_back(GenName(g) +
                              " (complete but never committed)");
    } else {
      candidates.push_back(g);
    }
  }
  if (committed >= 0 &&
      std::find(candidates.begin(), candidates.end(), committed) ==
          candidates.end()) {
    // CURRENT names a generation whose directory is gone; fall through to
    // whatever else is loadable.
    rep.discarded.push_back(GenName(committed) +
                            " (named by CURRENT but missing)");
  }

  Status last_error;
  for (int64_t g : candidates) {
    Result<Database> loaded = LoadDatabaseFiles(fsys, root / GenName(g));
    if (loaded.ok()) {
      rep.loaded_generation = GenName(g);
      rep.used_fallback = committed >= 0 && g != committed;
      // Acknowledged events since this generation's checkpoint live in
      // its journal; replaying them makes recovery per-event, not
      // per-checkpoint. (After a fallback this is the *older*
      // generation's journal — those acks happened on top of it.)
      ReplayJournals(fsys, root, scan.journals, *loaded, rep);
      return loaded;
    }
    rep.discarded.push_back(GenName(g) +
                            " (torn: " + loaded.status().message() + ")");
    rep.used_fallback = true;
    last_error = loaded.status();
  }
  return Status(last_error.ok() ? StatusCode::kNotFound : last_error.code(),
                "no loadable generation in '" + root.string() + "'" +
                    (last_error.ok() ? "" : ": " + last_error.message()));
}

Result<Database> LoadDatabase(std::string_view dir, FileSystem& fsys,
                              RecoveryReport* report) {
  const StorageMetrics& metrics = StorageMetrics::Get();
  obs::SpanScope span("storage_load");
  RecoveryReport local;
  RecoveryReport* rep = report != nullptr ? report : &local;
  const auto started = std::chrono::steady_clock::now();
  Result<Database> loaded = LoadDatabaseImpl(dir, fsys, rep);
  metrics.load_seconds->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count());
  (loaded.ok() ? metrics.load_ok : metrics.load_error)->Add();
  metrics.recovery_discarded->Add(
      static_cast<int64_t>(rep->discarded.size()));
  if (rep->used_fallback) metrics.recovery_fallback->Add();
  return loaded;
}

}  // namespace ppdb::storage
