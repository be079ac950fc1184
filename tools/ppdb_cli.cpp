// ppdb_cli — command-line front-end for a ppdb database directory
// (as written by storage::SaveDatabase).
//
// Usage:
//   ppdb_cli demo <dir>                   write a small demo database
//   ppdb_cli sql <dir> "<query>"          run SQL against the tables
//   ppdb_cli report <dir>                 violation + default reports
//   ppdb_cli certify <dir> <alpha>        alpha-PPDB certification (Def. 3)
//   ppdb_cli statement <dir> <provider>   provider transparency statement
//   ppdb_cli diff <dir> <policy.ppdb>     impact of adopting a new policy
//   ppdb_cli expansion-check <dir> <U> <T>
//                                         Section 9 expansion inequality
//                                         (Eqs. 25-31) from one view
//                                         materialization
//   ppdb_cli audit <dir> [n]              tail of the audit log
//   ppdb_cli enforce <dir> <purpose> <visibility> <table> <attrs>
//                                         preference-enforced read
//   ppdb_cli recover <dir> [--dry-run]    load, report crash leftovers and
//                                         replayed journal events, and
//                                         re-commit a clean generation
//                                         (--dry-run: report only, never
//                                         mutate the directory)
//   ppdb_cli serve <dir> [flags]          line-oriented serving loop on
//                                         stdin/stdout, or over TCP with
//                                         --listen (see src/server/)
//   ppdb_cli trace <dir>                  run one traced violation scan and
//                                         dump the span ring as JSON
//
// Exit codes: 0 success; 1 error; 2 usage; 3 alpha certification failed
// (or expansion not justified);
// 4 recovery succeeded but crash leftovers were discarded (or journal
// events replayed); 5 serving completed but the final checkpoint failed.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "audit/monitor.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "privacy/policy_dsl.h"
#include "relational/csv.h"
#include "relational/sql.h"
#include "server/broker.h"
#include "server/net/tcp_server.h"
#include "server/serve.h"
#include "server/service.h"
#include "storage/database_io.h"
#include "violation/change_impact.h"
#include "violation/default_model.h"
#include "violation/incremental.h"
#include "violation/detector.h"
#include "violation/probability.h"
#include "violation/report_io.h"

namespace {

using namespace ppdb;  // NOLINT(build/namespaces)

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ppdb_cli demo <dir>\n"
               "  ppdb_cli sql <dir> \"<query>\"\n"
               "  ppdb_cli report <dir>\n"
               "  ppdb_cli certify <dir> <alpha>\n"
               "  ppdb_cli statement <dir> <provider>\n"
               "  ppdb_cli diff <dir> <policy.ppdb>\n"
               "  ppdb_cli expansion-check <dir> <utility_per_provider> "
               "<extra_utility>\n"
               "  ppdb_cli audit <dir> [n]\n"
               "  ppdb_cli enforce <dir> <purpose> <visibility> <table> "
               "<attr[,attr...]>\n"
               "  ppdb_cli recover <dir> [--dry-run]\n"
               "  ppdb_cli serve <dir> [--workers N] [--queue K] "
               "[--deadline-ms D] [--checkpoint-every E]\n"
               "                       [--listen <addr:port>] "
               "[--max-conns N] [--idle-timeout-ms D]\n"
               "                       [--journal-window-us U] "
               "[--drift-check-every E]\n"
               "  ppdb_cli trace <dir>\n");
  return 2;
}

// Loads `dir`, warning on stderr when crash leftovers had to be skipped so
// no command silently works off a recovered state.
Result<storage::Database> LoadWithWarnings(const std::string& dir) {
  storage::RecoveryReport report;
  Result<storage::Database> database =
      storage::LoadDatabase(dir, storage::GetRealFileSystem(), &report);
  if (database.ok() && !report.clean()) {
    std::fprintf(stderr, "warning: '%s' needed recovery\n%s", dir.c_str(),
                 report.ToString().c_str());
  }
  return database;
}

// recover <dir> [--dry-run]: loads whatever committed state survives
// (journal tail replayed on top), prints the recovery report, and
// re-saves so the directory is a single clean committed generation again.
// --dry-run prints the same report with the same exit semantics but never
// mutates the directory, so operators can inspect before repairing. Exit
// 0 when already clean, 4 when recovery found anything (discards,
// fallback, or replayed journal events), 1 when nothing loadable remains.
int RunRecover(const std::string& dir, bool dry_run) {
  // Recovery is often driven from scripts with stdout piped to a pager or
  // log shipper; a consumer hanging up must not kill the re-commit
  // mid-flight. Writes past the hangup fail with EPIPE instead.
  std::signal(SIGPIPE, SIG_IGN);
  storage::RecoveryReport report;
  Result<storage::Database> database =
      storage::LoadDatabase(dir, storage::GetRealFileSystem(), &report);
  if (!database.ok()) return Fail(database.status());
  std::fputs(report.ToString().c_str(), stdout);
  if (report.clean()) return 0;
  if (dry_run) {
    std::printf("dry run: '%s' left untouched (re-run without --dry-run "
                "to re-commit)\n",
                dir.c_str());
    return 4;
  }
  // Re-commit: the atomic save establishes a fresh generation, prunes the
  // stragglers the report named, and seals any replayed journal events
  // into the new generation.
  Status saved = storage::SaveDatabase(dir, database.value());
  if (!saved.ok()) return Fail(saved);
  std::printf("re-committed '%s' from %s\n", dir.c_str(),
              report.loaded_generation.c_str());
  return 4;
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string contents;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(f);
  return contents;
}

int RunSql(const storage::Database& database, const std::string& query) {
  Result<rel::ResultSet> rs = rel::ExecuteSql(database.catalog, query);
  if (!rs.ok()) return Fail(rs.status());
  std::cout << rs->ToString(/*max_rows=*/50);
  std::printf("(%lld rows)\n", static_cast<long long>(rs->num_rows()));
  return 0;
}

int RunReport(const storage::Database& database) {
  violation::ViolationDetector detector(
      &database.config, violation::WithConfigHierarchy(database.config));
  Result<violation::ViolationReport> report = detector.Analyze();
  if (!report.ok()) return Fail(report.status());
  violation::DefaultReport defaults =
      violation::ComputeDefaults(report.value(), database.config);
  std::cout << report->ToString() << "\n" << defaults.ToString();
  return 0;
}

int RunCertify(const storage::Database& database, const std::string& text) {
  Result<double> alpha = ParseDouble(text);
  if (!alpha.ok()) return Fail(alpha.status());
  violation::ViolationDetector detector(
      &database.config, violation::WithConfigHierarchy(database.config));
  Result<violation::ViolationReport> report = detector.Analyze();
  if (!report.ok()) return Fail(report.status());
  Result<violation::AlphaCertification> cert =
      violation::CertifyAlphaPpdb(report.value(), alpha.value());
  if (!cert.ok()) return Fail(cert.status());
  std::printf(
      "P(W) = %.4f over %lld providers (%lld violated)\n"
      "alpha = %.4f: %s (Wilson 95%% interval [%.4f, %.4f]%s)\n",
      cert->p_violation, static_cast<long long>(cert->num_providers),
      static_cast<long long>(cert->num_violated), cert->alpha,
      cert->certified ? "alpha-PPDB CERTIFIED" : "NOT certified",
      cert->interval.lo, cert->interval.hi,
      cert->certified_with_margin ? ", certified with margin" : "");
  return cert->certified ? 0 : 3;
}

int RunStatement(const storage::Database& database,
                 const std::string& text) {
  Result<int64_t> provider = ParseInt64(text);
  if (!provider.ok()) return Fail(provider.status());
  violation::ViolationDetector detector(
      &database.config, violation::WithConfigHierarchy(database.config));
  Result<violation::ViolationReport> report = detector.Analyze();
  if (!report.ok()) return Fail(report.status());
  Result<std::string> statement = violation::TransparencyStatement(
      report.value(), provider.value(), database.config);
  if (!statement.ok()) return Fail(statement.status());
  std::cout << statement.value();
  return 0;
}

int RunDiff(const storage::Database& database, const std::string& path) {
  Result<std::string> dsl = ReadTextFile(path);
  if (!dsl.ok()) return Fail(dsl.status());
  Result<privacy::PrivacyConfig> proposed =
      privacy::ParsePrivacyConfig(dsl.value());
  if (!proposed.ok()) return Fail(proposed.status());
  Result<violation::ChangeImpact> impact =
      violation::AssessPolicyChange(
          database.config, proposed.value().policy,
          violation::WithConfigHierarchy(database.config));
  if (!impact.ok()) return Fail(impact.status());
  std::cout << impact->diff.ToString(database.config.purposes,
                                     database.config.scales)
            << "\n"
            << impact->Summary();
  return 0;
}

// expansion-check <dir> <U> <T>: answers Section 9's "should the house
// expand?" inequality (Eqs. 25-31) for per-provider utility U and extra
// utility T, from one view materialization of the stored config.
int RunExpansionCheck(const storage::Database& database,
                      const std::string& utility_text,
                      const std::string& extra_text) {
  Result<double> utility = ParseDouble(utility_text);
  if (!utility.ok()) return Fail(utility.status());
  Result<double> extra = ParseDouble(extra_text);
  if (!extra.ok()) return Fail(extra.status());
  Result<violation::ViolationView> view = violation::ViolationView::Create(
      &database.config, violation::WithConfigHierarchy(database.config));
  if (!view.ok()) return Fail(view.status());
  Result<violation::ViolationView::ExpansionCheck> check =
      view->CheckExpansion(utility.value(), extra.value());
  if (!check.ok()) return Fail(check.status());
  const violation::ViolationView::ExpansionCheck& c = check.value();
  std::printf(
      "N = %lld providers, %lld defaulted -> N_future = %lld (Eq. 26)\n"
      "utility(current) = %.6g (Eq. 25), utility(future) = %.6g (Eq. 27)\n"
      "expansion %s (Eqs. 28-29)\n",
      static_cast<long long>(c.n_current),
      static_cast<long long>(c.n_defaulted),
      static_cast<long long>(c.n_future), c.utility_current,
      c.utility_future, c.justified ? "JUSTIFIED" : "NOT justified");
  if (c.has_break_even) {
    std::printf("break-even extra utility T* = %.6g (Eq. 31)\n",
                c.break_even_extra_utility);
  } else {
    std::printf("no finite break-even T (every provider defaulted)\n");
  }
  return c.justified ? 0 : 3;
}

// enforce <dir> <purpose> <visibility-level> <table> <attr[,attr...]>
// Runs a preference-enforced read through the access monitor.
int RunEnforce(const storage::Database& database, const std::string& purpose,
               const std::string& visibility, const std::string& table,
               const std::string& attributes) {
  Result<privacy::PurposeId> purpose_id =
      database.config.purposes.Lookup(purpose);
  if (!purpose_id.ok()) return Fail(purpose_id.status());
  int level;
  Result<int> by_name =
      database.config.scales.visibility.LevelOf(visibility);
  if (by_name.ok()) {
    level = by_name.value();
  } else {
    Result<int64_t> numeric = ParseInt64(visibility);
    if (!numeric.ok()) return Fail(by_name.status());
    level = static_cast<int>(numeric.value());
  }

  audit::GeneralizerRegistry generalizers =
      audit::BuildGeneralizers(database.config.numeric_generalizers);
  audit::AuditLog log;
  audit::AccessMonitor monitor(&database.catalog, &database.config,
                               &generalizers, &log,
                               audit::EnforcementMode::kEnforce,
                               &database.ledger);
  audit::AccessRequest request;
  request.requester = "cli";
  request.visibility_level = level;
  request.purpose = purpose_id.value();
  request.table = table;
  for (std::string_view attr : SplitAndTrim(attributes, ',')) {
    request.attributes.emplace_back(attr);
  }
  Result<rel::ResultSet> rs = monitor.Execute(request);
  if (!rs.ok()) return Fail(rs.status());
  std::cout << rs->ToString(50);
  std::printf("(%lld rows; %lld cell(s) generalized, %lld suppressed)\n",
              static_cast<long long>(rs->num_rows()),
              static_cast<long long>(
                  log.CountByKind(audit::AuditEventKind::kCellGeneralized)),
              static_cast<long long>(
                  log.CountByKind(audit::AuditEventKind::kCellSuppressed)));
  return 0;
}

// trace <dir>: runs one fully traced violation scan over the database and
// dumps the tracer's span ring as a JSON array (index build, shard fan-out,
// reduce — the same spans a `serve` request would record). In-process
// equivalent of the serve-mode `trace` command.
int RunTrace(const storage::Database& database) {
  violation::ViolationDetector detector(
      &database.config, violation::WithConfigHierarchy(database.config));
  Result<violation::ViolationReport> report = [&] {
    obs::TraceScope trace(obs::Tracer::Default(), "ppdb-cli-trace",
                          "analyze");
    return detector.Analyze();
  }();
  if (!report.ok()) return Fail(report.status());
  std::cout << obs::Tracer::Default().SnapshotJson() << "\n";
  return 0;
}

int RunAudit(const storage::Database& database, const std::string& count) {
  int64_t n = 20;
  if (!count.empty()) {
    Result<int64_t> parsed = ParseInt64(count);
    if (!parsed.ok()) return Fail(parsed.status());
    n = parsed.value();
  }
  std::cout << database.log.ToString(n);
  std::printf("(%lld events total)\n",
              static_cast<long long>(database.log.size()));
  return 0;
}

// serve <dir> [flags]: the overload-safe serving loop (src/server/) on
// stdin/stdout, or — with --listen <addr:port> — the TCP front-end on a
// real socket. Exit 0 when serving and the final checkpoint both
// succeeded; exit 5 when serving succeeded but the final checkpoint
// failed — events acknowledged during the session are still safe in the
// journal, but the directory needs `recover` (or a successful next serve)
// to seal them into a generation.
int RunServe(const std::string& dir, int argc, char** argv) {
  // A client hanging up mid-response must surface as EPIPE on that one
  // connection, never as a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  server::RequestBroker::Options broker_options;
  server::DatabaseService::Options service_options;
  server::net::TcpServer::Options net_options;
  bool listen = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "serve flag '%s' expects a value\n", flag.c_str());
      return Usage();
    }
    ++i;
    if (flag == "--listen") {
      // <addr:port>; the port may be 0 for an ephemeral one (the bound
      // port is printed once listening).
      const std::string endpoint = argv[i];
      size_t colon = endpoint.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "--listen expects <addr:port>, got '%s'\n",
                     endpoint.c_str());
        return Usage();
      }
      Result<int64_t> port = ParseInt64(endpoint.substr(colon + 1));
      if (!port.ok()) return Fail(port.status());
      if (port.value() < 0 || port.value() > 65535) {
        return Fail(Status::InvalidArgument("port out of range"));
      }
      net_options.host = endpoint.substr(0, colon);
      net_options.port = static_cast<uint16_t>(port.value());
      listen = true;
      continue;
    }
    Result<int64_t> value = ParseInt64(argv[i]);
    if (!value.ok()) return Fail(value.status());
    if (flag == "--workers") {
      broker_options.num_workers = static_cast<int>(value.value());
    } else if (flag == "--queue") {
      broker_options.queue_capacity = static_cast<size_t>(value.value());
    } else if (flag == "--deadline-ms") {
      broker_options.default_deadline =
          std::chrono::milliseconds(value.value());
    } else if (flag == "--checkpoint-every") {
      service_options.checkpoint_every_events = value.value();
    } else if (flag == "--drift-check-every") {
      service_options.drift_check_every_events = value.value();
    } else if (flag == "--journal-window-us") {
      service_options.journal_batch_window =
          std::chrono::microseconds(value.value());
    } else if (flag == "--max-conns") {
      net_options.max_connections = static_cast<size_t>(value.value());
    } else if (flag == "--idle-timeout-ms") {
      net_options.idle_timeout = std::chrono::milliseconds(value.value());
    } else {
      std::fprintf(stderr, "unknown serve flag '%s'\n", flag.c_str());
      return Usage();
    }
  }
  Result<std::unique_ptr<server::DatabaseService>> service =
      server::DatabaseService::Create(dir, &storage::GetRealFileSystem(),
                                      service_options);
  if (!service.ok()) return Fail(service.status());
  if (!service.value()->recovery().clean()) {
    std::fprintf(stderr, "warning: '%s' needed recovery\n%s", dir.c_str(),
                 service.value()->recovery().ToString().c_str());
  }
  server::RequestBroker broker(broker_options);
  Status final_checkpoint;
  if (listen) {
    server::net::TcpServer server(net_options, *service.value(), broker);
    Status started = server.Start();
    if (!started.ok()) return Fail(started);
    // One line on stdout so scripts (and tests) can scrape the bound
    // port; everything else stays on the socket or stderr.
    std::printf("listening on %s:%u (%s)\n", net_options.host.c_str(),
                static_cast<unsigned>(server.port()),
                std::string(server.poller_name()).c_str());
    std::fflush(stdout);
    final_checkpoint = server.Serve();
  } else {
    final_checkpoint =
        server::Serve(std::cin, std::cout, *service.value(), broker);
  }
  if (!final_checkpoint.ok()) {
    // Serving succeeded but the data is not sealed into a generation; a
    // distinct exit code lets supervisors trigger `recover` instead of
    // treating the run as fully clean.
    std::fprintf(stderr, "error: final checkpoint failed: %s\n",
                 final_checkpoint.ToString().c_str());
    return 5;
  }
  return 0;
}

// The paper's Section 8 scenario as a ready-made database directory.
int RunDemo(const std::string& dir) {
  storage::Database database;
  auto config = privacy::ParsePrivacyConfig(R"(
scale visibility: l0, l1, l2, l3, l4, l5, l6, l7
scale granularity: l0, l1, l2, l3, l4, l5, l6, l7
scale retention: l0, l1, l2, l3, l4, l5, l6, l7
purpose pr
policy Age for pr: visibility=0, granularity=0, retention=0
policy Weight for pr: visibility=1, granularity=2, retention=2
pref 1 Weight for pr: visibility=3, granularity=3, retention=5
pref 2 Weight for pr: visibility=3, granularity=1, retention=4
pref 3 Weight for pr: visibility=1, granularity=1, retention=1
generalizer Weight: 0, 0, 10
attr_sensitivity Weight = 4
sensitivity 1 Weight: value=1, visibility=1, granularity=2, retention=1
sensitivity 2 Weight: value=3, visibility=1, granularity=5, retention=2
sensitivity 3 Weight: value=4, visibility=1, granularity=3, retention=2
threshold 1 = 10
threshold 2 = 50
threshold 3 = 100
)");
  if (!config.ok()) return Fail(config.status());
  database.config = std::move(config).value();

  auto schema =
      rel::Schema::Create({{"Age", rel::DataType::kInt64, "years"},
                           {"Weight", rel::DataType::kDouble, "kg"}});
  if (!schema.ok()) return Fail(schema.status());
  auto table = rel::TableFromCsv("providers", schema.value(),
                                 "provider_id,Age,Weight\n"
                                 "1,34,58.0\n"
                                 "2,41,92.5\n"
                                 "3,29,77.3\n");
  if (!table.ok()) return Fail(table.status());
  Status added = database.catalog.AddTable(std::move(table).value()).status();
  if (!added.ok()) return Fail(added);
  for (rel::ProviderId provider : {1, 2, 3}) {
    database.ledger.RecordRowIngest("providers", provider, {"Age", "Weight"},
                                    0);
  }
  Status saved = storage::SaveDatabase(dir, database);
  if (!saved.ok()) return Fail(saved);
  std::printf("demo database (the paper's Section 8 example) written to "
              "%s\n",
              dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string dir = argv[2];

  if (command == "demo" && argc == 3) return RunDemo(dir);
  if (command == "recover" && argc == 3) return RunRecover(dir, false);
  if (command == "recover" && argc == 4 &&
      std::string(argv[3]) == "--dry-run") {
    return RunRecover(dir, true);
  }
  if (command == "serve") return RunServe(dir, argc, argv);

  Result<storage::Database> database = LoadWithWarnings(dir);
  if (!database.ok()) return Fail(database.status());

  if (command == "sql" && argc == 4) {
    return RunSql(database.value(), argv[3]);
  }
  if (command == "report" && argc == 3) {
    return RunReport(database.value());
  }
  if (command == "certify" && argc == 4) {
    return RunCertify(database.value(), argv[3]);
  }
  if (command == "statement" && argc == 4) {
    return RunStatement(database.value(), argv[3]);
  }
  if (command == "diff" && argc == 4) {
    return RunDiff(database.value(), argv[3]);
  }
  if (command == "expansion-check" && argc == 5) {
    return RunExpansionCheck(database.value(), argv[3], argv[4]);
  }
  if (command == "trace" && argc == 3) {
    return RunTrace(database.value());
  }
  if (command == "audit" && (argc == 3 || argc == 4)) {
    return RunAudit(database.value(), argc == 4 ? argv[3] : "");
  }
  if (command == "enforce" && argc == 7) {
    return RunEnforce(database.value(), argv[3], argv[4], argv[5], argv[6]);
  }
  return Usage();
}
