#include "harness/oracle.h"

#include <cstdio>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "server/request.h"
#include "storage/database_io.h"
#include "violation/detector.h"

namespace e2e {

using ppdb::Result;
using ppdb::Status;
using ppdb::server::RequestKind;

namespace {

/// The service's number format.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Providers whose `query provider` answer the end-of-run check compares.
constexpr int kFinalProviderSamples = 64;

}  // namespace

Result<Oracle> Oracle::Load(const std::string& dir) {
  PPDB_ASSIGN_OR_RETURN(ppdb::storage::Database database,
                        ppdb::storage::LoadDatabase(dir));
  PPDB_ASSIGN_OR_RETURN(
      ppdb::violation::LivePopulationMonitor monitor,
      ppdb::violation::LivePopulationMonitor::Create(std::move(database.config)));
  return Oracle(std::move(monitor));
}

Status ApplyEvent(ppdb::violation::LivePopulationMonitor& monitor,
                  const ppdb::server::Request& request) {
  switch (request.kind) {
    case RequestKind::kEventAdd:
      return monitor.AddProvider(request.provider, request.threshold);
    case RequestKind::kEventRemove:
      return monitor.RemoveProvider(request.provider);
    case RequestKind::kEventSetPref: {
      PPDB_ASSIGN_OR_RETURN(ppdb::privacy::PurposeId purpose,
                            monitor.config().purposes.Lookup(request.purpose));
      return monitor.SetPreference(
          request.provider, request.attribute,
          ppdb::privacy::PrivacyTuple{purpose, request.visibility,
                                      request.granularity, request.retention});
    }
    case RequestKind::kEventSetThreshold:
      return monitor.SetThreshold(request.provider, request.threshold);
    default:
      return Status::InvalidArgument("not a generated event kind");
  }
}

Status Oracle::Apply(const std::string& event_line) {
  PPDB_ASSIGN_OR_RETURN(ppdb::server::Request request,
                        ppdb::server::ParseRequest(event_line));
  return ApplyEvent(monitor_, request);
}

std::string Oracle::QueryProvider(int64_t provider) const {
  Result<ppdb::violation::ProviderViolation> v = monitor_.ForProvider(provider);
  Result<bool> defaulted = monitor_.IsDefaulted(provider);
  if (!v.ok() || !defaulted.ok()) return "<absent>";
  return "provider=" + std::to_string(v->provider) +
         " violated=" + (v->violated ? "1" : "0") +
         " severity=" + Num(v->total_severity) +
         " incidents=" + std::to_string(v->incidents.size()) +
         " defaulted=" + (defaulted.value() ? "1" : "0");
}

std::string Oracle::QueryPw() const {
  return "pw=" + Num(monitor_.ProbabilityOfViolation());
}

std::string Oracle::Analyze() const {
  ppdb::violation::ViolationDetector detector(&monitor_.config());
  Result<ppdb::violation::ViolationReport> report = detector.Analyze();
  if (!report.ok()) return "<analyze failed: " + report.status().ToString() + ">";
  return "providers=" + std::to_string(report->num_providers()) +
         " violated=" + std::to_string(report->num_violated) +
         " pw=" + Num(report->ProbabilityOfViolation()) +
         " total_severity=" + Num(report->total_severity);
}

std::string Oracle::StatsModel() const {
  return "providers=" + std::to_string(monitor_.num_providers()) +
         " violated=" + std::to_string(monitor_.num_violated()) +
         " defaulted=" + std::to_string(monitor_.num_defaulted()) +
         " pw=" + Num(monitor_.ProbabilityOfViolation()) +
         " pdefault=" + Num(monitor_.ProbabilityOfDefault());
}

Expectations Oracle::StaticExpectations() const {
  Expectations expect;
  expect.provider.reserve(kProviders);
  for (int64_t id = 1; id <= kProviders; ++id) {
    expect.provider.push_back(QueryProvider(id));
  }
  expect.pw = QueryPw();
  expect.analyze = Analyze();
  expect.stats_model = StatsModel();
  return expect;
}

std::string StatsModelOf(const std::string& stats_payload) {
  return stats_payload.substr(0, stats_payload.find(" view_cells="));
}

Result<std::string> CheckFinalState(Sink& sink, int conn, int64_t* next_id,
                                    const Oracle& oracle, uint64_t seed,
                                    std::vector<std::string>* mismatches) {
  auto ask = [&](const std::string& line) -> Result<std::string> {
    PPDB_ASSIGN_OR_RETURN(Reply reply, RoundTrip(sink, conn, (*next_id)++, line));
    if (!reply.ok) {
      return Status::Internal("'" + line + "' failed: " + reply.payload);
    }
    return reply.payload;
  };
  auto expect = [&](const std::string& what, const std::string& got,
                    const std::string& want) {
    if (got != want) {
      mismatches->push_back("final '" + what + "': got '" + got + "' want '" +
                            want + "'");
    }
  };
  PPDB_ASSIGN_OR_RETURN(std::string pw, ask("query pw"));
  expect("query pw", pw, oracle.QueryPw());
  PPDB_ASSIGN_OR_RETURN(std::string analyze, ask("analyze"));
  expect("analyze", analyze, oracle.Analyze());
  PPDB_ASSIGN_OR_RETURN(std::string stats, ask("stats"));
  expect("stats", StatsModelOf(stats), oracle.StatsModel());
  std::vector<int64_t> providers;
  ppdb::Rng rng(seed ^ 0x5eedf00dULL);
  for (int i = 0; i < kFinalProviderSamples; ++i) {
    providers.push_back(1 + static_cast<int64_t>(rng.NextBounded(kProviders)));
  }
  for (int64_t id : oracle.monitor().config().preferences.ProviderIds()) {
    if (id > kProviders) providers.push_back(id);
  }
  for (int64_t id : providers) {
    const std::string line = "query provider " + std::to_string(id);
    PPDB_ASSIGN_OR_RETURN(std::string got, ask(line));
    expect(line, got, oracle.QueryProvider(id));
  }
  PPDB_ASSIGN_OR_RETURN(std::string drift, ask("driftcheck"));
  if (drift.compare(0, 8, "clean=1 ") != 0) {
    mismatches->push_back("driftcheck: " + drift);
  }
  return stats;
}

}  // namespace e2e
