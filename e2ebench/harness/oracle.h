#ifndef E2EBENCH_HARNESS_ORACLE_H_
#define E2EBENCH_HARNESS_ORACLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "harness/client.h"
#include "server/request.h"
#include "violation/live_monitor.h"

namespace e2e {

/// Applies one parsed event to `monitor` the way `DatabaseService` does.
ppdb::Status ApplyEvent(ppdb::violation::LivePopulationMonitor& monitor,
                        const ppdb::server::Request& event);

/// The in-process answer oracle: a `LivePopulationMonitor` over the same
/// generated database the server loaded, into which the client replays the
/// events the server acknowledged. It renders the payloads the server must
/// have sent byte for byte (both print numbers with "%.6g").
class Oracle {
 public:
  /// Loads the database at `dir` (the pristine generated copy).
  static ppdb::Result<Oracle> Load(const std::string& dir);

  /// Applies one acknowledged `event ...` line.
  ppdb::Status Apply(const std::string& event_line);

  std::string QueryProvider(int64_t provider) const;
  std::string QueryPw() const;
  std::string Analyze() const;
  /// The model fields `stats` starts with: providers, violated, defaulted,
  /// pw and pdefault.
  std::string StatsModel() const;

  /// The answers the client can check while the state is static.
  Expectations StaticExpectations() const;

  const ppdb::violation::LivePopulationMonitor& monitor() const {
    return monitor_;
  }

 private:
  explicit Oracle(ppdb::violation::LivePopulationMonitor monitor)
      : monitor_(std::move(monitor)) {}

  ppdb::violation::LivePopulationMonitor monitor_;
};

/// The leading model fields of a `stats` payload (everything before
/// " view_cells=").
std::string StatsModelOf(const std::string& stats_payload);

/// End-of-run checks on connection `conn` of `sink`, whose next request id
/// is `*next_id`: the server's `query pw`, `analyze`, `stats` model fields
/// and `query provider` for a seeded sample of providers (plus every
/// provider a writer added) must equal the oracle's, and `driftcheck` must
/// answer clean=1. Appends every difference to `mismatches` and returns
/// the server's whole `stats` payload.
ppdb::Result<std::string> CheckFinalState(
    Sink& sink, int conn, int64_t* next_id, const Oracle& oracle,
    uint64_t seed, std::vector<std::string>* mismatches);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_ORACLE_H_
