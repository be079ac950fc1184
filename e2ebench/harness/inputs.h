#ifndef E2EBENCH_HARNESS_INPUTS_H_
#define E2EBENCH_HARNESS_INPUTS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "storage/database_io.h"

namespace e2e {

/// Providers in the generated database (ids 1..kProviders).
inline constexpr int64_t kProviders = 20000;

/// Builds the database for `seed` (deterministic in the seed): one seeded
/// `sim::PopulationGenerator` draw of kProviders providers × 8 attributes ×
/// 2 purposes, with a uniform house policy whose fractions keep P(W) and
/// P(Default) strictly inside (0, 1).
ppdb::Result<ppdb::storage::Database> MakeDatabase(uint64_t seed);

enum class Workload { kLookup, kConsent, kCensus };
ppdb::Result<Workload> ParseWorkload(const std::string& name);

/// How one client connection sends.
struct ConnSpec {
  enum class Loop { kClosed, kOpen };
  Loop loop = Loop::kClosed;
  /// Closed loop: requests kept outstanding.
  int depth = 1;
  /// Open loop: sends per second, on a fixed schedule.
  double rate = 0.0;
  /// Which stream the connection's requests belong to.
  enum class Stream { kRead, kWrite, kHeavy };
  Stream stream = Stream::kRead;
};

/// The connections of a workload. The first connection of the workload's
/// own stream (reads for lookup, events for consent, analytics for census)
/// is listed first.
std::vector<ConnSpec> ConnectionsFor(Workload workload);

/// Trials of the census `estimate` request.
inline constexpr int64_t kEstimateTrials = 20000;

/// A generated request line plus what the client needs to check it.
struct GeneratedRequest {
  std::string line;
  /// True for `event ...` lines, which the oracle replays once acknowledged.
  bool is_event = false;
  /// For `query provider`: the provider asked about (0 otherwise).
  int64_t provider = 0;
};

/// Seeded request source for one connection. Consent writers own the
/// providers congruent to their index modulo the writer count, so the
/// final state does not depend on how the writers interleave; they remove
/// only providers they added themselves, so ids 1..kProviders stay present
/// and every read of them succeeds.
class RequestSource {
 public:
  RequestSource(Workload workload, int conn_index, const ConnSpec& spec,
                uint64_t seed, int writers);

  GeneratedRequest Next();

 private:
  GeneratedRequest NextRead();
  GeneratedRequest NextEvent();
  GeneratedRequest NextHeavy();

  Workload workload_;
  int conn_index_;
  ConnSpec spec_;
  ppdb::Rng rng_;
  int writers_;
  int64_t heavy_index_ = 0;
  /// Providers this writer added and has not removed yet.
  std::vector<int64_t> added_;
  int64_t next_added_id_;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_INPUTS_H_
