#include "harness/inputs.h"

#include <cstdio>
#include <utility>

#include "common/macros.h"
#include "privacy/ordered_scale.h"
#include "sim/population.h"

namespace e2e {

using ppdb::Result;
using ppdb::Status;

namespace {

constexpr int kAttributes = 8;
constexpr int kPurposes = 2;

/// The open-loop reader's rate: a rate the seed build serves without
/// shedding while checkpoints or analytics hold the broker's workers.
constexpr double kOpenReadRate = 200.0;

/// House policy position on each scale. With every (attribute, purpose)
/// pair at the bottom level of visibility and granularity and one step up
/// retention, a provider is violated only where they left a pair unstated
/// or stated the lowest retention, so P(W) and P(Default) stay strictly
/// inside (0, 1) (the 0.5/0.5/0.5 policy violates every provider).
constexpr double kVisibilityFraction = 0.0;
constexpr double kGranularityFraction = 0.0;
constexpr double kRetentionFraction = 0.25;

/// Consent event mix, in percent: preference edits, threshold edits, and
/// the remainder split between provider joins and departures.
constexpr int kPrefPercent = 85;
constexpr int kThresholdPercent = 10;

/// Lookup read mix, in percent; the remainder is `stats`.
constexpr int kProviderQueryPercent = 90;
constexpr int kPwQueryPercent = 4;
constexpr int kExpansionPercent = 4;

int64_t UniformProvider(ppdb::Rng& rng) {
  return 1 + static_cast<int64_t>(rng.NextBounded(kProviders));
}

std::string AttributeName(int index) { return "attr" + std::to_string(index); }
std::string PurposeName(int index) { return "purpose" + std::to_string(index); }

}  // namespace

Result<ppdb::storage::Database> MakeDatabase(uint64_t seed) {
  ppdb::sim::PopulationConfig config;
  config.num_providers = kProviders;
  for (int a = 0; a < kAttributes; ++a) {
    config.attributes.push_back(
        {AttributeName(a), 1.0 + 0.5 * a, 50.0 + 5.0 * a, 10.0});
  }
  for (int p = 0; p < kPurposes; ++p) config.purposes.push_back(PurposeName(p));
  config.seed = seed;
  PPDB_ASSIGN_OR_RETURN(ppdb::sim::Population population,
                        ppdb::sim::PopulationGenerator(config).Generate());
  PPDB_ASSIGN_OR_RETURN(
      ppdb::privacy::HousePolicy policy,
      ppdb::sim::MakeUniformPolicy(config.attributes, config.purposes,
                                   kVisibilityFraction, kGranularityFraction,
                                   kRetentionFraction, &population.config));
  population.config.policy = std::move(policy);
  ppdb::storage::Database database;
  database.config = std::move(population.config);
  PPDB_RETURN_NOT_OK(
      database.catalog.AddTable(std::move(population.data)).status());
  return database;
}

Result<Workload> ParseWorkload(const std::string& name) {
  if (name == "lookup") return Workload::kLookup;
  if (name == "consent") return Workload::kConsent;
  if (name == "census") return Workload::kCensus;
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

std::vector<ConnSpec> ConnectionsFor(Workload workload) {
  using Loop = ConnSpec::Loop;
  using Stream = ConnSpec::Stream;
  const ConnSpec open_reader{Loop::kOpen, 1, kOpenReadRate, Stream::kRead};
  switch (workload) {
    case Workload::kLookup:
      // Two callers with one read outstanding each: no queue forms, so the
      // latency is the request path's and not the host's share of the CPU,
      // which sets a saturated loop's throughput and queueing (NOISE.md).
      return {{Loop::kClosed, 1, 0.0, Stream::kRead},
              {Loop::kClosed, 1, 0.0, Stream::kRead}};
    case Workload::kConsent:
      return {{Loop::kClosed, 1, 0.0, Stream::kWrite},
              {Loop::kClosed, 1, 0.0, Stream::kWrite},
              open_reader};
    case Workload::kCensus:
      return {{Loop::kClosed, 1, 0.0, Stream::kHeavy}, open_reader};
  }
  return {};
}

RequestSource::RequestSource(Workload workload, int conn_index,
                             const ConnSpec& spec, uint64_t seed, int writers)
    : workload_(workload),
      conn_index_(conn_index),
      spec_(spec),
      rng_(seed * 1000003ULL + 7919ULL * static_cast<uint64_t>(conn_index) +
           static_cast<uint64_t>(workload)),
      writers_(writers),
      next_added_id_(kProviders + 1 + conn_index) {}

GeneratedRequest RequestSource::Next() {
  switch (spec_.stream) {
    case ConnSpec::Stream::kRead: return NextRead();
    case ConnSpec::Stream::kWrite: return NextEvent();
    case ConnSpec::Stream::kHeavy: return NextHeavy();
  }
  return {};
}

GeneratedRequest RequestSource::NextRead() {
  GeneratedRequest request;
  // Open-loop readers (consent, census) ask only `query provider`; the
  // lookup mix adds the O(1) aggregate reads.
  const int pick = workload_ == Workload::kLookup
                       ? static_cast<int>(rng_.NextBounded(100))
                       : 0;
  if (pick < kProviderQueryPercent) {
    request.provider = UniformProvider(rng_);
    request.line = "query provider " + std::to_string(request.provider);
  } else if (pick < kProviderQueryPercent + kPwQueryPercent) {
    request.line = "query pw";
  } else if (pick < kProviderQueryPercent + kPwQueryPercent +
                        kExpansionPercent) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "expansion-check %.3f %.3f",
                  1.0 + rng_.NextDouble() * 9.0, rng_.NextDouble() * 5000.0);
    request.line = buf;
  } else {
    request.line = "stats";
  }
  return request;
}

GeneratedRequest RequestSource::NextEvent() {
  GeneratedRequest request;
  request.is_event = true;
  // A uniformly drawn original provider this writer owns.
  const int64_t owned_slots = kProviders / writers_;
  const int64_t owned =
      1 + conn_index_ +
      static_cast<int64_t>(rng_.NextBounded(static_cast<uint64_t>(owned_slots))) *
          writers_;
  const int pick = static_cast<int>(rng_.NextBounded(100));
  char buf[160];
  if (pick < kPrefPercent) {
    const ppdb::privacy::ScaleSet scales;
    std::snprintf(
        buf, sizeof(buf), "event pref %lld %s %s %d %d %d",
        static_cast<long long>(owned),
        AttributeName(static_cast<int>(rng_.NextBounded(kAttributes))).c_str(),
        PurposeName(static_cast<int>(rng_.NextBounded(kPurposes))).c_str(),
        static_cast<int>(rng_.NextBounded(scales.visibility.num_levels())),
        static_cast<int>(rng_.NextBounded(scales.granularity.num_levels())),
        static_cast<int>(rng_.NextBounded(scales.retention.num_levels())));
  } else if (pick < kPrefPercent + kThresholdPercent) {
    std::snprintf(buf, sizeof(buf), "event threshold %lld %.3f",
                  static_cast<long long>(owned), rng_.NextDouble() * 40.0);
  } else if (added_.empty() || rng_.NextBounded(2) == 0) {
    const int64_t id = next_added_id_;
    next_added_id_ += writers_;
    added_.push_back(id);
    std::snprintf(buf, sizeof(buf), "event add %lld %.3f",
                  static_cast<long long>(id), rng_.NextDouble() * 40.0);
  } else {
    const size_t at = rng_.NextBounded(added_.size());
    const int64_t id = added_[at];
    added_[at] = added_.back();
    added_.pop_back();
    std::snprintf(buf, sizeof(buf), "event remove %lld",
                  static_cast<long long>(id));
  }
  request.line = buf;
  return request;
}

GeneratedRequest RequestSource::NextHeavy() {
  // The analyst's fixed rotation; the estimate's seed varies per pass so
  // the rotation is not a cache-friendly repeat of one request.
  GeneratedRequest request;
  const int64_t pass = heavy_index_ / 4;
  switch (heavy_index_++ % 4) {
    case 0: request.line = "analyze"; break;
    case 1: request.line = "certify 0.5"; break;
    case 2: request.line = "whatif visibility 1"; break;
    default:
      request.line = "estimate pw " + std::to_string(kEstimateTrials) + " " +
                     std::to_string(rng_.NextBounded(1u << 30) + pass);
      break;
  }
  return request;
}

}  // namespace e2e
