#include "violation/probability.h"

#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace ppdb::violation {

namespace {

/// Trials per shard. Fixed (thread-count independent) so the mapping from
/// the caller's seed stream to per-shard sub-seeds — and therefore the hit
/// count — is reproducible at any parallelism.
constexpr int64_t kTrialGrain = 8192;

}  // namespace

Result<TrialEstimate> EstimateFromFlags(const std::vector<bool>& event,
                                        double census, int64_t trials,
                                        Rng& rng, int num_threads) {
  if (trials <= 0) {
    return Status::InvalidArgument("trial count must be positive");
  }
  if (event.empty()) {
    return Status::FailedPrecondition(
        "cannot run trials over an empty population");
  }
  TrialEstimate out;
  out.trials = trials;
  out.census = census;

  const int64_t num_shards = ThreadPool::NumShards(0, trials, kTrialGrain);
  std::vector<uint64_t> seeds(static_cast<size_t>(num_shards));
  for (uint64_t& seed : seeds) seed = rng.NextUint64();

  const int threads = ThreadPool::ResolveThreadCount(num_threads);
  out.hits = ThreadPool::Shared().ParallelReduce(
      0, trials, kTrialGrain, threads, int64_t{0},
      [&](int64_t begin, int64_t end) {
        Rng sub(seeds[static_cast<size_t>(begin / kTrialGrain)]);
        int64_t hits = 0;
        for (int64_t t = begin; t < end; ++t) {
          size_t pick = static_cast<size_t>(sub.NextBounded(event.size()));
          if (event[pick]) ++hits;
        }
        return hits;
      },
      [](int64_t& acc, int64_t partial) { acc += partial; });

  out.estimate =
      static_cast<double>(out.hits) / static_cast<double>(out.trials);
  PPDB_ASSIGN_OR_RETURN(out.ci95,
                        stats::WilsonInterval(out.hits, out.trials, 0.95));
  return out;
}

Result<TrialEstimate> EstimateViolationProbability(
    const ViolationReport& report, int64_t trials, Rng& rng,
    int num_threads) {
  std::vector<bool> event;
  event.reserve(report.providers.size());
  for (const ProviderViolation& pv : report.providers) {
    event.push_back(pv.violated);
  }
  return EstimateFromFlags(event, report.ProbabilityOfViolation(), trials,
                           rng, num_threads);
}

Result<TrialEstimate> EstimateDefaultProbability(const DefaultReport& report,
                                                 int64_t trials, Rng& rng,
                                                 int num_threads) {
  std::vector<bool> event;
  event.reserve(report.providers.size());
  for (const ProviderDefault& pd : report.providers) {
    event.push_back(pd.defaulted);
  }
  return EstimateFromFlags(event, report.ProbabilityOfDefault(), trials, rng,
                           num_threads);
}

Result<AlphaCertification> CertifyAlphaPpdb(int64_t num_violated,
                                            int64_t num_providers,
                                            double alpha, double confidence) {
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  if (num_providers <= 0) {
    return Status::FailedPrecondition(
        "cannot certify an empty population");
  }
  AlphaCertification out;
  out.alpha = alpha;
  out.num_providers = num_providers;
  out.num_violated = num_violated;
  // Def. 2's census ratio, with the operation order of
  // ViolationReport::ProbabilityOfViolation.
  out.p_violation =
      static_cast<double>(num_violated) / static_cast<double>(num_providers);
  out.certified = out.p_violation <= alpha;
  PPDB_ASSIGN_OR_RETURN(
      out.interval,
      stats::WilsonInterval(num_violated, num_providers, confidence));
  out.certified_with_margin = out.interval.hi <= alpha;
  return out;
}

Result<AlphaCertification> CertifyAlphaPpdb(const ViolationReport& report,
                                            double alpha, double confidence) {
  return CertifyAlphaPpdb(report.num_violated, report.num_providers(), alpha,
                          confidence);
}

}  // namespace ppdb::violation
