#include "violation/detector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "privacy/tuple_columns.h"
#include "violation/analysis_core.h"
#include "violation/kernel/severity_kernel.h"
#include "violation/metrics.h"

namespace ppdb::violation {

namespace {

/// Providers per shard of the parallel Analyze loop: one canonical
/// reduction block (see analysis_core.h). Fixed — and in particular
/// independent of the thread count — so shard boundaries, the merge order,
/// and the association shape of the Eq. 16 sum are deterministic at any
/// parallelism and identical to the incremental view's aggregation tree.
constexpr int64_t kProviderGrain = internal::kSeverityReduceBlock;

}  // namespace

ViolationDetector::ViolationDetector(const privacy::PrivacyConfig* config,
                                     Options options)
    : config_(config), options_(options) {}

ViolationDetector::Options WithConfigHierarchy(
    const privacy::PrivacyConfig& config, ViolationDetector::Options options) {
  if (config.purpose_hierarchy.num_edges() > 0) {
    options.purpose_hierarchy = &config.purpose_hierarchy;
  }
  return options;
}

Result<ViolationReport> ViolationDetector::Analyze() const {
  std::vector<ProviderId> providers = config_->preferences.ProviderIds();
  if (options_.data_table != nullptr) {
    for (ProviderId id : options_.data_table->ProviderIds()) {
      providers.push_back(id);
    }
  }
  return AnalyzeProviders(std::move(providers));
}

Result<ViolationReport> ViolationDetector::AnalyzeProviders(
    std::vector<ProviderId> providers) const {
  const ViolationMetrics& metrics = ViolationMetrics::Get();
  const auto scan_started = std::chrono::steady_clock::now();

  std::sort(providers.begin(), providers.end());
  providers.erase(std::unique(providers.begin(), providers.end()),
                  providers.end());

  const privacy::HousePolicy& house_policy =
      options_.policy_override != nullptr ? *options_.policy_override
                                          : config_->policy;
  internal::PreparedPolicy prepared;
  privacy::PolicyColumns columns;
  privacy::SensitivityColumns unit_sens;
  {
    obs::SpanScope span("index_build");
    // Every policy attribute is resolved to its store ids here, once; the
    // shards then read the providers' id-keyed rows directly.
    prepared = internal::PreparePolicy(house_policy, options_, *config_);
    // Policy-side columns are provider-invariant: built once, streamed by
    // every shard. The all-ones σ preset serves every provider without
    // explicit sensitivity entries.
    columns = privacy::PolicyColumns::Build(house_policy.tuples(),
                                            config_->sensitivities);
    unit_sens.FillOnes(prepared.tuples.size());
    span.Note("policy_tuples", static_cast<int64_t>(prepared.tuples.size()));
  }

  const int64_t n = static_cast<int64_t>(providers.size());
  const int threads = ThreadPool::ResolveThreadCount(options_.num_threads);
  const int64_t num_shards = ThreadPool::NumShards(0, n, kProviderGrain);

  // Cooperative deadline: any shard that observes expiry sets the flag, and
  // every shard (including ones not yet started) bails at its next poll.
  std::atomic<bool> expired{false};
  std::vector<std::vector<ProviderViolation>> partials(
      static_cast<size_t>(num_shards));
  {
    obs::SpanScope span("shard_fanout");
    span.Note("providers", n);
    span.Note("shards", num_shards);
    span.Note("threads", threads);
    ThreadPool::Shared().ParallelRange(
        0, n, kProviderGrain, threads,
        [&](int64_t shard, int64_t begin, int64_t end) {
          if (expired.load(std::memory_order_relaxed)) return;
          std::vector<ProviderViolation>& out =
              partials[static_cast<size_t>(shard)];
          out.reserve(static_cast<size_t>(end - begin));
          internal::AnalysisScratch scratch;
          internal::ProviderRowsWalk rows(
              *config_, providers[static_cast<size_t>(begin)]);
          for (int64_t i = begin; i < end; ++i) {
            if ((i - begin) % internal::kDeadlineStride == 0 &&
                options_.deadline.Expired()) {
              expired.store(true, std::memory_order_relaxed);
              return;
            }
            const ProviderId provider = providers[static_cast<size_t>(i)];
            out.push_back(internal::AnalyzeOne(options_, prepared, columns,
                                               unit_sens, provider,
                                               rows.Next(provider), scratch));
          }
        });
  }

  const auto finish = [&](obs::Counter* outcome) {
    metrics.analyze_seconds->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      scan_started)
            .count());
    outcome->Add();
  };

  if (expired.load(std::memory_order_relaxed)) {
    int64_t analyzed = 0;
    for (const std::vector<ProviderViolation>& partial : partials) {
      analyzed += static_cast<int64_t>(partial.size());
    }
    finish(metrics.analyze_deadline);
    return Status::DeadlineExceeded(
        "Analyze: analyzed " + std::to_string(analyzed) + " of " +
        std::to_string(n) + " providers before the deadline expired");
  }

  ViolationReport report;
  {
    obs::SpanScope span("reduce");
    report.providers.reserve(providers.size());
    for (std::vector<ProviderViolation>& partial : partials) {
      for (ProviderViolation& pv : partial) {
        report.providers.push_back(std::move(pv));
      }
    }
    // Aggregate in the canonical blocked shape (analysis_core.h): flat
    // within each kSeverityReduceBlock-provider block of the final provider
    // order, block partials summed in block order. Independent of the
    // thread count — one shard is one block — and mirrored exactly by the
    // incremental view's aggregation tree, so full scans and maintained
    // state agree bitwise.
    report.total_severity = internal::BlockedSeveritySum(
        static_cast<int64_t>(report.providers.size()),
        [&](int64_t i) { return report.providers[i].total_severity; });
    for (const ProviderViolation& pv : report.providers) {
      if (pv.violated) ++report.num_violated;
    }
  }
  finish(metrics.analyze_ok);
  // Gauges reflect the real policy only: what-if and policy-search scans
  // run hypothetical policies via policy_override and must not overwrite
  // the live values.
  if (options_.policy_override == nullptr) {
    metrics.pw->Set(report.ProbabilityOfViolation());
    metrics.total_severity->Set(report.total_severity);
    metrics.providers->Set(static_cast<double>(n));
  }
  return report;
}

Result<ProviderViolation> ViolationDetector::AnalyzeProvider(
    ProviderId provider) const {
  const privacy::HousePolicy& house_policy =
      options_.policy_override != nullptr ? *options_.policy_override
                                          : config_->policy;
  const internal::PreparedPolicy prepared =
      internal::PreparePolicy(house_policy, options_, *config_);
  const privacy::PolicyColumns columns =
      privacy::PolicyColumns::Build(house_policy.tuples(),
                                    config_->sensitivities);
  privacy::SensitivityColumns unit_sens;
  unit_sens.FillOnes(prepared.tuples.size());

  // An absent provider entry behaves as an empty preference set: every
  // policy purpose is unstated and (under Def. 1) implicitly zero.
  internal::AnalysisScratch scratch;
  return internal::AnalyzeOne(options_, prepared, columns, unit_sens,
                              provider, internal::RowsOf(*config_, provider),
                              scratch);
}

}  // namespace ppdb::violation
