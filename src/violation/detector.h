#ifndef PPDB_VIOLATION_DETECTOR_H_
#define PPDB_VIOLATION_DETECTOR_H_

#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "privacy/config.h"
#include "relational/table.h"
#include "violation/report.h"

namespace ppdb::violation {

/// Evaluates Def. 1 (w_i), Eq. 15 (Violation_i) and Eq. 16 (Violations) for
/// the providers of a `PrivacyConfig`.
///
/// For every provider i and every house policy tuple <a, p'> ∈ HP, the
/// detector selects the provider's preference for (a, p'[Pr]) — the stated
/// tuple, or the implicit zero tuple <i, a, pr, 0, 0, 0> when none was
/// stated (Def. 1's rule) — and accumulates conf(pref, Pol) (Eq. 14).
/// Stated preferences for (attribute, purpose) pairs the policy never
/// mentions contribute nothing, exactly as in the paper: a conflict needs a
/// comparable policy tuple.
///
/// Usage:
///
///   ViolationDetector detector(&config);
///   PPDB_ASSIGN_OR_RETURN(ViolationReport report, detector.Analyze());
///   double pw = report.ProbabilityOfViolation();
class ViolationDetector {
 public:
  struct Options {
    /// When true (the default, per Def. 1), an unstated preference for a
    /// purpose the policy mentions is treated as the zero tuple; when
    /// false, such policy tuples are simply skipped (a strictly more
    /// lenient, non-paper semantics useful for sensitivity analysis).
    bool implicit_zero_preferences = true;

    /// When set, enables the purpose-hierarchy extension (§3 assumption 4 /
    /// ref [5]): a policy tuple for purpose q is checked against the
    /// provider's most specific stated preference among q and its ancestors
    /// (consent to a broad purpose covers its specializations). Must
    /// outlive the detector.
    const privacy::PurposeHierarchy* purpose_hierarchy = nullptr;

    /// When set, analysis is restricted to attributes for which the
    /// provider actually supplies a non-null datum in this table (a
    /// provider with no weight on file cannot have their weight misused).
    /// Providers absent from the table supply no data and incur no
    /// violations. Must outlive the detector.
    const rel::Table* data_table = nullptr;

    /// When set, this policy is analyzed instead of `config->policy` — the
    /// zero-copy path for what-if sweeps and policy search, which evaluate
    /// many candidate policies against one fixed population. Must outlive
    /// the detector.
    const privacy::HousePolicy* policy_override = nullptr;

    /// Threads used by `Analyze`/`AnalyzeProviders`: 0 = one per hardware
    /// thread, 1 = the serial loop, n = at most n threads. The population
    /// is split into fixed-size provider shards whose partial reports are
    /// merged in shard order, so the report — provider order, every
    /// per-provider field, and the bitwise value of `total_severity` — is
    /// identical at every thread count.
    int num_threads = 0;

    /// Cooperative cancellation: the sharded `Analyze` loop polls this
    /// token every few hundred providers and bails out with
    /// `kDeadlineExceeded` — the error message carries partial-progress
    /// stats ("analyzed X of N providers") — instead of hogging worker
    /// threads until the census completes. The default token never
    /// expires and costs nothing to check.
    Deadline deadline;
  };

  /// `config` must outlive the detector.
  explicit ViolationDetector(const privacy::PrivacyConfig* config)
      : ViolationDetector(config, Options()) {}
  ViolationDetector(const privacy::PrivacyConfig* config, Options options);

  /// Analyzes every provider in the config's preference store and, when
  /// `Options::data_table` is set, every provider present in that table.
  Result<ViolationReport> Analyze() const;

  /// Analyzes exactly the given providers (duplicates removed, output in
  /// ascending provider order). Providers without stored preferences are
  /// analyzed with empty preference sets (everything implicit).
  ///
  /// Before the per-provider loop runs, the analyzed policy and the
  /// provider preferences are flattened: policy attributes are interned,
  /// ancestor purposes are precomputed, and each provider's stated
  /// preferences for policy attributes are packed into one contiguous
  /// sorted array, so the hot loop does binary search over flat memory
  /// instead of per-(provider, tuple) hash/linear lookups.
  ///
  /// Allocation behaviour: `ViolationReport::providers` is reserved to the
  /// provider count up front, and a provider's `incidents` vector is
  /// reserved to the policy-tuple count when its first incident is found
  /// (violation-free providers allocate nothing). Since each policy tuple
  /// can yield at most three incidents (one per ordered dimension), a
  /// violated provider performs at most a handful of geometric regrowths
  /// past that initial reservation, and typically exactly one allocation.
  Result<ViolationReport> AnalyzeProviders(
      std::vector<ProviderId> providers) const;

  /// Analyzes a single provider.
  Result<ProviderViolation> AnalyzeProvider(ProviderId provider) const;

 private:
  const privacy::PrivacyConfig* config_;
  Options options_;
};

/// `options` with `purpose_hierarchy` pointed at `config`'s own hierarchy
/// when the config declares implication edges (the DSL's
/// `purpose X implies Y`); a config without edges gets `options` as they
/// are. Every analysis of a loaded database in serve mode and in the CLI
/// is built through this, so the edges a database declares change its
/// answers. `config` must outlive whatever is built from the result.
ViolationDetector::Options WithConfigHierarchy(
    const privacy::PrivacyConfig& config,
    ViolationDetector::Options options = {});

}  // namespace ppdb::violation

#endif  // PPDB_VIOLATION_DETECTOR_H_
