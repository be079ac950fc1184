#include "violation/incremental.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "relational/table.h"
#include "tests/test_util.h"
#include "violation/default_model.h"
#include "violation/detector.h"
#include "violation/kernel/severity_kernel.h"
#include "violation/metrics.h"
#include "violation/utility.h"

namespace ppdb::violation {
namespace {

using privacy::PrivacyTuple;
using privacy::ProviderId;
using privacy::PurposeId;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// The drift-oracle contract, asserted from the outside: every maintained
/// quantity must equal a from-scratch batch analysis *bitwise* — not
/// within a tolerance.
void ExpectBitwiseEqualToFull(const ViolationView& view,
                              const privacy::PrivacyConfig& config,
                              ViolationDetector::Options options,
                              const std::string& context) {
  ViolationDetector detector(&config, options);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  DefaultReport defaults = ComputeDefaults(report, config);
  ASSERT_EQ(view.num_providers(), report.num_providers()) << context;
  EXPECT_EQ(view.num_violated(), report.num_violated) << context;
  EXPECT_EQ(view.num_defaulted(), defaults.num_defaulted) << context;
  EXPECT_EQ(Bits(view.TotalViolations()), Bits(report.total_severity))
      << context << ": total " << view.TotalViolations() << " vs "
      << report.total_severity;
  for (size_t i = 0; i < report.providers.size(); ++i) {
    const ProviderViolation& expected = report.providers[i];
    ASSERT_OK_AND_ASSIGN(ViolationView::ProviderSummary summary,
                         view.Summarize(expected.provider));
    EXPECT_EQ(Bits(summary.severity), Bits(expected.total_severity))
        << context << ": provider " << expected.provider;
    EXPECT_EQ(summary.violated, expected.violated)
        << context << ": provider " << expected.provider;
    EXPECT_EQ(summary.incidents,
              static_cast<int64_t>(expected.incidents.size()))
        << context << ": provider " << expected.provider;
    EXPECT_EQ(summary.defaulted, defaults.providers[i].defaulted)
        << context << ": provider " << expected.provider;
  }
}

class ViolationViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ads_ = config_.purposes.Register("ads").value();
    research_ = config_.purposes.Register("research").value();
    PPDB_CHECK_OK(config_.policy.Add("weight", PrivacyTuple{ads_, 2, 2, 2}));
    PPDB_CHECK_OK(config_.policy.Add("weight",
                                     PrivacyTuple{research_, 1, 1, 1}));
    PPDB_CHECK_OK(config_.policy.Add("age", PrivacyTuple{ads_, 3, 1, 2}));
    for (int64_t i = 1; i <= 6; ++i) {
      int level = static_cast<int>(i % 4);
      config_.preferences.ForProvider(i).Set(
          "weight", PrivacyTuple{ads_, level, level, level});
      config_.thresholds[i] = 4.0;
    }
  }

  privacy::PrivacyConfig config_;
  PurposeId ads_;
  PurposeId research_;
};

TEST_F(ViolationViewTest, CreateMatchesFullAnalysisBitwise) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  ExpectBitwiseEqualToFull(view, config_, {}, "after create");
  // Construction is not an applied event.
  EXPECT_EQ(view.delta_events(), 0);
  EXPECT_EQ(view.rebuild_events(), 0);
  EXPECT_EQ(view.policy_tuples(), 3);
  EXPECT_EQ(view.total_cells(), 6 * 3);
}

TEST_F(ViolationViewTest, PreferenceEventRecomputesOnlyMatchingCells) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  // "weight" for ads matches exactly one of the three policy cells.
  config_.preferences.ForProvider(2).Set("weight",
                                         PrivacyTuple{ads_, 3, 3, 3});
  ASSERT_OK(view.OnPreferenceChanged(2, "weight", ads_));
  EXPECT_EQ(view.last_delta_cells(), 1);
  EXPECT_EQ(view.delta_events(), 1);
  EXPECT_EQ(view.rebuild_events(), 0);
  ExpectBitwiseEqualToFull(view, config_, {}, "after pref event");

  // An attribute the policy does not mention touches nothing.
  config_.preferences.ForProvider(2).Set("shoe_size",
                                         PrivacyTuple{ads_, 1, 1, 1});
  ASSERT_OK(view.OnPreferenceChanged(2, "shoe_size", ads_));
  EXPECT_EQ(view.last_delta_cells(), 0);
  ExpectBitwiseEqualToFull(view, config_, {}, "after unrelated pref");
}

TEST_F(ViolationViewTest, ThresholdEventTouchesNoCells) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  int64_t defaulted_before = view.num_defaulted();
  config_.thresholds[1] = 0.0;  // Severity now exceeds v_1.
  ASSERT_OK(view.OnThresholdChanged(1));
  EXPECT_EQ(view.last_delta_cells(), 0);
  EXPECT_GE(view.num_defaulted(), defaulted_before);
  ExpectBitwiseEqualToFull(view, config_, {}, "after threshold event");
}

TEST_F(ViolationViewTest, MembershipEventsInsertAndEraseRows) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  config_.preferences.ForProvider(42);  // Empty entry: implicit zeros.
  config_.thresholds[42] = 1.0;
  ASSERT_OK(view.OnProviderAdded(42));
  EXPECT_TRUE(view.Contains(42));
  ExpectBitwiseEqualToFull(view, config_, {}, "after add");

  ASSERT_OK(config_.preferences.Erase(42));
  config_.thresholds.erase(42);
  ASSERT_OK(view.OnProviderRemoved(42));
  EXPECT_FALSE(view.Contains(42));
  ExpectBitwiseEqualToFull(view, config_, {}, "after remove");
  EXPECT_TRUE(view.Summarize(42).status().IsNotFound());
}

TEST_F(ViolationViewTest, SameShapePolicyChangeStaysOnDeltaPath) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  // Move one cell's levels; shape (attribute, purpose sequence) unchanged.
  privacy::HousePolicy moved;
  ASSERT_OK(moved.Add("weight", PrivacyTuple{ads_, 0, 0, 0}));  // changed
  ASSERT_OK(moved.Add("weight", PrivacyTuple{research_, 1, 1, 1}));
  ASSERT_OK(moved.Add("age", PrivacyTuple{ads_, 3, 1, 2}));
  config_.policy = std::move(moved);
  ASSERT_OK(view.OnPolicyChanged());
  EXPECT_EQ(view.rebuild_events(), 0);
  // One changed column across six providers.
  EXPECT_EQ(view.last_delta_cells(), 6);
  ExpectBitwiseEqualToFull(view, config_, {}, "after level-only policy");
}

TEST_F(ViolationViewTest, ShapeChangingPolicyFallsBackToRebuild) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  ASSERT_OK(config_.policy.Add("height", PrivacyTuple{ads_, 1, 1, 1}));
  ASSERT_OK(view.OnPolicyChanged());
  EXPECT_EQ(view.rebuild_events(), 1);
  EXPECT_EQ(view.policy_tuples(), 4);
  ExpectBitwiseEqualToFull(view, config_, {}, "after shape change");
}

TEST_F(ViolationViewTest, DatumEventsTrackTableMembershipAndCells) {
  rel::Schema schema =
      rel::Schema::Create({{"weight", rel::DataType::kDouble, ""}}).value();
  ASSERT_OK_AND_ASSIGN(rel::Table table, rel::Table::Create("t", schema));
  ASSERT_OK(table.Insert(1, {rel::Value::Double(80)}));
  ViolationDetector::Options options;
  options.data_table = &table;
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_, options));
  ExpectBitwiseEqualToFull(view, config_, options, "table at create");

  // A provider known only through the table joins the population.
  ASSERT_OK(table.Insert(77, {rel::Value::Double(70)}));
  ASSERT_OK(view.OnDatumChanged(77, "weight"));
  EXPECT_TRUE(view.Contains(77));
  ExpectBitwiseEqualToFull(view, config_, options, "after table insert");

  // Dropping the datum removes the table-only provider again.
  ASSERT_OK(table.EraseProvider(77));
  ASSERT_OK(view.OnDatumChanged(77, "weight"));
  EXPECT_FALSE(view.Contains(77));
  ExpectBitwiseEqualToFull(view, config_, options, "after table erase");

  // For a preference-store provider the datum only flips the data-scoping
  // mask of that attribute's cells.
  ASSERT_OK(table.EraseProvider(1));
  ASSERT_OK(view.OnDatumChanged(1, "weight"));
  EXPECT_TRUE(view.Contains(1));
  ExpectBitwiseEqualToFull(view, config_, options, "after datum drop");
}

TEST_F(ViolationViewTest, ExpansionCheckMatchesUtilityModel) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  ASSERT_OK_AND_ASSIGN(ViolationView::ExpansionCheck check,
                       view.CheckExpansion(10.0, 2.0));
  EXPECT_EQ(check.n_current, view.num_providers());
  EXPECT_EQ(check.n_defaulted, view.num_defaulted());
  EXPECT_EQ(check.n_future, check.n_current - check.n_defaulted);

  ASSERT_OK_AND_ASSIGN(UtilityModel model, UtilityModel::Create(10.0));
  EXPECT_DOUBLE_EQ(check.utility_current,
                   model.CurrentUtility(check.n_current));
  EXPECT_DOUBLE_EQ(check.utility_future,
                   model.FutureUtility(check.n_future, 2.0));
  EXPECT_EQ(check.justified,
            model.ExpansionJustified(check.n_current, check.n_future, 2.0));
  if (check.has_break_even) {
    ASSERT_OK_AND_ASSIGN(
        double t, model.BreakEvenExtraUtility(check.n_current,
                                              check.n_future));
    EXPECT_DOUBLE_EQ(check.break_even_extra_utility, t);
  }
  // The Eq. 31 algebra divides by U.
  EXPECT_TRUE(view.CheckExpansion(0.0, 1.0).status().IsInvalidArgument());
  EXPECT_TRUE(view.CheckExpansion(-1.0, 1.0).status().IsInvalidArgument());
}

TEST_F(ViolationViewTest, DriftOracleCatchesOutOfBandMutation) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  ASSERT_OK_AND_ASSIGN(ViolationView::DriftReport clean, view.CheckDrift());
  EXPECT_TRUE(clean.clean) << clean.detail;
  EXPECT_EQ(view.drift_checks_clean(), 1);

  // Mutate the config behind the view's back: the maintained state is now
  // stale and the oracle must say so.
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{ads_, 3, 3, 3});
  ASSERT_OK_AND_ASSIGN(ViolationView::DriftReport drifted,
                       view.CheckDrift());
  EXPECT_FALSE(drifted.clean);
  EXPECT_GE(drifted.mismatched_providers, 1);
  EXPECT_FALSE(drifted.detail.empty());
  EXPECT_EQ(view.drift_checks_failed(), 1);

  // RebuildAll is the documented recovery action.
  ASSERT_OK(view.RebuildAll());
  ASSERT_OK_AND_ASSIGN(ViolationView::DriftReport recovered,
                       view.CheckDrift());
  EXPECT_TRUE(recovered.clean) << recovered.detail;
  ExpectBitwiseEqualToFull(view, config_, {}, "after rebuild recovery");
}

// The population what-if behind the served `whatif`: exact after-side
// counts, a detector-free delta path, and the request deadline polled
// inside the provider loop.
TEST_F(ViolationViewTest, PolicyChangeAssessmentCountsExactlyAndHonoursDeadline) {
  ASSERT_OK_AND_ASSIGN(ViolationView view, ViolationView::Create(&config_));
  // Same (attribute, purpose) sequence as the fixture's policy, two
  // visibility levels raised.
  privacy::HousePolicy wider;
  ASSERT_OK(wider.Add("weight", PrivacyTuple{ads_, 3, 2, 2}));
  ASSERT_OK(wider.Add("weight", PrivacyTuple{research_, 2, 1, 1}));
  ASSERT_OK(wider.Add("age", PrivacyTuple{ads_, 3, 1, 2}));

  const obs::Counter* scans_ok = ViolationMetrics::Get().analyze_ok;
  const int64_t scans_before = scans_ok->Value();
  ASSERT_OK_AND_ASSIGN(ChangeImpact impact, view.AssessPolicyChange(wider));
  EXPECT_EQ(scans_ok->Value(), scans_before)
      << "a same-shape assessment must not run the detector";

  ViolationDetector::Options after_options;
  after_options.policy_override = &wider;
  ViolationDetector after(&config_, after_options);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, after.Analyze());
  const DefaultReport defaults = ComputeDefaults(report, config_);
  EXPECT_EQ(impact.num_violated_after, report.num_violated);
  EXPECT_EQ(impact.num_defaulted_after, defaults.num_defaulted);
  EXPECT_EQ(Bits(impact.p_violation_after),
            Bits(report.ProbabilityOfViolation()));
  EXPECT_EQ(Bits(impact.p_default_after),
            Bits(defaults.ProbabilityOfDefault()));
  EXPECT_EQ(Bits(impact.total_violations_after), Bits(report.total_severity));

  const Deadline expired = Deadline::After(std::chrono::milliseconds(0));
  Result<ChangeImpact> late = view.AssessPolicyChange(wider, expired);
  ASSERT_TRUE(late.status().IsDeadlineExceeded()) << late.status().ToString();
  EXPECT_NE(late.status().message().find("assessed 0 of 6 providers"),
            std::string::npos)
      << late.status().message();
  // An unchanged policy needs no provider loop, so there is nothing to
  // poll.
  EXPECT_OK(view.AssessPolicyChange(config_.policy, expired));
}

// ppdb_view_delta_cells counts cells, so it carries a count ladder (0, then
// powers of two to 2^20), not the seconds ladder.
TEST_F(ViolationViewTest, DeltaCellsHistogramScrapesOnACountLadder) {
  ASSERT_OK_AND_ASSIGN(ViolationView view, ViolationView::Create(&config_));
  auto bucket = [](const std::string& scrape, const std::string& le) {
    const std::string key = "ppdb_view_delta_cells_bucket{le=\"" + le + "\"} ";
    const size_t at = scrape.find(key);
    if (at == std::string::npos) return int64_t{-1};
    return static_cast<int64_t>(
        std::stoll(scrape.substr(at + key.size())));
  };
  const std::string before =
      obs::MetricsRegistry::Default().RenderPrometheus();
  for (const char* le : {"0", "1", "2", "4", "16", "1024", "1048576"}) {
    EXPECT_GE(bucket(before, le), 0) << "missing bucket le=" << le;
  }
  EXPECT_EQ(bucket(before, "0.0001"), -1);
  EXPECT_EQ(bucket(before, "10"), -1);

  // A join recomputes the provider's |HP| = 3 cells: le="4" and above move
  // by one, le="2" does not.
  config_.preferences.ForProvider(99);
  ASSERT_OK(view.OnProviderAdded(99));
  // A threshold move recomputes none: every bucket moves by one.
  config_.thresholds[99] = 1.0;
  ASSERT_OK(view.OnThresholdChanged(99));
  const std::string after = obs::MetricsRegistry::Default().RenderPrometheus();
  EXPECT_EQ(bucket(after, "0") - bucket(before, "0"), 1);
  EXPECT_EQ(bucket(after, "2") - bucket(before, "2"), 1);
  EXPECT_EQ(bucket(after, "4") - bucket(before, "4"), 2);
  EXPECT_EQ(bucket(after, "+Inf") - bucket(before, "+Inf"), 2);
}

TEST_F(ViolationViewTest, MaterializeProviderMatchesBatchIncidents) {
  ASSERT_OK_AND_ASSIGN(ViolationView view,
                       ViolationView::Create(&config_));
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  for (const ProviderViolation& expected : report.providers) {
    ASSERT_OK_AND_ASSIGN(ProviderViolation got,
                         view.MaterializeProvider(expected.provider));
    EXPECT_EQ(got.violated, expected.violated);
    EXPECT_EQ(Bits(got.total_severity), Bits(expected.total_severity));
    ASSERT_EQ(got.incidents.size(), expected.incidents.size());
    for (size_t i = 0; i < got.incidents.size(); ++i) {
      EXPECT_EQ(got.incidents[i].attribute, expected.incidents[i].attribute);
      EXPECT_EQ(Bits(got.incidents[i].weighted_severity),
                Bits(expected.incidents[i].weighted_severity));
    }
  }
  EXPECT_TRUE(view.MaterializeProvider(999).status().IsNotFound());
}

// --- the change-impact O(Δ) regression ----------------------------------

// A single-provider what-if must not scale with house size: the view
// answers it from the provider's row, recomputing only the cells whose
// policy levels moved.
TEST(ViolationViewImpactTest, ProviderWhatIfIndependentOfHouseSize) {
  auto build = [](int64_t n) {
    privacy::PrivacyConfig config;
    PurposeId p = config.purposes.Register("p").value();
    PPDB_CHECK_OK(config.policy.Add("a", PrivacyTuple{p, 1, 1, 1}));
    PPDB_CHECK_OK(config.policy.Add("b", PrivacyTuple{p, 2, 2, 2}));
    PPDB_CHECK_OK(config.policy.Add("c", PrivacyTuple{p, 0, 1, 0}));
    for (int64_t i = 1; i <= n; ++i) {
      config.preferences.ForProvider(i).Set(
          "a", PrivacyTuple{p, static_cast<int>(i % 3),
                            static_cast<int>(i % 3),
                            static_cast<int>(i % 3)});
      config.thresholds[i] = 2.0;
    }
    return config;
  };

  int64_t cells_small = 0;
  int64_t cells_large = 0;
  for (int64_t n : {8, 600}) {
    privacy::PrivacyConfig config = build(n);
    ASSERT_OK_AND_ASSIGN(ViolationView view,
                         ViolationView::Create(&config));
    PurposeId p = config.purposes.Lookup("p").value();
    privacy::HousePolicy wider;
    ASSERT_OK(wider.Add("a", PrivacyTuple{p, 2, 2, 2}));  // moved column
    ASSERT_OK(wider.Add("b", PrivacyTuple{p, 2, 2, 2}));
    ASSERT_OK(wider.Add("c", PrivacyTuple{p, 0, 1, 0}));
    ASSERT_OK_AND_ASSIGN(ViolationView::ProviderImpact impact,
                         view.AssessPolicyChangeForProvider(5, wider));
    EXPECT_EQ(impact.provider, 5);
    // One of three policy cells moved.
    (n == 8 ? cells_small : cells_large) = impact.cells_recomputed;

    // The answer itself agrees with a full before/after analysis.
    ViolationDetector before(&config);
    ASSERT_OK_AND_ASSIGN(ViolationReport before_report, before.Analyze());
    ViolationDetector::Options after_options;
    after_options.policy_override = &wider;
    ViolationDetector after(&config, after_options);
    ASSERT_OK_AND_ASSIGN(ViolationReport after_report, after.Analyze());
    EXPECT_EQ(Bits(impact.severity_before),
              Bits(before_report.Find(5)->total_severity));
    EXPECT_EQ(Bits(impact.severity_after),
              Bits(after_report.Find(5)->total_severity));
    EXPECT_EQ(impact.violated_before, before_report.Find(5)->violated);
    EXPECT_EQ(impact.violated_after, after_report.Find(5)->violated);
  }
  EXPECT_EQ(cells_small, 1);
  // The regression this guards: before the view, a single-provider
  // what-if recomputed the whole house.
  EXPECT_EQ(cells_large, cells_small);
}

// --- randomized equivalence across dispatch targets × thread counts -----

class ViolationViewFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// N random preference / threshold / membership / policy events through
// the delta path; after every event the maintained view must be
// bitwise-identical to a full re-analysis — at every compiled dispatch
// target and across oracle thread counts.
TEST_P(ViolationViewFuzzTest, BitwiseEquivalentToFullAfterEveryEvent) {
  for (kernel::Target target : kernel::CompiledTargets()) {
    if (!kernel::TargetSupported(target)) continue;
    ASSERT_OK(kernel::ForceTarget(target));

    privacy::PrivacyConfig config;
    PurposeId p = config.purposes.Register("p").value();
    PPDB_CHECK_OK(config.policy.Add("a", PrivacyTuple{p, 1, 1, 1}));
    PPDB_CHECK_OK(config.policy.Add("b", PrivacyTuple{p, 2, 0, 1}));
    PPDB_CHECK_OK(config.policy.Add("c", PrivacyTuple{p, 0, 2, 2}));
    ASSERT_OK_AND_ASSIGN(ViolationView view, ViolationView::Create(&config));

    Rng rng(GetParam() * 7919 + static_cast<uint64_t>(target));
    std::vector<ProviderId> known;
    for (int event = 0; event < 60; ++event) {
      double roll = rng.NextDouble();
      if (roll < 0.3 || known.empty()) {
        ProviderId id = rng.NextInt(1, 100000);
        if (!config.preferences.Contains(id)) {
          config.preferences.ForProvider(id);
          config.thresholds[id] = rng.NextDouble() * 8;
          ASSERT_OK(view.OnProviderAdded(id));
          known.push_back(id);
        }
      } else if (roll < 0.6) {
        ProviderId id = known[rng.NextBounded(known.size())];
        const char* attr = rng.NextBool(0.5) ? "a" : "b";
        PrivacyTuple tuple{p, static_cast<int>(rng.NextInt(0, 3)),
                           static_cast<int>(rng.NextInt(0, 3)),
                           static_cast<int>(rng.NextInt(0, 3))};
        config.preferences.ForProvider(id).Set(attr, tuple);
        ASSERT_OK(view.OnPreferenceChanged(id, attr, p));
      } else if (roll < 0.75) {
        ProviderId id = known[rng.NextBounded(known.size())];
        config.thresholds[id] = rng.NextDouble() * 8;
        ASSERT_OK(view.OnThresholdChanged(id));
      } else if (roll < 0.85) {
        size_t pick = rng.NextBounded(known.size());
        ASSERT_OK(config.preferences.Erase(known[pick]));
        config.thresholds.erase(known[pick]);
        ASSERT_OK(view.OnProviderRemoved(known[pick]));
        known.erase(known.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Level-only move of column "a": stays on the O(N·Δ) policy path
        // (same shape — the "b" and "c" cells are restated unchanged).
        privacy::HousePolicy moved;
        ASSERT_OK(moved.Add(
            "a", PrivacyTuple{p, static_cast<int>(rng.NextInt(0, 3)),
                              static_cast<int>(rng.NextInt(0, 3)),
                              static_cast<int>(rng.NextInt(0, 3))}));
        ASSERT_OK(moved.Add("b", PrivacyTuple{p, 2, 0, 1}));
        ASSERT_OK(moved.Add("c", PrivacyTuple{p, 0, 2, 2}));
        config.policy = std::move(moved);
        ASSERT_OK(view.OnPolicyChanged());
      }

      // The oracle at two thread counts: the blocked reduction makes the
      // full analysis thread-count invariant, so both must match the view.
      for (int threads : {1, 4}) {
        ViolationDetector::Options options;
        options.num_threads = threads;
        ExpectBitwiseEqualToFull(
            view, config, options,
            "target=" + std::string(kernel::TargetName(target)) +
                " threads=" + std::to_string(threads) +
                " event=" + std::to_string(event));
        if (::testing::Test::HasFailure()) break;
      }
      if (::testing::Test::HasFailure()) break;
    }
    ASSERT_OK_AND_ASSIGN(ViolationView::DriftReport drift,
                         view.CheckDrift());
    EXPECT_TRUE(drift.clean) << drift.detail;
    kernel::ClearForcedTarget();
    if (::testing::Test::HasFailure()) break;
  }
  kernel::ClearForcedTarget();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViolationViewFuzzTest,
                         ::testing::Range<uint64_t>(0, 6));

}  // namespace
}  // namespace ppdb::violation
