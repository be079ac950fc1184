#include "violation/detector.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ppdb::violation {
namespace {

using privacy::DimensionSensitivity;
using privacy::PrivacyTuple;
using privacy::PurposeId;

class DetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    marketing_ = config_.purposes.Register("marketing").value();
    research_ = config_.purposes.Register("research").value();
  }

  privacy::PrivacyConfig config_;
  PurposeId marketing_, research_;
};

TEST_F(DetectorTest, NoPolicyNoViolations) {
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 0, 0, 0});
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  EXPECT_EQ(report.num_providers(), 1);
  EXPECT_EQ(report.num_violated, 0);
  EXPECT_DOUBLE_EQ(report.ProbabilityOfViolation(), 0.0);
}

TEST_F(DetectorTest, EmptyPopulationIsEmptyReport) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 3, 3, 3}));
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  EXPECT_EQ(report.num_providers(), 0);
  EXPECT_DOUBLE_EQ(report.ProbabilityOfViolation(), 0.0);
}

TEST_F(DetectorTest, StrictExceedanceRequired) {
  // Policy equal to the preference on every dimension: no violation
  // (Def. 1 requires p[dim] < p'[dim], strictly).
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 2, 2, 2}));
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 2, 2, 2});
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, detector.AnalyzeProvider(1));
  EXPECT_FALSE(pv.violated);
  EXPECT_DOUBLE_EQ(pv.total_severity, 0.0);
}

TEST_F(DetectorTest, PurposeMismatchNeverViolates) {
  // Policy speaks about research; provider only states marketing... but
  // Def. 1's implicit rule kicks in for research. Disable it to isolate
  // the comp() semantics.
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{research_, 3, 3, 3}));
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 0, 0, 0});
  ViolationDetector::Options options;
  options.implicit_zero_preferences = false;
  ViolationDetector detector(&config_, options);
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, detector.AnalyzeProvider(1));
  EXPECT_FALSE(pv.violated);
}

TEST_F(DetectorTest, ImplicitZeroPreferenceTriggersViolation) {
  // Same setup, with Def. 1 semantics: the unstated research purpose is
  // treated as <i, a, research, 0, 0, 0> and the policy violates it.
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{research_, 1, 0, 0}));
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 3, 3, 3});
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, detector.AnalyzeProvider(1));
  EXPECT_TRUE(pv.violated);
  ASSERT_EQ(pv.incidents.size(), 1u);
  EXPECT_TRUE(pv.incidents[0].from_implicit_preference);
  EXPECT_EQ(pv.incidents[0].purpose, research_);
}

TEST_F(DetectorTest, StatedPreferencesNotMatchedByPolicyContributeNothing) {
  // Provider has a tight preference for research, but the policy only
  // mentions marketing (which the provider fully allows): no violation.
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  auto& prefs = config_.preferences.ForProvider(1);
  prefs.Set("weight", PrivacyTuple{marketing_, 3, 3, 4});
  prefs.Set("weight", PrivacyTuple{research_, 0, 0, 0});
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, detector.AnalyzeProvider(1));
  EXPECT_FALSE(pv.violated);
}

TEST_F(DetectorTest, MultipleAttributesAggregateBreadth) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 2, 0, 0}));
  ASSERT_OK(config_.policy.Add("age", PrivacyTuple{marketing_, 2, 0, 0}));
  ASSERT_OK(config_.policy.Add("city", PrivacyTuple{marketing_, 0, 0, 0}));
  auto& prefs = config_.preferences.ForProvider(1);
  prefs.Set("weight", PrivacyTuple{marketing_, 0, 0, 0});
  prefs.Set("age", PrivacyTuple{marketing_, 0, 0, 0});
  prefs.Set("city", PrivacyTuple{marketing_, 0, 0, 0});
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, detector.AnalyzeProvider(1));
  EXPECT_TRUE(pv.violated);
  EXPECT_EQ(pv.num_attributes_violated, 2);
  EXPECT_DOUBLE_EQ(pv.total_severity, 4.0);
  EXPECT_DOUBLE_EQ(pv.max_incident_severity, 2.0);
}

TEST_F(DetectorTest, ProviderWithoutStoredPrefsGetsImplicitZeros) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  ViolationDetector detector(&config_);
  // Provider 99 was never added to the store.
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, detector.AnalyzeProvider(99));
  EXPECT_TRUE(pv.violated);
  EXPECT_EQ(pv.incidents.size(), 3u);
}

TEST_F(DetectorTest, AnalyzeProvidersDeduplicatesAndSorts) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report,
                       detector.AnalyzeProviders({5, 2, 5, 9, 2}));
  ASSERT_EQ(report.num_providers(), 3);
  EXPECT_EQ(report.providers[0].provider, 2);
  EXPECT_EQ(report.providers[1].provider, 5);
  EXPECT_EQ(report.providers[2].provider, 9);
}

TEST_F(DetectorTest, ReportFindUsesBinarySearch) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report,
                       detector.AnalyzeProviders({1, 2, 3}));
  EXPECT_NE(report.Find(2), nullptr);
  EXPECT_EQ(report.Find(4), nullptr);
}

TEST_F(DetectorTest, PurposeHierarchyResolvesAncestorConsent) {
  PurposeId email = config_.purposes.Register("email_marketing").value();
  ASSERT_OK(config_.purpose_hierarchy.AddEdge(email, marketing_,
                                              config_.purposes));
  // Policy uses the specialized purpose; provider consented to the broad
  // one at generous levels.
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{email, 2, 2, 2}));
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 3, 3, 3});

  // Without the hierarchy: implicit zero => violated.
  ViolationDetector plain(&config_);
  ASSERT_OK_AND_ASSIGN(ProviderViolation without, plain.AnalyzeProvider(1));
  EXPECT_TRUE(without.violated);

  // With the hierarchy: the marketing consent covers email_marketing.
  ViolationDetector::Options options;
  options.purpose_hierarchy = &config_.purpose_hierarchy;
  ViolationDetector with(&config_, options);
  ASSERT_OK_AND_ASSIGN(ProviderViolation resolved, with.AnalyzeProvider(1));
  EXPECT_FALSE(resolved.violated);
}

TEST_F(DetectorTest, WithConfigHierarchyPointsAtDeclaredEdgesOnly) {
  ViolationDetector::Options options;
  options.num_threads = 3;
  EXPECT_EQ(WithConfigHierarchy(config_, options).purpose_hierarchy,
            nullptr);
  PurposeId email = config_.purposes.Register("email_marketing").value();
  ASSERT_OK(config_.purpose_hierarchy.AddEdge(email, marketing_,
                                              config_.purposes));
  ViolationDetector::Options resolved = WithConfigHierarchy(config_, options);
  EXPECT_EQ(resolved.purpose_hierarchy, &config_.purpose_hierarchy);
  EXPECT_EQ(resolved.num_threads, 3);
}

TEST_F(DetectorTest, HierarchyStillViolatesWhenAncestorConsentTight) {
  PurposeId email = config_.purposes.Register("email_marketing").value();
  ASSERT_OK(config_.purpose_hierarchy.AddEdge(email, marketing_,
                                              config_.purposes));
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{email, 3, 0, 0}));
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 1, 0, 0});
  ViolationDetector::Options options;
  options.purpose_hierarchy = &config_.purpose_hierarchy;
  ViolationDetector detector(&config_, options);
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, detector.AnalyzeProvider(1));
  EXPECT_TRUE(pv.violated);
  EXPECT_EQ(pv.incidents[0].diff, 2);
  // Inherited consent is not flagged as implicit-zero.
  EXPECT_FALSE(pv.incidents[0].from_implicit_preference);
}

TEST_F(DetectorTest, DataTableScopesAnalysisToSuppliedData) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 3, 3, 3}));
  ASSERT_OK(config_.policy.Add("age", PrivacyTuple{marketing_, 3, 3, 3}));
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 0, 0, 0});
  config_.preferences.ForProvider(2).Set("weight",
                                         PrivacyTuple{marketing_, 0, 0, 0});

  rel::Schema schema = rel::Schema::Create({{"weight", rel::DataType::kDouble,
                                             ""},
                                            {"age", rel::DataType::kInt64,
                                             ""}})
                           .value();
  ASSERT_OK_AND_ASSIGN(rel::Table table, rel::Table::Create("t", schema));
  // Provider 1 supplies weight only (age is null); provider 2 is absent.
  ASSERT_OK(table.Insert(1, {rel::Value::Double(80), rel::Value::Null()}));

  ViolationDetector::Options options;
  options.data_table = &table;
  ViolationDetector detector(&config_, options);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());

  const ProviderViolation* one = report.Find(1);
  ASSERT_NE(one, nullptr);
  EXPECT_TRUE(one->violated);
  // Only the supplied weight datum is in play: 3 incidents, not 6.
  EXPECT_EQ(one->incidents.size(), 3u);
  for (const ViolationIncident& incident : one->incidents) {
    EXPECT_EQ(incident.attribute, "weight");
  }

  // Provider 2 contributes no data: no violations.
  const ProviderViolation* two = report.Find(2);
  ASSERT_NE(two, nullptr);
  EXPECT_FALSE(two->violated);
}

TEST_F(DetectorTest, AnalyzeIncludesTableProvidersWithoutPrefs) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  rel::Schema schema =
      rel::Schema::Create({{"weight", rel::DataType::kDouble, ""}}).value();
  ASSERT_OK_AND_ASSIGN(rel::Table table, rel::Table::Create("t", schema));
  ASSERT_OK(table.Insert(7, {rel::Value::Double(70)}));
  ViolationDetector::Options options;
  options.data_table = &table;
  ViolationDetector detector(&config_, options);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  // Provider 7 is known only through the table, yet analyzed (and violated
  // via implicit zeros).
  ASSERT_NE(report.Find(7), nullptr);
  EXPECT_TRUE(report.Find(7)->violated);
}

TEST_F(DetectorTest, ReportToStringSummarizes) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report,
                       detector.AnalyzeProviders({1}));
  std::string s = report.ToString();
  EXPECT_NE(s.find("P(W)=1.0000"), std::string::npos);
  EXPECT_NE(s.find("provider 1"), std::string::npos);
}

TEST_F(DetectorTest, PolicyOverrideReadsAlternatePolicy) {
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{marketing_, 0, 0, 0}));
  config_.preferences.ForProvider(1).Set("weight",
                                         PrivacyTuple{marketing_, 0, 0, 0});
  // Config's own policy violates nothing.
  ViolationDetector plain(&config_);
  ASSERT_OK_AND_ASSIGN(ProviderViolation clean, plain.AnalyzeProvider(1));
  EXPECT_FALSE(clean.violated);
  // An override policy is analyzed instead, without touching the config.
  privacy::HousePolicy wider;
  ASSERT_OK(wider.Add("weight", PrivacyTuple{marketing_, 2, 2, 2}));
  ViolationDetector::Options options;
  options.policy_override = &wider;
  ViolationDetector overridden(&config_, options);
  ASSERT_OK_AND_ASSIGN(ProviderViolation pv, overridden.AnalyzeProvider(1));
  EXPECT_TRUE(pv.violated);
  EXPECT_DOUBLE_EQ(pv.total_severity, 6.0);
  EXPECT_EQ(config_.policy.Find("weight", marketing_)->visibility, 0);
}

}  // namespace
}  // namespace ppdb::violation
