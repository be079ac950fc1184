// The view and the detector over the id-keyed store: attributes that are
// first named after the view was built, attributes the policy never names,
// and configs copied away from the store they were built from.
#include <gtest/gtest.h>

#include <string>

#include "common/macros.h"
#include "privacy/policy_dsl.h"
#include "tests/test_util.h"
#include "violation/detector.h"
#include "violation/live_monitor.h"

namespace ppdb::violation {
namespace {

using privacy::PrivacyConfig;
using privacy::PrivacyTuple;

/// The policy names `weight` and `height`; at load nobody states
/// `height`, and nobody has σ for it.
constexpr char kDsl[] =
    "purpose marketing\n"
    "purpose email implies marketing\n"
    "policy weight for marketing: visibility=house, granularity=partial, "
    "retention=week\n"
    "policy height for email: visibility=third_party, granularity=partial, "
    "retention=week\n"
    "pref 1 weight for marketing: visibility=none, granularity=none, "
    "retention=none\n"
    "pref 2 weight for marketing: visibility=world, granularity=specific, "
    "retention=year\n"
    "sensitivity 1 weight: value=2\n"
    "threshold 1 = 4\n"
    "threshold 2 = 4\n";

/// The detector's answer for one provider, the independent full path.
ProviderViolation Expected(const PrivacyConfig& config, ProviderId provider) {
  Result<ProviderViolation> pv =
      ViolationDetector(&config, WithConfigHierarchy(config, {}))
          .AnalyzeProvider(provider);
  PPDB_CHECK_OK(pv.status());
  return std::move(pv).value();
}

TEST(InterningTest, PolicyAttributeFirstStatedAfterTheViewIsBuilt) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig config, privacy::ParsePrivacyConfig(kDsl));
  ASSERT_FALSE(config.preferences.attributes().Lookup("height").has_value());
  ASSERT_OK_AND_ASSIGN(
      LivePopulationMonitor monitor,
      LivePopulationMonitor::CreateWithConfigHierarchy(std::move(config)));
  ASSERT_OK_AND_ASSIGN(const privacy::PurposeId marketing,
                       monitor.config().purposes.Lookup("marketing"));
  const double severity_before = monitor.ForProvider(2)->total_severity;

  // Stated for the ancestor purpose: the `height for email` cell sees it.
  ASSERT_OK(monitor.SetPreference(2, "height",
                                  PrivacyTuple{marketing, 3, 3, 4}));
  ASSERT_OK_AND_ASSIGN(ProviderViolation now, monitor.ForProvider(2));
  const ProviderViolation expected = Expected(monitor.config(), 2);
  EXPECT_EQ(now.total_severity, expected.total_severity);
  EXPECT_EQ(now.incidents.size(), expected.incidents.size());
  EXPECT_LT(now.total_severity, severity_before);
  EXPECT_EQ(monitor.view().last_delta_cells(), 1);
  ASSERT_OK_AND_ASSIGN(ViolationView::DriftReport drift,
                       monitor.view().CheckDrift());
  EXPECT_TRUE(drift.clean) << drift.detail;

  // A provider who joins afterwards states it too.
  ASSERT_OK(monitor.AddProvider(3, 1.0));
  ASSERT_OK(monitor.SetPreference(3, "height",
                                  PrivacyTuple{marketing, 0, 0, 0}));
  EXPECT_EQ(monitor.ForProvider(3)->total_severity,
            Expected(monitor.config(), 3).total_severity);
  ASSERT_OK_AND_ASSIGN(drift, monitor.view().CheckDrift());
  EXPECT_TRUE(drift.clean) << drift.detail;
}

TEST(InterningTest, AttributesOutsideThePolicyChangeNothing) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig plain, privacy::ParsePrivacyConfig(kDsl));
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig extra,
      privacy::ParsePrivacyConfig(
          std::string(kDsl) +
          "pref 1 shoe for marketing: visibility=world\n"
          "pref 2 shoe for email: visibility=world\n"
          "sensitivity 1 hat: value=9, visibility=9\n"
          "sensitivity 2 hat for email: value=9\n"));
  ASSERT_OK_AND_ASSIGN(ViolationReport want,
                       ViolationDetector(&plain).Analyze());
  ASSERT_OK_AND_ASSIGN(ViolationReport got,
                       ViolationDetector(&extra).Analyze());
  EXPECT_EQ(got.total_severity, want.total_severity);
  ASSERT_OK_AND_ASSIGN(ViolationView view, ViolationView::Create(&extra));
  EXPECT_EQ(view.TotalViolations(), want.total_severity);
  ASSERT_OK_AND_ASSIGN(ViolationView::DriftReport drift, view.CheckDrift());
  EXPECT_TRUE(drift.clean) << drift.detail;
}

TEST(InterningTest, ViewOverACopyIgnoresTheOriginal) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig original,
                       privacy::ParsePrivacyConfig(kDsl));
  const PrivacyConfig copy = original;
  ASSERT_OK_AND_ASSIGN(ViolationView view, ViolationView::Create(&copy));
  const double total = view.TotalViolations();
  original.preferences.ForProvider(1).Set("height", PrivacyTuple{0, 3, 3, 3});
  original.preferences.ForProvider(1).Set("weight", PrivacyTuple{0, 3, 3, 3});
  EXPECT_EQ(view.TotalViolations(), total);
  ASSERT_OK_AND_ASSIGN(ViolationView::DriftReport drift, view.CheckDrift());
  EXPECT_TRUE(drift.clean) << drift.detail;
  ASSERT_OK_AND_ASSIGN(ViolationReport report,
                       ViolationDetector(&copy).Analyze());
  EXPECT_EQ(report.total_severity, total);
}

TEST(InterningTest, SigmaOverrideWinsWhicheverRowWasSetFirst) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig override_first,
      privacy::ParsePrivacyConfig(
          "purpose marketing\n"
          "policy weight for marketing: visibility=world, "
          "granularity=specific, retention=year\n"
          "pref 1 weight for marketing: visibility=none, granularity=none, "
          "retention=none\n"));
  PrivacyConfig default_first = override_first;
  const privacy::DimensionSensitivity over{5, 1, 1, 1};
  const privacy::DimensionSensitivity fallback{2, 1, 1, 1};
  ASSERT_OK(override_first.sensitivities.SetProviderSensitivityForPurpose(
      1, "weight", 0, over));
  ASSERT_OK(override_first.sensitivities.SetProviderSensitivity(1, "weight",
                                                                fallback));
  ASSERT_OK(default_first.sensitivities.SetProviderSensitivity(1, "weight",
                                                               fallback));
  ASSERT_OK(default_first.sensitivities.SetProviderSensitivityForPurpose(
      1, "weight", 0, over));
  for (const PrivacyConfig* config : {&override_first, &default_first}) {
    // Three levels of excess on each dimension, weighted by the override.
    ASSERT_OK_AND_ASSIGN(ViolationReport report,
                         ViolationDetector(config).Analyze());
    EXPECT_EQ(report.total_severity, 9.0 * over.value);
    ASSERT_OK_AND_ASSIGN(ViolationView view, ViolationView::Create(config));
    EXPECT_EQ(view.TotalViolations(), 9.0 * over.value);
  }
}

}  // namespace
}  // namespace ppdb::violation
