// Reproduces the paper's Section 8 worked example (Table 1, Eqs. 19-24)
// end to end: Alice, Ted and Bob's conflicts, defaults, and P(Default).
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "privacy/config.h"
#include "tests/test_util.h"
#include "violation/default_model.h"
#include "violation/detector.h"
#include "violation/probability.h"

namespace ppdb::violation {
namespace {

using privacy::DimensionSensitivity;
using privacy::OrderedScale;
using privacy::PrivacyTuple;
using privacy::PurposeId;

constexpr privacy::ProviderId kAlice = 1;
constexpr privacy::ProviderId kTed = 2;
constexpr privacy::ProviderId kBob = 3;

// The paper leaves the house tuple symbolic: HP^Weight = <Weight, pr, v, g,
// r> with preferences at offsets (v+2, g+1, r+3) etc. We instantiate
// v = 1, g = 2, r = 2 on 8-level scales so every offset stays on-scale.
class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::string> levels;
    for (int i = 0; i < 8; ++i) {
      levels.push_back(StrCat({"l", std::to_string(i)}));
    }
    config_.scales.visibility =
        OrderedScale::Create(privacy::Dimension::kVisibility, levels).value();
    config_.scales.granularity =
        OrderedScale::Create(privacy::Dimension::kGranularity, levels)
            .value();
    config_.scales.retention =
        OrderedScale::Create(privacy::Dimension::kRetention, levels).value();

    pr_ = config_.purposes.Register("pr").value();

    // House policy: Age never violates (all-zero tuple); Weight at
    // (v, g, r) = (1, 2, 2).
    ASSERT_OK(config_.policy.Add("Age", PrivacyTuple::ZeroFor(pr_)));
    ASSERT_OK(config_.policy.Add("Weight", PrivacyTuple{pr_, kV, kG, kR}));

    // Sigma^Weight = 4.
    ASSERT_OK(config_.sensitivities.SetAttributeSensitivity("Weight", 4.0));

    // Table 1. Alice: <Weight, pr, v+2, g+1, r+3>, sigma = <1,1,2,1>,
    // v_Alice = 10.
    ASSERT_OK(config_.preferences.ForProvider(kAlice).Add(
        "Weight", PrivacyTuple{pr_, kV + 2, kG + 1, kR + 3}));
    ASSERT_OK(config_.sensitivities.SetProviderSensitivity(
        kAlice, "Weight", DimensionSensitivity{1, 1, 2, 1}));
    config_.thresholds[kAlice] = 10;

    // Ted: <Weight, pr, v+2, g-1, r+2>, sigma = <3,1,5,2>, v_Ted = 50.
    ASSERT_OK(config_.preferences.ForProvider(kTed).Add(
        "Weight", PrivacyTuple{pr_, kV + 2, kG - 1, kR + 2}));
    ASSERT_OK(config_.sensitivities.SetProviderSensitivity(
        kTed, "Weight", DimensionSensitivity{3, 1, 5, 2}));
    config_.thresholds[kTed] = 50;

    // Bob: <Weight, pr, v, g-1, r-1>, sigma = <4,1,3,2>, v_Bob = 100.
    ASSERT_OK(config_.preferences.ForProvider(kBob).Add(
        "Weight", PrivacyTuple{pr_, kV, kG - 1, kR - 1}));
    ASSERT_OK(config_.sensitivities.SetProviderSensitivity(
        kBob, "Weight", DimensionSensitivity{4, 1, 3, 2}));
    config_.thresholds[kBob] = 100;

    // Everyone also states an Age preference that the zero policy cannot
    // violate ("the house's privacy tuple on Age does not violate anyone's
    // preferences").
    for (privacy::ProviderId who : {kAlice, kTed, kBob}) {
      ASSERT_OK(config_.preferences.ForProvider(who).Add(
          "Age", PrivacyTuple{pr_, 1, 1, 1}));
    }
  }

  static constexpr int kV = 1, kG = 2, kR = 2;
  privacy::PrivacyConfig config_;
  PurposeId pr_;
};

TEST_F(PaperExampleTest, Eq20ConflictValues) {
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  ASSERT_EQ(report.num_providers(), 3);

  // conf(Alice) = 0.
  const ProviderViolation* alice = report.Find(kAlice);
  ASSERT_NE(alice, nullptr);
  EXPECT_DOUBLE_EQ(alice->total_severity, 0.0);

  // conf(Ted) = 1 * 4 * 3 * 5 = 60.
  const ProviderViolation* ted = report.Find(kTed);
  ASSERT_NE(ted, nullptr);
  EXPECT_DOUBLE_EQ(ted->total_severity, 60.0);

  // conf(Bob) = 1*4*4*3 + 1*4*4*2 = 80.
  const ProviderViolation* bob = report.Find(kBob);
  ASSERT_NE(bob, nullptr);
  EXPECT_DOUBLE_EQ(bob->total_severity, 80.0);

  // Violations (Eq. 16) = 0 + 60 + 80.
  EXPECT_DOUBLE_EQ(report.total_severity, 140.0);
}

TEST_F(PaperExampleTest, Table1ViolationFlags) {
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  // w_Alice = 0, w_Ted = 1, w_Bob = 1.
  EXPECT_FALSE(report.Find(kAlice)->violated);
  EXPECT_TRUE(report.Find(kTed)->violated);
  EXPECT_TRUE(report.Find(kBob)->violated);
  EXPECT_EQ(report.num_violated, 2);
  EXPECT_DOUBLE_EQ(report.ProbabilityOfViolation(), 2.0 / 3.0);
}

TEST_F(PaperExampleTest, ViolatedDimensionsMatchProse) {
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());

  // "privacy of Ted is violated on attribute Weight along granularity".
  const ProviderViolation* ted = report.Find(kTed);
  ASSERT_EQ(ted->incidents.size(), 1u);
  EXPECT_EQ(ted->incidents[0].attribute, "Weight");
  EXPECT_EQ(ted->incidents[0].dimension, privacy::Dimension::kGranularity);
  EXPECT_EQ(ted->incidents[0].diff, 1);

  // "privacy of Bob is violated ... along both granularity and retention".
  const ProviderViolation* bob = report.Find(kBob);
  ASSERT_EQ(bob->incidents.size(), 2u);
  EXPECT_EQ(bob->incidents[0].dimension, privacy::Dimension::kGranularity);
  EXPECT_EQ(bob->incidents[1].dimension, privacy::Dimension::kRetention);
  EXPECT_EQ(bob->num_attributes_violated, 1);
}

TEST_F(PaperExampleTest, Eq21To23Defaults) {
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  DefaultReport defaults = ComputeDefaults(report, config_);

  // Violation_Alice = 0 < 10 => default 0.
  // Violation_Ted = 60 > 50 => default 1.
  // Violation_Bob = 80 < 100 => default 0.
  ASSERT_EQ(defaults.providers.size(), 3u);
  EXPECT_FALSE(defaults.providers[0].defaulted);
  EXPECT_TRUE(defaults.providers[1].defaulted);
  EXPECT_FALSE(defaults.providers[2].defaulted);
  EXPECT_EQ(defaults.DefaultedProviders(),
            (std::vector<privacy::ProviderId>{kTed}));
}

TEST_F(PaperExampleTest, Eq24ProbabilityOfDefault) {
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  DefaultReport defaults = ComputeDefaults(report, config_);
  // P(Default) = (0 + 1 + 0) / 3 = 1/3.
  EXPECT_DOUBLE_EQ(defaults.ProbabilityOfDefault(), 1.0 / 3.0);
}

TEST_F(PaperExampleTest, TrialEstimateConvergesToCensus) {
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  DefaultReport defaults = ComputeDefaults(report, config_);
  Rng rng(1234);
  ASSERT_OK_AND_ASSIGN(TrialEstimate estimate,
                       EstimateDefaultProbability(defaults, 200000, rng));
  EXPECT_DOUBLE_EQ(estimate.census, 1.0 / 3.0);
  EXPECT_NEAR(estimate.estimate, 1.0 / 3.0, 0.01);
  EXPECT_TRUE(estimate.ci95.Contains(1.0 / 3.0));
}

TEST_F(PaperExampleTest, BobsGreaterViolationDoesNotForceDefault) {
  // The paper's closing observation: Bob is violated on two dimensions yet
  // stays, while Ted, violated on one, leaves — thresholds and
  // sensitivities, not dimension counts, decide default.
  ViolationDetector detector(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, detector.Analyze());
  const ProviderViolation* ted = report.Find(kTed);
  const ProviderViolation* bob = report.Find(kBob);
  EXPECT_GT(bob->incidents.size(), ted->incidents.size());
  EXPECT_GT(bob->total_severity, ted->total_severity);
  DefaultReport defaults = ComputeDefaults(report, config_);
  EXPECT_TRUE(defaults.providers[1].defaulted);   // Ted.
  EXPECT_FALSE(defaults.providers[2].defaulted);  // Bob.
}

}  // namespace
}  // namespace ppdb::violation
