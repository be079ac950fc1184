#include "violation/live_monitor.h"

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/rng.h"
#include "tests/test_util.h"

namespace ppdb::violation {
namespace {

using privacy::Dimension;
using privacy::PrivacyTuple;
using privacy::PurposeId;

class LiveMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    purpose_ = config_.purposes.Register("ads").value();
    PPDB_CHECK_OK(config_.policy.Add("weight",
                                     PrivacyTuple{purpose_, 2, 2, 2}));
    for (int64_t i = 1; i <= 4; ++i) {
      int level = static_cast<int>(i - 1);  // 0..3: increasing tolerance.
      config_.preferences.ForProvider(i).Set(
          "weight", PrivacyTuple{purpose_, level, level, level});
      config_.thresholds[i] = 3.0;
    }
  }

  privacy::PrivacyConfig config_;
  PurposeId purpose_;
};

TEST_F(LiveMonitorTest, InitialStateMatchesBatchDetector) {
  ViolationDetector batch(&config_);
  ASSERT_OK_AND_ASSIGN(ViolationReport report, batch.Analyze());
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  EXPECT_EQ(monitor.num_providers(), report.num_providers());
  EXPECT_EQ(monitor.num_violated(), report.num_violated);
  EXPECT_DOUBLE_EQ(monitor.TotalViolations(), report.total_severity);
  EXPECT_DOUBLE_EQ(monitor.ProbabilityOfViolation(),
                   report.ProbabilityOfViolation());
}

// `purpose email implies ads`: the providers' `ads` consent covers an
// `email` policy tuple only when the monitor analyzes the config with the
// hierarchy it declares.
TEST_F(LiveMonitorTest, CreateWithConfigHierarchyHonoursDeclaredEdges) {
  PurposeId email = config_.purposes.Register("email").value();
  ASSERT_OK(config_.purpose_hierarchy.AddEdge(email, purpose_,
                                              config_.purposes));
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{email, 1, 1, 1}));
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor plain,
                       LivePopulationMonitor::Create(config_));
  EXPECT_EQ(plain.num_violated(), 4);  // implicit zero for `email`

  ASSERT_OK_AND_ASSIGN(
      LivePopulationMonitor created,
      LivePopulationMonitor::CreateWithConfigHierarchy(
          privacy::PrivacyConfig(config_)));
  // Moved, and built from a temporary: the view must read the hierarchy of
  // the config the monitor owns.
  LivePopulationMonitor monitor = std::move(created);
  ViolationDetector with(&config_, WithConfigHierarchy(config_));
  ASSERT_OK_AND_ASSIGN(ViolationReport report, with.Analyze());
  EXPECT_EQ(report.num_violated, 2);  // levels 0 and 1 fail the ads tuple
  EXPECT_EQ(monitor.num_violated(), report.num_violated);
  ASSERT_OK(
      monitor.SetPreference(4, "weight", PrivacyTuple{purpose_, 1, 1, 1}));
  EXPECT_EQ(monitor.num_violated(), 3);
}

TEST_F(LiveMonitorTest, AddAndRemoveProvider) {
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  int64_t before = monitor.num_violated();
  // A new provider with no stated preferences: implicit zeros, violated.
  ASSERT_OK(monitor.AddProvider(99, 1.0));
  EXPECT_EQ(monitor.num_providers(), 5);
  EXPECT_EQ(monitor.num_violated(), before + 1);
  ASSERT_OK_AND_ASSIGN(bool defaulted, monitor.IsDefaulted(99));
  EXPECT_TRUE(defaulted);  // Severity 6 > threshold 1.
  EXPECT_TRUE(monitor.AddProvider(99, 1.0).IsAlreadyExists());

  ASSERT_OK(monitor.RemoveProvider(99));
  EXPECT_EQ(monitor.num_providers(), 4);
  EXPECT_EQ(monitor.num_violated(), before);
  EXPECT_TRUE(monitor.RemoveProvider(99).IsNotFound());
}

TEST_F(LiveMonitorTest, SetPreferenceRefreshesProvider) {
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  // Provider 1 (preference all-0) is violated; raise their tolerance to
  // the policy level: cleared.
  ASSERT_OK_AND_ASSIGN(ProviderViolation before, monitor.ForProvider(1));
  EXPECT_TRUE(before.violated);
  ASSERT_OK(monitor.SetPreference(1, "weight",
                                  PrivacyTuple{purpose_, 2, 2, 2}));
  ASSERT_OK_AND_ASSIGN(ProviderViolation after, monitor.ForProvider(1));
  EXPECT_FALSE(after.violated);
  EXPECT_DOUBLE_EQ(after.total_severity, 0.0);
}

TEST_F(LiveMonitorTest, SetPreferenceValidatesScale) {
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  EXPECT_TRUE(monitor
                  .SetPreference(1, "weight", PrivacyTuple{purpose_, 99, 0, 0})
                  .IsOutOfRange());
}

TEST_F(LiveMonitorTest, RemovePreferenceFallsBackToImplicitZero) {
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  // Provider 3 (level 2) is clean; removing the stated preference exposes
  // them to the implicit-zero rule.
  ASSERT_OK_AND_ASSIGN(ProviderViolation before, monitor.ForProvider(3));
  EXPECT_FALSE(before.violated);
  ASSERT_OK(monitor.RemovePreference(3, "weight", purpose_));
  ASSERT_OK_AND_ASSIGN(ProviderViolation after, monitor.ForProvider(3));
  EXPECT_TRUE(after.violated);
  EXPECT_TRUE(monitor.RemovePreference(3, "weight", purpose_).IsNotFound());
}

TEST_F(LiveMonitorTest, SetThresholdFlipsOnlyDefaultBit) {
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  // Provider 1: severity 6 > 3 -> defaulted. Raise v_1 to 10: recovered.
  ASSERT_OK_AND_ASSIGN(bool before, monitor.IsDefaulted(1));
  EXPECT_TRUE(before);
  double severity = monitor.ForProvider(1)->total_severity;
  ASSERT_OK(monitor.SetThreshold(1, 10.0));
  ASSERT_OK_AND_ASSIGN(bool after, monitor.IsDefaulted(1));
  EXPECT_FALSE(after);
  EXPECT_DOUBLE_EQ(monitor.ForProvider(1)->total_severity, severity);
  EXPECT_TRUE(monitor.SetThreshold(1, -1.0).IsInvalidArgument());
  EXPECT_TRUE(monitor.SetThreshold(42, 1.0).IsNotFound());
}

TEST_F(LiveMonitorTest, SetPolicyRefreshesEveryone) {
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  ASSERT_OK_AND_ASSIGN(
      privacy::HousePolicy narrower,
      config_.policy.Widened(Dimension::kVisibility, -2, config_.scales));
  ASSERT_OK_AND_ASSIGN(
      narrower, narrower.Widened(Dimension::kGranularity, -2, config_.scales));
  ASSERT_OK_AND_ASSIGN(
      narrower, narrower.Widened(Dimension::kRetention, -2, config_.scales));
  ASSERT_OK(monitor.SetPolicy(narrower));
  EXPECT_EQ(monitor.num_violated(), 0);
  EXPECT_DOUBLE_EQ(monitor.TotalViolations(), 0.0);
}

TEST_F(LiveMonitorTest, SnapshotEqualsBatchRun) {
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(config_));
  ASSERT_OK(monitor.SetPreference(2, "weight",
                                  PrivacyTuple{purpose_, 3, 3, 3}));
  ASSERT_OK(monitor.AddProvider(50, 5.0));
  ViolationReport snapshot = monitor.Snapshot();
  ViolationDetector batch(&monitor.config());
  ASSERT_OK_AND_ASSIGN(ViolationReport batch_report, batch.Analyze());
  ASSERT_EQ(snapshot.providers.size(), batch_report.providers.size());
  EXPECT_EQ(snapshot.num_violated, batch_report.num_violated);
  EXPECT_DOUBLE_EQ(snapshot.total_severity, batch_report.total_severity);
}

// Property: after an arbitrary random event sequence the live aggregates
// equal a from-scratch batch analysis.
class LiveMonitorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LiveMonitorFuzzTest, EquivalentToBatchAfterRandomEvents) {
  privacy::PrivacyConfig config;
  PurposeId purpose = config.purposes.Register("p").value();
  PPDB_CHECK_OK(config.policy.Add("a", PrivacyTuple{purpose, 1, 1, 1}));
  PPDB_CHECK_OK(config.policy.Add("b", PrivacyTuple{purpose, 2, 0, 1}));
  ASSERT_OK_AND_ASSIGN(LivePopulationMonitor monitor,
                       LivePopulationMonitor::Create(std::move(config)));

  Rng rng(GetParam());
  std::vector<privacy::ProviderId> known;
  for (int event = 0; event < 200; ++event) {
    double roll = rng.NextDouble();
    if (roll < 0.25 || known.empty()) {
      privacy::ProviderId id = rng.NextInt(1, 1000000);
      if (monitor.AddProvider(id, rng.NextDouble() * 10).ok()) {
        known.push_back(id);
      }
    } else if (roll < 0.55) {
      privacy::ProviderId id = known[rng.NextBounded(known.size())];
      const char* attr = rng.NextBool(0.5) ? "a" : "b";
      PrivacyTuple tuple{0, static_cast<int>(rng.NextInt(0, 3)),
                         static_cast<int>(rng.NextInt(0, 3)),
                         static_cast<int>(rng.NextInt(0, 4))};
      ASSERT_OK(monitor.SetPreference(id, attr, tuple));
    } else if (roll < 0.7) {
      privacy::ProviderId id = known[rng.NextBounded(known.size())];
      ASSERT_OK(monitor.SetThreshold(id, rng.NextDouble() * 10));
    } else if (roll < 0.8) {
      size_t pick = rng.NextBounded(known.size());
      ASSERT_OK(monitor.RemoveProvider(known[pick]));
      known.erase(known.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      privacy::HousePolicy policy;
      PPDB_CHECK_OK(policy.Add(
          "a", PrivacyTuple{0, static_cast<int>(rng.NextInt(0, 3)),
                            static_cast<int>(rng.NextInt(0, 3)),
                            static_cast<int>(rng.NextInt(0, 4))}));
      if (rng.NextBool(0.5)) {
        PPDB_CHECK_OK(policy.Add(
            "b", PrivacyTuple{0, static_cast<int>(rng.NextInt(0, 3)),
                              static_cast<int>(rng.NextInt(0, 3)),
                              static_cast<int>(rng.NextInt(0, 4))}));
      }
      ASSERT_OK(monitor.SetPolicy(std::move(policy)));
    }
  }

  ViolationDetector batch(&monitor.config());
  ASSERT_OK_AND_ASSIGN(ViolationReport report, batch.Analyze());
  EXPECT_EQ(monitor.num_providers(), report.num_providers());
  EXPECT_EQ(monitor.num_violated(), report.num_violated);
  EXPECT_NEAR(monitor.TotalViolations(), report.total_severity, 1e-9);
  DefaultReport defaults = ComputeDefaults(report, monitor.config());
  EXPECT_EQ(monitor.num_defaulted(), defaults.num_defaulted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveMonitorFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace ppdb::violation
