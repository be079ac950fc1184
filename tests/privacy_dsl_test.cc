#include "privacy/policy_dsl.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "tests/test_util.h"

namespace ppdb::privacy {
namespace {

constexpr char kFullConfig[] = R"(
# The paper's Section 8 example, as DSL.
scale visibility: none, house, third_party, world
scale granularity: none, existential, partial, specific
scale retention: none, week, month, year, indefinite
magnitudes retention: 0, 7, 30, 365, 36500

purpose marketing
purpose email_marketing implies marketing

policy weight for marketing: visibility=house, granularity=specific, retention=year
policy age for marketing: visibility=house, granularity=partial, retention=month

pref 1 weight for marketing: visibility=world, granularity=specific, retention=indefinite
pref 2 weight for marketing: visibility=world, granularity=partial, retention=indefinite

attr_sensitivity weight = 4
sensitivity 1 weight: value=1, visibility=1, granularity=2, retention=1
sensitivity 2 weight: value=3, visibility=1, granularity=5, retention=2
threshold 1 = 10
threshold 2 = 50
fallback_threshold = 25
)";

TEST(PolicyDslTest, ParsesFullConfig) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig config, ParsePrivacyConfig(kFullConfig));
  EXPECT_EQ(config.purposes.num_purposes(), 2);
  EXPECT_EQ(config.policy.size(), 2);
  EXPECT_EQ(config.preferences.num_providers(), 2);
  EXPECT_DOUBLE_EQ(config.fallback_threshold, 25.0);
  EXPECT_DOUBLE_EQ(config.ThresholdFor(1), 10.0);
  EXPECT_DOUBLE_EQ(config.ThresholdFor(99), 25.0);

  ASSERT_OK_AND_ASSIGN(PurposeId marketing,
                       config.purposes.Lookup("marketing"));
  ASSERT_OK_AND_ASSIGN(PrivacyTuple weight_policy,
                       config.policy.Find("weight", marketing));
  EXPECT_EQ(weight_policy.visibility, 1);   // house
  EXPECT_EQ(weight_policy.granularity, 3);  // specific
  EXPECT_EQ(weight_policy.retention, 3);    // year

  EXPECT_DOUBLE_EQ(config.sensitivities.AttributeSensitivity("weight",
                                                             marketing),
                   4.0);
  EXPECT_DOUBLE_EQ(
      config.sensitivities.ProviderSensitivity(2, "weight", marketing)
          .granularity,
      5.0);

  // Hierarchy edge parsed.
  ASSERT_OK_AND_ASSIGN(PurposeId email,
                       config.purposes.Lookup("email_marketing"));
  EXPECT_TRUE(config.purpose_hierarchy.Implies(email, marketing));
}

TEST(PolicyDslTest, DefaultScalesWhenUndeclared) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig config,
      ParsePrivacyConfig(
          "policy weight for marketing: visibility=house, "
          "granularity=partial, retention=week\n"));
  EXPECT_EQ(config.scales.visibility.num_levels(), 4);
  EXPECT_EQ(config.policy.size(), 1);
}

TEST(PolicyDslTest, NumericLevelsAccepted) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig config,
      ParsePrivacyConfig("policy w for p: visibility=2, granularity=3, "
                         "retention=0\n"));
  ASSERT_OK_AND_ASSIGN(PurposeId p, config.purposes.Lookup("p"));
  EXPECT_EQ(config.policy.Find("w", p)->visibility, 2);
}

TEST(PolicyDslTest, UnspecifiedDimensionsDefaultToZero) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig config,
                       ParsePrivacyConfig("policy w for p: visibility=1\n"));
  ASSERT_OK_AND_ASSIGN(PurposeId p, config.purposes.Lookup("p"));
  PrivacyTuple t = config.policy.Find("w", p).value();
  EXPECT_EQ(t.granularity, 0);
  EXPECT_EQ(t.retention, 0);
}

TEST(PolicyDslTest, ContinuationLines) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig config,
      ParsePrivacyConfig("policy w for p: visibility=1, \\\n"
                         "  granularity=2\n"));
  ASSERT_OK_AND_ASSIGN(PurposeId p, config.purposes.Lookup("p"));
  EXPECT_EQ(config.policy.Find("w", p)->granularity, 2);
}

TEST(PolicyDslTest, CommentsAndBlankLinesIgnored) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig config,
                       ParsePrivacyConfig("# just a comment\n\n  \n"
                                          "purpose research # inline\n"));
  EXPECT_TRUE(config.purposes.Contains("research"));
}

TEST(PolicyDslTest, ErrorsCarryLineNumbers) {
  Status s = ParsePrivacyConfig("purpose ok\nbogus statement here\n")
                 .status();
  ASSERT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(PolicyDslTest, UnknownLevelNameErrors) {
  EXPECT_TRUE(ParsePrivacyConfig("policy w for p: visibility=everyone\n")
                  .status()
                  .IsParseError());
}

TEST(PolicyDslTest, LevelIndexOutOfRangeErrors) {
  EXPECT_TRUE(ParsePrivacyConfig("policy w for p: visibility=9\n")
                  .status()
                  .IsParseError());
}

TEST(PolicyDslTest, ScaleAfterUseErrors) {
  Status s = ParsePrivacyConfig(
                 "policy w for p: visibility=1\n"
                 "scale visibility: a, b\n")
                 .status();
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("precede"), std::string::npos);
}

TEST(PolicyDslTest, MagnitudeCountMustMatchLevels) {
  EXPECT_TRUE(ParsePrivacyConfig("magnitudes retention: 1, 2\n")
                  .status()
                  .IsParseError());
}

TEST(PolicyDslTest, DuplicatePolicyTupleErrors) {
  EXPECT_TRUE(ParsePrivacyConfig("policy w for p: visibility=1\n"
                                 "policy w for p: visibility=2\n")
                  .status()
                  .IsAlreadyExists());
}

TEST(PolicyDslTest, NegativeThresholdErrors) {
  EXPECT_TRUE(
      ParsePrivacyConfig("threshold 1 = -5\n").status().IsParseError());
}

TEST(PolicyDslTest, MalformedKvListErrors) {
  EXPECT_TRUE(ParsePrivacyConfig("policy w for p: visibility\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParsePrivacyConfig("policy w for p: =1\n")
                  .status()
                  .IsParseError());
}

TEST(PolicyDslTest, PurposeCycleErrors) {
  EXPECT_TRUE(ParsePrivacyConfig("purpose a implies b\n"
                                 "purpose b implies a\n")
                  .status()
                  .IsInvalidArgument());
}

TEST(PolicyDslTest, SensitivityDefaultsUnspecifiedKeysToOne) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig config,
      ParsePrivacyConfig("purpose p\nsensitivity 1 w: granularity=5\n"));
  ASSERT_OK_AND_ASSIGN(PurposeId p, config.purposes.Lookup("p"));
  DimensionSensitivity s =
      config.sensitivities.ProviderSensitivity(1, "w", p);
  EXPECT_DOUBLE_EQ(s.value, 1.0);
  EXPECT_DOUBLE_EQ(s.visibility, 1.0);
  EXPECT_DOUBLE_EQ(s.granularity, 5.0);
}

TEST(PolicyDslTest, PurposeScopedSensitivity) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig config,
      ParsePrivacyConfig("purpose p\npurpose q\n"
                         "attr_sensitivity w for p = 7\n"
                         "sensitivity 1 w for q: value=3\n"));
  ASSERT_OK_AND_ASSIGN(PurposeId p, config.purposes.Lookup("p"));
  ASSERT_OK_AND_ASSIGN(PurposeId q, config.purposes.Lookup("q"));
  EXPECT_DOUBLE_EQ(config.sensitivities.AttributeSensitivity("w", p), 7.0);
  EXPECT_DOUBLE_EQ(config.sensitivities.AttributeSensitivity("w", q), 1.0);
  EXPECT_DOUBLE_EQ(
      config.sensitivities.ProviderSensitivity(1, "w", q).value, 3.0);
  EXPECT_DOUBLE_EQ(
      config.sensitivities.ProviderSensitivity(1, "w", p).value, 1.0);
}

TEST(PolicyDslTest, RoundTripThroughSerializer) {
  ASSERT_OK_AND_ASSIGN(PrivacyConfig original,
                       ParsePrivacyConfig(kFullConfig));
  std::string serialized = SerializePrivacyConfig(original);
  ASSERT_OK_AND_ASSIGN(PrivacyConfig reparsed,
                       ParsePrivacyConfig(serialized));

  EXPECT_EQ(reparsed.purposes.names(), original.purposes.names());
  EXPECT_EQ(reparsed.policy.tuples(), original.policy.tuples());
  EXPECT_EQ(reparsed.preferences.ProviderIds(),
            original.preferences.ProviderIds());
  ASSERT_OK_AND_ASSIGN(PurposeId marketing,
                       reparsed.purposes.Lookup("marketing"));
  EXPECT_EQ(reparsed.preferences.Find(2).value()->Find("weight", marketing)
                .value(),
            original.preferences.Find(2).value()->Find("weight", marketing)
                .value());
  EXPECT_DOUBLE_EQ(
      reparsed.sensitivities.AttributeSensitivity("weight", marketing), 4.0);
  EXPECT_DOUBLE_EQ(
      reparsed.sensitivities.ProviderSensitivity(2, "weight", marketing)
          .granularity,
      5.0);
  EXPECT_DOUBLE_EQ(reparsed.ThresholdFor(2), 50.0);
  EXPECT_DOUBLE_EQ(reparsed.fallback_threshold, 25.0);
  // Hierarchy survived.
  ASSERT_OK_AND_ASSIGN(PurposeId email,
                       reparsed.purposes.Lookup("email_marketing"));
  EXPECT_TRUE(reparsed.purpose_hierarchy.Implies(email, marketing));
  // Magnitudes survived.
  EXPECT_DOUBLE_EQ(reparsed.scales.retention.MagnitudeOf(3).value(), 365.0);
}

// Retention magnitudes drive the access monitor and the retention sweeper,
// so every checkpoint must write them back exactly, not to six digits.
TEST(PolicyDslTest, MagnitudesRoundTripBitForBit) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig original,
      ParsePrivacyConfig("scale retention: none, week, month, century, far\n"
                         "magnitudes retention: 0, 7, 30, 36500.123, "
                         "1234567\n"));
  ASSERT_OK_AND_ASSIGN(PrivacyConfig reparsed,
                       ParsePrivacyConfig(SerializePrivacyConfig(original)));
  for (int level : {3, 4}) {
    ASSERT_OK_AND_ASSIGN(double want,
                         original.scales.retention.MagnitudeOf(level));
    ASSERT_OK_AND_ASSIGN(double got,
                         reparsed.scales.retention.MagnitudeOf(level));
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "level " << level << ": " << got << " != " << want;
  }
}

TEST(PolicyDslTest, ValidationRejectsOutOfScaleTuples) {
  // Scale with 2 levels, then a numeric level beyond it.
  Status s = ParsePrivacyConfig(
                 "scale visibility: lo, hi\n"
                 "policy w for p: visibility=5\n")
                 .status();
  EXPECT_TRUE(s.IsParseError());
}

TEST(PolicyDslTest, GeneralizerStatement) {
  ASSERT_OK_AND_ASSIGN(
      PrivacyConfig config,
      ParsePrivacyConfig("generalizer weight: 0, 0, 10\n"
                         "generalizer age: 0, 5\n"));
  ASSERT_EQ(config.numeric_generalizers.size(), 2u);
  EXPECT_EQ(config.numeric_generalizers.at("weight"),
            (std::vector<double>{0, 0, 10}));
  // Round-trips through the serializer.
  ASSERT_OK_AND_ASSIGN(PrivacyConfig reparsed,
                       ParsePrivacyConfig(SerializePrivacyConfig(config)));
  EXPECT_EQ(reparsed.numeric_generalizers, config.numeric_generalizers);
}

TEST(PolicyDslTest, GeneralizerStatementErrors) {
  EXPECT_TRUE(ParsePrivacyConfig("generalizer weight:\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParsePrivacyConfig("generalizer weight: ten\n")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParsePrivacyConfig("generalizer 9bad: 1\n")
                  .status()
                  .IsParseError());
}

}  // namespace
}  // namespace ppdb::privacy
