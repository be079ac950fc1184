#include <gtest/gtest.h>

#include "privacy/house_policy.h"
#include "privacy/provider_prefs.h"
#include "privacy/sensitivity.h"
#include "tests/test_util.h"

namespace ppdb::privacy {
namespace {

// --- HousePolicy --------------------------------------------------------------

class HousePolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    marketing_ = purposes_.Register("marketing").value();
    research_ = purposes_.Register("research").value();
  }

  ScaleSet scales_;
  PurposeRegistry purposes_;
  PurposeId marketing_, research_;
};

TEST_F(HousePolicyTest, AddAndFind) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  ASSERT_OK(hp.Add("weight", PrivacyTuple{research_, 2, 2, 4}));
  ASSERT_OK(hp.Add("age", PrivacyTuple{marketing_, 1, 2, 2}));
  EXPECT_EQ(hp.size(), 3);
  ASSERT_OK_AND_ASSIGN(PrivacyTuple t, hp.Find("weight", research_));
  EXPECT_EQ(t.retention, 4);
  EXPECT_TRUE(hp.Find("weight", 99).status().IsNotFound());
  EXPECT_TRUE(hp.Find("height", marketing_).status().IsNotFound());
}

TEST_F(HousePolicyTest, RejectsDuplicateAttributePurposePair) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  EXPECT_TRUE(hp.Add("weight", PrivacyTuple{marketing_, 0, 0, 0})
                  .IsAlreadyExists());
}

TEST_F(HousePolicyTest, RemoveTuple) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  ASSERT_OK(hp.Remove("weight", marketing_));
  EXPECT_TRUE(hp.empty());
  EXPECT_TRUE(hp.Remove("weight", marketing_).IsNotFound());
}

TEST_F(HousePolicyTest, ForAttributeSelectsAll) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  ASSERT_OK(hp.Add("weight", PrivacyTuple{research_, 2, 2, 4}));
  ASSERT_OK(hp.Add("age", PrivacyTuple{marketing_, 1, 2, 2}));
  EXPECT_EQ(hp.ForAttribute("weight").size(), 2u);
  EXPECT_EQ(hp.ForAttribute("age").size(), 1u);
  EXPECT_TRUE(hp.ForAttribute("height").empty());
}

TEST_F(HousePolicyTest, AttributesAndPurposesDeduplicated) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  ASSERT_OK(hp.Add("weight", PrivacyTuple{research_, 2, 2, 4}));
  ASSERT_OK(hp.Add("age", PrivacyTuple{marketing_, 1, 2, 2}));
  EXPECT_EQ(hp.Attributes(), (std::vector<std::string>{"weight", "age"}));
  EXPECT_EQ(hp.Purposes(), (std::vector<PurposeId>{marketing_, research_}));
}

TEST_F(HousePolicyTest, ValidateAgainstScales) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  EXPECT_OK(hp.ValidateAgainst(scales_));
  ASSERT_OK(hp.Add("age", PrivacyTuple{marketing_, 9, 0, 0}));
  EXPECT_TRUE(hp.ValidateAgainst(scales_).IsOutOfRange());
}

TEST_F(HousePolicyTest, WidenedClampsAtScaleTop) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  ASSERT_OK(hp.Add("age", PrivacyTuple{marketing_, 3, 2, 2}));
  ASSERT_OK_AND_ASSIGN(HousePolicy wider,
                       hp.Widened(Dimension::kVisibility, 1, scales_));
  EXPECT_EQ(wider.Find("weight", marketing_)->visibility, 2);
  // Already at max 3: stays clamped.
  EXPECT_EQ(wider.Find("age", marketing_)->visibility, 3);
  // Original untouched (value semantics).
  EXPECT_EQ(hp.Find("weight", marketing_)->visibility, 1);
}

TEST_F(HousePolicyTest, WidenedNegativeDeltaNarrowsAndClampsAtZero) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 3, 3}));
  ASSERT_OK_AND_ASSIGN(HousePolicy narrower,
                       hp.Widened(Dimension::kVisibility, -5, scales_));
  EXPECT_EQ(narrower.Find("weight", marketing_)->visibility, 0);
}

TEST_F(HousePolicyTest, WidenedForAttributeTouchesOnlyThatAttribute) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  ASSERT_OK(hp.Add("age", PrivacyTuple{marketing_, 1, 1, 1}));
  ASSERT_OK_AND_ASSIGN(
      HousePolicy wider,
      hp.WidenedForAttribute("weight", Dimension::kGranularity, 2, scales_));
  EXPECT_EQ(wider.Find("weight", marketing_)->granularity, 3);
  EXPECT_EQ(wider.Find("age", marketing_)->granularity, 1);
  EXPECT_TRUE(
      hp.WidenedForAttribute("height", Dimension::kGranularity, 1, scales_)
          .status()
          .IsNotFound());
}

TEST_F(HousePolicyTest, WidenedRejectsPurposeDimension) {
  HousePolicy hp;
  ASSERT_OK(hp.Add("weight", PrivacyTuple{marketing_, 1, 1, 1}));
  EXPECT_TRUE(hp.Widened(Dimension::kPurpose, 1, scales_)
                  .status()
                  .IsInvalidArgument());
}

// --- ProviderPreferences -------------------------------------------------------

TEST(ProviderPreferencesTest, AddFindRemove) {
  ProviderPreferences prefs(42);
  EXPECT_EQ(prefs.provider(), 42);
  ASSERT_OK(prefs.Add("weight", PrivacyTuple{0, 1, 2, 3}));
  ASSERT_OK_AND_ASSIGN(PrivacyTuple t, prefs.Find("weight", 0));
  EXPECT_EQ(t.granularity, 2);
  EXPECT_TRUE(prefs.Add("weight", PrivacyTuple{0, 0, 0, 0}).IsAlreadyExists());
  ASSERT_OK(prefs.Remove("weight", 0));
  EXPECT_TRUE(prefs.empty());
  EXPECT_TRUE(prefs.Remove("weight", 0).IsNotFound());
}

TEST(ProviderPreferencesTest, SetUpserts) {
  ProviderPreferences prefs(1);
  prefs.Set("weight", PrivacyTuple{0, 1, 1, 1});
  prefs.Set("weight", PrivacyTuple{0, 2, 2, 2});
  EXPECT_EQ(prefs.size(), 1);
  EXPECT_EQ(prefs.Find("weight", 0)->visibility, 2);
}

TEST(ProviderPreferencesTest, EffectivePreferenceDefImplicitZero) {
  ProviderPreferences prefs(1);
  ASSERT_OK(prefs.Add("weight", PrivacyTuple{0, 2, 2, 2}));
  // Stated purpose: the stated tuple.
  EXPECT_EQ(prefs.EffectivePreference("weight", 0).visibility, 2);
  // Unstated purpose 1: Def. 1's implicit <i, a, pr, 0, 0, 0>.
  PrivacyTuple implicit = prefs.EffectivePreference("weight", 1);
  EXPECT_EQ(implicit, PrivacyTuple::ZeroFor(1));
  // Unstated attribute: also implicit zero.
  EXPECT_EQ(prefs.EffectivePreference("age", 0), PrivacyTuple::ZeroFor(0));
}

TEST(ProviderPreferencesTest, ForAttribute) {
  ProviderPreferences prefs(1);
  ASSERT_OK(prefs.Add("weight", PrivacyTuple{0, 1, 1, 1}));
  ASSERT_OK(prefs.Add("weight", PrivacyTuple{1, 2, 2, 2}));
  ASSERT_OK(prefs.Add("age", PrivacyTuple{0, 1, 1, 1}));
  EXPECT_EQ(prefs.ForAttribute("weight").size(), 2u);
}

TEST(ProviderPreferencesTest, ValidateAgainstScales) {
  ScaleSet scales;
  ProviderPreferences prefs(1);
  ASSERT_OK(prefs.Add("weight", PrivacyTuple{0, 1, 1, 1}));
  EXPECT_OK(prefs.ValidateAgainst(scales));
  ASSERT_OK(prefs.Add("age", PrivacyTuple{0, 0, 7, 0}));
  EXPECT_TRUE(prefs.ValidateAgainst(scales).IsOutOfRange());
}

// --- PreferenceStore ------------------------------------------------------------

TEST(PreferenceStoreTest, ForProviderCreatesOnDemand) {
  PreferenceStore store;
  EXPECT_FALSE(store.Contains(5));
  ProviderPreferences& prefs = store.ForProvider(5);
  EXPECT_EQ(prefs.provider(), 5);
  EXPECT_TRUE(store.Contains(5));
  EXPECT_EQ(store.num_providers(), 1);
}

TEST(PreferenceStoreTest, FindIsReadOnly) {
  PreferenceStore store;
  EXPECT_TRUE(store.Find(5).status().IsNotFound());
  store.ForProvider(5).Set("weight", PrivacyTuple{0, 1, 1, 1});
  ASSERT_OK_AND_ASSIGN(const ProviderPreferences* prefs, store.Find(5));
  EXPECT_EQ(prefs->size(), 1);
}

TEST(PreferenceStoreTest, EraseProvider) {
  PreferenceStore store;
  store.ForProvider(5);
  ASSERT_OK(store.Erase(5));
  EXPECT_FALSE(store.Contains(5));
  EXPECT_TRUE(store.Erase(5).IsNotFound());
}

TEST(PreferenceStoreTest, ProviderIdsAscending) {
  PreferenceStore store;
  store.ForProvider(9);
  store.ForProvider(3);
  store.ForProvider(7);
  EXPECT_EQ(store.ProviderIds(), (std::vector<ProviderId>{3, 7, 9}));
}

// --- SensitivityModel -------------------------------------------------------------

TEST(DimensionSensitivityTest, ForDimensionAndValidate) {
  DimensionSensitivity s{2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(s.ForDimension(Dimension::kVisibility).value(), 3.0);
  EXPECT_DOUBLE_EQ(s.ForDimension(Dimension::kGranularity).value(), 4.0);
  EXPECT_DOUBLE_EQ(s.ForDimension(Dimension::kRetention).value(), 5.0);
  EXPECT_TRUE(
      s.ForDimension(Dimension::kPurpose).status().IsInvalidArgument());
  EXPECT_OK(s.Validate());
  DimensionSensitivity bad{-1.0, 1.0, 1.0, 1.0};
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(SensitivityModelTest, DefaultsToOne) {
  SensitivityModel model;
  EXPECT_DOUBLE_EQ(model.AttributeSensitivity("weight", 0), 1.0);
  DimensionSensitivity s = model.ProviderSensitivity(1, "weight", 0);
  EXPECT_DOUBLE_EQ(s.value, 1.0);
  EXPECT_DOUBLE_EQ(s.granularity, 1.0);
}

TEST(SensitivityModelTest, AttributeDefaultsAndOverrides) {
  SensitivityModel model;
  ASSERT_OK(model.SetAttributeSensitivity("weight", 4.0));
  EXPECT_DOUBLE_EQ(model.AttributeSensitivity("weight", 0), 4.0);
  EXPECT_DOUBLE_EQ(model.AttributeSensitivity("weight", 1), 4.0);
  ASSERT_OK(model.SetAttributeSensitivityForPurpose("weight", 1, 9.0));
  EXPECT_DOUBLE_EQ(model.AttributeSensitivity("weight", 1), 9.0);
  EXPECT_DOUBLE_EQ(model.AttributeSensitivity("weight", 0), 4.0);
}

TEST(SensitivityModelTest, ProviderDefaultsAndOverrides) {
  SensitivityModel model;
  ASSERT_OK(model.SetProviderSensitivity(1, "weight",
                                         DimensionSensitivity{3, 1, 5, 2}));
  EXPECT_DOUBLE_EQ(model.ProviderSensitivity(1, "weight", 0).granularity,
                   5.0);
  ASSERT_OK(model.SetProviderSensitivityForPurpose(
      1, "weight", 1, DimensionSensitivity{1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(model.ProviderSensitivity(1, "weight", 1).granularity,
                   1.0);
  EXPECT_DOUBLE_EQ(model.ProviderSensitivity(1, "weight", 0).granularity,
                   5.0);
  // Unknown provider: all ones.
  EXPECT_DOUBLE_EQ(model.ProviderSensitivity(2, "weight", 0).value, 1.0);
}

TEST(SensitivityModelTest, RejectsNegative) {
  SensitivityModel model;
  EXPECT_TRUE(
      model.SetAttributeSensitivity("weight", -1.0).IsInvalidArgument());
  EXPECT_TRUE(model
                  .SetProviderSensitivity(
                      1, "weight", DimensionSensitivity{1, -2, 1, 1})
                  .IsInvalidArgument());
}

TEST(SensitivityModelTest, IterationViewsExposeExplicitEntries) {
  SensitivityModel model;
  ASSERT_OK(model.SetAttributeSensitivity("weight", 4.0));
  ASSERT_OK(model.SetProviderSensitivity(1, "weight",
                                         DimensionSensitivity{}));
  EXPECT_EQ(model.attribute_defaults().size(), 1u);
  EXPECT_TRUE(model.attribute_overrides().empty());
  // One provider with one σ row: the default, no purpose override.
  ASSERT_EQ(model.provider_rows().size(), 1u);
  EXPECT_EQ(model.provider_rows()[0].provider, 1);
  const SensitivityModel::Rows& rows = model.provider_rows()[0].rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].purpose, SensitivityModel::kAnyPurpose);
  EXPECT_EQ(model.attributes().NameOf(rows[0].attribute), "weight");
}

}  // namespace
}  // namespace ppdb::privacy
