#include "audit/monitor.h"

#include <gtest/gtest.h>

#include "audit/retention_sweeper.h"
#include "common/string_util.h"
#include "tests/test_util.h"

namespace ppdb::audit {
namespace {

using privacy::PrivacyTuple;
using privacy::PurposeId;
using rel::DataType;
using rel::Value;

// A two-provider clinic: provider 1 is permissive, provider 2 is tight.
class MonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = config_.purposes.Register("care").value();
    research_ = config_.purposes.Register("research").value();

    // Policy: weight usable for care at house visibility, specific
    // granularity, year retention. Research is NOT declared.
    ASSERT_OK(config_.policy.Add(
        "weight", PrivacyTuple{service_, /*v=*/1, /*g=*/3, /*r=*/3}));

    // Provider 1 allows everything the policy does.
    config_.preferences.ForProvider(1).Set(
        "weight", PrivacyTuple{service_, 3, 3, 4});
    // Provider 2 allows house visibility but only partial granularity and
    // week retention.
    config_.preferences.ForProvider(2).Set(
        "weight", PrivacyTuple{service_, 1, 2, 1});

    rel::Schema schema =
        rel::Schema::Create({{"weight", DataType::kDouble, ""}}).value();
    rel::Table* table = catalog_.CreateTable("patients", schema).value();
    ASSERT_OK(table->Insert(1, {Value::Double(81.0)}));
    ASSERT_OK(table->Insert(2, {Value::Double(67.0)}));

    generalizers_.Register("weight",
                           std::make_unique<NumericRangeGeneralizer>(
                               std::vector<double>{0.0, 0.0, 10.0}));

    ledger_.RecordIngest("patients", 1, "weight", /*day=*/0);
    ledger_.RecordIngest("patients", 2, "weight", /*day=*/0);
  }

  AccessRequest CareRequest(int64_t day = 1) {
    AccessRequest request;
    request.requester = "dr_house";
    request.visibility_level = 1;
    request.purpose = service_;
    request.table = "patients";
    request.attributes = {"weight"};
    request.day = day;
    return request;
  }

  rel::Catalog catalog_;
  privacy::PrivacyConfig config_;
  GeneralizerRegistry generalizers_;
  AuditLog log_;
  IngestLedger ledger_;
  PurposeId service_, research_;
};

TEST_F(MonitorTest, PolicyGateDeniesUndeclaredPurpose) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  AccessRequest request = CareRequest();
  request.purpose = research_;
  Status s = monitor.CheckPolicyGate(request);
  EXPECT_TRUE(s.IsPermissionDenied());
  // Execute also denies and logs it.
  EXPECT_TRUE(monitor.Execute(request).status().IsPermissionDenied());
  EXPECT_EQ(log_.CountByKind(AuditEventKind::kRequestDenied), 1);
}

TEST_F(MonitorTest, PolicyGateDeniesExcessVisibility) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  AccessRequest request = CareRequest();
  request.visibility_level = 2;  // Policy declares house (1) only.
  EXPECT_TRUE(monitor.CheckPolicyGate(request).IsPermissionDenied());
}

TEST_F(MonitorTest, PolicyGateValidatesRequestShape) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  AccessRequest no_attrs = CareRequest();
  no_attrs.attributes.clear();
  EXPECT_TRUE(monitor.CheckPolicyGate(no_attrs).IsInvalidArgument());

  AccessRequest bad_table = CareRequest();
  bad_table.table = "nope";
  EXPECT_TRUE(monitor.CheckPolicyGate(bad_table).IsNotFound());

  AccessRequest bad_attr = CareRequest();
  bad_attr.attributes = {"height"};
  EXPECT_TRUE(monitor.CheckPolicyGate(bad_attr).IsNotFound());

  AccessRequest bad_visibility = CareRequest();
  bad_visibility.visibility_level = 17;
  EXPECT_TRUE(monitor.CheckPolicyGate(bad_visibility).IsInvalidArgument());

  AccessRequest bad_purpose = CareRequest();
  bad_purpose.purpose = 99;
  EXPECT_TRUE(monitor.CheckPolicyGate(bad_purpose).IsInvalidArgument());
}

TEST_F(MonitorTest, EnforceModeClampsGranularityToPreference) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  ASSERT_OK_AND_ASSIGN(rel::ResultSet rs, monitor.Execute(CareRequest()));
  ASSERT_EQ(rs.num_rows(), 2);
  // Provider 1 allowed specific: exact rendering.
  EXPECT_EQ(rs.rows[0].values[0], Value::String("81"));
  // Provider 2 allowed partial (level 2): a decade range.
  EXPECT_EQ(rs.rows[1].values[0], Value::String("[60, 70)"));
  // The generalization is logged against provider 2.
  EXPECT_GE(log_.CountByKind(AuditEventKind::kCellGeneralized), 1);
  // No violations in enforce mode.
  EXPECT_EQ(log_.CountByKind(AuditEventKind::kViolationObserved), 0);
}

TEST_F(MonitorTest, ObserveModeReleasesAtPolicyAndLogsViolation) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kObserve, &ledger_);
  ASSERT_OK_AND_ASSIGN(rel::ResultSet rs, monitor.Execute(CareRequest()));
  // Both released at policy granularity (specific).
  EXPECT_EQ(rs.rows[0].values[0], Value::String("81"));
  EXPECT_EQ(rs.rows[1].values[0], Value::String("67"));
  // Provider 2's exceeded granularity preference shows up as a violation.
  EXPECT_EQ(log_.ViolationsObservedFor(2), 1);
  EXPECT_EQ(log_.ViolationsObservedFor(1), 0);
}

TEST_F(MonitorTest, EnforceModeSuppressesVisibilityExceedance) {
  // Declare the policy wider so the gate passes at third_party visibility.
  ASSERT_OK(config_.policy.Remove("weight", service_));
  ASSERT_OK(config_.policy.Add("weight", PrivacyTuple{service_, 2, 3, 3}));
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  AccessRequest request = CareRequest();
  request.visibility_level = 2;  // Provider 2 allows only house (1).
  ASSERT_OK_AND_ASSIGN(rel::ResultSet rs, monitor.Execute(request));
  EXPECT_FALSE(rs.rows[0].values[0].is_null());  // Provider 1 allows 3.
  EXPECT_TRUE(rs.rows[1].values[0].is_null());   // Provider 2 suppressed.
  EXPECT_GE(log_.CountByKind(AuditEventKind::kCellSuppressed), 1);
}

TEST_F(MonitorTest, RetentionSuppressedAfterPreferenceWindow) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  // Day 10: provider 2's week (7 days) has passed; provider 1's year has
  // not.
  ASSERT_OK_AND_ASSIGN(rel::ResultSet rs, monitor.Execute(CareRequest(10)));
  EXPECT_FALSE(rs.rows[0].values[0].is_null());
  EXPECT_TRUE(rs.rows[1].values[0].is_null());
}

TEST_F(MonitorTest, RetentionBeyondPolicyNeverReleasedEvenInObserveMode) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kObserve, &ledger_);
  // Day 400: past the policy's year for everyone.
  ASSERT_OK_AND_ASSIGN(rel::ResultSet rs, monitor.Execute(CareRequest(400)));
  EXPECT_TRUE(rs.rows[0].values[0].is_null());
  EXPECT_TRUE(rs.rows[1].values[0].is_null());
}

TEST_F(MonitorTest, ProviderWithoutPreferencesFullySuppressedInEnforce) {
  rel::Table* table = catalog_.GetTable("patients").value();
  ASSERT_OK(table->Insert(3, {Value::Double(70.0)}));
  ledger_.RecordIngest("patients", 3, "weight", 0);
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  ASSERT_OK_AND_ASSIGN(rel::ResultSet rs, monitor.Execute(CareRequest()));
  ASSERT_EQ(rs.num_rows(), 3);
  // Provider 3 never consented to anything: implicit zero => suppressed
  // (visibility 1 > 0).
  EXPECT_TRUE(rs.rows[2].values[0].is_null());
}

TEST_F(MonitorTest, GrantedRequestsAreLogged) {
  AccessMonitor monitor(&catalog_, &config_, &generalizers_, &log_,
                        EnforcementMode::kEnforce, &ledger_);
  ASSERT_OK(monitor.Execute(CareRequest()).status());
  EXPECT_EQ(log_.CountByKind(AuditEventKind::kRequestGranted), 1);
  // Provider-facing view sees their cell events.
  EXPECT_FALSE(log_.EventsForProvider(2).empty());
}

// --- RetentionSweeper ---------------------------------------------------------

TEST_F(MonitorTest, SweeperPurgesExpiredCells) {
  rel::Table* table = catalog_.GetTable("patients").value();
  RetentionSweeper sweeper(&config_, &ledger_, &log_);
  // Day 10: provider 2 (week) expired, provider 1 (year, capped by policy
  // year) not.
  ASSERT_OK_AND_ASSIGN(SweepStats stats, sweeper.Sweep(table, 10));
  EXPECT_EQ(stats.cells_examined, 2);
  EXPECT_EQ(stats.cells_purged, 1);
  // Provider 2's row had only one live cell: the row goes away entirely.
  EXPECT_EQ(stats.rows_erased, 1);
  EXPECT_FALSE(table->ContainsProvider(2));
  ASSERT_OK_AND_ASSIGN(Value kept, table->GetCell(1, "weight"));
  EXPECT_FALSE(kept.is_null());
  EXPECT_EQ(log_.CountByKind(AuditEventKind::kRetentionPurge), 1);
}

TEST_F(MonitorTest, SweeperHonoursPolicyCapEvenForPermissiveProviders) {
  rel::Table* table = catalog_.GetTable("patients").value();
  RetentionSweeper sweeper(&config_, &ledger_, &log_);
  // Day 400: policy retention (year) passed for everyone; provider 1's
  // personal indefinite preference cannot extend the policy.
  ASSERT_OK_AND_ASSIGN(SweepStats stats, sweeper.Sweep(table, 400));
  EXPECT_EQ(stats.cells_purged, 2);
  EXPECT_EQ(table->num_rows(), 0);
}

TEST_F(MonitorTest, SweeperSkipsUnrecordedDatums) {
  rel::Table* table = catalog_.GetTable("patients").value();
  ledger_.Erase("patients", 1, "weight");
  RetentionSweeper sweeper(&config_, &ledger_, &log_);
  ASSERT_OK_AND_ASSIGN(SweepStats stats, sweeper.Sweep(table, 10000));
  // Provider 1's age is unknown: kept. Provider 2: purged.
  EXPECT_EQ(stats.cells_purged, 1);
  EXPECT_TRUE(table->ContainsProvider(1));
}

TEST_F(MonitorTest, SweeperIdempotent) {
  rel::Table* table = catalog_.GetTable("patients").value();
  RetentionSweeper sweeper(&config_, &ledger_, &log_);
  ASSERT_OK(sweeper.Sweep(table, 10).status());
  ASSERT_OK_AND_ASSIGN(SweepStats again, sweeper.Sweep(table, 10));
  EXPECT_EQ(again.cells_purged, 0);
  EXPECT_EQ(again.rows_erased, 0);
}

// --- IngestLedger --------------------------------------------------------------

TEST(IngestLedgerTest, RecordAndAge) {
  IngestLedger ledger;
  ledger.RecordIngest("t", 1, "weight", 100);
  ASSERT_OK_AND_ASSIGN(int64_t day, ledger.IngestDay("t", 1, "weight"));
  EXPECT_EQ(day, 100);
  ASSERT_OK_AND_ASSIGN(int64_t age, ledger.AgeInDays("t", 1, "weight", 130));
  EXPECT_EQ(age, 30);
  EXPECT_TRUE(
      ledger.AgeInDays("t", 1, "weight", 50).status().IsInvalidArgument());
  EXPECT_TRUE(ledger.IngestDay("t", 2, "weight").status().IsNotFound());
}

TEST(IngestLedgerTest, RowIngestAndErase) {
  IngestLedger ledger;
  ledger.RecordRowIngest("t", 1, {"a", "b"}, 5);
  EXPECT_EQ(ledger.size(), 2);
  ASSERT_OK_AND_ASSIGN(int64_t day, ledger.IngestDay("t", 1, "b"));
  EXPECT_EQ(day, 5);
  ledger.Erase("t", 1, "a");
  EXPECT_EQ(ledger.size(), 1);
  EXPECT_TRUE(ledger.IngestDay("t", 1, "a").status().IsNotFound());
}

TEST(IngestLedgerTest, ReRecordingRestartsClock) {
  IngestLedger ledger;
  ledger.RecordIngest("t", 1, "a", 0);
  ledger.RecordIngest("t", 1, "a", 50);
  ASSERT_OK_AND_ASSIGN(int64_t age, ledger.AgeInDays("t", 1, "a", 60));
  EXPECT_EQ(age, 10);
}

// --- AuditLog ------------------------------------------------------------------

TEST(AuditLogTest, AppendAssignsSequence) {
  AuditLog log;
  int64_t s0 = log.Append(AuditEvent{});
  int64_t s1 = log.Append(AuditEvent{});
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(s1, 1);
  EXPECT_EQ(log.size(), 2);
}

TEST(AuditLogTest, KindNamesComplete) {
  EXPECT_EQ(AuditEventKindName(AuditEventKind::kRequestGranted),
            "request_granted");
  EXPECT_EQ(AuditEventKindName(AuditEventKind::kRetentionPurge),
            "retention_purge");
}

TEST(AuditLogTest, ToStringShowsTail) {
  AuditLog log;
  const std::string table = "t";
  for (int i = 0; i < 5; ++i) {
    // `e.table = "t"` would trip GCC 12's -O3 -Wrestrict false positive
    // (GCC bug 105329); assigning a named string does not.
    AuditEvent e;
    e.requester = StrCat({"req", std::to_string(i)});
    e.table = table;
    log.Append(std::move(e));
  }
  std::string s = log.ToString(2);
  EXPECT_EQ(s.find("req0"), std::string::npos);
  EXPECT_NE(s.find("req4"), std::string::npos);
}

}  // namespace
}  // namespace ppdb::audit
