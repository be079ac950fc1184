#include "violation/incremental.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "obs/metrics.h"
#include "privacy/policy_diff.h"
#include "violation/default_model.h"
#include "violation/kernel/severity_kernel.h"
#include "violation/utility.h"

namespace ppdb::violation {

using privacy::PolicyTuple;

namespace {

/// Count ladder for `ppdb_view_delta_cells`: 0 (threshold moves), then
/// powers of two up to 2^20, so a 16-cell join and an N·Δ policy move each
/// land in a finite bucket.
std::vector<double> CellCountBuckets() {
  std::vector<double> bounds{0.0};
  for (int e = 0; e <= 20; ++e) {
    bounds.push_back(static_cast<double>(int64_t{1} << e));
  }
  return bounds;
}

/// The delta path's registry instruments, registered as one batch when the
/// first view is created. The batch detector's families (metrics.cc) stay
/// separate: a drift check runs both, and telling the full scan apart from
/// the event that triggered it is the point.
struct ViewMetrics {
  /// Kernel cells recomputed by one applied event (0 for threshold moves,
  /// |HP| for membership changes, N·Δ for policy level moves).
  obs::Histogram* delta_cells;
  /// Wall time applying one event to the view (delta or rebuild path).
  obs::Histogram* delta_seconds;
  /// Applied events by path: path="delta" | "rebuild".
  obs::Counter* events_delta;
  obs::Counter* events_rebuild;
  /// Drift-oracle outcomes: result="clean" | "drift".
  obs::Counter* drift_clean;
  obs::Counter* drift_detected;

  static const ViewMetrics& Get() {
    static const ViewMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      ViewMetrics m;
      m.delta_cells = r.GetHistogram(
          "ppdb_view_delta_cells",
          "Kernel cells recomputed by one event applied to the violation "
          "view (the Δ of the O(Δ) path).",
          CellCountBuckets());
      m.delta_seconds = r.GetHistogram(
          "ppdb_view_delta_seconds",
          "Wall time applying one event to the violation view, delta or "
          "rebuild path.");
      const char* kEventsHelp =
          "Events applied to the violation view, by path: delta = targeted "
          "cell recompute, rebuild = full view reconstruction.";
      m.events_delta = r.GetCounter("ppdb_view_delta_events_total",
                                    kEventsHelp, {{"path", "delta"}});
      m.events_rebuild = r.GetCounter("ppdb_view_delta_events_total",
                                      kEventsHelp, {{"path", "rebuild"}});
      const char* kDriftHelp =
          "Drift-oracle runs (full re-analysis compared bitwise against "
          "the maintained view), by result.";
      m.drift_clean = r.GetCounter("ppdb_view_delta_drift_checks_total",
                                   kDriftHelp, {{"result", "clean"}});
      m.drift_detected = r.GetCounter("ppdb_view_delta_drift_checks_total",
                                      kDriftHelp, {{"result", "drift"}});
      return m;
    }();
    return metrics;
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Same (attribute, purpose) cell sequence — the precondition for
/// positional deltas between two policies.
bool SameShape(const std::vector<PolicyTuple>& a,
               const std::vector<PolicyTuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t j = 0; j < a.size(); ++j) {
    if (a[j].attribute != b[j].attribute ||
        a[j].tuple.purpose != b[j].tuple.purpose) {
      return false;
    }
  }
  return true;
}

/// Cell positions whose levels differ between two same-shape policies.
std::vector<int32_t> ChangedLevelCells(const std::vector<PolicyTuple>& a,
                                       const std::vector<PolicyTuple>& b) {
  std::vector<int32_t> cells;
  for (size_t j = 0; j < a.size(); ++j) {
    if (a[j].tuple.visibility != b[j].tuple.visibility ||
        a[j].tuple.granularity != b[j].tuple.granularity ||
        a[j].tuple.retention != b[j].tuple.retention) {
      cells.push_back(static_cast<int32_t>(j));
    }
  }
  return cells;
}

/// Dimensions on which one cell's diff (Eq. 12, never negative) is positive:
/// the incidents `FinishProvider` reconstructs for the cell.
uint8_t ExceedingDimensions(int32_t diff_v, int32_t diff_g, int32_t diff_r) {
  return static_cast<uint8_t>((diff_v > 0) + (diff_g > 0) + (diff_r > 0));
}

/// The drift oracle compares representations, not values: -0.0 vs +0.0 or
/// differently-rounded sums are drift even where == would pass.
bool BitwiseEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

ViolationView::ViolationView(const privacy::PrivacyConfig* config,
                             ViolationDetector::Options options)
    : config_(config), options_(options) {}

Result<ViolationView> ViolationView::Create(const privacy::PrivacyConfig* config,
                                            ViolationDetector::Options options) {
  if (config == nullptr) {
    return Status::InvalidArgument("ViolationView: config must not be null");
  }
  if (options.policy_override != nullptr) {
    return Status::InvalidArgument(
        "ViolationView materializes the config's own policy; evaluate "
        "hypothetical policies through AssessPolicyChange");
  }
  // Register the metric families before the first event can observe into
  // them (mirrors ViolationMetrics::Get at detector startup).
  ViewMetrics::Get();
  ViolationView view(config, options);
  PPDB_RETURN_NOT_OK(view.RebuildAll());
  // Construction is not an applied event: report a quiet initial posture.
  view.delta_events_ = 0;
  view.rebuild_events_ = 0;
  view.last_delta_cells_ = 0;
  return view;
}

int64_t ViolationView::PositionOf(ProviderId provider) const {
  auto it = std::lower_bound(providers_.begin(), providers_.end(), provider);
  if (it == providers_.end() || *it != provider) return -1;
  return it - providers_.begin();
}

Result<int64_t> ViolationView::Locate(ProviderId provider) const {
  const int64_t pos = PositionOf(provider);
  if (pos < 0) {
    return Status::NotFound("ViolationView: provider " +
                            std::to_string(provider) +
                            " is not in the monitored population");
  }
  return pos;
}

bool ViolationView::Contains(ProviderId provider) const {
  return PositionOf(provider) >= 0;
}

bool ViolationView::ShouldExist(ProviderId provider) const {
  if (config_->preferences.Contains(provider)) return true;
  return options_.data_table != nullptr &&
         options_.data_table->ContainsProvider(provider);
}

std::vector<int32_t> ViolationView::CellsForPreference(
    std::string_view attribute, privacy::PurposeId purpose) const {
  std::vector<int32_t> cells;
  for (size_t j = 0; j < prepared_.tuples.size(); ++j) {
    const internal::PreparedPolicyTuple& t = prepared_.tuples[j];
    if (t.policy->attribute != attribute) continue;
    // The cell's Def. 1 selection sees a preference stated for its own
    // purpose, or (hierarchy extension) for any ancestor purpose.
    if (t.policy->tuple.purpose == purpose ||
        std::find(t.ancestors.begin(), t.ancestors.end(), purpose) !=
            t.ancestors.end()) {
      cells.push_back(static_cast<int32_t>(j));
    }
  }
  return cells;
}

std::vector<int32_t> ViolationView::CellsForAttribute(
    std::string_view attribute) const {
  std::vector<int32_t> cells;
  for (size_t j = 0; j < prepared_.tuples.size(); ++j) {
    if (prepared_.tuples[j].policy->attribute == attribute) {
      cells.push_back(static_cast<int32_t>(j));
    }
  }
  return cells;
}

void ViolationView::ComputeCells(ProviderId provider,
                                 const internal::PreparedPolicy& policy,
                                 const privacy::PolicyColumns& columns,
                                 const std::vector<int32_t>& cells,
                                 internal::AnalysisScratch& scratch,
                                 GatherScratch& gather, double* conf_out,
                                 uint8_t* exceed_out) const {
  const size_t k = cells.size();
  if (k == 0) return;
  kernel::RowScratch& row = scratch.row;
  row.Resize(k);
  auto find_pref = internal::StoreLookup(*config_, provider);

  // Pass 1, gathered: the same per-cell selection a full row build runs,
  // for the affected lanes only.
  for (size_t i = 0; i < k; ++i) {
    const size_t j = static_cast<size_t>(cells[i]);
    const internal::CellInputs cell =
        internal::BuildCell(options_, policy, provider, find_pref, j);
    row.pref_v[i] = cell.pref_v;
    row.pref_g[i] = cell.pref_g;
    row.pref_r[i] = cell.pref_r;
    row.active[i] = cell.active;
    row.implicit[i] = cell.implicit;
  }

  // σ side: the resolution rule is per-tuple, so explicit-sensitivity
  // providers pay the full O(|HP|) map fill (lookups only, no kernel work)
  // and the lanes are gathered from it; everyone else gathers ones.
  const privacy::SensitivityColumns* sens = internal::SelectSensitivity(
      *config_, policy, provider, unit_sens_, scratch.provider_sens);

  gather.pol_v.resize(k);
  gather.pol_g.resize(k);
  gather.pol_r.resize(k);
  gather.attr_sens.resize(k);
  gather.sens_val.resize(k);
  gather.sens_v.resize(k);
  gather.sens_g.resize(k);
  gather.sens_r.resize(k);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = static_cast<size_t>(cells[i]);
    gather.pol_v[i] = columns.levels.visibility[j];
    gather.pol_g[i] = columns.levels.granularity[j];
    gather.pol_r[i] = columns.levels.retention[j];
    gather.attr_sens[i] = columns.attr_sens[j];
    gather.sens_val[i] = sens->value[j];
    gather.sens_v[i] = sens->visibility[j];
    gather.sens_g[i] = sens->granularity[j];
    gather.sens_r[i] = sens->retention[j];
  }

  // Pass 2 over the gathered lanes. The kernel is lane-pure (per-lane IEEE
  // order, no cross-lane operations), so a k-lane batch produces bitwise
  // the values the same lanes get inside a full |HP|-lane batch.
  kernel::ConfInput in;
  in.pref_v = row.pref_v.data();
  in.pref_g = row.pref_g.data();
  in.pref_r = row.pref_r.data();
  in.pol_v = gather.pol_v.data();
  in.pol_g = gather.pol_g.data();
  in.pol_r = gather.pol_r.data();
  in.attr_sens = gather.attr_sens.data();
  in.sens_val = gather.sens_val.data();
  in.sens_v = gather.sens_v.data();
  in.sens_g = gather.sens_g.data();
  in.sens_r = gather.sens_r.data();
  in.active = row.active.data();
  kernel::ConfKernel(in, row.Output(), k);

  for (size_t i = 0; i < k; ++i) {
    conf_out[i] = row.conf[i];
    exceed_out[i] =
        ExceedingDimensions(row.diff_v[i], row.diff_g[i], row.diff_r[i]);
  }
}

void ViolationView::ComputeFullRow(int64_t pos) {
  const ProviderId provider = providers_[pos];
  const size_t n = prepared_.tuples.size();
  kernel::RowScratch& row = scratch_.row;
  row.Resize(n);
  auto find_pref = internal::StoreLookup(*config_, provider);

  for (size_t j = 0; j < n; ++j) {
    const internal::CellInputs cell =
        internal::BuildCell(options_, prepared_, provider, find_pref, j);
    row.pref_v[j] = cell.pref_v;
    row.pref_g[j] = cell.pref_g;
    row.pref_r[j] = cell.pref_r;
    row.active[j] = cell.active;
    row.implicit[j] = cell.implicit;
  }
  const privacy::SensitivityColumns* sens = internal::SelectSensitivity(
      *config_, prepared_, provider, unit_sens_, scratch_.provider_sens);
  const kernel::ConfInput in = internal::MakeConfInput(row, columns_, *sens);
  kernel::ConfKernel(in, row.Output(), n);

  Row& stored = rows_[pos];
  stored.conf.assign(row.conf.begin(), row.conf.end());
  stored.exceed.resize(n);
  for (size_t j = 0; j < n; ++j) {
    stored.exceed[j] =
        ExceedingDimensions(row.diff_v[j], row.diff_g[j], row.diff_r[j]);
  }
  RefreshRowSummaries(pos);
}

void ViolationView::RecomputeCellsLocal(int64_t pos,
                                        const std::vector<int32_t>& cells) {
  if (cells.empty()) return;
  gather_.out_conf.resize(cells.size());
  gather_.out_exceed.resize(cells.size());
  ComputeCells(providers_[pos], prepared_, columns_, cells, scratch_, gather_,
               gather_.out_conf.data(), gather_.out_exceed.data());
  Row& stored = rows_[pos];
  for (size_t i = 0; i < cells.size(); ++i) {
    stored.conf[static_cast<size_t>(cells[i])] = gather_.out_conf[i];
    stored.exceed[static_cast<size_t>(cells[i])] = gather_.out_exceed[i];
  }
  RefreshRowSummaries(pos);
}

void ViolationView::RefreshRowSummaries(int64_t pos) {
  const Row& row = rows_[pos];
  // Eq. 15: flat sum in tuple order over the full row — re-running the sum
  // (rather than adding a float delta) is what keeps the maintained value
  // bitwise-identical to a from-scratch FinishProvider.
  double severity = 0.0;
  // ppdb-lint: allow(fp-accumulate) --
  // tuple-order flat sum IS the canonical Eq. 15 association shape.
  for (double c : row.conf) severity += c;
  int32_t incidents = 0;
  for (uint8_t e : row.exceed) incidents += e;

  const bool was_violated = incidents_[pos] > 0;
  const bool was_defaulted = defaulted_[pos] != 0;
  const bool now_violated = incidents > 0;
  const bool now_defaulted =
      severity > config_->ThresholdFor(providers_[pos]);

  severity_[pos] = severity;
  incidents_[pos] = incidents;
  defaulted_[pos] = now_defaulted ? 1 : 0;
  num_violated_ +=
      (now_violated ? 1 : 0) - (was_violated ? 1 : 0);
  num_defaulted_ +=
      (now_defaulted ? 1 : 0) - (was_defaulted ? 1 : 0);
}

void ViolationView::PatchedRowSummary(int64_t pos,
                                      const std::vector<int32_t>& cells,
                                      const double* conf,
                                      const uint8_t* exceed,
                                      double* severity_out,
                                      bool* violated_out) const {
  const Row& stored = rows_[pos];
  double severity = 0.0;
  int32_t exceed_count = 0;
  size_t c = 0;
  for (size_t j = 0; j < stored.conf.size(); ++j) {
    const bool patched =
        c < cells.size() && static_cast<size_t>(cells[c]) == j;
    // ppdb-lint: allow(fp-accumulate) --
    // cell-index order, identical to the stored row's canonical order.
    severity += patched ? conf[c] : stored.conf[j];
    exceed_count += patched ? exceed[c] : stored.exceed[j];
    if (patched) ++c;
  }
  *severity_out = severity;
  *violated_out = exceed_count > 0;
}

void ViolationView::RefreshBlockAndTotal(int64_t pos) {
  const int64_t block = pos / internal::kSeverityReduceBlock;
  const int64_t begin = block * internal::kSeverityReduceBlock;
  const int64_t end =
      std::min<int64_t>(static_cast<int64_t>(providers_.size()),
                        begin + internal::kSeverityReduceBlock);
  double block_sum = 0.0;
  // ppdb-lint: allow(fp-accumulate) --
  // provider-order block partial, the BlockedSeveritySum association shape.
  for (int64_t i = begin; i < end; ++i) block_sum += severity_[i];
  block_severity_[static_cast<size_t>(block)] = block_sum;
  // Re-run the root sum over the block partials in block order — the
  // association shape of BlockedSeveritySum, so the total matches a full
  // scan bitwise.
  double total = 0.0;
  // ppdb-lint: allow(fp-accumulate) --
  // block-order root sum, matches a full scan bitwise.
  for (double s : block_severity_) total += s;
  total_severity_ = total;
}

void ViolationView::RebuildTree() {
  const int64_t n = static_cast<int64_t>(providers_.size());
  const int64_t blocks =
      (n + internal::kSeverityReduceBlock - 1) / internal::kSeverityReduceBlock;
  block_severity_.assign(static_cast<size_t>(blocks), 0.0);
  for (int64_t b = 0; b < blocks; ++b) {
    const int64_t begin = b * internal::kSeverityReduceBlock;
    const int64_t end =
        std::min<int64_t>(n, begin + internal::kSeverityReduceBlock);
    double block_sum = 0.0;
    // ppdb-lint: allow(fp-accumulate) --
    // provider-order block partial, the BlockedSeveritySum association shape.
    for (int64_t i = begin; i < end; ++i) block_sum += severity_[i];
    block_severity_[static_cast<size_t>(b)] = block_sum;
  }
  double total = 0.0;
  // ppdb-lint: allow(fp-accumulate) --
  // block-order root sum, matches a full scan bitwise.
  for (double s : block_severity_) total += s;
  total_severity_ = total;
}

int64_t ViolationView::ResyncProvider(ProviderId provider) {
  const int64_t pos = PositionOf(provider);
  const bool should = ShouldExist(provider);
  const int64_t hp = static_cast<int64_t>(prepared_.tuples.size());

  if (should && pos >= 0) {
    ComputeFullRow(pos);
    RefreshBlockAndTotal(pos);
    return hp;
  }
  if (should) {
    const auto it =
        std::lower_bound(providers_.begin(), providers_.end(), provider);
    const int64_t idx = it - providers_.begin();
    providers_.insert(it, provider);
    rows_.insert(rows_.begin() + idx,
                 Row{std::vector<double>(static_cast<size_t>(hp), 0.0),
                     std::vector<uint8_t>(static_cast<size_t>(hp), 0)});
    severity_.insert(severity_.begin() + idx, 0.0);
    incidents_.insert(incidents_.begin() + idx, 0);
    defaulted_.insert(defaulted_.begin() + idx, 0);
    ComputeFullRow(idx);
    // Positions after idx shifted: block membership changed for every
    // later provider, so the whole tree is restated.
    RebuildTree();
    return hp;
  }
  if (pos >= 0) {
    num_violated_ -= incidents_[pos] > 0 ? 1 : 0;
    num_defaulted_ -= defaulted_[pos] != 0 ? 1 : 0;
    providers_.erase(providers_.begin() + pos);
    rows_.erase(rows_.begin() + pos);
    severity_.erase(severity_.begin() + pos);
    incidents_.erase(incidents_.begin() + pos);
    defaulted_.erase(defaulted_.begin() + pos);
    RebuildTree();
  }
  return 0;
}

void ViolationView::CountDelta(int64_t cells, double seconds) {
  const ViewMetrics& m = ViewMetrics::Get();
  last_delta_cells_ = cells;
  ++delta_events_;
  m.events_delta->Add();
  m.delta_cells->Observe(static_cast<double>(cells));
  m.delta_seconds->Observe(seconds);
}

void ViolationView::CountRebuild(int64_t cells, double seconds) {
  const ViewMetrics& m = ViewMetrics::Get();
  last_delta_cells_ = cells;
  ++rebuild_events_;
  m.events_rebuild->Add();
  m.delta_cells->Observe(static_cast<double>(cells));
  m.delta_seconds->Observe(seconds);
}

Status ViolationView::OnProviderAdded(ProviderId provider) {
  const auto started = std::chrono::steady_clock::now();
  const int64_t cells = ResyncProvider(provider);
  CountDelta(cells, SecondsSince(started));
  return Status::OK();
}

Status ViolationView::OnProviderRemoved(ProviderId provider) {
  const auto started = std::chrono::steady_clock::now();
  const int64_t cells = ResyncProvider(provider);
  CountDelta(cells, SecondsSince(started));
  return Status::OK();
}

Status ViolationView::OnPreferenceChanged(ProviderId provider,
                                          std::string_view attribute,
                                          privacy::PurposeId purpose) {
  const auto started = std::chrono::steady_clock::now();
  const int64_t pos = PositionOf(provider);
  if (pos < 0 || !ShouldExist(provider)) {
    // The event introduced or retired the provider (first preference, or a
    // store that drops emptied entries): membership first.
    const int64_t cells = ResyncProvider(provider);
    CountDelta(cells, SecondsSince(started));
    return Status::OK();
  }
  const std::vector<int32_t> cells = CellsForPreference(attribute, purpose);
  RecomputeCellsLocal(pos, cells);
  RefreshBlockAndTotal(pos);
  CountDelta(static_cast<int64_t>(cells.size()), SecondsSince(started));
  return Status::OK();
}

Status ViolationView::OnThresholdChanged(ProviderId provider) {
  const auto started = std::chrono::steady_clock::now();
  const int64_t pos = PositionOf(provider);
  if (pos >= 0) {
    const bool was = defaulted_[pos] != 0;
    const bool now =
        severity_[pos] > config_->ThresholdFor(providers_[pos]);
    defaulted_[pos] = now ? 1 : 0;
    num_defaulted_ += (now ? 1 : 0) - (was ? 1 : 0);
  }
  CountDelta(0, SecondsSince(started));
  return Status::OK();
}

Status ViolationView::OnDatumChanged(ProviderId provider,
                                     std::string_view attribute) {
  const auto started = std::chrono::steady_clock::now();
  const int64_t pos = PositionOf(provider);
  const bool should = ShouldExist(provider);
  if ((pos >= 0) != should) {
    const int64_t cells = ResyncProvider(provider);
    CountDelta(cells, SecondsSince(started));
    return Status::OK();
  }
  if (pos < 0) {
    CountDelta(0, SecondsSince(started));
    return Status::OK();
  }
  const std::vector<int32_t> cells = CellsForAttribute(attribute);
  RecomputeCellsLocal(pos, cells);
  RefreshBlockAndTotal(pos);
  CountDelta(static_cast<int64_t>(cells.size()), SecondsSince(started));
  return Status::OK();
}

Status ViolationView::OnPolicyChanged() {
  const auto started = std::chrono::steady_clock::now();
  const std::vector<PolicyTuple>& now_tuples = config_->policy.tuples();
  if (!SameShape(cached_policy_, now_tuples)) {
    // Tuples added, removed or reordered: cell positions have no stable
    // meaning across the change.
    return RebuildAll();
  }
  const std::vector<int32_t> changed =
      ChangedLevelCells(cached_policy_, now_tuples);
  // The cached preparation holds pointers into the *previous* policy's
  // tuple storage, which the replacement just destroyed — restate it
  // unconditionally, even for a no-op swap.
  prepared_ =
      internal::PreparePolicy(config_->policy, options_.purpose_hierarchy);
  columns_ =
      privacy::PolicyColumns::Build(now_tuples, config_->sensitivities);
  unit_sens_.FillOnes(prepared_.tuples.size());
  cached_policy_ = now_tuples;
  if (changed.empty()) {
    CountDelta(0, SecondsSince(started));
    return Status::OK();
  }
  const int64_t n = num_providers();
  for (int64_t pos = 0; pos < n; ++pos) {
    RecomputeCellsLocal(pos, changed);
  }
  RebuildTree();
  CountDelta(n * static_cast<int64_t>(changed.size()), SecondsSince(started));
  return Status::OK();
}

Status ViolationView::RebuildAll() {
  const auto started = std::chrono::steady_clock::now();
  std::vector<ProviderId> providers = config_->preferences.ProviderIds();
  if (options_.data_table != nullptr) {
    for (ProviderId id : options_.data_table->ProviderIds()) {
      providers.push_back(id);
    }
  }
  std::sort(providers.begin(), providers.end());
  providers.erase(std::unique(providers.begin(), providers.end()),
                  providers.end());

  prepared_ =
      internal::PreparePolicy(config_->policy, options_.purpose_hierarchy);
  columns_ = privacy::PolicyColumns::Build(config_->policy.tuples(),
                                           config_->sensitivities);
  unit_sens_.FillOnes(prepared_.tuples.size());
  cached_policy_ = config_->policy.tuples();

  const size_t n = providers.size();
  const size_t hp = prepared_.tuples.size();
  providers_ = std::move(providers);
  rows_.assign(n, Row{std::vector<double>(hp, 0.0),
                      std::vector<uint8_t>(hp, 0)});
  severity_.assign(n, 0.0);
  incidents_.assign(n, 0);
  defaulted_.assign(n, 0);
  num_violated_ = 0;
  num_defaulted_ = 0;
  for (int64_t pos = 0; pos < static_cast<int64_t>(n); ++pos) {
    ComputeFullRow(pos);
  }
  RebuildTree();
  CountRebuild(static_cast<int64_t>(n * hp), SecondsSince(started));
  return Status::OK();
}

Result<ViolationView::ProviderSummary> ViolationView::Summarize(
    ProviderId provider) const {
  PPDB_ASSIGN_OR_RETURN(const int64_t pos, Locate(provider));
  ProviderSummary out;
  out.provider = provider;
  out.severity = severity_[pos];
  out.violated = incidents_[pos] > 0;
  out.incidents = incidents_[pos];
  out.defaulted = defaulted_[pos] != 0;
  return out;
}

std::vector<bool> ViolationView::ViolatedFlags() const {
  std::vector<bool> flags(providers_.size());
  for (size_t pos = 0; pos < flags.size(); ++pos) {
    flags[pos] = incidents_[pos] > 0;
  }
  return flags;
}

std::vector<bool> ViolationView::DefaultedFlags() const {
  std::vector<bool> flags(providers_.size());
  for (size_t pos = 0; pos < flags.size(); ++pos) {
    flags[pos] = defaulted_[pos] != 0;
  }
  return flags;
}

Result<ViolationView::ExpansionCheck> ViolationView::CheckExpansion(
    double utility_per_provider, double extra_utility) const {
  PPDB_ASSIGN_OR_RETURN(UtilityModel model,
                        UtilityModel::Create(utility_per_provider));
  ExpansionCheck out;
  out.n_current = num_providers();
  out.n_defaulted = num_defaulted_;
  out.n_future = out.n_current - out.n_defaulted;
  out.utility_per_provider = utility_per_provider;
  out.extra_utility = extra_utility;
  out.utility_current = model.CurrentUtility(out.n_current);
  out.utility_future = model.FutureUtility(out.n_future, extra_utility);
  out.justified =
      model.ExpansionJustified(out.n_current, out.n_future, extra_utility);
  Result<double> break_even =
      model.BreakEvenExtraUtility(out.n_current, out.n_future);
  if (break_even.ok()) {
    out.has_break_even = true;
    out.break_even_extra_utility = break_even.value();
  }
  return out;
}

Result<ProviderViolation> ViolationView::MaterializeProvider(
    ProviderId provider) const {
  PPDB_RETURN_NOT_OK(Locate(provider).status());
  // Local scratch: materialization runs under reader locks and must not
  // share buffers with concurrent callers.
  internal::AnalysisScratch scratch;
  return internal::AnalyzeOne(*config_, options_, prepared_, columns_,
                              unit_sens_, provider,
                              internal::StoreLookup(*config_, provider),
                              scratch);
}

ViolationReport ViolationView::Snapshot() const {
  ViolationReport report;
  report.providers.reserve(providers_.size());
  internal::AnalysisScratch scratch;
  for (size_t pos = 0; pos < providers_.size(); ++pos) {
    if (incidents_[pos] > 0) {
      // Incidents are not materialized; one row recompute reconstructs
      // them (and, by the bitwise contract, the same severity).
      const ProviderId provider = providers_[pos];
      report.providers.push_back(internal::AnalyzeOne(
          *config_, options_, prepared_, columns_, unit_sens_, provider,
          internal::StoreLookup(*config_, provider), scratch));
    } else {
      ProviderViolation pv;
      pv.provider = providers_[pos];
      pv.total_severity = severity_[pos];
      report.providers.push_back(std::move(pv));
    }
  }
  report.total_severity = total_severity_;
  report.num_violated = num_violated_;
  return report;
}

Result<ChangeImpact> ViolationView::AssessPolicyChange(
    const privacy::HousePolicy& new_policy, const Deadline& deadline) const {
  ChangeImpact impact;
  impact.diff = privacy::DiffPolicies(config_->policy, new_policy);

  const int64_t n = num_providers();
  impact.p_violation_before = ProbabilityOfViolation();
  impact.p_default_before = ProbabilityOfDefault();
  impact.total_violations_before = total_severity_;

  std::vector<double> severity_after(static_cast<size_t>(n), 0.0);
  std::vector<uint8_t> violated_after(static_cast<size_t>(n), 0);

  if (SameShape(config_->policy.tuples(), new_policy.tuples())) {
    const std::vector<int32_t> changed =
        ChangedLevelCells(config_->policy.tuples(), new_policy.tuples());
    if (changed.empty()) {
      for (int64_t pos = 0; pos < n; ++pos) {
        severity_after[pos] = severity_[pos];
        violated_after[pos] = incidents_[pos] > 0 ? 1 : 0;
      }
    } else {
      const internal::PreparedPolicy prepared =
          internal::PreparePolicy(new_policy, options_.purpose_hierarchy);
      const privacy::PolicyColumns columns = privacy::PolicyColumns::Build(
          new_policy.tuples(), config_->sensitivities);
      internal::AnalysisScratch scratch;
      GatherScratch gather;
      std::vector<double> conf(changed.size());
      std::vector<uint8_t> exceed(changed.size());
      for (int64_t pos = 0; pos < n; ++pos) {
        if (pos % internal::kDeadlineStride == 0 && deadline.Expired()) {
          return Status::DeadlineExceeded(
              "AssessPolicyChange: assessed " + std::to_string(pos) +
              " of " + std::to_string(n) +
              " providers before the deadline expired");
        }
        ComputeCells(providers_[pos], prepared, columns, changed, scratch,
                     gather, conf.data(), exceed.data());
        bool violated = false;
        PatchedRowSummary(pos, changed, conf.data(), exceed.data(),
                          &severity_after[pos], &violated);
        violated_after[pos] = violated ? 1 : 0;
      }
    }
  } else {
    ViolationDetector::Options after_options = options_;
    after_options.policy_override = &new_policy;
    after_options.deadline = deadline;
    ViolationDetector after_detector(config_, after_options);
    PPDB_ASSIGN_OR_RETURN(ViolationReport after, after_detector.Analyze());
    PPDB_CHECK(static_cast<int64_t>(after.providers.size()) == n);
    for (int64_t pos = 0; pos < n; ++pos) {
      const ProviderViolation& pv = after.providers[pos];
      PPDB_CHECK(pv.provider == providers_[pos]);
      severity_after[pos] = pv.total_severity;
      violated_after[pos] = pv.violated ? 1 : 0;
    }
  }

  for (int64_t pos = 0; pos < n; ++pos) {
    const bool violated_b = incidents_[pos] > 0;
    const bool violated_a = violated_after[pos] != 0;
    const bool defaulted_b = defaulted_[pos] != 0;
    const bool defaulted_a =
        severity_after[pos] > config_->ThresholdFor(providers_[pos]);
    if (violated_a) ++impact.num_violated_after;
    if (defaulted_a) ++impact.num_defaulted_after;
    if (!violated_b && violated_a) {
      impact.newly_violated.push_back(providers_[pos]);
    } else if (violated_b && !violated_a) {
      impact.no_longer_violated.push_back(providers_[pos]);
    }
    if (!defaulted_b && defaulted_a) {
      impact.newly_defaulted.push_back(providers_[pos]);
    } else if (defaulted_b && !defaulted_a) {
      impact.recovered.push_back(providers_[pos]);
    }
  }
  impact.p_violation_after =
      n == 0 ? 0.0
             : static_cast<double>(impact.num_violated_after) /
                   static_cast<double>(n);
  impact.p_default_after =
      n == 0 ? 0.0
             : static_cast<double>(impact.num_defaulted_after) /
                   static_cast<double>(n);
  impact.total_violations_after = internal::BlockedSeveritySum(
      n, [&](int64_t i) { return severity_after[static_cast<size_t>(i)]; });
  return impact;
}

Result<ViolationView::ProviderImpact>
ViolationView::AssessPolicyChangeForProvider(
    ProviderId provider, const privacy::HousePolicy& new_policy) const {
  PPDB_ASSIGN_OR_RETURN(const int64_t pos, Locate(provider));
  ProviderImpact out;
  out.provider = provider;
  out.diff = privacy::DiffPolicies(config_->policy, new_policy);
  out.severity_before = severity_[pos];
  out.violated_before = incidents_[pos] > 0;
  out.defaulted_before = defaulted_[pos] != 0;

  if (SameShape(config_->policy.tuples(), new_policy.tuples())) {
    const std::vector<int32_t> changed =
        ChangedLevelCells(config_->policy.tuples(), new_policy.tuples());
    if (changed.empty()) {
      out.severity_after = out.severity_before;
      out.violated_after = out.violated_before;
    } else {
      const internal::PreparedPolicy prepared =
          internal::PreparePolicy(new_policy, options_.purpose_hierarchy);
      const privacy::PolicyColumns columns = privacy::PolicyColumns::Build(
          new_policy.tuples(), config_->sensitivities);
      internal::AnalysisScratch scratch;
      GatherScratch gather;
      std::vector<double> conf(changed.size());
      std::vector<uint8_t> exceed(changed.size());
      ComputeCells(provider, prepared, columns, changed, scratch, gather,
                   conf.data(), exceed.data());
      PatchedRowSummary(pos, changed, conf.data(), exceed.data(),
                        &out.severity_after, &out.violated_after);
      out.cells_recomputed = static_cast<int64_t>(changed.size());
    }
  } else {
    // Shape change: positional deltas are meaningless; one single-provider
    // analysis (still independent of house size).
    ViolationDetector::Options after_options = options_;
    after_options.policy_override = &new_policy;
    ViolationDetector after_detector(config_, after_options);
    PPDB_ASSIGN_OR_RETURN(ProviderViolation pv,
                          after_detector.AnalyzeProvider(provider));
    out.severity_after = pv.total_severity;
    out.violated_after = pv.violated;
    out.cells_recomputed =
        static_cast<int64_t>(new_policy.tuples().size());
  }
  out.defaulted_after =
      out.severity_after > config_->ThresholdFor(provider);
  return out;
}

Result<ViolationView::DriftReport> ViolationView::CheckDrift() {
  ViolationDetector detector(config_, options_);
  PPDB_ASSIGN_OR_RETURN(ViolationReport full, detector.Analyze());
  const DefaultReport defaults = ComputeDefaults(full, *config_);

  DriftReport out;
  out.providers_checked = static_cast<int64_t>(full.providers.size());
  auto note = [&](const std::string& line) {
    if (out.detail.size() < 512) {
      out.detail += line;
      out.detail += '\n';
    }
  };

  if (static_cast<int64_t>(full.providers.size()) != num_providers()) {
    out.clean = false;
    note("population: view holds " + std::to_string(num_providers()) +
         " providers, full analysis " +
         std::to_string(full.providers.size()));
  } else {
    for (size_t i = 0; i < full.providers.size(); ++i) {
      const ProviderViolation& pv = full.providers[i];
      bool mismatch = false;
      if (pv.provider != providers_[i]) {
        mismatch = true;
      } else {
        if (!BitwiseEqual(pv.total_severity, severity_[i])) mismatch = true;
        if (pv.violated != (incidents_[i] > 0)) mismatch = true;
        if (static_cast<int64_t>(pv.incidents.size()) != incidents_[i]) {
          mismatch = true;
        }
        if (defaults.providers[i].defaulted != (defaulted_[i] != 0)) {
          mismatch = true;
        }
      }
      if (mismatch) {
        out.clean = false;
        ++out.mismatched_providers;
        note("provider " + std::to_string(pv.provider) + ": full severity " +
             std::to_string(pv.total_severity) + " with " +
             std::to_string(pv.incidents.size()) + " incidents, view " +
             std::to_string(severity_[i]) + " with " +
             std::to_string(incidents_[i]));
      }
    }
    if (!BitwiseEqual(full.total_severity, total_severity_)) {
      out.clean = false;
      note("total severity: full " + std::to_string(full.total_severity) +
           ", view " + std::to_string(total_severity_));
    }
    if (full.num_violated != num_violated_) {
      out.clean = false;
      note("num_violated: full " + std::to_string(full.num_violated) +
           ", view " + std::to_string(num_violated_));
    }
    if (defaults.num_defaulted != num_defaulted_) {
      out.clean = false;
      note("num_defaulted: full " + std::to_string(defaults.num_defaulted) +
           ", view " + std::to_string(num_defaulted_));
    }
  }

  const ViewMetrics& m = ViewMetrics::Get();
  if (out.clean) {
    ++drift_checks_clean_;
    m.drift_clean->Add();
  } else {
    ++drift_checks_failed_;
    m.drift_detected->Add();
  }
  return out;
}

}  // namespace ppdb::violation
