#ifndef PPDB_RELATIONAL_TABLE_H_
#define PPDB_RELATIONAL_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace ppdb::rel {

/// Identifier of a data provider. The paper's simplifying assumption 5 is
/// that each tuple in a data table represents a single provider; a
/// ProviderId therefore doubles as a row key in the default (single-record)
/// mode.
using ProviderId = int64_t;

/// One record t_i: a tuple tagged with the id of the provider who supplied
/// it, so violation analysis can join data with preferences.
struct Row {
  ProviderId provider = 0;
  std::vector<Value> values;

  friend bool operator==(const Row& a, const Row& b) {
    return a.provider == b.provider && a.values == b.values;
  }
};

/// An in-memory relation T = {t_1, ..., t_n} (paper §4).
///
/// Two modes:
///  - `Create` (default): one row per provider — the paper's assumption 5.
///    Point operations (`GetRow`, `GetCell`) address rows by provider.
///  - `CreateMultiRecord`: the extension the paper sketches ("multiple
///    records may exist in the same table for a given data provider") — a
///    provider may own many rows; use `RowsForProvider` to enumerate them.
///    `GetRow`/`GetCell` error with kFailedPrecondition when the provider
///    owns more than one row (the lookup is ambiguous).
///
/// The table preserves insertion order for scans and maintains a provider
/// index for point lookups. All mutating operations validate against the
/// schema. A Table is copyable (used by what-if scenario snapshots).
class Table {
 public:
  /// Creates an empty single-record table. `name` must be a valid
  /// identifier.
  static Result<Table> Create(std::string name, Schema schema);

  /// Creates an empty table permitting multiple rows per provider.
  static Result<Table> CreateMultiRecord(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// True when multiple rows per provider are permitted.
  bool multi_record() const { return multi_record_; }

  /// Number of rows n.
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }

  /// Number of distinct providers with at least one row.
  int64_t num_providers() const {
    return static_cast<int64_t>(provider_index_.size());
  }

  /// Inserts a row for `provider`. In single-record mode errors when the
  /// provider already has a row (assumption 5); multi-record mode appends.
  Status Insert(ProviderId provider, std::vector<Value> values);

  /// Returns the unique row for `provider`; kNotFound when absent,
  /// kFailedPrecondition when the provider owns several rows.
  Result<Row> GetRow(ProviderId provider) const;

  /// All rows owned by `provider`, in insertion order (empty when absent).
  std::vector<Row> RowsForProvider(ProviderId provider) const;

  /// True iff `provider` has at least one row.
  bool ContainsProvider(ProviderId provider) const;

  /// Replaces the datum at attribute ordinal `j` in *every* row owned by
  /// `provider` (exactly one in single-record mode).
  Status UpdateCell(ProviderId provider, int attribute_index, Value value);

  /// Returns the datum t_i^j from the provider's unique row, addressing the
  /// attribute by name. Same ambiguity rules as GetRow.
  Result<Value> GetCell(ProviderId provider,
                        std::string_view attribute_name) const;

  /// True iff some row of `provider` carries a non-null datum for the
  /// attribute — "the provider supplies this datum" in either mode. Errors
  /// when the attribute does not exist; false when the provider is absent.
  Result<bool> ProviderSuppliesAttribute(
      ProviderId provider, std::string_view attribute_name) const;

  /// The same for the attribute at schema position `column`, which must be
  /// in range: for callers that resolved the name once.
  bool ProviderSuppliesColumn(ProviderId provider, int column) const;

  /// Removes all of the provider's rows; used when a provider defaults and
  /// withdraws their data. Errors with kNotFound when absent.
  Status EraseProvider(ProviderId provider);

  /// Removes all listed providers' rows in one pass (ids without a row are
  /// ignored). Returns the number of rows removed. O(n + k), versus O(n·k)
  /// for repeated EraseProvider calls.
  int64_t EraseProviders(const std::vector<ProviderId>& providers);

  /// All rows in insertion order (erasures compact the order).
  const std::vector<Row>& rows() const { return rows_; }

  /// Distinct provider ids, in first-insertion order.
  std::vector<ProviderId> ProviderIds() const;

  /// Renders the table as aligned text (for examples and debugging).
  std::string ToString(int64_t max_rows = 20) const;

 private:
  Table(std::string name, Schema schema, bool multi_record);
  void Reindex();

  std::string name_;
  Schema schema_;
  bool multi_record_;
  std::vector<Row> rows_;
  /// provider -> indices of its rows, in insertion order.
  std::unordered_map<ProviderId, std::vector<size_t>> provider_index_;
};

}  // namespace ppdb::rel

#endif  // PPDB_RELATIONAL_TABLE_H_
