#include "relational/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"

namespace ppdb::rel {

Result<Table> Table::Create(std::string name, Schema schema) {
  if (!IsValidIdentifier(name)) {
    return Status::InvalidArgument("invalid table name: '" + name + "'");
  }
  return Table(std::move(name), std::move(schema), /*multi_record=*/false);
}

Result<Table> Table::CreateMultiRecord(std::string name, Schema schema) {
  if (!IsValidIdentifier(name)) {
    return Status::InvalidArgument("invalid table name: '" + name + "'");
  }
  return Table(std::move(name), std::move(schema), /*multi_record=*/true);
}

Table::Table(std::string name, Schema schema, bool multi_record)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      multi_record_(multi_record) {}

Status Table::Insert(ProviderId provider, std::vector<Value> values) {
  if (!multi_record_ && provider_index_.contains(provider)) {
    return Status::AlreadyExists("provider " + std::to_string(provider) +
                                 " already has a row in table '" + name_ +
                                 "' (assumption 5: one tuple per provider)");
  }
  PPDB_RETURN_NOT_OK(schema_.ValidateRow(values));
  provider_index_[provider].push_back(rows_.size());
  rows_.push_back(Row{provider, std::move(values)});
  return Status::OK();
}

Result<Row> Table::GetRow(ProviderId provider) const {
  auto it = provider_index_.find(provider);
  if (it == provider_index_.end()) {
    return Status::NotFound("provider " + std::to_string(provider) +
                            " not present in table '" + name_ + "'");
  }
  if (it->second.size() > 1) {
    return Status::FailedPrecondition(
        "provider " + std::to_string(provider) + " owns " +
        std::to_string(it->second.size()) +
        " rows; use RowsForProvider on a multi-record table");
  }
  return rows_[it->second.front()];
}

std::vector<Row> Table::RowsForProvider(ProviderId provider) const {
  std::vector<Row> out;
  auto it = provider_index_.find(provider);
  if (it == provider_index_.end()) return out;
  out.reserve(it->second.size());
  for (size_t index : it->second) out.push_back(rows_[index]);
  return out;
}

bool Table::ContainsProvider(ProviderId provider) const {
  return provider_index_.contains(provider);
}

Status Table::UpdateCell(ProviderId provider, int attribute_index,
                         Value value) {
  auto it = provider_index_.find(provider);
  if (it == provider_index_.end()) {
    return Status::NotFound("provider " + std::to_string(provider) +
                            " not present in table '" + name_ + "'");
  }
  if (attribute_index < 0 || attribute_index >= schema_.num_attributes()) {
    return Status::InvalidArgument("attribute index out of range");
  }
  const AttributeDef& def = schema_.attribute(attribute_index);
  if (!value.is_null() && value.type() != def.type) {
    return Status::InvalidArgument(
        "attribute '" + def.name + "' expects " +
        std::string(DataTypeName(def.type)) + ", got " +
        std::string(DataTypeName(value.type())));
  }
  for (size_t index : it->second) {
    rows_[index].values[static_cast<size_t>(attribute_index)] = value;
  }
  return Status::OK();
}

Result<Value> Table::GetCell(ProviderId provider,
                             std::string_view attribute_name) const {
  PPDB_ASSIGN_OR_RETURN(int j, schema_.IndexOf(attribute_name));
  PPDB_ASSIGN_OR_RETURN(Row row, GetRow(provider));
  return row.values[static_cast<size_t>(j)];
}

Result<bool> Table::ProviderSuppliesAttribute(
    ProviderId provider, std::string_view attribute_name) const {
  PPDB_ASSIGN_OR_RETURN(int j, schema_.IndexOf(attribute_name));
  return ProviderSuppliesColumn(provider, j);
}

bool Table::ProviderSuppliesColumn(ProviderId provider, int column) const {
  auto it = provider_index_.find(provider);
  if (it == provider_index_.end()) return false;
  for (size_t index : it->second) {
    if (!rows_[index].values[static_cast<size_t>(column)].is_null()) {
      return true;
    }
  }
  return false;
}

Status Table::EraseProvider(ProviderId provider) {
  auto it = provider_index_.find(provider);
  if (it == provider_index_.end()) {
    return Status::NotFound("provider " + std::to_string(provider) +
                            " not present in table '" + name_ + "'");
  }
  std::erase_if(rows_,
                [&](const Row& row) { return row.provider == provider; });
  Reindex();
  return Status::OK();
}

int64_t Table::EraseProviders(const std::vector<ProviderId>& providers) {
  std::unordered_set<ProviderId> doomed(providers.begin(), providers.end());
  size_t before = rows_.size();
  std::erase_if(rows_,
                [&](const Row& row) { return doomed.contains(row.provider); });
  int64_t erased = static_cast<int64_t>(before - rows_.size());
  if (erased > 0) Reindex();
  return erased;
}

void Table::Reindex() {
  provider_index_.clear();
  for (size_t i = 0; i < rows_.size(); ++i) {
    provider_index_[rows_[i].provider].push_back(i);
  }
}

std::vector<ProviderId> Table::ProviderIds() const {
  std::vector<ProviderId> ids;
  std::unordered_set<ProviderId> seen;
  ids.reserve(provider_index_.size());
  for (const Row& row : rows_) {
    if (seen.insert(row.provider).second) ids.push_back(row.provider);
  }
  return ids;
}

std::string Table::ToString(int64_t max_rows) const {
  std::string out = name_ + " " + schema_.ToString() + "\n";
  int64_t shown = 0;
  for (const Row& row : rows_) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(num_rows() - max_rows) + " more)\n";
      break;
    }
    out += "  #" + std::to_string(row.provider) + ": [";
    for (size_t j = 0; j < row.values.size(); ++j) {
      if (j > 0) out += ", ";
      out += row.values[j].ToString();
    }
    out += "]\n";
  }
  return out;
}

}  // namespace ppdb::rel
