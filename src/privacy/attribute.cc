#include "privacy/attribute.h"

#include "common/macros.h"

namespace ppdb::privacy {

AttributeId AttributeRegistry::Register(std::string_view name) {
  // The hit is the common case (every line of a DSL file names an
  // attribute seen before) and allocates nothing.
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const AttributeId id = static_cast<AttributeId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(std::string(name), id);
  return id;
}

std::optional<AttributeId> AttributeRegistry::Lookup(
    std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& AttributeRegistry::NameOf(AttributeId id) const {
  PPDB_CHECK(id >= 0 && id < num_attributes());
  return names_[static_cast<size_t>(id)];
}

}  // namespace ppdb::privacy
