#ifndef PPDB_PRIVACY_ATTRIBUTE_H_
#define PPDB_PRIVACY_ATTRIBUTE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace ppdb::privacy {

/// Interned identifier of an attribute name. Ids are dense, starting at 0,
/// in registration order, and local to the registry that issued them.
using AttributeId = int32_t;

/// Interning registry for attribute names, the population store's
/// counterpart of `PurposeRegistry`: the preference store and the σ model
/// each key their per-provider rows by the ids of one of these, so a
/// lookup compares integers, never names. Names are only ever added, so
/// an id, once issued, names the same attribute for the registry's life.
class AttributeRegistry {
 public:
  AttributeRegistry() = default;

  /// The id of `name`, registering it on first sight (idempotent).
  AttributeId Register(std::string_view name);

  /// The id of `name`, or nullopt when it was never registered.
  std::optional<AttributeId> Lookup(std::string_view name) const;

  /// Name of `id`; `id` must have been issued by this registry. The
  /// reference is valid until the next `Register`.
  const std::string& NameOf(AttributeId id) const;

  int32_t num_attributes() const {
    return static_cast<int32_t>(names_.size());
  }

  /// All registered names in id order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttributeId, StringHash, std::equal_to<>>
      index_;
};

}  // namespace ppdb::privacy

#endif  // PPDB_PRIVACY_ATTRIBUTE_H_
