#ifndef PPDB_PRIVACY_PURPOSE_H_
#define PPDB_PRIVACY_PURPOSE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"

namespace ppdb::privacy {

/// Interned identifier of a purpose. Ids are dense, starting at 0, in
/// registration order.
using PurposeId = int32_t;

/// Interning registry for purpose names (assumption 4: "different purposes
/// are distinguishable" — the registry is the source of that
/// distinguishability).
class PurposeRegistry {
 public:
  PurposeRegistry() = default;

  /// Registers a purpose; returns its id. Re-registering an existing name
  /// returns the existing id (idempotent). Errors on invalid identifiers.
  Result<PurposeId> Register(std::string_view name);

  /// Looks up an existing purpose by name; kNotFound when unregistered.
  Result<PurposeId> Lookup(std::string_view name) const;

  /// Name of `id`; errors when out of range.
  Result<std::string> NameOf(PurposeId id) const;

  /// True iff the name is registered.
  bool Contains(std::string_view name) const;

  int32_t num_purposes() const { return static_cast<int32_t>(names_.size()); }

  /// All registered names in id order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, PurposeId, StringHash, std::equal_to<>>
      index_;
};

/// Optional specialization hierarchy over purposes (the lattice extension
/// the paper cites as ongoing research [5], §3 assumption 4).
///
/// `AddEdge(child, parent)` states that `child` is a more specific purpose
/// than `parent` (e.g. email_marketing ⊑ marketing). `Implies(a, b)` is the
/// reflexive-transitive closure: data permitted for purpose `b` may be used
/// for any `a` with a ⊑ b. The structure must stay acyclic; edges creating a
/// cycle are rejected, which keeps ⊑ a partial order.
///
/// The base model of Def. 1 compares purposes by equality only; components
/// accept an optional hierarchy to widen that comparison (see
/// `ViolationDetector::Options::purpose_hierarchy`).
class PurposeHierarchy {
 public:
  PurposeHierarchy() = default;

  /// Declares `child` ⊑ `parent`, validated against `registry`. Errors when
  /// either purpose is unregistered, on self-edges, and when the edge would
  /// create a cycle.
  Status AddEdge(PurposeId child, PurposeId parent,
                 const PurposeRegistry& registry);

  /// True iff a ⊑ b under the reflexive-transitive closure.
  bool Implies(PurposeId a, PurposeId b) const;

  /// All ancestors of `id` (excluding itself), in BFS order.
  std::vector<PurposeId> AncestorsOf(PurposeId id) const;

  /// Direct parents of `id`.
  std::vector<PurposeId> ParentsOf(PurposeId id) const;

  /// Total number of declared edges.
  int64_t num_edges() const;

 private:
  std::unordered_map<PurposeId, std::vector<PurposeId>> parents_;
};

}  // namespace ppdb::privacy

#endif  // PPDB_PRIVACY_PURPOSE_H_
