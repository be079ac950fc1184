#include "privacy/purpose.h"

#include <deque>
#include <unordered_set>

#include "common/string_util.h"

namespace ppdb::privacy {

Result<PurposeId> PurposeRegistry::Register(std::string_view name) {
  // Only valid identifiers are ever registered, so a hit needs no check.
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  if (!IsValidIdentifier(name)) {
    return Status::InvalidArgument("invalid purpose name: '" +
                                   std::string(name) + "'");
  }
  PurposeId id = static_cast<PurposeId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(std::string(name), id);
  return id;
}

Result<PurposeId> PurposeRegistry::Lookup(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("unregistered purpose: '" + std::string(name) +
                            "'");
  }
  return it->second;
}

Result<std::string> PurposeRegistry::NameOf(PurposeId id) const {
  if (id < 0 || static_cast<size_t>(id) >= names_.size()) {
    return Status::OutOfRange("purpose id " + std::to_string(id) +
                              " out of range");
  }
  return names_[static_cast<size_t>(id)];
}

bool PurposeRegistry::Contains(std::string_view name) const {
  return index_.contains(name);
}

Status PurposeHierarchy::AddEdge(PurposeId child, PurposeId parent,
                                 const PurposeRegistry& registry) {
  if (child == parent) {
    return Status::InvalidArgument("a purpose cannot specialize itself");
  }
  auto validate = [&registry](PurposeId id) -> Status {
    if (id < 0 || id >= registry.num_purposes()) {
      return Status::NotFound("purpose id " + std::to_string(id) +
                              " is not registered");
    }
    return Status::OK();
  };
  Status s = validate(child);
  if (!s.ok()) return s;
  s = validate(parent);
  if (!s.ok()) return s;
  // Adding child -> parent creates a cycle iff parent already implies child.
  if (Implies(parent, child)) {
    return Status::InvalidArgument(
        "edge would create a cycle in the purpose hierarchy");
  }
  parents_[child].push_back(parent);
  return Status::OK();
}

bool PurposeHierarchy::Implies(PurposeId a, PurposeId b) const {
  if (a == b) return true;
  std::unordered_set<PurposeId> seen{a};
  std::deque<PurposeId> frontier{a};
  while (!frontier.empty()) {
    PurposeId current = frontier.front();
    frontier.pop_front();
    auto it = parents_.find(current);
    if (it == parents_.end()) continue;
    for (PurposeId parent : it->second) {
      if (parent == b) return true;
      if (seen.insert(parent).second) frontier.push_back(parent);
    }
  }
  return false;
}

std::vector<PurposeId> PurposeHierarchy::AncestorsOf(PurposeId id) const {
  std::vector<PurposeId> out;
  std::unordered_set<PurposeId> seen{id};
  std::deque<PurposeId> frontier{id};
  while (!frontier.empty()) {
    PurposeId current = frontier.front();
    frontier.pop_front();
    auto it = parents_.find(current);
    if (it == parents_.end()) continue;
    for (PurposeId parent : it->second) {
      if (seen.insert(parent).second) {
        out.push_back(parent);
        frontier.push_back(parent);
      }
    }
  }
  return out;
}

std::vector<PurposeId> PurposeHierarchy::ParentsOf(PurposeId id) const {
  auto it = parents_.find(id);
  if (it == parents_.end()) return {};
  return it->second;
}

int64_t PurposeHierarchy::num_edges() const {
  int64_t n = 0;
  for (const auto& [child, parents] : parents_) {
    n += static_cast<int64_t>(parents.size());
  }
  return n;
}

}  // namespace ppdb::privacy
