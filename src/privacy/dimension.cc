#include "privacy/dimension.h"

#include "common/string_util.h"

namespace ppdb::privacy {

std::string_view DimensionName(Dimension dim) {
  switch (dim) {
    case Dimension::kPurpose:
      return "purpose";
    case Dimension::kVisibility:
      return "visibility";
    case Dimension::kGranularity:
      return "granularity";
    case Dimension::kRetention:
      return "retention";
  }
  return "unknown";
}

Result<Dimension> DimensionFromName(std::string_view name) {
  struct Spelling {
    std::string_view full;
    std::string_view short_form;
    Dimension dim;
  };
  static constexpr Spelling kSpellings[] = {
      {"purpose", "pr", Dimension::kPurpose},
      {"visibility", "v", Dimension::kVisibility},
      {"granularity", "g", Dimension::kGranularity},
      {"retention", "r", Dimension::kRetention},
  };
  // The canonical spelling (what the DSL serializer writes) first.
  for (const Spelling& s : kSpellings) {
    if (name == s.full) return s.dim;
  }
  for (const Spelling& s : kSpellings) {
    if (EqualsIgnoreCase(name, s.full) ||
        EqualsIgnoreCase(name, s.short_form)) {
      return s.dim;
    }
  }
  return Status::ParseError("unknown privacy dimension: '" +
                            std::string(name) + "'");
}

}  // namespace ppdb::privacy
