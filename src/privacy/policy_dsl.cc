#include "privacy/policy_dsl.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"

namespace ppdb::privacy {

namespace {

using KeyValue = std::pair<std::string_view, std::string_view>;

/// Splits "k1=v1, k2=v2" into trimmed pairs, into `out`.
Status ParseKvList(std::string_view text, std::vector<KeyValue>& out) {
  out.clear();
  size_t start = 0;
  while (true) {
    const size_t comma = text.find(',', start);
    const std::string_view item = TrimWhitespace(
        text.substr(start, comma == std::string_view::npos
                               ? std::string_view::npos
                               : comma - start));
    if (item.empty()) {
      return Status::ParseError("empty item in key=value list");
    }
    const size_t eq = item.find('=');
    std::string_view key;
    std::string_view value;
    if (eq != std::string_view::npos) {
      key = TrimWhitespace(item.substr(0, eq));
      value = TrimWhitespace(item.substr(eq + 1));
    }
    if (key.empty() || value.empty()) {
      return Status::ParseError(StrCat({"expected key=value, got '", item,
                                        "'"}));
    }
    out.emplace_back(key, value);
    if (comma == std::string_view::npos) return Status::OK();
    start = comma + 1;
  }
}

/// A level token is a level name on the scale or a raw integer index.
Result<int> ParseLevelToken(const OrderedScale& scale,
                            std::string_view token) {
  if (std::optional<int> by_name = scale.FindLevel(token)) return *by_name;
  Result<int64_t> by_index = ParseInt64(token);
  if (!by_index.ok()) {
    return Status::ParseError(StrCat({"'", token, "' is neither a level of ",
                                      scale.ToString(), " nor an integer"}));
  }
  int level = static_cast<int>(by_index.value());
  if (!scale.IsValidLevel(level)) {
    return Status::ParseError(StrCat({"level index ", std::to_string(level),
                                      " outside ", scale.ToString()}));
  }
  return level;
}

/// Whitespace-tokenizes `text` into `out`.
void Tokenize(std::string_view text, std::vector<std::string_view>& out) {
  out.clear();
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t') ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
}

/// Parses the DSL in place: statements are views into the input, and
/// the token, key=value and joined-line buffers are reused across lines.
class Parser {
 public:
  Result<PrivacyConfig> Parse(std::string_view text) {
    // A logical line ends at a newline that no backslash escapes. Only a
    // line with continuations is copied, without its backslash-newline
    // pairs; line numbers count logical lines.
    int line_no = 0;
    size_t pos = 0;
    while (true) {
      size_t end = pos;
      bool continued = false;
      while (true) {
        end = text.find('\n', end);
        if (end == std::string_view::npos) {
          end = text.size();
          break;
        }
        if (end == 0 || text[end - 1] != '\\') break;
        continued = true;
        ++end;
      }
      std::string_view raw_line = text.substr(pos, end - pos);
      if (continued) raw_line = JoinContinued(raw_line);
      ++line_no;
      size_t hash = raw_line.find('#');
      if (hash != std::string_view::npos) raw_line = raw_line.substr(0, hash);
      std::string_view line = TrimWhitespace(raw_line);
      if (!line.empty()) {
        Status s = ParseStatement(line);
        if (!s.ok()) {
          return s.WithPrefix(StrCat({"line ", std::to_string(line_no)}));
        }
      }
      if (end == text.size()) break;
      pos = end + 1;
    }
    PPDB_RETURN_NOT_OK(config_.Validate());
    return std::move(config_);
  }

 private:
  /// `raw` without its backslash-newline pairs. Every newline inside a
  /// logical line follows a backslash.
  std::string_view JoinContinued(std::string_view raw) {
    joined_.clear();
    size_t start = 0;
    for (size_t nl = raw.find('\n'); nl != std::string_view::npos;
         nl = raw.find('\n', start)) {
      joined_.append(raw.substr(start, nl - 1 - start));
      start = nl + 1;
    }
    joined_.append(raw.substr(start));
    return joined_;
  }

  Status ParseStatement(std::string_view line) {
    // Split "head: tail" if a colon is present.
    size_t colon = line.find(':');
    std::string_view head =
        colon == std::string_view::npos ? line : line.substr(0, colon);
    std::string_view tail = colon == std::string_view::npos
                                ? std::string_view()
                                : TrimWhitespace(line.substr(colon + 1));
    Tokenize(head, tokens_);
    const std::vector<std::string_view>& tokens = tokens_;
    if (tokens.empty()) return Status::ParseError("empty statement");
    std::string_view keyword = tokens[0];

    if (keyword == "scale") return ParseScale(tokens, tail);
    if (keyword == "magnitudes") return ParseMagnitudes(tokens, tail);
    if (keyword == "purpose") return ParsePurpose(tokens, colon);
    if (keyword == "provider") return ParseProvider(tokens, colon);
    if (keyword == "generalizer") return ParseGeneralizer(tokens, tail);
    if (keyword == "policy") return ParsePolicy(tokens, tail);
    if (keyword == "pref") return ParsePref(tokens, tail);
    if (keyword == "attr_sensitivity") return ParseAttrSensitivity(line);
    if (keyword == "sensitivity") return ParseSensitivity(tokens, tail);
    if (keyword == "threshold" || keyword == "fallback_threshold") {
      return ParseThreshold(line);
    }
    return Status::ParseError(
        StrCat({"unknown statement '", keyword, "'"}));
  }

  Status ParseScale(const std::vector<std::string_view>& tokens,
                    std::string_view tail) {
    if (tokens.size() != 2) {
      return Status::ParseError("expected 'scale <dimension>: levels...'");
    }
    if (scales_used_) {
      return Status::ParseError(
          "scale declarations must precede policy/pref statements");
    }
    PPDB_ASSIGN_OR_RETURN(Dimension dim, DimensionFromName(tokens[1]));
    std::vector<std::string> levels;
    for (std::string_view level : SplitAndTrim(tail, ',')) {
      levels.emplace_back(level);
    }
    PPDB_ASSIGN_OR_RETURN(OrderedScale scale,
                          OrderedScale::Create(dim, std::move(levels)));
    switch (dim) {
      case Dimension::kVisibility:
        config_.scales.visibility = std::move(scale);
        break;
      case Dimension::kGranularity:
        config_.scales.granularity = std::move(scale);
        break;
      case Dimension::kRetention:
        config_.scales.retention = std::move(scale);
        break;
      case Dimension::kPurpose:
        return Status::ParseError("purpose has no scale");
    }
    return Status::OK();
  }

  Status ParseMagnitudes(const std::vector<std::string_view>& tokens,
                         std::string_view tail) {
    if (tokens.size() != 2) {
      return Status::ParseError("expected 'magnitudes <dimension>: nums...'");
    }
    PPDB_ASSIGN_OR_RETURN(Dimension dim, DimensionFromName(tokens[1]));
    PPDB_ASSIGN_OR_RETURN(OrderedScale * scale,
                          config_.scales.MutableForDimension(dim));
    std::vector<std::string_view> fields = SplitAndTrim(tail, ',');
    if (static_cast<int>(fields.size()) != scale->num_levels()) {
      return Status::ParseError(StrCat(
          {"magnitude count ", std::to_string(fields.size()),
           " does not match level count ",
           std::to_string(scale->num_levels())}));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      PPDB_ASSIGN_OR_RETURN(double magnitude, ParseDouble(fields[i]));
      PPDB_RETURN_NOT_OK(
          scale->SetMagnitude(static_cast<int>(i), magnitude));
    }
    return Status::OK();
  }

  Status ParsePurpose(const std::vector<std::string_view>& tokens,
                      size_t colon) {
    if (colon != std::string_view::npos) {
      return Status::ParseError("purpose statement takes no ':'");
    }
    if (tokens.size() == 2) {
      return config_.purposes.Register(tokens[1]).status();
    }
    if (tokens.size() == 4 && tokens[2] == "implies") {
      PPDB_ASSIGN_OR_RETURN(PurposeId child,
                            config_.purposes.Register(tokens[1]));
      PPDB_ASSIGN_OR_RETURN(PurposeId parent,
                            config_.purposes.Register(tokens[3]));
      return config_.purpose_hierarchy.AddEdge(child, parent,
                                               config_.purposes);
    }
    return Status::ParseError(
        "expected 'purpose <name>' or 'purpose <name> implies <parent>'");
  }

  // `provider <id>` declares a provider with (so far) no stated
  // preferences — they still count toward N in every census (Def. 2) and
  // fall under the implicit-zero rule for all policy purposes.
  Status ParseProvider(const std::vector<std::string_view>& tokens,
                       size_t colon) {
    if (colon != std::string_view::npos || tokens.size() != 2) {
      return Status::ParseError("expected 'provider <id>'");
    }
    PPDB_ASSIGN_OR_RETURN(int64_t provider, ParseInt64(tokens[1]));
    PreferencesOf(provider);
    return Status::OK();
  }

  // `generalizer <attribute>: w0, w1, ...` — per-level bin widths for the
  // attribute's numeric generalizer (audit::NumericRangeGeneralizer).
  Status ParseGeneralizer(const std::vector<std::string_view>& tokens,
                          std::string_view tail) {
    if (tokens.size() != 2) {
      return Status::ParseError(
          "expected 'generalizer <attribute>: widths...'");
    }
    if (!IsValidIdentifier(tokens[1])) {
      return Status::ParseError(
          StrCat({"invalid attribute name '", tokens[1], "'"}));
    }
    std::vector<double> widths;
    for (std::string_view field : SplitAndTrim(tail, ',')) {
      PPDB_ASSIGN_OR_RETURN(double width, ParseDouble(field));
      widths.push_back(width);
    }
    if (widths.empty()) {
      return Status::ParseError("generalizer needs at least one width");
    }
    config_.numeric_generalizers[std::string(tokens[1])] = std::move(widths);
    return Status::OK();
  }

  Result<PrivacyTuple> ParseTupleBody(std::string_view purpose_name,
                                      std::string_view tail) {
    scales_used_ = true;
    PPDB_ASSIGN_OR_RETURN(PurposeId purpose,
                          config_.purposes.Register(purpose_name));
    PrivacyTuple tuple = PrivacyTuple::ZeroFor(purpose);
    PPDB_RETURN_NOT_OK(ParseKvList(tail, kvs_));
    for (const auto& [key, value] : kvs_) {
      PPDB_ASSIGN_OR_RETURN(Dimension dim, DimensionFromName(key));
      if (dim == Dimension::kPurpose) {
        return Status::ParseError(
            "purpose is given in the statement head, not the tuple body");
      }
      PPDB_ASSIGN_OR_RETURN(const OrderedScale* scale,
                            config_.scales.ForDimension(dim));
      PPDB_ASSIGN_OR_RETURN(int level, ParseLevelToken(*scale, value));
      PPDB_RETURN_NOT_OK(tuple.SetLevel(dim, level));
    }
    return tuple;
  }

  Status ParsePolicy(const std::vector<std::string_view>& tokens,
                     std::string_view tail) {
    // policy <attr> for <purpose>: <kvlist>
    if (tokens.size() != 4 || tokens[2] != "for") {
      return Status::ParseError(
          "expected 'policy <attribute> for <purpose>: ...'");
    }
    PPDB_ASSIGN_OR_RETURN(PrivacyTuple tuple,
                          ParseTupleBody(tokens[3], tail));
    return config_.policy.Add(tokens[1], tuple);
  }

  Status ParsePref(const std::vector<std::string_view>& tokens,
                   std::string_view tail) {
    // pref <provider> <attr> for <purpose>: <kvlist>
    if (tokens.size() != 5 || tokens[3] != "for") {
      return Status::ParseError(
          "expected 'pref <provider> <attribute> for <purpose>: ...'");
    }
    PPDB_ASSIGN_OR_RETURN(int64_t provider, ParseInt64(tokens[1]));
    PPDB_ASSIGN_OR_RETURN(PrivacyTuple tuple,
                          ParseTupleBody(tokens[4], tail));
    return PreferencesOf(provider).Add(tokens[2], tuple);
  }

  // The file is grouped by provider, so consecutive statements almost
  // always name the provider of the previous one.
  ProviderPreferences& PreferencesOf(ProviderId provider) {
    if (current_prefs_ == nullptr || current_prefs_->provider() != provider) {
      current_prefs_ = &config_.preferences.ForProvider(provider);
    }
    return *current_prefs_;
  }

  Status ParseAttrSensitivity(std::string_view line) {
    // attr_sensitivity <attr> [for <purpose>] = <num>
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::ParseError(
          "expected 'attr_sensitivity <attribute> [for <purpose>] = <num>'");
    }
    Tokenize(line.substr(0, eq), tokens_);
    const std::vector<std::string_view>& tokens = tokens_;
    PPDB_ASSIGN_OR_RETURN(double value,
                          ParseDouble(TrimWhitespace(line.substr(eq + 1))));
    if (tokens.size() == 2) {
      return config_.sensitivities.SetAttributeSensitivity(tokens[1], value);
    }
    if (tokens.size() == 4 && tokens[2] == "for") {
      PPDB_ASSIGN_OR_RETURN(PurposeId purpose,
                            config_.purposes.Register(tokens[3]));
      return config_.sensitivities.SetAttributeSensitivityForPurpose(
          tokens[1], purpose, value);
    }
    return Status::ParseError(
        "expected 'attr_sensitivity <attribute> [for <purpose>] = <num>'");
  }

  Status ParseSensitivity(const std::vector<std::string_view>& tokens,
                          std::string_view tail) {
    // sensitivity <provider> <attr> [for <purpose>]: <kvlist>
    bool with_purpose = tokens.size() == 5 && tokens[3] == "for";
    if (!with_purpose && tokens.size() != 3) {
      return Status::ParseError(
          "expected 'sensitivity <provider> <attribute> [for <purpose>]: "
          "...'");
    }
    PPDB_ASSIGN_OR_RETURN(int64_t provider, ParseInt64(tokens[1]));
    DimensionSensitivity sens;
    PPDB_RETURN_NOT_OK(ParseKvList(tail, kvs_));
    for (const auto& [key, value] : kvs_) {
      PPDB_ASSIGN_OR_RETURN(double v, ParseDouble(value));
      if (key == "value") {
        sens.value = v;
      } else {
        PPDB_ASSIGN_OR_RETURN(Dimension dim, DimensionFromName(key));
        switch (dim) {
          case Dimension::kVisibility:
            sens.visibility = v;
            break;
          case Dimension::kGranularity:
            sens.granularity = v;
            break;
          case Dimension::kRetention:
            sens.retention = v;
            break;
          case Dimension::kPurpose:
            return Status::ParseError(
                "purpose carries no dimension sensitivity");
        }
      }
    }
    if (with_purpose) {
      PPDB_ASSIGN_OR_RETURN(PurposeId purpose,
                            config_.purposes.Register(tokens[4]));
      return config_.sensitivities.SetProviderSensitivityForPurpose(
          provider, tokens[2], purpose, sens);
    }
    return config_.sensitivities.SetProviderSensitivity(provider, tokens[2],
                                                        sens);
  }

  Status ParseThreshold(std::string_view line) {
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::ParseError("expected '= <num>' in threshold statement");
    }
    Tokenize(line.substr(0, eq), tokens_);
    const std::vector<std::string_view>& tokens = tokens_;
    PPDB_ASSIGN_OR_RETURN(double value,
                          ParseDouble(TrimWhitespace(line.substr(eq + 1))));
    if (value < 0.0) {
      return Status::ParseError("thresholds must be non-negative");
    }
    if (tokens[0] == "fallback_threshold") {
      if (tokens.size() != 1) {
        return Status::ParseError("expected 'fallback_threshold = <num>'");
      }
      config_.fallback_threshold = value;
      return Status::OK();
    }
    if (tokens.size() != 2) {
      return Status::ParseError("expected 'threshold <provider> = <num>'");
    }
    PPDB_ASSIGN_OR_RETURN(int64_t provider, ParseInt64(tokens[1]));
    config_.thresholds[provider] = value;
    return Status::OK();
  }

  PrivacyConfig config_;
  bool scales_used_ = false;
  ProviderPreferences* current_prefs_ = nullptr;
  std::string joined_;
  // The statement head's tokens; ParseAttrSensitivity and ParseThreshold
  // re-tokenize their `<head> =` part into it.
  std::vector<std::string_view> tokens_;
  std::vector<KeyValue> kvs_;
};

void AppendInt(std::string& out, int64_t value) {
  char buf[24];
  std::to_chars_result written = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, written.ptr);
}

/// printf's "%.<precision>g", which `to_chars` at a precision is by
/// definition; returns the end of the text written into `buf`.
char* FormatGeneral(char (&buf)[32], double value, int precision) {
  return std::to_chars(buf, buf + sizeof(buf), value,
                       std::chars_format::general, precision)
      .ptr;
}

/// Appends `value` as %g when that reads back as the same double, else as
/// %.17g, which round-trips every double. `from_chars` rounds correctly,
/// as `strtod` does, so the choice is the one `strtod` would make; inf and
/// nan print the same at either precision.
void AppendNumber(std::string& out, double value) {
  char buf[32];
  char* end = FormatGeneral(buf, value, 6);
  double back = 0.0;
  const std::from_chars_result read = std::from_chars(buf, end, back);
  if (read.ec != std::errc() || read.ptr != end || back != value) {
    end = FormatGeneral(buf, value, 17);
  }
  out.append(buf, end);
}

/// The registered name of `id`, by reference. A tuple naming an
/// unregistered purpose is a broken config (`Validate` rejects it).
const std::string& PurposeName(const PurposeRegistry& purposes,
                               PurposeId id) {
  PPDB_CHECK(id >= 0 && id < purposes.num_purposes());
  return purposes.names()[static_cast<size_t>(id)];
}

void AppendScale(std::string& out, const OrderedScale& scale) {
  out += "scale ";
  out += DimensionName(scale.dimension());
  out += ": ";
  for (int i = 0; i < scale.num_levels(); ++i) {
    if (i > 0) out += ", ";
    out += scale.names()[static_cast<size_t>(i)];
  }
  out += "\nmagnitudes ";
  out += DimensionName(scale.dimension());
  out += ": ";
  for (int i = 0; i < scale.num_levels(); ++i) {
    if (i > 0) out += ", ";
    AppendNumber(out, scale.MagnitudeOf(i).value());
  }
  out += '\n';
}

void AppendLevel(std::string& out, const OrderedScale& scale, int level) {
  if (scale.IsValidLevel(level)) {
    out += scale.names()[static_cast<size_t>(level)];
  } else {
    AppendInt(out, level);
  }
}

void AppendTupleBody(std::string& out, const PrivacyTuple& tuple,
                     const ScaleSet& scales) {
  out += "visibility=";
  AppendLevel(out, scales.visibility, tuple.visibility);
  out += ", granularity=";
  AppendLevel(out, scales.granularity, tuple.granularity);
  out += ", retention=";
  AppendLevel(out, scales.retention, tuple.retention);
}

void AppendDimensionSensitivity(std::string& out,
                                const DimensionSensitivity& sens) {
  out += "value=";
  AppendNumber(out, sens.value);
  out += ", visibility=";
  AppendNumber(out, sens.visibility);
  out += ", granularity=";
  AppendNumber(out, sens.granularity);
  out += ", retention=";
  AppendNumber(out, sens.retention);
  out += '\n';
}

/// Each σ id's position in name order: the serializer writes σ sorted by
/// attribute name, as the format always has, whatever order the names
/// were registered in.
std::vector<int32_t> NameRanks(const AttributeRegistry& attributes) {
  const std::vector<std::string>& names = attributes.names();
  std::vector<AttributeId> by_name(names.size());
  for (size_t i = 0; i < by_name.size(); ++i) {
    by_name[i] = static_cast<AttributeId>(i);
  }
  std::sort(by_name.begin(), by_name.end(),
            [&names](AttributeId a, AttributeId b) {
              return names[static_cast<size_t>(a)] <
                     names[static_cast<size_t>(b)];
            });
  std::vector<int32_t> rank(names.size());
  for (size_t i = 0; i < by_name.size(); ++i) {
    rank[static_cast<size_t>(by_name[i])] = static_cast<int32_t>(i);
  }
  return rank;
}

/// Writes every provider's σ defaults, or else its purpose overrides, by
/// ascending provider, then attribute name, then purpose id.
void AppendProviderSensitivities(std::string& out, const PrivacyConfig& config,
                                 const std::vector<int32_t>& rank,
                                 bool overrides) {
  const SensitivityModel& model = config.sensitivities;
  const std::vector<std::string>& names = model.attributes().names();
  std::vector<const SensitivityModel::Row*> picked;
  for (const auto& [provider, rows] : model.provider_rows()) {
    picked.clear();
    for (const SensitivityModel::Row& row : rows) {
      if ((row.purpose != SensitivityModel::kAnyPurpose) == overrides) {
        picked.push_back(&row);
      }
    }
    std::sort(picked.begin(), picked.end(),
              [&rank](const SensitivityModel::Row* a,
                      const SensitivityModel::Row* b) {
                return std::pair(rank[static_cast<size_t>(a->attribute)],
                                 a->purpose) <
                       std::pair(rank[static_cast<size_t>(b->attribute)],
                                 b->purpose);
              });
    for (const SensitivityModel::Row* row : picked) {
      out += "sensitivity ";
      AppendInt(out, provider);
      out += ' ';
      out += names[static_cast<size_t>(row->attribute)];
      if (overrides) {
        out += " for ";
        out += PurposeName(config.purposes, row->purpose);
      }
      out += ": ";
      AppendDimensionSensitivity(out, row->sensitivity);
    }
  }
}

}  // namespace

Result<PrivacyConfig> ParsePrivacyConfig(std::string_view text) {
  Parser parser;
  return parser.Parse(text);
}

std::string SerializePrivacyConfig(const PrivacyConfig& config) {
  // Size the output from the row counts; the reservation is generous,
  // since pages never written are never resident.
  size_t num_prefs = 0;
  for (const auto& [id, prefs] : config.preferences.entries()) {
    num_prefs += static_cast<size_t>(std::max<int64_t>(prefs.size(), 1));
  }
  const SensitivityModel& s = config.sensitivities;
  size_t num_sensitivities = 0;
  for (const SensitivityModel::ProviderEntry& entry : s.provider_rows()) {
    num_sensitivities += entry.rows.size();
  }
  std::string out;
  out.reserve(4096 + 128 * (num_prefs + config.policy.tuples().size()) +
              192 * num_sensitivities + 64 * config.thresholds.size());
  out += "# ppdb privacy configuration\n";
  AppendScale(out, config.scales.visibility);
  AppendScale(out, config.scales.granularity);
  AppendScale(out, config.scales.retention);

  for (const std::string& name : config.purposes.names()) {
    out += "purpose ";
    out += name;
    out += '\n';
  }
  for (PurposeId child = 0; child < config.purposes.num_purposes(); ++child) {
    for (PurposeId parent : config.purpose_hierarchy.ParentsOf(child)) {
      out += "purpose ";
      out += PurposeName(config.purposes, child);
      out += " implies ";
      out += PurposeName(config.purposes, parent);
      out += '\n';
    }
  }

  for (const PolicyTuple& pt : config.policy.tuples()) {
    out += "policy ";
    out += pt.attribute;
    out += " for ";
    out += PurposeName(config.purposes, pt.tuple.purpose);
    out += ": ";
    AppendTupleBody(out, pt.tuple, config.scales);
    out += '\n';
  }

  const std::vector<std::string>& pref_names =
      config.preferences.attributes().names();
  for (const auto& [id, prefs] : config.preferences.entries()) {
    if (prefs.empty()) {
      // Keep preference-less providers in the population (Def. 2 counts
      // them; the implicit-zero rule applies to them in full).
      out += "provider ";
      AppendInt(out, id);
      out += '\n';
      continue;
    }
    for (const ProviderPreferences::Row& row : prefs.rows()) {
      out += "pref ";
      AppendInt(out, id);
      out += ' ';
      out += pref_names[static_cast<size_t>(row.attribute)];
      out += " for ";
      out += PurposeName(config.purposes, row.tuple.purpose);
      out += ": ";
      AppendTupleBody(out, row.tuple, config.scales);
      out += '\n';
    }
  }

  for (const auto& [attribute, value] : s.attribute_defaults()) {
    out += "attr_sensitivity ";
    out += attribute;
    out += " = ";
    AppendNumber(out, value);
    out += '\n';
  }
  for (const auto& [key, value] : s.attribute_overrides()) {
    out += "attr_sensitivity ";
    out += key.first;
    out += " for ";
    out += PurposeName(config.purposes, key.second);
    out += " = ";
    AppendNumber(out, value);
    out += '\n';
  }
  const std::vector<int32_t> rank = NameRanks(s.attributes());
  AppendProviderSensitivities(out, config, rank, /*overrides=*/false);
  AppendProviderSensitivities(out, config, rank, /*overrides=*/true);

  for (const auto& [attribute, widths] : config.numeric_generalizers) {
    out += "generalizer ";
    out += attribute;
    out += ": ";
    for (size_t i = 0; i < widths.size(); ++i) {
      if (i > 0) out += ", ";
      AppendNumber(out, widths[i]);
    }
    out += '\n';
  }

  for (const auto& [provider, threshold] : config.thresholds) {
    out += "threshold ";
    AppendInt(out, provider);
    out += " = ";
    AppendNumber(out, threshold);
    out += '\n';
  }
  if (config.fallback_threshold != 0.0) {
    out += "fallback_threshold = ";
    AppendNumber(out, config.fallback_threshold);
    out += '\n';
  }
  return out;
}

}  // namespace ppdb::privacy
