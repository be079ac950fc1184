#include "server/request.h"

#include <vector>

#include "common/macros.h"
#include "common/string_util.h"

namespace ppdb::server {

namespace {

/// Splits on runs of spaces/tabs; never produces empty tokens.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Status WrongArity(std::string_view command, std::string_view expected) {
  return Status::InvalidArgument(
      StrCat({"'", command, "' expects ", expected}));
}

Result<int> ParseLevel(std::string_view token) {
  PPDB_ASSIGN_OR_RETURN(int64_t value, ParseInt64(token));
  if (value < 0 || value > 1000000) {
    return Status::InvalidArgument("level out of range: " +
                                   std::string(token));
  }
  return static_cast<int>(value);
}

Result<Request> ParseEvent(const std::vector<std::string_view>& tokens) {
  Request request;
  if (tokens.size() < 2) {
    return WrongArity("event", "a subcommand (add|remove|pref|unpref|threshold)");
  }
  const std::string_view sub = tokens[1];
  if (sub == "add") {
    if (tokens.size() != 4) return WrongArity("event add", "<provider> <threshold>");
    request.kind = RequestKind::kEventAdd;
    PPDB_ASSIGN_OR_RETURN(request.provider, ParseInt64(tokens[2]));
    PPDB_ASSIGN_OR_RETURN(request.threshold, ParseDouble(tokens[3]));
    return request;
  }
  if (sub == "remove") {
    if (tokens.size() != 3) return WrongArity("event remove", "<provider>");
    request.kind = RequestKind::kEventRemove;
    PPDB_ASSIGN_OR_RETURN(request.provider, ParseInt64(tokens[2]));
    return request;
  }
  if (sub == "pref") {
    if (tokens.size() != 8) {
      return WrongArity("event pref",
                        "<provider> <attr> <purpose> <vis> <gran> <ret>");
    }
    request.kind = RequestKind::kEventSetPref;
    PPDB_ASSIGN_OR_RETURN(request.provider, ParseInt64(tokens[2]));
    request.attribute = std::string(tokens[3]);
    request.purpose = std::string(tokens[4]);
    if (!IsValidIdentifier(request.attribute)) {
      return Status::InvalidArgument("invalid attribute name");
    }
    PPDB_ASSIGN_OR_RETURN(request.visibility, ParseLevel(tokens[5]));
    PPDB_ASSIGN_OR_RETURN(request.granularity, ParseLevel(tokens[6]));
    PPDB_ASSIGN_OR_RETURN(request.retention, ParseLevel(tokens[7]));
    return request;
  }
  if (sub == "unpref") {
    if (tokens.size() != 5) {
      return WrongArity("event unpref", "<provider> <attr> <purpose>");
    }
    request.kind = RequestKind::kEventRemovePref;
    PPDB_ASSIGN_OR_RETURN(request.provider, ParseInt64(tokens[2]));
    request.attribute = std::string(tokens[3]);
    request.purpose = std::string(tokens[4]);
    return request;
  }
  if (sub == "threshold") {
    if (tokens.size() != 4) {
      return WrongArity("event threshold", "<provider> <value>");
    }
    request.kind = RequestKind::kEventSetThreshold;
    PPDB_ASSIGN_OR_RETURN(request.provider, ParseInt64(tokens[2]));
    PPDB_ASSIGN_OR_RETURN(request.threshold, ParseDouble(tokens[3]));
    return request;
  }
  return Status::InvalidArgument("unknown event subcommand '" +
                                 std::string(sub) + "'");
}

}  // namespace

std::string_view RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing: return "ping";
    case RequestKind::kStats: return "stats";
    case RequestKind::kMetrics: return "metrics";
    case RequestKind::kTrace: return "trace";
    case RequestKind::kAnalyze: return "analyze";
    case RequestKind::kCertify: return "certify";
    case RequestKind::kEstimate: return "estimate";
    case RequestKind::kWhatIf: return "whatif";
    case RequestKind::kSearch: return "search";
    case RequestKind::kEventAdd: return "event_add";
    case RequestKind::kEventRemove: return "event_remove";
    case RequestKind::kEventSetPref: return "event_pref";
    case RequestKind::kEventRemovePref: return "event_unpref";
    case RequestKind::kEventSetThreshold: return "event_threshold";
    case RequestKind::kQuery: return "query";
    case RequestKind::kExpansionCheck: return "expansion_check";
    case RequestKind::kDriftCheck: return "drift_check";
    case RequestKind::kSave: return "save";
    case RequestKind::kDrain: return "drain";
  }
  return "unknown";
}

bool Request::IsCheap() const {
  switch (kind) {
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kMetrics:
    case RequestKind::kTrace:
    case RequestKind::kQuery:
    case RequestKind::kExpansionCheck:
    case RequestKind::kEventAdd:
    case RequestKind::kEventRemove:
    case RequestKind::kEventSetPref:
    case RequestKind::kEventRemovePref:
    case RequestKind::kEventSetThreshold:
      return true;
    default:
      return false;
  }
}

bool Request::IsWrite() const {
  switch (kind) {
    case RequestKind::kEventAdd:
    case RequestKind::kEventRemove:
    case RequestKind::kEventSetPref:
    case RequestKind::kEventRemovePref:
    case RequestKind::kEventSetThreshold:
    case RequestKind::kSave:
      return true;
    default:
      return false;
  }
}

Result<Request> ParseRequest(std::string_view line) {
  if (line.size() > kMaxRequestLine) {
    return Status::InvalidArgument(
        "request line exceeds " + std::to_string(kMaxRequestLine) + " bytes");
  }
  if (line.find('\0') != std::string_view::npos) {
    return Status::InvalidArgument("request contains an embedded NUL byte");
  }
  if (line.find('\n') != std::string_view::npos ||
      line.find('\r') != std::string_view::npos) {
    return Status::InvalidArgument("request contains an embedded newline");
  }

  std::vector<std::string_view> tokens = Tokenize(line);
  Request request;

  // Optional @<deadline_ms> prefix.
  if (!tokens.empty() && !tokens[0].empty() && tokens[0][0] == '@') {
    PPDB_ASSIGN_OR_RETURN(int64_t ms, ParseInt64(tokens[0].substr(1)));
    if (ms < 0 || ms > 86400000) {
      return Status::InvalidArgument("deadline out of range (0..86400000 ms)");
    }
    request.deadline = std::chrono::milliseconds(ms);
    tokens.erase(tokens.begin());
  }
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request");
  }

  const std::string_view command = tokens[0];
  if (command == "ping") {
    if (tokens.size() != 1) return WrongArity("ping", "no arguments");
    request.kind = RequestKind::kPing;
    return request;
  }
  if (command == "stats") {
    if (tokens.size() == 2 && tokens[1] == "prometheus") {
      request.kind = RequestKind::kMetrics;
      return request;
    }
    if (tokens.size() != 1) {
      return WrongArity("stats", "no arguments, or 'prometheus'");
    }
    request.kind = RequestKind::kStats;
    return request;
  }
  if (command == "metrics") {
    if (tokens.size() != 1) return WrongArity("metrics", "no arguments");
    request.kind = RequestKind::kMetrics;
    return request;
  }
  if (command == "trace") {
    if (tokens.size() != 1) return WrongArity("trace", "no arguments");
    request.kind = RequestKind::kTrace;
    return request;
  }
  if (command == "analyze") {
    if (tokens.size() != 1) return WrongArity("analyze", "no arguments");
    request.kind = RequestKind::kAnalyze;
    return request;
  }
  if (command == "certify") {
    if (tokens.size() != 2) return WrongArity("certify", "<alpha>");
    request.kind = RequestKind::kCertify;
    PPDB_ASSIGN_OR_RETURN(request.alpha, ParseDouble(tokens[1]));
    if (!(request.alpha >= 0.0 && request.alpha <= 1.0)) {
      return Status::InvalidArgument("alpha must lie in [0, 1]");
    }
    return request;
  }
  if (command == "estimate") {
    if (tokens.size() != 4) {
      return WrongArity("estimate", "pw|pdefault <trials> <seed>");
    }
    request.kind = RequestKind::kEstimate;
    request.target = std::string(tokens[1]);
    if (request.target != "pw" && request.target != "pdefault") {
      return Status::InvalidArgument("estimate target must be pw or pdefault");
    }
    PPDB_ASSIGN_OR_RETURN(request.trials, ParseInt64(tokens[2]));
    if (request.trials <= 0 || request.trials > 100000000) {
      return Status::InvalidArgument("trials out of range (1..1e8)");
    }
    PPDB_ASSIGN_OR_RETURN(int64_t seed, ParseInt64(tokens[3]));
    request.seed = static_cast<uint64_t>(seed);
    return request;
  }
  if (command == "whatif") {
    if (tokens.size() != 3 && tokens.size() != 4) {
      return WrongArity("whatif", "<dimension> <steps> [extra_per_step]");
    }
    request.kind = RequestKind::kWhatIf;
    request.dimension = std::string(tokens[1]);
    PPDB_ASSIGN_OR_RETURN(int64_t steps, ParseInt64(tokens[2]));
    if (steps < 1 || steps > 1000) {
      return Status::InvalidArgument("steps out of range (1..1000)");
    }
    request.steps = static_cast<int>(steps);
    if (tokens.size() == 4) {
      PPDB_ASSIGN_OR_RETURN(request.extra_utility_per_step,
                            ParseDouble(tokens[3]));
    }
    return request;
  }
  if (command == "search") {
    if (tokens.size() > 3) return WrongArity("search", "[max_steps] [value_scale]");
    request.kind = RequestKind::kSearch;
    if (tokens.size() >= 2) {
      PPDB_ASSIGN_OR_RETURN(int64_t max_steps, ParseInt64(tokens[1]));
      if (max_steps < 1 || max_steps > 1000) {
        return Status::InvalidArgument("max_steps out of range (1..1000)");
      }
      request.max_steps = static_cast<int>(max_steps);
    }
    if (tokens.size() == 3) {
      PPDB_ASSIGN_OR_RETURN(request.value_scale, ParseDouble(tokens[2]));
    }
    return request;
  }
  if (command == "event") {
    Result<Request> parsed = ParseEvent(tokens);
    if (!parsed.ok()) return parsed.status();
    Request event = std::move(parsed).value();
    event.deadline = request.deadline;
    return event;
  }
  if (command == "query") {
    if (tokens.size() == 2 &&
        (tokens[1] == "pw" || tokens[1] == "pdefault" ||
         tokens[1] == "monitor")) {
      request.kind = RequestKind::kQuery;
      request.target = std::string(tokens[1]);
      return request;
    }
    if (tokens.size() == 3 && tokens[1] == "provider") {
      request.kind = RequestKind::kQuery;
      request.target = "provider";
      PPDB_ASSIGN_OR_RETURN(request.provider, ParseInt64(tokens[2]));
      return request;
    }
    return WrongArity("query", "pw|pdefault|monitor or provider <id>");
  }
  if (command == "expansion-check") {
    // §9 standing query: answered from the maintained view in O(1), so it
    // rides the priority lane like any other query.
    if (tokens.size() != 3) {
      return WrongArity("expansion-check",
                        "<utility_per_provider> <extra_utility>");
    }
    request.kind = RequestKind::kExpansionCheck;
    PPDB_ASSIGN_OR_RETURN(request.utility_per_provider,
                          ParseDouble(tokens[1]));
    if (!(request.utility_per_provider > 0.0)) {
      return Status::InvalidArgument(
          "utility_per_provider must be positive (the Eq. 31 algebra "
          "divides by it)");
    }
    PPDB_ASSIGN_OR_RETURN(request.extra_utility, ParseDouble(tokens[2]));
    return request;
  }
  if (command == "driftcheck") {
    if (tokens.size() != 1) return WrongArity("driftcheck", "no arguments");
    request.kind = RequestKind::kDriftCheck;
    return request;
  }
  if (command == "save") {
    if (tokens.size() != 1) return WrongArity("save", "no arguments");
    request.kind = RequestKind::kSave;
    return request;
  }
  if (command == "drain") {
    if (tokens.size() != 1) return WrongArity("drain", "no arguments");
    request.kind = RequestKind::kDrain;
    return request;
  }
  return Status::InvalidArgument("unknown command '" + std::string(command) +
                                 "'");
}

std::string FormatResponse(int64_t id, const Response& response) {
  std::string out = std::to_string(id);
  if (response.status.ok()) {
    out += " ok";
    if (!response.payload.empty()) {
      out += ' ';
      out += response.payload;
    }
  } else {
    out += " error ";
    out += StatusCodeToString(response.status.code());
    out += ' ';
    out += response.status.message();
  }
  // The wire format is one response per line; scrub control bytes that
  // would fake extra lines or truncate this one.
  for (char& c : out) {
    if (c == '\n' || c == '\r' || c == '\0') c = ' ';
  }
  out += '\n';
  return out;
}

std::string FormatBlockResponse(int64_t id, std::string_view payload) {
  // Drop one trailing newline so "line1\nline2\n" and "line1\nline2" frame
  // identically as two body lines.
  if (!payload.empty() && payload.back() == '\n') {
    payload.remove_suffix(1);
  }
  int64_t lines = payload.empty() ? 0 : 1;
  for (char c : payload) {
    if (c == '\n') ++lines;
  }
  std::string out = std::to_string(id) + " ok block lines=" +
                    std::to_string(lines) + "\n";
  std::string body(payload);
  for (char& c : body) {
    if (c == '\r' || c == '\0') c = ' ';
  }
  out += body;
  if (!body.empty()) out += '\n';
  out += std::to_string(id) + " end\n";
  return out;
}

}  // namespace ppdb::server
