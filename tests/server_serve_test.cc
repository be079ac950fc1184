#include "server/serve.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "privacy/policy_dsl.h"
#include "server/broker.h"
#include "server/serve_core.h"
#include "server/service.h"
#include "storage/database_io.h"
#include "storage/fs.h"
#include "tests/test_util.h"

namespace ppdb::server {
namespace {

constexpr char kConfigDsl[] = R"(
scale visibility: l0, l1, l2, l3
scale granularity: l0, l1, l2, l3
scale retention: l0, l1, l2, l3
purpose pr
policy weight for pr: visibility=2, granularity=2, retention=2
pref 1 weight for pr: visibility=0, granularity=0, retention=0
pref 2 weight for pr: visibility=3, granularity=3, retention=3
attr_sensitivity weight = 2
threshold 1 = 3
threshold 2 = 3
)";

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ppdb_serve_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    storage::Database database;
    ASSERT_OK_AND_ASSIGN(database.config,
                         privacy::ParsePrivacyConfig(kConfigDsl));
    ASSERT_OK(storage::SaveDatabase(dir_.string(), database));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<DatabaseService> MakeService(int checkpoint_every = 1000) {
    DatabaseService::Options options;
    options.checkpoint_every_events = checkpoint_every;
    options.num_threads = 1;
    Result<std::unique_ptr<DatabaseService>> service =
        DatabaseService::Create(dir_.string(), &storage::GetRealFileSystem(),
                                options);
    EXPECT_OK(service.status());
    return std::move(service).value();
  }

  /// Runs the serve loop over `input` and returns the response lines keyed
  /// by request id (responses may arrive out of order under the broker).
  std::map<int64_t, std::string> ServeAll(const std::string& input,
                                          DatabaseService& service,
                                          RequestBroker& broker,
                                          Status* final_status = nullptr) {
    std::istringstream in(input);
    std::ostringstream out;
    Status status = Serve(in, out, service, broker);
    if (final_status != nullptr) *final_status = status;

    std::map<int64_t, std::string> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
      size_t space = line.find(' ');
      EXPECT_NE(space, std::string::npos) << line;
      int64_t id = std::stoll(line.substr(0, space));
      // Pipelining may reorder responses but never duplicates an id.
      EXPECT_EQ(by_id.count(id), 0u) << line;
      by_id[id] = line;
    }
    return by_id;
  }

  /// Raw serve output, for block-framed (multi-line) responses that
  /// ServeAll's one-line-per-id parsing cannot key.
  std::string ServeRaw(const std::string& input, DatabaseService& service,
                       RequestBroker& broker) {
    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_OK(Serve(in, out, service, broker));
    return out.str();
  }

  /// The body lines of the block response with request id `id`.
  static std::vector<std::string> BlockBody(const std::string& output,
                                            int64_t id) {
    std::vector<std::string> body;
    std::istringstream lines(output);
    std::string line;
    bool in_block = false;
    const std::string header_prefix =
        std::to_string(id) + " ok block lines=";
    const std::string footer = std::to_string(id) + " end";
    while (std::getline(lines, line)) {
      if (line.rfind(header_prefix, 0) == 0) {
        in_block = true;
        continue;
      }
      if (line == footer) break;
      if (in_block) body.push_back(line);
    }
    return body;
  }

  /// The value of `sample` (full name incl. labels) in a scrape, or -1.
  static double SampleValue(const std::vector<std::string>& scrape,
                            const std::string& sample) {
    for (const std::string& line : scrape) {
      if (line.rfind(sample + " ", 0) == 0) {
        return std::stod(line.substr(sample.size() + 1));
      }
    }
    return -1.0;
  }

  std::filesystem::path dir_;
};

TEST_F(ServeTest, AnswersEveryRequestByIdAndSkipsCommentLines) {
  std::unique_ptr<DatabaseService> service = MakeService();
  RequestBroker broker(RequestBroker::Options{});

  std::map<int64_t, std::string> responses = ServeAll(
      "ping\n"
      "\n"                     // blank: no id consumed
      "# comment, also free\n"
      "query pw\n"
      "warp 9\n"               // parse error, answered immediately
      "analyze\n",
      *service, broker);

  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[1], "1 ok pong");
  EXPECT_EQ(responses[2], "2 ok pw=0.5");
  EXPECT_NE(responses[3].find("3 error invalid_argument"), std::string::npos);
  EXPECT_NE(responses[4].find("4 ok"), std::string::npos);
  EXPECT_NE(responses[4].find("violated=1"), std::string::npos);
}

TEST_F(ServeTest, StatsMergesServiceAndBrokerCounters) {
  std::unique_ptr<DatabaseService> service = MakeService();
  RequestBroker broker(RequestBroker::Options{});

  std::map<int64_t, std::string> responses =
      ServeAll("ping\nstats\n", *service, broker);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[2].find("breaker=closed"), std::string::npos);
  EXPECT_NE(responses[2].find("admitted="), std::string::npos);
  EXPECT_NE(responses[2].find("shed=0"), std::string::npos);
}

// The acceptance-criteria shutdown drill: a drain request under load stops
// admissions, completes every in-flight request, takes a final checkpoint,
// and the checkpoint reloads cleanly.
TEST_F(ServeTest, DrainUnderLoadCompletesEverythingAndCheckpoints) {
  // Large checkpoint interval: nothing persists unless the final
  // checkpoint actually runs.
  std::unique_ptr<DatabaseService> service = MakeService(
      /*checkpoint_every=*/1000);
  RequestBroker::Options options;
  options.num_workers = 2;
  RequestBroker broker(options);

  std::string input;
  constexpr int kEvents = 20;
  for (int i = 0; i < kEvents; ++i) {
    input += "event add " + std::to_string(100 + i) + " 7.5\n";
  }
  input += "analyze\n";
  input += "drain\n";
  input += "ping\n";  // after drain: never read, never answered

  Status final_status;
  std::map<int64_t, std::string> responses =
      ServeAll(input, *service, broker, &final_status);
  EXPECT_OK(final_status);

  // Every admitted request was answered; nothing silently dropped, and
  // nothing after the drain was served.
  ASSERT_EQ(responses.size(), static_cast<size_t>(kEvents) + 2);
  for (int id = 1; id <= kEvents; ++id) {
    EXPECT_NE(responses[id].find("ok"), std::string::npos) << responses[id];
  }
  const std::string& drain = responses[kEvents + 2];
  EXPECT_NE(drain.find("drained=1"), std::string::npos);
  EXPECT_NE(drain.find("final_checkpoint=ok"), std::string::npos);
  EXPECT_EQ(broker.Stats().in_flight, 0);

  // The final checkpoint reloads cleanly with all drained state in it.
  ASSERT_OK_AND_ASSIGN(storage::Database reloaded,
                       storage::LoadDatabase(dir_.string()));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(100 + i), 7.5) << i;
  }
}

TEST_F(ServeTest, EndOfInputAlsoDrainsAndCheckpoints) {
  std::unique_ptr<DatabaseService> service = MakeService(
      /*checkpoint_every=*/1000);
  RequestBroker broker(RequestBroker::Options{});

  Status final_status;
  std::map<int64_t, std::string> responses = ServeAll(
      "event threshold 1 9\n", *service, broker, &final_status);
  EXPECT_OK(final_status);
  ASSERT_EQ(responses.size(), 1u);

  // A client that hangs up without draining still gets durability.
  ASSERT_OK_AND_ASSIGN(storage::Database reloaded,
                       storage::LoadDatabase(dir_.string()));
  EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(1), 9.0);
}

// Acceptance criterion: `stats prometheus` emits a well-formed Prometheus
// text exposition covering every instrumented layer, and counters are
// monotonic across two scrapes in one session.
TEST_F(ServeTest, PrometheusScrapeIsWellFormedAndMonotonic) {
  std::unique_ptr<DatabaseService> service = MakeService();
  RequestBroker broker(RequestBroker::Options{});

  // Three sessions so ordering is deterministic: each Serve drains its
  // broker before returning, and the registry is process-global, so the
  // second scrape must observe the scan of the session before it.
  std::vector<std::string> first =
      BlockBody(ServeRaw("ping\nstats prometheus\n", *service, broker), 2);
  // driftcheck runs a full detector scan (a served analyze reads the view
  // and scans nothing).
  RequestBroker scan_broker{RequestBroker::Options{}};
  ServeRaw("driftcheck\n", *service, scan_broker);
  RequestBroker scrape_broker{RequestBroker::Options{}};
  std::vector<std::string> second =
      BlockBody(ServeRaw("metrics\n", *service, scrape_broker), 1);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());

  // Every line is a comment or a sample whose metric name matches the
  // Prometheus grammar and whose value parses as a number.
  const std::regex name_re("[a-zA-Z_:][a-zA-Z0-9_:]*");
  const std::regex sample_re(
      R"(([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9][0-9eE.+-]*|\+Inf|NaN))");
  for (const std::vector<std::string>* scrape : {&first, &second}) {
    for (const std::string& line : *scrape) {
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        std::istringstream tokens(line);
        std::string hash, keyword, name;
        tokens >> hash >> keyword >> name;
        EXPECT_TRUE(std::regex_match(name, name_re)) << line;
        continue;
      }
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    }
  }

  // One scrape covers all four instrumented layers.
  for (const char* name :
       {"ppdb_broker_submitted_total", "ppdb_service_requests_total",
        "ppdb_storage_load_seconds_count", "ppdb_violation_pw"}) {
    bool found = false;
    for (const std::string& line : first) {
      if (line.find(name) != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << name;
  }

  // Counters are monotonic: the scan between the scrapes must show up.
  // (The registry is process-global, so assert deltas, not absolutes.)
  const std::string analyze_ok =
      "ppdb_violation_analyze_total{result=\"ok\"}";
  EXPECT_GE(SampleValue(first, analyze_ok), 0.0);
  EXPECT_GE(SampleValue(second, analyze_ok),
            SampleValue(first, analyze_ok) + 1.0);
  EXPECT_GE(SampleValue(second, "ppdb_broker_submitted_total"),
            SampleValue(first, "ppdb_broker_submitted_total"));
}

// The serve-mode `trace` command dumps the span ring as JSON; a served
// driftcheck leaves a trace, with the detector's scan spans, whose id is
// derived from its broker request id.
TEST_F(ServeTest, TraceCommandDumpsSpanRingAsJson) {
  std::unique_ptr<DatabaseService> service = MakeService();
  RequestBroker broker(RequestBroker::Options{});

  // Two sessions: the first drains, so its driftcheck trace is committed
  // to the (process-global) ring before the second session dumps it. The
  // dump is one JSON line, so it arrives as a plain (non-block) response.
  ServeRaw("driftcheck\n", *service, broker);
  RequestBroker trace_broker{RequestBroker::Options{}};
  std::string output = ServeRaw("trace\n", *service, trace_broker);
  ASSERT_NE(output.find("1 ok ["), std::string::npos) << output;
  EXPECT_NE(output.find("\"trace_id\":\"ppdb-req-"), std::string::npos);
  EXPECT_NE(output.find("\"name\":\"shard_fanout\""), std::string::npos);
}

TEST_F(ServeTest, PerRequestDeadlinePrefixReachesTheEngine) {
  std::unique_ptr<DatabaseService> service = MakeService();
  RequestBroker broker(RequestBroker::Options{});

  // A generous deadline succeeds; the grammar is exercised end to end.
  std::map<int64_t, std::string> responses =
      ServeAll("@60000 analyze\n", *service, broker);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[1].find("1 ok"), std::string::npos);
}

TEST_F(ServeTest, OversizedRequestLineIsRejectedWithoutDerailingTheStream) {
  std::unique_ptr<DatabaseService> service = MakeService();
  RequestBroker broker(RequestBroker::Options{});

  // A line past the cap must cost one clean error — never unbounded
  // memory, never desync of the ids that follow it.
  std::string input = "ping\n" + std::string(kMaxRequestLine + 100, 'x') +
                      "\nping\n";
  std::map<int64_t, std::string> responses =
      ServeAll(input, *service, broker);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[1].find("1 ok pong"), std::string::npos);
  EXPECT_NE(responses[2].find("2 error invalid_argument"),
            std::string::npos);
  EXPECT_NE(responses[2].find("line_too_long"), std::string::npos);
  EXPECT_NE(responses[3].find("3 ok pong"), std::string::npos);
}

TEST_F(ServeTest, ExactlyCapSizedRequestLineIsStillParsed) {
  std::unique_ptr<DatabaseService> service = MakeService();
  RequestBroker broker(RequestBroker::Options{});

  // "ping" padded with trailing spaces to exactly the cap: boundary-length
  // lines are legal and must reach the parser intact.
  std::string line = "ping" + std::string(kMaxRequestLine - 4, ' ');
  std::map<int64_t, std::string> responses =
      ServeAll(line + "\n", *service, broker);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[1].find("1 ok pong"), std::string::npos);
}

// Satellite regression for the shared writer: concurrent Write() calls —
// the broker's workers plus the serve thread all funnel through one
// ResponseWriter — must never tear or interleave, even for multi-line
// block responses. Byte-exact check: the output must be a permutation of
// whole rendered responses.
TEST_F(ServeTest, ConcurrentResponseWritesAreNeverTorn) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;

  std::ostringstream out;
  ResponseWriter writer(out);

  auto make_response = [](int64_t id) {
    if (id % 3 == 0) {
      // Multi-line payload: rendered as a block, the hardest case to keep
      // atomic under concurrency.
      return Response{Status::OK(), "alpha " + std::to_string(id) +
                                        "\nbeta\ngamma"};
    }
    if (id % 3 == 1) {
      return Response{Status::OK(), "value=" + std::to_string(id)};
    }
    return Response{Status::InvalidArgument("bad request " +
                                            std::to_string(id)),
                    {}};
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t id = static_cast<int64_t>(t) * kPerThread + i;
        writer.Write(id, make_response(id));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Reassemble: walk the output and greedily match whole rendered
  // responses. Any torn or interleaved write breaks the match.
  std::string output = out.str();
  std::vector<bool> seen(kThreads * kPerThread, false);
  size_t at = 0;
  while (at < output.size()) {
    size_t space = output.find_first_of(" \n", at);
    ASSERT_NE(space, std::string::npos) << "trailing garbage at " << at;
    int64_t id = std::stoll(output.substr(at, space - at));
    ASSERT_GE(id, 0);
    ASSERT_LT(id, kThreads * kPerThread);
    ASSERT_FALSE(seen[id]) << "response " << id << " emitted twice";
    std::string expected = RenderResponse(id, make_response(id));
    ASSERT_EQ(output.compare(at, expected.size(), expected), 0)
        << "torn write at byte " << at << " (id " << id << ")";
    seen[id] = true;
    at += expected.size();
  }
  for (int id = 0; id < kThreads * kPerThread; ++id) {
    EXPECT_TRUE(seen[id]) << "response " << id << " missing";
  }
}

}  // namespace
}  // namespace ppdb::server
