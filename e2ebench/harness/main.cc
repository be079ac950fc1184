// e2e_harness — the end-to-end benchmark's client, oracle and traced run.
//
//   e2e_harness gen --seed N --out DIR
//       writes the seeded generated database to DIR
//   e2e_harness drive --workload W --seed N --seconds S --port P --db DIR
//                     --server-pid PID
//       drives a running `ppdb_cli serve --listen` on 127.0.0.1:P with the
//       workload, checks every answer against the oracle loaded from DIR
//       (the pristine generated copy), reads the CPU time of process PID
//       around the measured window, and prints one JSON line of results
//   e2e_harness trace --workload W --seed N --seconds S --db DIR --work DIR
//                     --spans FILE
//       the traced run: per-layer numbers from the serve pieces composed
//       in this process, printed as one JSON line; a sample of the
//       requests' spans goes to FILE
//   e2e_harness selftest --db DIR --work DIR
//       exact-count checks of the counting FileSystem / Transport wrappers
//
// run.py builds this and `ppdb_cli`, and is the one command to use.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/client.h"
#include "harness/inputs.h"
#include "harness/oracle.h"
#include "harness/selftest.h"
#include "harness/traced.h"
#include "harness/util.h"
#include "storage/database_io.h"

namespace e2e {
namespace {

using ppdb::Result;
using ppdb::Status;

Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Status::InvalidArgument("expected --flag value, got '" + flag + "'");
    }
    flags[flag.substr(2)] = argv[i + 1];
  }
  return flags;
}

int RunGen(const Flags& flags) {
  Result<std::string> seed = Flag(flags, "seed");
  Result<std::string> out = Flag(flags, "out");
  if (!seed.ok()) return Fail(seed.status());
  if (!out.ok()) return Fail(out.status());
  Result<ppdb::storage::Database> database =
      MakeDatabase(std::strtoull(seed->c_str(), nullptr, 10));
  if (!database.ok()) return Fail(database.status());
  Status saved = ppdb::storage::SaveDatabase(out.value(), database.value());
  if (!saved.ok()) return Fail(saved);
  Result<Oracle> oracle = Oracle::Load(out.value());
  if (!oracle.ok()) return Fail(oracle.status());
  std::fprintf(stderr, "generated %s: %s\n", out->c_str(),
               oracle->StatsModel().c_str());
  return 0;
}

int RunDrive(const Flags& flags) {
  Result<std::string> workload_name = Flag(flags, "workload");
  Result<std::string> seed_text = Flag(flags, "seed");
  Result<std::string> seconds_text = Flag(flags, "seconds");
  Result<std::string> port_text = Flag(flags, "port");
  Result<std::string> db = Flag(flags, "db");
  Result<std::string> pid_text = Flag(flags, "server-pid");
  for (const auto* r :
       {&workload_name, &seed_text, &seconds_text, &port_text, &db, &pid_text}) {
    if (!r->ok()) return Fail(r->status());
  }
  Result<Workload> workload = ParseWorkload(workload_name.value());
  if (!workload.ok()) return Fail(workload.status());
  const uint64_t seed = std::strtoull(seed_text->c_str(), nullptr, 10);
  const double seconds = std::strtod(seconds_text->c_str(), nullptr);

  Result<Oracle> oracle = Oracle::Load(db.value());
  if (!oracle.ok()) return Fail(oracle.status());
  // Lookup and census never change the state, so every answer the client
  // sees is checked; consent's answers depend on how the writers
  // interleave, so only the final state is.
  Expectations expect;
  if (workload.value() != Workload::kConsent) {
    expect = oracle->StaticExpectations();
  }
  const int conns = static_cast<int>(ConnectionsFor(workload.value()).size());
  Result<std::unique_ptr<SocketSink>> sink = SocketSink::Connect(
      static_cast<uint16_t>(std::atoi(port_text->c_str())), conns);
  if (!sink.ok()) return Fail(sink.status());
  // Figures are medians over equal parts of the window, so a few seconds
  // of host contention cannot set a run's figure. Lookup's parts last one
  // second. Consent and census get parts of five seconds: about 1000
  // open-loop reads, so a part's p99 has 10 beyond it, and tens of events
  // or heavy requests, so a part's CPU per operation spans whole
  // checkpoint cycles or analyst rotations.
  const int whole_seconds = std::max(1, static_cast<int>(seconds));
  const int parts = workload.value() == Workload::kLookup
                        ? whole_seconds
                        : std::max(1, whole_seconds / 5);
  const int server_pid = std::atoi(pid_text->c_str());
  Result<DriveResult> result =
      Drive(*sink.value(), workload.value(), seed, seconds, expect,
            [server_pid] { return ProcessCpuSeconds(server_pid); }, parts);
  if (!result.ok()) return Fail(result.status());
  DriveResult& r = result.value();

  for (const std::vector<std::string>& events : r.acked_events) {
    for (const std::string& line : events) {
      if (Status applied = oracle->Apply(line); !applied.ok()) {
        r.mismatches.push_back("oracle rejected acknowledged '" + line +
                               "': " + applied.ToString());
      }
    }
  }
  // The end-of-run checks ride the first connection, whose next request
  // id follows the ones the drive sent on it.
  int64_t next_id = r.first_conn_sent + 1;
  Result<std::string> stats = CheckFinalState(
      *sink.value(), 0, &next_id, oracle.value(), seed, &r.mismatches);
  if (!stats.ok()) return Fail(stats.status());
  for (const std::string& failure : r.failures) {
    std::fprintf(stderr, "failed request: %s\n", failure.c_str());
  }
  for (const std::string& mismatch : r.mismatches) {
    std::fprintf(stderr, "oracle mismatch: %s\n", mismatch.c_str());
  }

  const double ops = static_cast<double>(r.op_done_s.size());
  int64_t events = 0;
  for (const auto& acked : r.acked_events) events += acked.size();
  JsonObject out;
  out.Add("correct", r.mismatches.empty());
  out.Add("attempted", r.attempted);
  out.Add("failed", r.failed);
  out.Add("late_sends", r.late_sends);
  out.Add("ops", static_cast<int64_t>(r.op_done_s.size()));
  out.Add("ops_per_s", ops / seconds);
  out.Add("server_cpu_s", r.server_cpu_marks.empty()
                               ? 0.0
                               : r.server_cpu_marks.back() -
                                     r.server_cpu_marks.front());
  out.Add("server_cpu_us_per_op",
          WindowedCpuPerOp(r.server_cpu_marks, r.op_done_s, seconds));
  out.Add("read_samples", static_cast<int64_t>(r.read.size()));
  out.Add("read_p50_us", WindowedPercentile(r.read, seconds, parts, 0.50));
  out.Add("read_p99_us", WindowedPercentile(r.read, seconds, parts, 0.99));
  out.Add("lag_p99_us", Percentile(r.lag_us, 0.99));
  out.Add("acked_events", events);
  out.Add("stats_model", StatsModelOf(stats.value()));
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2e_harness gen|drive|trace|selftest --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  Result<Flags> flags = ParseFlags(argc, argv);
  if (!flags.ok()) return Fail(flags.status());
  if (command == "gen") return RunGen(flags.value());
  if (command == "drive") return RunDrive(flags.value());
  if (command == "trace") return RunTrace(flags.value());
  if (command == "selftest") return RunSelfTest(flags.value());
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
