// Exact-count checks of the counting wrappers on scripted exchanges:
//  * one writer sending N events with periodic checkpoints off makes
//    exactly N journal appends and N syncs (group-commit window 0);
//  * one `save` commits exactly one generation;
//  * k pings over one connection move exactly 5k bytes in and
//    sum(len("<id> ok pong\n")) bytes out.
#include "harness/selftest.h"

#include <filesystem>
#include <thread>

#include "common/macros.h"
#include "harness/client.h"
#include "harness/counting.h"
#include "server/broker.h"
#include "server/net/tcp_server.h"
#include "server/service.h"

namespace e2e {

using ppdb::Result;
using ppdb::Status;
namespace fs = std::filesystem;

namespace {

constexpr int kEvents = 20;
constexpr int kPings = 25;

Result<std::unique_ptr<ppdb::server::DatabaseService>> FreshService(
    const std::string& db, const std::string& work, const std::string& name,
    ppdb::storage::FileSystem* fsys, int64_t checkpoint_every) {
  const fs::path dir = fs::path(work) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::copy(db, dir, fs::copy_options::recursive, ec);
  if (ec) return Status::Internal("copy: " + ec.message());
  ppdb::server::DatabaseService::Options options;
  options.checkpoint_every_events = checkpoint_every;
  return ppdb::server::DatabaseService::Create(dir.string(), fsys, options);
}

Status Execute(ppdb::server::DatabaseService& service, const std::string& line) {
  PPDB_ASSIGN_OR_RETURN(ppdb::server::Request request,
                        ppdb::server::ParseRequest(line));
  ppdb::server::Response response = service.Execute(request, ppdb::Deadline());
  return response.status;
}

void Check(JsonObject* out, bool* all, const std::string& name, int64_t got,
           int64_t want) {
  JsonObject check;
  check.Add("got", got);
  check.Add("want", want);
  out->Raw(name, check.Render());
  *all = *all && got == want;
}

Status Run(const std::string& db, const std::string& work, JsonObject* out,
           bool* all) {
  ppdb::storage::FileSystem& real = ppdb::storage::GetRealFileSystem();
  {
    CountingFileSystem counting(&real);
    PPDB_ASSIGN_OR_RETURN(auto service,
                          FreshService(db, work, "journal", &counting, 0));
    const int64_t appends = counting.counts().appends.load();
    const int64_t syncs = counting.counts().syncs.load();
    for (int i = 0; i < kEvents; ++i) {
      PPDB_RETURN_NOT_OK(Execute(
          *service, "event threshold " + std::to_string(1 + i) + " 7.5"));
    }
    Check(out, all, "journal_appends", counting.counts().appends.load() - appends,
          kEvents);
    Check(out, all, "journal_syncs", counting.counts().syncs.load() - syncs,
          kEvents);
    const int64_t commits = counting.counts().commits.load();
    PPDB_RETURN_NOT_OK(Execute(*service, "save"));
    Check(out, all, "save_commits", counting.counts().commits.load() - commits, 1);
  }
  PPDB_ASSIGN_OR_RETURN(auto service,
                        FreshService(db, work, "net", &real, 0));
  ppdb::server::RequestBroker broker{ppdb::server::RequestBroker::Options()};
  CountingTransport transport(&ppdb::server::net::GetRealTransport());
  ppdb::server::net::TcpServer::Options options;
  options.transport = &transport;
  ppdb::server::net::TcpServer server(options, *service, broker);
  PPDB_RETURN_NOT_OK(server.Start());
  Status served;
  std::thread loop([&] { served = server.Serve(); });
  int64_t want_out = 0;
  Status pinged = [&]() -> Status {
    PPDB_ASSIGN_OR_RETURN(std::unique_ptr<SocketSink> sink,
                          SocketSink::Connect(server.port(), 1));
    for (int64_t id = 1; id <= kPings; ++id) {
      PPDB_ASSIGN_OR_RETURN(Reply reply, RoundTrip(*sink, 0, id, "ping"));
      if (!reply.ok || reply.payload != "pong") {
        return Status::Internal("ping answered '" + reply.payload + "'");
      }
      want_out += static_cast<int64_t>(std::to_string(id).size() +
                                       std::string(" ok pong\n").size());
    }
    return Status::OK();
  }();
  server.Shutdown();
  loop.join();
  PPDB_RETURN_NOT_OK(pinged);
  PPDB_RETURN_NOT_OK(served);
  Check(out, all, "net_bytes_in", transport.counts().read_bytes.load(),
        kPings * static_cast<int64_t>(std::string("ping\n").size()));
  Check(out, all, "net_bytes_out", transport.counts().write_bytes.load(),
        want_out);
  return Status::OK();
}

}  // namespace

int RunSelfTest(const Flags& flags) {
  Result<std::string> db = Flag(flags, "db");
  Result<std::string> work = Flag(flags, "work");
  if (!db.ok()) return Fail(db.status());
  if (!work.ok()) return Fail(work.status());
  JsonObject checks;
  bool all = true;
  if (Status status = Run(db.value(), work.value(), &checks, &all);
      !status.ok()) {
    return Fail(status);
  }
  JsonObject out;
  out.Add("correct", all);
  out.Raw("checks", checks.Render());
  std::printf("%s\n", out.Render().c_str());
  return all ? 0 : 1;
}

}  // namespace e2e
