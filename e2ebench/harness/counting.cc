#include "harness/counting.h"

#include <utility>

namespace e2e {

using ppdb::Result;
using ppdb::Status;
using Clock = std::chrono::steady_clock;

namespace {

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

/// Counts the journal's appends and syncs on one open segment.
class CountingAppendableFile : public ppdb::storage::AppendableFile {
 public:
  CountingAppendableFile(std::unique_ptr<ppdb::storage::AppendableFile> base,
                         CountingFileSystem* fs)
      : base_(std::move(base)), fs_(fs) {}

  Status Append(std::string_view data) override {
    const Clock::time_point start = Clock::now();
    Status status = base_->Append(data);
    fs_->counts_.appends.fetch_add(1, std::memory_order_relaxed);
    fs_->counts_.append_bytes.fetch_add(static_cast<int64_t>(data.size()),
                                        std::memory_order_relaxed);
    fs_->Observe("journal.append", start, static_cast<int64_t>(data.size()));
    return status;
  }
  Status Sync() override {
    const Clock::time_point start = Clock::now();
    Status status = base_->Sync();
    fs_->counts_.syncs.fetch_add(1, std::memory_order_relaxed);
    fs_->Observe("journal.sync", start, 0);
    return status;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<ppdb::storage::AppendableFile> base_;
  CountingFileSystem* fs_;
};

void CountingFileSystem::Observe(std::string_view op, Clock::time_point start,
                                 int64_t bytes) {
  if (observer_) observer_(op, start, Clock::now(), bytes);
}

Status CountingFileSystem::CreateDirectories(const std::string& path) {
  const Clock::time_point start = Clock::now();
  Status status = base_->CreateDirectories(path);
  Observe("fs.mkdir", start, 0);
  return status;
}

Status CountingFileSystem::WriteFile(const std::string& path,
                                     std::string_view contents) {
  const Clock::time_point start = Clock::now();
  Status status = base_->WriteFile(path, contents);
  counts_.write_bytes.fetch_add(static_cast<int64_t>(contents.size()),
                                std::memory_order_relaxed);
  Observe("fs.write_file", start, static_cast<int64_t>(contents.size()));
  return status;
}

Result<std::string> CountingFileSystem::ReadFile(const std::string& path) {
  return base_->ReadFile(path);
}

Status CountingFileSystem::Rename(const std::string& from,
                                  const std::string& to) {
  const Clock::time_point start = Clock::now();
  Status status = base_->Rename(from, to);
  if (status.ok() && EndsWith(to, "/CURRENT")) {
    counts_.commits.fetch_add(1, std::memory_order_relaxed);
  }
  Observe("fs.rename", start, 0);
  return status;
}

Status CountingFileSystem::RemoveAll(const std::string& path) {
  const Clock::time_point start = Clock::now();
  Status status = base_->RemoveAll(path);
  Observe("fs.remove", start, 0);
  return status;
}

bool CountingFileSystem::Exists(const std::string& path) {
  return base_->Exists(path);
}

bool CountingFileSystem::IsDirectory(const std::string& path) {
  return base_->IsDirectory(path);
}

Result<std::vector<std::string>> CountingFileSystem::ListDirectory(
    const std::string& path) {
  return base_->ListDirectory(path);
}

Result<std::unique_ptr<ppdb::storage::AppendableFile>>
CountingFileSystem::OpenAppendable(const std::string& path) {
  Result<std::unique_ptr<ppdb::storage::AppendableFile>> file =
      base_->OpenAppendable(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<ppdb::storage::AppendableFile>(
      std::make_unique<CountingAppendableFile>(std::move(file).value(), this));
}

Status CountingFileSystem::TruncateFile(const std::string& path,
                                        uint64_t size) {
  return base_->TruncateFile(path, size);
}

Result<int> CountingTransport::Listen(const std::string& host, uint16_t port,
                                      int backlog) {
  return base_->Listen(host, port, backlog);
}

Result<uint16_t> CountingTransport::BoundPort(int listen_fd) {
  return base_->BoundPort(listen_fd);
}

ppdb::server::net::AcceptResult CountingTransport::Accept(int listen_fd) {
  return base_->Accept(listen_fd);
}

ppdb::server::net::IoResult CountingTransport::Read(int fd, char* buffer,
                                                    size_t capacity) {
  const Clock::time_point start = Clock::now();
  ppdb::server::net::IoResult result = base_->Read(fd, buffer, capacity);
  counts_.io_ns.fetch_add(Nanos(Clock::now() - start),
                          std::memory_order_relaxed);
  counts_.reads.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    counts_.read_bytes.fetch_add(static_cast<int64_t>(result.bytes),
                                 std::memory_order_relaxed);
  }
  return result;
}

ppdb::server::net::IoResult CountingTransport::Write(int fd, const char* data,
                                                     size_t size) {
  const Clock::time_point start = Clock::now();
  ppdb::server::net::IoResult result = base_->Write(fd, data, size);
  counts_.io_ns.fetch_add(Nanos(Clock::now() - start),
                          std::memory_order_relaxed);
  counts_.writes.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    counts_.write_bytes.fetch_add(static_cast<int64_t>(result.bytes),
                                  std::memory_order_relaxed);
  }
  return result;
}

void CountingTransport::Close(int fd) { base_->Close(fd); }

}  // namespace e2e
