#include "storage/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/macros.h"
#include "obs/metrics.h"

namespace ppdb::storage {

namespace stdfs = std::filesystem;

namespace {

/// Registry mirror of `faults_injected()`, labelled by fault kind. The
/// family is registered by the storage-metrics batch (database_io.cc) so
/// production expositions carry it as zeros.
void CountInjectedFault(FaultKind kind) {
  obs::MetricsRegistry::Default()
      .GetCounter("ppdb_storage_faults_injected_total",
                  "Faults injected by FaultInjectingFileSystem (tests "
                  "only; zero in production).",
                  {{"kind", std::string(FaultKindName(kind))}})
      ->Add();
}

}  // namespace

namespace {

std::string ErrnoText() {
  return errno != 0 ? std::strerror(errno) : "unknown error";
}

}  // namespace

Status RealFileSystem::CreateDirectories(const std::string& path) {
  std::error_code ec;
  stdfs::create_directories(stdfs::path(path), ec);
  if (ec) {
    return Status::Internal("cannot create '" + path + "': " + ec.message());
  }
  return Status::OK();
}

Status RealFileSystem::WriteFile(const std::string& path,
                                 std::string_view contents) {
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open '" + path +
                            "' for writing: " + ErrnoText());
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out.good()) {
    return Status::Internal("write to '" + path + "' failed: " + ErrnoText());
  }
  // close() can surface a deferred I/O error (full disk, quota) that the
  // flush above did not; a save must not report success past it.
  out.close();
  if (!out.good()) {
    return Status::Internal("close of '" + path + "' failed: " + ErrnoText());
  }
  return Status::OK();
}

Result<std::string> RealFileSystem::ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  // One string sized from fstat, then read(2) to EOF: a file that shrank
  // since the fstat ends short, one that grew keeps growing the string.
  struct stat info {};
  std::string contents;
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    contents.resize(static_cast<size_t>(info.st_size));
  }
  size_t filled = 0;
  char probe[4096];
  while (true) {
    // Past the fstat size, read through `probe` so that the usual
    // exactly-sized file is not grown just to see its EOF.
    const bool full = filled == contents.size();
    const ssize_t n =
        full ? ::read(fd, probe, sizeof(probe))
             : ::read(fd, contents.data() + filled, contents.size() - filled);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::Internal("read from '" + path + "' failed");
    }
    if (n == 0) break;
    if (full) contents.append(probe, static_cast<size_t>(n));
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  contents.resize(filled);
  return contents;
}

Status RealFileSystem::Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  stdfs::rename(stdfs::path(from), stdfs::path(to), ec);
  if (ec) {
    return Status::Internal("cannot rename '" + from + "' to '" + to +
                            "': " + ec.message());
  }
  return Status::OK();
}

Status RealFileSystem::RemoveAll(const std::string& path) {
  std::error_code ec;
  stdfs::remove_all(stdfs::path(path), ec);
  if (ec) {
    return Status::Internal("cannot remove '" + path + "': " + ec.message());
  }
  return Status::OK();
}

bool RealFileSystem::Exists(const std::string& path) {
  std::error_code ec;
  return stdfs::exists(stdfs::path(path), ec);
}

bool RealFileSystem::IsDirectory(const std::string& path) {
  std::error_code ec;
  return stdfs::is_directory(stdfs::path(path), ec);
}

Result<std::vector<std::string>> RealFileSystem::ListDirectory(
    const std::string& path) {
  std::error_code ec;
  stdfs::directory_iterator it(stdfs::path(path), ec);
  if (ec) {
    return Status::NotFound("cannot list '" + path + "': " + ec.message());
  }
  std::vector<std::string> names;
  for (const stdfs::directory_entry& entry : it) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

namespace {

/// POSIX O_APPEND-backed appendable file. Append loops over write(2)
/// (EINTR-safe); Sync is fsync(2) — the journal's durability barrier.
class PosixAppendableFile : public AppendableFile {
 public:
  PosixAppendableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixAppendableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) {
      return Status::Internal("append to closed '" + path_ + "'");
    }
    while (!data.empty()) {
      ssize_t n = ::write(fd_, data.data(), data.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal("append to '" + path_ +
                                "' failed: " + ErrnoText());
      }
      data.remove_prefix(static_cast<size_t>(n));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) {
      return Status::Internal("sync of closed '" + path_ + "'");
    }
    if (::fsync(fd_) != 0) {
      return Status::Internal("fsync of '" + path_ +
                              "' failed: " + ErrnoText());
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::Internal("close of '" + path_ +
                              "' failed: " + ErrnoText());
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

Result<std::unique_ptr<AppendableFile>> RealFileSystem::OpenAppendable(
    const std::string& path) {
  errno = 0;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("cannot open '" + path +
                            "' for appending: " + ErrnoText());
  }
  return std::unique_ptr<AppendableFile>(
      std::make_unique<PosixAppendableFile>(fd, path));
}

Status RealFileSystem::TruncateFile(const std::string& path, uint64_t size) {
  errno = 0;
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::Internal("cannot truncate '" + path + "' to " +
                            std::to_string(size) + " bytes: " + ErrnoText());
  }
  return Status::OK();
}

RealFileSystem& GetRealFileSystem() {
  static RealFileSystem* const kInstance = new RealFileSystem();  // ppdb-lint: allow(raw-new)
  return *kInstance;
}

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailOp:
      return "fail_op";
    case FaultKind::kTornWrite:
      return "torn_write";
    case FaultKind::kNoSpace:
      return "no_space";
    case FaultKind::kCrash:
      return "crash";
  }
  return "unknown";
}

FaultInjectingFileSystem::FaultInjectingFileSystem(FileSystem* base, Rng rng)
    : base_(base), rng_(rng) {
  PPDB_CHECK(base != nullptr);
}

void FaultInjectingFileSystem::SetPlan(FaultPlan plan) {
  plan_ = plan;
  ops_seen_ = 0;
  faults_injected_ = 0;
  remaining_transient_failures_ = plan.transient_failures;
  crashed_ = false;
}

Status FaultInjectingFileSystem::NextOp(
    const std::string& path, bool is_write, std::string_view contents,
    const std::function<Status(std::string_view)>* partial_write) {
  if (crashed_) {
    // Process death is global: even ops outside the path filter fail.
    return Status::Internal("filesystem crashed at op " +
                            std::to_string(plan_.fail_at_op) + "; op on '" +
                            path + "' never ran");
  }
  if (!plan_.path_filter.empty() &&
      path.find(plan_.path_filter) == std::string::npos) {
    return Status::OK();  // outside the filter: uncounted pass-through
  }
  const int64_t op = ops_seen_++;
  if (plan_.fail_at_op < 0 || op < plan_.fail_at_op) return Status::OK();

  switch (plan_.kind) {
    case FaultKind::kFailOp:
      // Fails `transient_failures` consecutive ops starting at the target,
      // so a retry loop either outlasts the fault or gives up cleanly.
      if (op >= plan_.fail_at_op + plan_.transient_failures) {
        return Status::OK();
      }
      ++faults_injected_;
      CountInjectedFault(plan_.kind);
      return Status::Unavailable("injected transient fault at op " +
                                 std::to_string(op) + " on '" + path + "'");
    case FaultKind::kTornWrite:
    case FaultKind::kNoSpace:
    case FaultKind::kCrash: {
      if (op > plan_.fail_at_op) {
        // Only kCrash (latched above) outlives its target op.
        return Status::OK();
      }
      ++faults_injected_;
      CountInjectedFault(plan_.kind);
      if (is_write && !contents.empty()) {
        // A strict prefix lands durably; the seeded Rng picks how much.
        size_t torn = static_cast<size_t>(
            rng_.NextBounded(static_cast<uint64_t>(contents.size())));
        Status partial =
            partial_write != nullptr
                ? (*partial_write)(contents.substr(0, torn))
                : base_->WriteFile(path, contents.substr(0, torn));
        if (!partial.ok()) return partial;
      }
      if (plan_.kind == FaultKind::kCrash) {
        crashed_ = true;
        return Status::Internal("injected crash at op " + std::to_string(op) +
                                " on '" + path + "'");
      }
      if (plan_.kind == FaultKind::kNoSpace) {
        return Status::OutOfRange("injected ENOSPC at op " +
                                  std::to_string(op) + " on '" + path +
                                  "': no space left on device");
      }
      return Status::Unavailable("injected torn write at op " +
                                 std::to_string(op) + " on '" + path + "'");
    }
  }
  return Status::Internal("unreachable fault kind");
}

Status FaultInjectingFileSystem::CreateDirectories(const std::string& path) {
  PPDB_RETURN_NOT_OK(NextOp(path));
  return base_->CreateDirectories(path);
}

Status FaultInjectingFileSystem::WriteFile(const std::string& path,
                                           std::string_view contents) {
  PPDB_RETURN_NOT_OK(NextOp(path, /*is_write=*/true, contents));
  return base_->WriteFile(path, contents);
}

Result<std::string> FaultInjectingFileSystem::ReadFile(
    const std::string& path) {
  return base_->ReadFile(path);
}

Status FaultInjectingFileSystem::Rename(const std::string& from,
                                        const std::string& to) {
  PPDB_RETURN_NOT_OK(NextOp(from));
  return base_->Rename(from, to);
}

Status FaultInjectingFileSystem::RemoveAll(const std::string& path) {
  PPDB_RETURN_NOT_OK(NextOp(path));
  return base_->RemoveAll(path);
}

bool FaultInjectingFileSystem::Exists(const std::string& path) {
  return base_->Exists(path);
}

bool FaultInjectingFileSystem::IsDirectory(const std::string& path) {
  return base_->IsDirectory(path);
}

Result<std::vector<std::string>> FaultInjectingFileSystem::ListDirectory(
    const std::string& path) {
  return base_->ListDirectory(path);
}

/// Appendable handle whose Append and Sync are fault sites on the owning
/// filesystem's op timeline. A torn/ENOSPC/crash fault on an Append lands
/// a seeded-random *appended* prefix (mid-record torn write); any fault on
/// a Sync is clean-failing (an fsync cannot tear, but its bytes may
/// already be durable — exactly the gray zone the journal's repair
/// truncation and the recovery oracle have to handle).
class FaultInjectingAppendableFile : public AppendableFile {
 public:
  FaultInjectingAppendableFile(FaultInjectingFileSystem* owner,
                               std::unique_ptr<AppendableFile> base,
                               std::string path)
      : owner_(owner), base_(std::move(base)), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    const std::function<Status(std::string_view)> partial =
        [this](std::string_view prefix) { return base_->Append(prefix); };
    PPDB_RETURN_NOT_OK(
        owner_->NextOp(path_, /*is_write=*/true, data, &partial));
    return base_->Append(data);
  }

  Status Sync() override {
    PPDB_RETURN_NOT_OK(owner_->NextOp(path_));
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjectingFileSystem* owner_;
  std::unique_ptr<AppendableFile> base_;
  std::string path_;
};

Result<std::unique_ptr<AppendableFile>>
FaultInjectingFileSystem::OpenAppendable(const std::string& path) {
  PPDB_RETURN_NOT_OK(NextOp(path));
  PPDB_ASSIGN_OR_RETURN(std::unique_ptr<AppendableFile> base,
                        base_->OpenAppendable(path));
  return std::unique_ptr<AppendableFile>(
      std::make_unique<FaultInjectingAppendableFile>(this, std::move(base),
                                                     path));
}

Status FaultInjectingFileSystem::TruncateFile(const std::string& path,
                                              uint64_t size) {
  PPDB_RETURN_NOT_OK(NextOp(path));
  return base_->TruncateFile(path, size);
}

}  // namespace ppdb::storage
