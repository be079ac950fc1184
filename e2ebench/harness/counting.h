#ifndef E2EBENCH_HARNESS_COUNTING_H_
#define E2EBENCH_HARNESS_COUNTING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/net/transport.h"
#include "storage/fs.h"

namespace e2e {

/// Receives each timed call a counting wrapper forwards: the operation's
/// name, when it ran, and the bytes it moved. The traced run turns these
/// into child spans of the request that caused them.
using IoObserver =
    std::function<void(std::string_view op,
                       std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end,
                       int64_t bytes)>;

/// Counts and times every call into another `storage::FileSystem`. Journal
/// traffic is `OpenAppendable`/`Append`/`Sync`; a checkpoint is staging
/// `WriteFile`s, renames and prunes, committed by the rename onto CURRENT.
class CountingFileSystem : public ppdb::storage::FileSystem {
 public:
  struct Counts {
    std::atomic<int64_t> appends{0};
    std::atomic<int64_t> append_bytes{0};
    std::atomic<int64_t> syncs{0};
    std::atomic<int64_t> write_bytes{0};
    /// Renames onto CURRENT: committed generations.
    std::atomic<int64_t> commits{0};
  };

  /// Wraps `base` (not owned; must outlive this object).
  explicit CountingFileSystem(ppdb::storage::FileSystem* base) : base_(base) {}

  /// Installs the observer; set before any traffic flows.
  void set_observer(IoObserver observer) { observer_ = std::move(observer); }
  const Counts& counts() const { return counts_; }

  ppdb::Status CreateDirectories(const std::string& path) override;
  ppdb::Status WriteFile(const std::string& path,
                         std::string_view contents) override;
  ppdb::Result<std::string> ReadFile(const std::string& path) override;
  ppdb::Status Rename(const std::string& from, const std::string& to) override;
  ppdb::Status RemoveAll(const std::string& path) override;
  bool Exists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  ppdb::Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
  ppdb::Result<std::unique_ptr<ppdb::storage::AppendableFile>> OpenAppendable(
      const std::string& path) override;
  ppdb::Status TruncateFile(const std::string& path, uint64_t size) override;

 private:
  friend class CountingAppendableFile;
  void Observe(std::string_view op, std::chrono::steady_clock::time_point start,
               int64_t bytes);

  ppdb::storage::FileSystem* base_;
  IoObserver observer_;
  Counts counts_;
};

/// Counts and times every call into another `net::Transport`.
class CountingTransport : public ppdb::server::net::Transport {
 public:
  struct Counts {
    std::atomic<int64_t> reads{0};
    std::atomic<int64_t> read_bytes{0};
    std::atomic<int64_t> writes{0};
    std::atomic<int64_t> write_bytes{0};
    /// Time inside Read and Write, in nanoseconds.
    std::atomic<int64_t> io_ns{0};
  };

  /// Wraps `base` (not owned; must outlive this object).
  explicit CountingTransport(ppdb::server::net::Transport* base)
      : base_(base) {}

  const Counts& counts() const { return counts_; }

  ppdb::Result<int> Listen(const std::string& host, uint16_t port,
                           int backlog) override;
  ppdb::Result<uint16_t> BoundPort(int listen_fd) override;
  ppdb::server::net::AcceptResult Accept(int listen_fd) override;
  ppdb::server::net::IoResult Read(int fd, char* buffer,
                                   size_t capacity) override;
  ppdb::server::net::IoResult Write(int fd, const char* data,
                                    size_t size) override;
  void Close(int fd) override;

 private:
  ppdb::server::net::Transport* base_;
  Counts counts_;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_COUNTING_H_
