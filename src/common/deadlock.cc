#include "common/deadlock.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>  // ppdb-lint: allow(std-sync) — the detector cannot be built on the wrappers it instruments
#include <set>
#include <vector>

#include "common/string_util.h"

namespace ppdb::deadlock {
namespace {

/// One node per live mutex address. `name` is the construction-time name
/// (a string literal or a pointer that outlives the mutex); `out` holds
/// the learned "acquired while this was held" successors.
struct Node {
  const char* name = "<unnamed>";
  std::set<const void*> out;
};

/// Guards the order graph. A raw std::mutex by necessity: instrumenting
/// the detector's own lock with the detector would recurse.
// ppdb-lint: allow(std-sync)
std::mutex& GraphMu() {
  // ppdb-lint: allow(std-sync)
  // ppdb-lint: allow(raw-new) — leaked intentionally so the detector
  // keeps working during static destruction.
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::map<const void*, Node>& Graph() {
  static std::map<const void*, Node>* graph =
      new std::map<const void*, Node>;  // ppdb-lint: allow(raw-new) — see GraphMu
  return *graph;
}

struct Held {
  const void* mu;
  const char* name;
};

std::vector<Held>& HeldStack() {
  thread_local std::vector<Held> held;
  return held;
}

/// Re-entrancy latch: a report handler that takes a ppdb lock anyway must
/// not re-enter the detector.
bool& InDetector() {
  thread_local bool in_detector = false;
  return in_detector;
}

std::atomic<ReportHandler> g_handler{nullptr};
std::atomic<int64_t> g_violations{0};

void DefaultHandler(const std::string& report) {
  std::fputs(report.c_str(), stderr);
  std::fputc('\n', stderr);
  std::fflush(stderr);
}

/// Finds a path `from` -> ... -> `to` in the learned graph (call with
/// GraphMu held). Returns the node sequence including both endpoints, or
/// an empty vector when unreachable.
std::vector<const void*> FindPath(const void* from, const void* to) {
  std::map<const void*, Node>& graph = Graph();
  std::map<const void*, const void*> parent;
  std::vector<const void*> frontier{from};
  parent[from] = nullptr;
  while (!frontier.empty()) {
    const void* node = frontier.back();
    frontier.pop_back();
    if (node == to) {
      std::vector<const void*> path;
      for (const void* at = to; at != nullptr; at = parent[at]) {
        path.push_back(at);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto it = graph.find(node);
    if (it == graph.end()) continue;
    for (const void* next : it->second.out) {
      if (parent.emplace(next, node).second) frontier.push_back(next);
    }
  }
  return {};
}

const char* NameOf(const void* mu) {
  auto it = Graph().find(mu);
  return it == Graph().end() ? "<unknown>" : it->second.name;
}

std::string DescribeMutex(const void* mu, const char* name) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\" (%p)", name, mu);
  return buf;
}

void Report(std::string report) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  ReportHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler == nullptr) handler = &DefaultHandler;
  handler(report);
  if (GetMode() == Mode::kAbort) std::abort();
}

}  // namespace

std::atomic<int> g_mode{static_cast<int>(Mode::kOff)};

void SetMode(Mode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

Mode GetMode() {
  return static_cast<Mode>(g_mode.load(std::memory_order_relaxed));
}

void SetReportHandler(ReportHandler handler) {
  g_handler.store(handler, std::memory_order_release);
}

int64_t ViolationCount() {
  return g_violations.load(std::memory_order_relaxed);
}

void OnAcquire(const void* mu, const char* name, bool blocking) {
  if (InDetector()) return;
  InDetector() = true;
  std::vector<Held>& held = HeldStack();
  std::string report;
  if (blocking) {
    std::lock_guard<std::mutex> lock(GraphMu());  // ppdb-lint: allow(std-sync)
    Node& node = Graph()[mu];
    node.name = name;
    for (const Held& h : held) {
      if (h.mu == mu) {
        report = "ppdb deadlock detector: recursive acquisition of " +
                 DescribeMutex(mu, name) +
                 " — this thread already holds it and would block on "
                 "itself.";
        break;
      }
      Node& held_node = Graph()[h.mu];
      held_node.name = h.name;
      if (held_node.out.count(mu) != 0) continue;  // edge already learned
      // Adding h -> mu: a pre-existing path mu ~> h closes a cycle.
      std::vector<const void*> path = FindPath(mu, h.mu);
      if (path.empty()) {
        held_node.out.insert(mu);
        continue;
      }
      report = StrCat(
          {"ppdb deadlock detector: lock-order inversion — acquiring ",
           DescribeMutex(mu, name), " while holding ",
           DescribeMutex(h.mu, h.name),
           ", but the opposite order was already observed.\n  cycle:"});
      for (const void* at : path) {
        report += StrCat({"\n    ", DescribeMutex(at, NameOf(at)), " ->"});
      }
      report += StrCat({" ", DescribeMutex(mu, name),
                        "  (the edge this acquisition would add)"});
      break;
    }
  }
  held.push_back(Held{mu, name});
  InDetector() = false;
  if (!report.empty()) Report(std::move(report));
}

void OnRelease(const void* mu) {
  if (InDetector()) return;
  std::vector<Held>& held = HeldStack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->mu == mu) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

void OnDestroy(const void* mu) {
  if (InDetector()) return;
  std::lock_guard<std::mutex> lock(GraphMu());  // ppdb-lint: allow(std-sync)
  Graph().erase(mu);
  for (auto& [addr, node] : Graph()) node.out.erase(mu);
}

namespace {
/// Serializes ScopedDetectionForTest instances across test threads.
// ppdb-lint: allow(std-sync)
std::mutex& ScopeMu() {
  // ppdb-lint: allow(std-sync)
  // ppdb-lint: allow(raw-new) — see GraphMu.
  static std::mutex* mu = new std::mutex;
  return *mu;
}
}  // namespace

ScopedDetectionForTest::ScopedDetectionForTest(Mode mode,
                                               ReportHandler handler)
    : previous_mode_(GetMode()),
      previous_handler_(g_handler.load(std::memory_order_acquire)) {
  ScopeMu().lock();
  {
    std::lock_guard<std::mutex> lock(GraphMu());  // ppdb-lint: allow(std-sync)
    Graph().clear();
  }
  HeldStack().clear();
  SetReportHandler(handler);
  SetMode(mode);
}

ScopedDetectionForTest::~ScopedDetectionForTest() {
  SetMode(previous_mode_);
  SetReportHandler(previous_handler_);
  {
    std::lock_guard<std::mutex> lock(GraphMu());  // ppdb-lint: allow(std-sync)
    Graph().clear();
  }
  HeldStack().clear();
  ScopeMu().unlock();
}

}  // namespace ppdb::deadlock
