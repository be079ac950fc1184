#include "server/broker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace ppdb::server {
namespace {

using std::chrono::milliseconds;

/// A reusable latch: jobs submitted through `Job()` block until `Open()`.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Blocks every broker worker on `gate`, so subsequent submissions queue.
/// Returns after the workers have actually picked the blockers up.
void OccupyWorkers(RequestBroker& broker, int num_workers, Gate& gate,
                   std::atomic<int>& completions) {
  std::atomic<int> running{0};
  for (int i = 0; i < num_workers; ++i) {
    ASSERT_OK(broker.Submit(
        Lane::kNormal,
        [&](const Deadline&) {
          ++running;
          gate.Wait();
          return Response{Status::OK(), "blocker"};
        },
        [&](const Response&) { ++completions; }));
  }
  while (running.load() < num_workers) std::this_thread::yield();
}

/// Stats once no job is left on a worker. A worker moves its job from
/// in_flight to completed just after the completion callback returns, so a
/// caller that has seen every callback can still read `completed` short.
RequestBroker::StatsSnapshot SettledStats(const RequestBroker& broker) {
  RequestBroker::StatsSnapshot stats = broker.Stats();
  while (stats.in_flight > 0) {
    std::this_thread::yield();
    stats = broker.Stats();
  }
  return stats;
}

TEST(RequestBrokerTest, ExecutesWorkAndReportsStats) {
  RequestBroker::Options options;
  options.num_workers = 2;
  RequestBroker broker(options);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(broker.Submit(
        i % 2 == 0 ? Lane::kNormal : Lane::kPriority,
        [](const Deadline&) { return Response{Status::OK(), "hi"}; },
        [&](const Response& response) {
          EXPECT_OK(response.status);
          EXPECT_EQ(response.payload, "hi");
          std::lock_guard<std::mutex> lock(mu);
          ++done;
          cv.notify_one();
        }));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == 10; });

  RequestBroker::StatsSnapshot stats = SettledStats(broker);
  EXPECT_EQ(stats.submitted, 10);
  EXPECT_EQ(stats.admitted, 10);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_NE(stats.ToPayload().find("admitted=10"), std::string::npos);
}

// The acceptance-criteria overload drill: queue capacity K, 4K concurrent
// submissions against saturated workers -> exactly the excess is shed with
// kUnavailable, and every admitted request completes exactly once.
TEST(RequestBrokerTest, OverloadShedsExactlyTheExcess) {
  constexpr int kWorkers = 2;
  constexpr size_t kCapacity = 8;
  RequestBroker::Options options;
  options.num_workers = kWorkers;
  options.queue_capacity = kCapacity;
  RequestBroker broker(options);

  Gate gate;
  std::atomic<int> completions{0};
  OccupyWorkers(broker, kWorkers, gate, completions);

  // 4K concurrent submitters race for K queue slots.
  constexpr int kSubmitters = static_cast<int>(4 * kCapacity);
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int i = 0; i < kSubmitters; ++i) {
    submitters.emplace_back([&] {
      Status status = broker.Submit(
          Lane::kNormal,
          [](const Deadline&) { return Response{Status::OK(), {}}; },
          [&](const Response& response) {
            EXPECT_OK(response.status);
            ++completions;
          });
      if (status.ok()) {
        ++admitted;
      } else {
        EXPECT_TRUE(status.IsUnavailable()) << status;
        EXPECT_NE(status.message().find("retry_after_ms="), std::string::npos);
        ++shed;
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  // Exactly K fit in the queue; exactly 3K are shed.
  EXPECT_EQ(admitted.load(), static_cast<int>(kCapacity));
  EXPECT_EQ(shed.load(), kSubmitters - static_cast<int>(kCapacity));

  gate.Open();
  broker.Drain();
  // Every admitted request (including the 2 blockers) completed; nothing
  // was silently dropped.
  EXPECT_EQ(completions.load(), kWorkers + static_cast<int>(kCapacity));
  RequestBroker::StatsSnapshot stats = broker.Stats();
  EXPECT_EQ(stats.shed, shed.load());
  EXPECT_EQ(stats.completed, completions.load());
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(RequestBrokerTest, DeadlineExpiredInQueueSkipsTheWork) {
  RequestBroker::Options options;
  options.num_workers = 1;
  RequestBroker broker(options);

  Gate gate;
  std::atomic<int> completions{0};
  OccupyWorkers(broker, 1, gate, completions);

  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  Status seen;
  bool done = false;
  ASSERT_OK(broker.Submit(
      Lane::kNormal, milliseconds(5),
      [&](const Deadline&) {
        ran = true;
        return Response{Status::OK(), {}};
      },
      [&](const Response& response) {
        std::lock_guard<std::mutex> lock(mu);
        seen = response.status;
        done = true;
        cv.notify_one();
      }));

  // Let the 5ms budget lapse while the job sits in the queue.
  std::this_thread::sleep_for(milliseconds(30));
  gate.Open();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_TRUE(seen.IsDeadlineExceeded()) << seen;
  EXPECT_FALSE(ran.load());  // the work never ran; the broker answered
  broker.Drain();
  EXPECT_EQ(broker.Stats().deadline_exceeded, 1);
}

TEST(RequestBrokerTest, PriorityLaneBypassesTheNormalBacklog) {
  RequestBroker::Options options;
  options.num_workers = 1;
  options.queue_capacity = 16;
  RequestBroker broker(options);

  Gate gate;
  std::atomic<int> completions{0};
  OccupyWorkers(broker, 1, gate, completions);

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](std::string tag) {
    return [&, tag = std::move(tag)](const Response&) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  };
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(broker.Submit(
        Lane::kNormal,
        [](const Deadline&) { return Response{Status::OK(), {}}; },
        record("normal")));
  }
  ASSERT_OK(broker.Submit(
      Lane::kPriority,
      [](const Deadline&) { return Response{Status::OK(), {}}; },
      record("priority")));

  gate.Open();
  broker.Drain();
  // The single worker popped the priority job before any queued normal
  // job, despite it being submitted last.
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order.front(), "priority");
}

TEST(RequestBrokerTest, LanesHaveIndependentCapacity) {
  RequestBroker::Options options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.priority_capacity = 4;
  RequestBroker broker(options);

  Gate gate;
  std::atomic<int> completions{0};
  OccupyWorkers(broker, 1, gate, completions);

  auto noop = [](const Deadline&) { return Response{Status::OK(), {}}; };
  auto ignore = [](const Response&) {};
  ASSERT_OK(broker.Submit(Lane::kNormal, noop, ignore));
  EXPECT_TRUE(broker.Submit(Lane::kNormal, noop, ignore).IsUnavailable());
  // The normal lane being full does not shed cheap priority work.
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(broker.Submit(Lane::kPriority, noop, ignore));
  }
  EXPECT_TRUE(broker.Submit(Lane::kPriority, noop, ignore).IsUnavailable());

  gate.Open();
  broker.Drain();
}

TEST(RequestBrokerTest, DrainCompletesInFlightAndRejectsNewWork) {
  RequestBroker::Options options;
  options.num_workers = 2;
  options.drain_deadline = milliseconds(5000);
  RequestBroker broker(options);

  std::atomic<int> completions{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(broker.Submit(
        Lane::kNormal,
        [](const Deadline&) {
          std::this_thread::sleep_for(milliseconds(5));
          return Response{Status::OK(), {}};
        },
        [&](const Response& response) {
          EXPECT_OK(response.status);
          ++completions;
        }));
  }
  broker.Drain();
  EXPECT_EQ(completions.load(), 8);

  Status rejected = broker.Submit(
      Lane::kNormal,
      [](const Deadline&) { return Response{Status::OK(), {}}; },
      [](const Response&) {});
  EXPECT_TRUE(rejected.IsUnavailable());
  EXPECT_NE(rejected.message().find("draining"), std::string::npos);
  EXPECT_TRUE(broker.Stats().draining);
}

// Drain under a short drain deadline cancels the outstanding tokens, so
// cooperative jobs finish promptly with kDeadlineExceeded instead of
// holding shutdown hostage.
TEST(RequestBrokerTest, DrainDeadlineCancelsStragglers) {
  RequestBroker::Options options;
  options.num_workers = 1;
  options.drain_deadline = milliseconds(50);
  RequestBroker broker(options);

  std::atomic<bool> cancelled{false};
  ASSERT_OK(broker.Submit(
      Lane::kNormal,
      [&](const Deadline& deadline) {
        // A cooperative engine loop: polls the token, would otherwise run
        // for a very long time.
        for (int i = 0; i < 1000000; ++i) {
          if (deadline.Expired()) {
            cancelled = true;
            return Response{deadline.Check("loop"), {}};
          }
          std::this_thread::sleep_for(milliseconds(1));
        }
        return Response{Status::OK(), {}};
      },
      [](const Response&) {}));

  const auto start = std::chrono::steady_clock::now();
  broker.Drain();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(cancelled.load());
  EXPECT_EQ(broker.Stats().deadline_exceeded, 1);
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// Stats() promises a mutually consistent snapshot: the counters are
// mutated and read under one lock, so the accounting identities hold in
// every snapshot, even one taken mid-traffic — not just at quiescence.
TEST(RequestBrokerTest, StatsSnapshotIsInternallyConsistent) {
  constexpr int kWorkers = 2;
  RequestBroker::Options options;
  options.num_workers = kWorkers;
  options.queue_capacity = 4;
  RequestBroker broker(options);

  auto check = [&broker] {
    RequestBroker::StatsSnapshot s = broker.Stats();
    EXPECT_EQ(s.submitted, s.admitted + s.shed) << s.ToPayload();
    EXPECT_EQ(s.admitted, s.completed + s.queue_depth + s.priority_depth +
                              s.in_flight)
        << s.ToPayload();
  };

  Gate gate;
  std::atomic<int> completions{0};
  OccupyWorkers(broker, kWorkers, gate, completions);
  // Saturate the normal lane and overflow it so shed > 0.
  for (int i = 0; i < 8; ++i) {
    (void)broker.Submit(
        Lane::kNormal,
        [](const Deadline&) { return Response{Status::OK(), {}}; },
        [&](const Response&) { ++completions; });
    check();
  }
  check();
  gate.Open();
  while (completions.load() < kWorkers + 4) std::this_thread::yield();
  check();

  RequestBroker::StatsSnapshot final_stats = SettledStats(broker);
  EXPECT_EQ(final_stats.shed, 4);
  EXPECT_EQ(final_stats.completed, kWorkers + 4);
}

TEST(RequestBrokerTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> completions{0};
  {
    RequestBroker::Options options;
    options.num_workers = 2;
    RequestBroker broker(options);
    for (int i = 0; i < 6; ++i) {
      ASSERT_OK(broker.Submit(
          Lane::kNormal,
          [](const Deadline&) { return Response{Status::OK(), {}}; },
          [&](const Response&) { ++completions; }));
    }
  }
  EXPECT_EQ(completions.load(), 6);
}

// Regression: the constructor used to reset the process-wide gauge
// mirrors (ppdb_broker_workers, ppdb_broker_draining) without taking
// mu_, violating the documented "mirrors mutate under the Stats() mutex"
// invariant and racing with a live broker's Stats()/Drain() mirror
// writes. Construct and destroy brokers while a long-lived broker serves
// traffic and snapshots stats; tsan would flag the unsynchronized
// interleaving, and the final gauge value must reflect the last
// constructor once the churn stops.
TEST(RequestBrokerTest, ConstructorGaugeMirrorWritesAreSynchronized) {
  RequestBroker::Options options;
  options.num_workers = 2;
  RequestBroker broker(options);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      RequestBroker::Options inner;
      inner.num_workers = 3;
      RequestBroker transient(inner);  // ctor + dtor both touch the gauges
    }
  });

  std::atomic<int> completions{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(broker.Submit(
        Lane::kNormal,
        [](const Deadline&) { return Response{Status::OK(), {}}; },
        [&](const Response&) { ++completions; }));
    RequestBroker::StatsSnapshot stats = broker.Stats();
    EXPECT_GE(stats.submitted, i + 1);
  }
  stop.store(true);
  churn.join();
  while (completions.load() < 50) std::this_thread::yield();

  RequestBroker::StatsSnapshot stats = SettledStats(broker);
  EXPECT_EQ(stats.num_workers, 2);
  EXPECT_EQ(stats.completed, 50);

  // Once construction is single-threaded again, last constructor wins
  // deterministically on the shared mirror.
  RequestBroker::Options last;
  last.num_workers = 4;
  RequestBroker final_broker(last);
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .GetGauge("ppdb_broker_workers", "")
                ->Value(),
            4.0);
}

}  // namespace
}  // namespace ppdb::server
