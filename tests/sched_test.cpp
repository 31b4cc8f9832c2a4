#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "io/data.hpp"
#include "io/pipe.hpp"
#include "obs/flight.hpp"
#include "processes/basic.hpp"
#include "processes/sieve.hpp"
#include "sched/queue.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"

namespace {

using dpn::UsageError;
using dpn::core::Network;
using dpn::processes::Collect;
using dpn::processes::CollectSink;
using dpn::processes::Sequence;
using dpn::processes::Sift;
namespace sched = dpn::sched;

sched::SchedulerOptions mn_options(unsigned workers) {
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = workers;
  return options;
}

// --- SchedulerOptions / stack configuration (DPN_STACK_KB) ------------------

TEST(SchedulerOptions, StackSizeDefaultsAndExplicitOverride) {
  unsetenv("DPN_STACK_KB");
  sched::SchedulerOptions options;
  EXPECT_EQ(options.resolved_stack_bytes(),
            sched::SchedulerOptions::kDefaultStackKb * 1024);
  options.stack_kb = 64;
  EXPECT_EQ(options.resolved_stack_bytes(), 64u * 1024);
}

TEST(SchedulerOptions, SubMinimumStackIsRejected) {
  sched::SchedulerOptions options;
  options.stack_kb = sched::SchedulerOptions::kMinStackKb - 1;
  EXPECT_THROW(options.resolved_stack_bytes(), UsageError);
  // The rejection also fires at scheduler construction ...
  EXPECT_THROW(sched::Scheduler{options}, UsageError);
  // ... and at Network configuration time.
  Network network;
  EXPECT_THROW(network.set_scheduler(options), UsageError);
}

TEST(SchedulerOptions, EnvStackOverride) {
  setenv("DPN_STACK_KB", "256", 1);
  sched::SchedulerOptions options;
  EXPECT_EQ(options.resolved_stack_bytes(), 256u * 1024);
  // An explicit stack_kb beats the environment.
  options.stack_kb = 32;
  EXPECT_EQ(options.resolved_stack_bytes(), 32u * 1024);
  // A sub-minimum environment value is rejected, not silently clamped.
  setenv("DPN_STACK_KB", "4", 1);
  options.stack_kb = 0;
  EXPECT_THROW(options.resolved_stack_bytes(), UsageError);
  unsetenv("DPN_STACK_KB");
}

TEST(SchedulerOptions, EnvModeSelection) {
  setenv("DPN_SCHED", "mn", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().mode,
            sched::SchedMode::kWorkSteal);
  setenv("DPN_SCHED", "threads", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().mode,
            sched::SchedMode::kThreadPerProcess);
  setenv("DPN_SCHED", "bogus", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().mode,
            sched::SchedMode::kThreadPerProcess);
  unsetenv("DPN_SCHED");
  setenv("DPN_WORKERS", "3", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().workers, 3u);
  unsetenv("DPN_WORKERS");
}

// --- Fiber execution --------------------------------------------------------

TEST(Scheduler, RunsFibersToCompletionAndQuiesces) {
  sched::Scheduler scheduler{mn_options(2)};
  std::atomic<int> sum{0};
  for (int i = 0; i < 500; ++i) {
    scheduler.spawn([&sum] { sum.fetch_add(1); });
  }
  scheduler.wait_quiescent();
  EXPECT_EQ(sum.load(), 500);
  EXPECT_EQ(scheduler.live_fibers(), 0u);
  const sched::Scheduler::Counters counters = scheduler.counters();
  EXPECT_EQ(counters.spawned, 500u);
  EXPECT_EQ(counters.completed, 500u);
  EXPECT_GE(counters.dispatches, 500u);
}

TEST(Scheduler, OnFiberOnlyOnWorkers) {
  EXPECT_FALSE(sched::on_fiber());
  EXPECT_EQ(sched::Scheduler::current(), nullptr);
  EXPECT_FALSE(sched::spawn_detached([] {}));  // off-worker: caller falls back

  sched::Scheduler scheduler{mn_options(1)};
  std::atomic<bool> was_on_fiber{false};
  scheduler.spawn([&was_on_fiber] { was_on_fiber = sched::on_fiber(); });
  scheduler.wait_quiescent();
  EXPECT_TRUE(was_on_fiber.load());
}

TEST(Scheduler, FibersSpawnDetachedSiblings) {
  sched::Scheduler scheduler{mn_options(2)};
  std::atomic<int> done{0};
  scheduler.spawn([&done] {
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE(sched::spawn_detached([&done] { done.fetch_add(1); }));
    }
  });
  scheduler.wait_quiescent();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(scheduler.counters().completed, 33u);
}

TEST(Scheduler, EscapedExceptionsAreContained) {
  sched::Scheduler scheduler{mn_options(1)};
  std::atomic<int> after{0};
  scheduler.spawn([] { throw std::runtime_error{"escaped"}; });
  scheduler.spawn([&after] { after.fetch_add(1); });
  scheduler.wait_quiescent();
  EXPECT_EQ(after.load(), 1);  // the worker survived the throwing fiber
}

TEST(Scheduler, ManyFibersOnFewWorkers) {
  // 10k fibers on 2 workers: the whole point of M:N.  Thread-per-process
  // at this size would need ~80 GB of reserved stack.
  sched::SchedulerOptions options = mn_options(2);
  options.stack_kb = 16;
  sched::Scheduler scheduler{options};
  std::atomic<std::int64_t> sum{0};
  for (int i = 0; i < 10000; ++i) {
    scheduler.spawn([&sum, i] { sum.fetch_add(i); });
  }
  scheduler.wait_quiescent();
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

// --- Pipe integration: run-to-block + wakeup handshake ----------------------

TEST(Scheduler, PipeBlockingSuspendsAndResumesFibers) {
  sched::Scheduler scheduler{mn_options(2)};
  // Tiny pipe so the writer run-to-blocks constantly.
  auto pipe = std::make_shared<dpn::io::Pipe>(8);
  constexpr int kBytes = 4096;
  std::vector<std::uint8_t> received;
  scheduler.spawn([pipe] {
    for (int i = 0; i < kBytes; ++i) {
      const auto b = static_cast<std::uint8_t>(i & 0xff);
      pipe->write({&b, 1});
    }
    pipe->close_write();
  });
  scheduler.spawn([pipe, &received] {
    std::uint8_t chunk[64];
    for (;;) {
      const std::size_t n = pipe->read_some({chunk, sizeof chunk});
      if (n == 0) break;
      received.insert(received.end(), chunk, chunk + n);
    }
  });
  scheduler.wait_quiescent();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kBytes));
  for (int i = 0; i < kBytes; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)],
              static_cast<std::uint8_t>(i & 0xff));
  }
}

TEST(Scheduler, PipeAbortWakesSuspendedFiber) {
  sched::Scheduler scheduler{mn_options(1)};
  auto pipe = std::make_shared<dpn::io::Pipe>(8);
  std::atomic<bool> interrupted{false};
  scheduler.spawn([pipe, &interrupted] {
    std::uint8_t chunk[8];
    try {
      pipe->read_some({chunk, sizeof chunk});  // empty pipe: suspends
    } catch (const dpn::Interrupted&) {
      interrupted = true;
    }
  });
  // Give the fiber time to park, then abort from off-scheduler.
  while (pipe->blocked_readers() == 0) std::this_thread::yield();
  pipe->abort();
  scheduler.wait_quiescent();
  EXPECT_TRUE(interrupted.load());
}

TEST(Scheduler, MixedFiberAndThreadWaitersCoexist) {
  // A fiber produces, a plain OS thread consumes: the cv path and the
  // fiber path share one pipe.
  sched::Scheduler scheduler{mn_options(1)};
  auto pipe = std::make_shared<dpn::io::Pipe>(4);
  scheduler.spawn([pipe] {
    for (int i = 0; i < 100; ++i) {
      const auto b = static_cast<std::uint8_t>(i);
      pipe->write({&b, 1});
    }
    pipe->close_write();
  });
  std::size_t total = 0;
  std::jthread consumer{[pipe, &total] {
    std::uint8_t chunk[16];
    while (const std::size_t n = pipe->read_some({chunk, sizeof chunk})) {
      total += n;
    }
  }};
  consumer.join();
  scheduler.wait_quiescent();
  EXPECT_EQ(total, 100u);
}

TEST(Scheduler, BlockingQueuePopSuspendsFiber) {
  // The Turnstile deadlock shape: a fiber pops from an empty queue that
  // only plain threads feed.  The pop must suspend the fiber (not wedge
  // the lone worker) so other fibers keep running meanwhile.
  sched::Scheduler scheduler{mn_options(1)};
  sched::BlockingQueue<int> queue;
  std::atomic<int> sum{0};
  std::atomic<int> side_work{0};
  scheduler.spawn([&queue, &sum] {
    while (auto item = queue.pop()) sum.fetch_add(*item);
  });
  // If the popping fiber held the worker hostage this fiber never runs.
  scheduler.spawn([&side_work] { side_work.store(1); });
  while (side_work.load() == 0) std::this_thread::yield();
  std::jthread producer{[&queue] {
    for (int i = 1; i <= 100; ++i) queue.push(i);
    queue.close();
  }};
  producer.join();
  scheduler.wait_quiescent();
  EXPECT_EQ(sum.load(), 5050);
}

// --- WaitGroup --------------------------------------------------------------

TEST(WaitGroup, FiberAndThreadWaiters) {
  sched::Scheduler scheduler{mn_options(2)};
  sched::WaitGroup group;
  group.add(3);
  std::atomic<int> fired{0};
  for (int i = 0; i < 3; ++i) {
    scheduler.spawn([&group, &fired] {
      fired.fetch_add(1);
      group.done();
    });
  }
  group.wait();  // plain-thread wait
  EXPECT_EQ(fired.load(), 3);

  // Fiber-side wait: a fiber parks on the group without pinning a worker.
  sched::WaitGroup inner;
  inner.add(1);
  std::atomic<bool> waited{false};
  scheduler.spawn([&inner, &waited] {
    inner.wait();
    waited = true;
  });
  scheduler.spawn([&inner] { inner.done(); });
  scheduler.wait_quiescent();
  EXPECT_TRUE(waited.load());
}

// --- Network integration ----------------------------------------------------

TEST(SchedNetwork, SequenceToCollectUnderWorkSteal) {
  Network network;
  network.set_scheduler(mn_options(2));
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.connect(
      [&](auto out) { return std::make_shared<Sequence>(0, out, 100); },
      [&](auto in) { return std::make_shared<Collect>(in, sink); },
      {.capacity = 64, .label = "seq"});
  network.run();
  const std::vector<std::int64_t> values = sink->values();
  ASSERT_EQ(values.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
  }
  const dpn::obs::NetworkSnapshot snap = network.snapshot();
  EXPECT_EQ(snap.sched_workers, 2u);
  EXPECT_GE(snap.sched_spawned, 2u);
  EXPECT_EQ(snap.sched_spawned, snap.sched_completed);
  EXPECT_GE(snap.sched_dispatches, snap.sched_spawned);
}

TEST(SchedNetwork, SieveInsertsFiltersAsDetachedFibers) {
  // Sift reconfigures the graph at runtime (Figure 8); under the M:N
  // scheduler its inserted Modulo processes must become fibers, not
  // threads -- every insertion past sched_spawned's initial 3 proves it.
  Network network;
  network.set_scheduler(mn_options(2));
  auto numbers = network.make_channel({.capacity = 64, .label = "numbers"});
  auto primes = network.make_channel({.capacity = 64, .label = "primes"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto sift = std::make_shared<Sift>(numbers->input(), primes->output());
  network.add(std::make_shared<Sequence>(2, numbers->output(), 99));  // 2..100
  network.add(sift);
  network.add(std::make_shared<Collect>(primes->input(), sink));
  network.run();
  const std::vector<std::int64_t> expected{2,  3,  5,  7,  11, 13, 17, 19, 23,
                                           29, 31, 37, 41, 43, 47, 53, 59, 61,
                                           67, 71, 73, 79, 83, 89, 97};
  EXPECT_EQ(sink->values(), expected);
  EXPECT_EQ(sift->filters_inserted(), expected.size());
  // 3 top-level processes + one detached fiber per inserted filter.
  EXPECT_EQ(network.snapshot().sched_spawned, 3u + expected.size());
}

TEST(SchedNetwork, ThreadModeRefusesOversizedGraph) {
  Network network;
  sched::SchedulerOptions options;  // thread-per-process
  options.max_threads = 2;
  network.set_scheduler(options);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto mid = network.make_channel({.capacity = 64, .label = "a"});
  auto out = network.make_channel({.capacity = 64, .label = "b"});
  network.add(std::make_shared<Sequence>(0, mid->output(), 10));
  network.add(std::make_shared<dpn::processes::Modulo>(mid->input(),
                                                       out->output(), 2));
  network.add(std::make_shared<Collect>(out->input(), sink));
  EXPECT_THROW(network.start(), UsageError);
}

TEST(SchedNetwork, CompositeRunsComponentsAsSiblingFibers) {
  Network network;
  network.set_scheduler(mn_options(2));
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto composite = std::make_shared<dpn::core::CompositeProcess>();
  auto channel = network.make_channel({.capacity = 64, .label = "inner"});
  composite->add(std::make_shared<Sequence>(0, channel->output(), 50));
  composite->add(std::make_shared<Collect>(channel->input(), sink));
  network.add(composite);
  network.run();
  EXPECT_EQ(sink->values().size(), 50u);
  // The composite plus its two components all ran as fibers.
  EXPECT_GE(network.snapshot().sched_spawned, 3u);
}

// --- Wake claims: a woken waiter stops counting as blocked ------------------

TEST(Scheduler, WakeClaimsParkedFiberReaderBeforeItRuns) {
  // The lone worker is held by a spinning fiber, so the reader a write
  // wakes cannot run yet.  It must already have stopped counting as
  // blocked: the deadlock monitor reads these counts, and a woken but
  // unscheduled process is not stuck.
  sched::Scheduler scheduler{mn_options(1)};
  auto pipe = std::make_shared<dpn::io::Pipe>(8);
  std::atomic<bool> read_done{false};
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  scheduler.spawn([pipe, &read_done] {
    std::uint8_t b = 0;
    pipe->read_some({&b, 1});
    read_done = true;
  });
  while (pipe->blocked_readers() == 0) std::this_thread::yield();
  scheduler.spawn([&holding, &release] {
    holding = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!holding.load()) std::this_thread::yield();

  const std::uint8_t b = 7;
  pipe->write({&b, 1});  // off the workers: the reader goes to the inject queue
  EXPECT_EQ(pipe->blocked_readers(), 0u);
  EXPECT_EQ(pipe->stats().blocked_readers, 0u);
  EXPECT_FALSE(read_done.load());

  release = true;
  scheduler.wait_quiescent();
  EXPECT_TRUE(read_done.load());
}

// --- Idle handshake ---------------------------------------------------------

/// Plain threads take turns injecting bursts of fibers.  Each fiber parks
/// on a WaitGroup and then on a BlockingQueue, and the injecting thread
/// wakes both from off the scheduler (the inject path).  The queue items
/// go in one at a time, each after a pseudo-random pause of up to ~20 us,
/// so they land at every phase of a worker going idle after it ran the
/// previous fiber.  Only one thread injects at a time and it waits for
/// each item to be taken, so a wake lost in the idle handshake leaves a
/// fiber runnable with every worker asleep and nothing else to wake them:
/// the deadline turns that into a failure instead of a hang.  Returns
/// whether every item was taken in time.
bool bursts_all_delivered(unsigned workers, int rounds) {
  constexpr int kThreads = 3;
  constexpr auto kDeadline = std::chrono::seconds{5};
  sched::Scheduler scheduler{mn_options(workers)};
  std::atomic<int> turn{0};
  std::atomic<bool> stranded{false};
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t rng = 0x9E3779B97F4A7C15ULL * static_cast<unsigned>(t + 1);
      for (int r = t; r < rounds; r += kThreads) {
        while (turn.load() != r) std::this_thread::yield();
        if (stranded.load()) {
          turn.store(r + 1);
          continue;
        }
        const int burst = 1 + (r * 7) % 8;
        sched::WaitGroup gate;
        gate.add(1);
        sched::BlockingQueue<int> queue;
        std::atomic<int> done{0};
        for (int i = 0; i < burst; ++i) {
          scheduler.spawn([&gate, &queue, &done] {
            gate.wait();
            if (queue.pop()) done.fetch_add(1);
          });
        }
        gate.done();
        for (int i = 0; i < burst; ++i) {
          rng ^= rng << 13;
          rng ^= rng >> 7;
          rng ^= rng << 17;
          const auto pause = std::chrono::nanoseconds{rng % 20000};
          const auto resume = std::chrono::steady_clock::now() + pause;
          while (std::chrono::steady_clock::now() < resume) {
          }
          queue.push(i);
          const auto deadline = std::chrono::steady_clock::now() + kDeadline;
          while (done.load() <= i) {
            if (std::chrono::steady_clock::now() > deadline) {
              stranded.store(true);
              break;
            }
            std::this_thread::yield();
          }
          if (stranded.load()) break;
        }
        // Watchdog: after a miss, each spawn is one more wake attempt, so
        // the stranded fibers drain and the test fails instead of hanging.
        while (done.load() < burst) {
          queue.push(0);
          scheduler.spawn([] {});
          std::this_thread::sleep_for(std::chrono::milliseconds{1});
        }
        turn.store(r + 1);
      }
    });
  }
  threads.clear();  // joins
  scheduler.wait_quiescent();
  return !stranded.load();
}

TEST(IdleHandshake, InjectedBurstsNeverStrandAFiber) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    EXPECT_TRUE(bursts_all_delivered(workers, 3000))
        << workers << " worker(s): a fiber sat runnable while every "
        << "worker slept";
  }
}

// --- Instrumentation --------------------------------------------------------

TEST(SchedInstrumentation, DispatchesMatchRunqSamplesAfterShutdown) {
  const std::uint64_t samples_before =
      sched::runq_wait_histogram().snapshot().count;
  sched::Scheduler scheduler{mn_options(2)};
  // A one-byte pipe: every byte parks one side and re-dispatches it.
  auto pipe = std::make_shared<dpn::io::Pipe>(1);
  constexpr int kBytes = 500;
  scheduler.spawn([pipe] {
    for (int i = 0; i < kBytes; ++i) {
      const auto b = static_cast<std::uint8_t>(i);
      pipe->write({&b, 1});
    }
    pipe->close_write();
  });
  scheduler.spawn([pipe] {
    std::uint8_t b = 0;
    while (pipe->read_some({&b, 1}) != 0) {
    }
  });
  scheduler.shutdown();

  // Every dispatch records exactly one run-queue sample, and both survive
  // the workers: counters and shards are read after the threads are gone.
  const sched::Scheduler::Counters counters = scheduler.counters();
  EXPECT_EQ(counters.spawned, 2u);
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(counters.injects, 2u);  // both spawned from this thread
  EXPECT_GE(counters.dispatches, 2u + kBytes / 2);
  EXPECT_EQ(sched::runq_wait_histogram().snapshot().count - samples_before,
            counters.dispatches);
}

TEST(SchedInstrumentation, ParkedFiberReaderReportsItsWait) {
  constexpr auto kPark = std::chrono::milliseconds{20};
  constexpr std::uint64_t kParkNs = 20'000'000;  // kPark in ns
  constexpr std::uint64_t kFlightId = 0x5c4ed'0000'2015ULL;
  sched::Scheduler scheduler{mn_options(2)};
  auto pipe = std::make_shared<dpn::io::Pipe>(8);
  pipe->set_flight_id(kFlightId);
  scheduler.spawn([pipe] {
    std::uint8_t b = 0;
    pipe->read_some({&b, 1});
  });
  while (pipe->blocked_readers() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(kPark);
  const std::uint8_t b = 1;
  pipe->write({&b, 1});
  scheduler.wait_quiescent();

  // The wait ends at the dispatch stamp of the resumed fiber, which is
  // after the write, which is at least kPark after the park began.
  const dpn::io::Pipe::Stats stats = pipe->stats();
  EXPECT_EQ(stats.reader_wakeups, 1u);
  EXPECT_GE(stats.blocked_read_ns, kParkNs);
  EXPECT_EQ(stats.read_block.count, 1u);

  if (!dpn::obs::flight_enabled()) return;
  std::uint64_t block_ns = 0;
  std::uint64_t unblock_ns = 0;
  for (const dpn::obs::FlightEvent& event : dpn::obs::flight_export().events) {
    if (event.a != kFlightId) continue;
    const auto kind = static_cast<dpn::obs::FlightKind>(event.kind);
    if (kind == dpn::obs::FlightKind::kChanBlockRead) block_ns = event.ts_ns;
    if (kind == dpn::obs::FlightKind::kChanUnblockRead) unblock_ns = event.ts_ns;
  }
  ASSERT_NE(block_ns, 0u);
  ASSERT_NE(unblock_ns, 0u);
  EXPECT_GE(unblock_ns, block_ns + kParkNs);
}

}  // namespace
