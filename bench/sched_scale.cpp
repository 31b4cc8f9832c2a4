// Scaling curve for the M:N work-stealing scheduler (DESIGN.md section 7).
//
// A relay chain of N Identity processes passes a short burst of values
// end to end, so the graph has N+1 channels and N+2 processes -- the
// degenerate worst case for thread-per-process execution (every hop is a
// blocking read on its own thread) and the best case for run-to-block
// fibers.  The sweep runs each configuration in a forked child so peak
// RSS (VmHWM) is measured per run, not accumulated across the table.
//
// Thread-per-process refuses chains above SchedulerOptions::max_threads
// (default 16384): at 8 MB of default pthread stack apiece a 100k-thread
// chain would reserve ~800 GB of address space, so the refusal itself is
// part of the result -- the M:N rows are the only way to run the full
// sweep.  Expected shape: at 10k processes the fiber rows are >= 5x
// faster than threads; at 100k the fiber run stays under 2 GiB RSS.
//
// The M:N chain runs twice per size, on 1 worker and on one worker per
// hardware thread, so the table shows what extra workers buy a chain
// whose every hop parks one fiber and wakes the next.
//
//   sched_scale [--fibers-only] [relays ...]
//
// With no sizes it sweeps 1k..100k relays.  --fibers-only skips the
// thread-per-process rows (a 10k-relay row starts 10k OS threads).  The
// exit status is 1 if any configuration failed to deliver every value.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace dpn;

constexpr long kValues = 128;         // values relayed through the chain
constexpr std::size_t kCapacity = 8;  // one value in flight per hop (max wakeups)

/// Peak resident set of the calling process, in KB (VmHWM).
long peak_rss_kb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

struct Outcome {
  bool completed = false;
  bool refused = false;
  double seconds = 0.0;
  long rss_kb = 0;
};

/// Builds and runs the N-relay chain under `options`.  Runs in the child.
/// The wall clock covers run() only -- spawn, execution, and quiescence;
/// graph construction (N+1 channels) is identical under both schedulers
/// and would just dilute the comparison.
Outcome run_chain(std::size_t relays, sched::SchedulerOptions options) {
  Outcome outcome;
  core::Network network;
  Stopwatch watch;
  try {
    network.set_scheduler(options);
    std::vector<std::shared_ptr<core::Channel>> chain;
    chain.reserve(relays + 1);
    for (std::size_t i = 0; i <= relays; ++i) {
      chain.push_back(network.make_channel({.capacity = kCapacity}));
    }
    network.add(std::make_shared<processes::Sequence>(
        0, chain.front()->output(), kValues));
    for (std::size_t i = 0; i < relays; ++i) {
      network.add(std::make_shared<processes::Identity>(
          chain[i]->input(), chain[i + 1]->output()));
    }
    auto sink = std::make_shared<processes::CollectSink<std::int64_t>>();
    network.add(
        std::make_shared<processes::Collect>(chain.back()->input(), sink));
    watch.reset();
    network.run();
    outcome.completed =
        sink->values().size() == static_cast<std::size_t>(kValues);
  } catch (const UsageError& e) {
    outcome.refused = true;  // thread mode above max_threads
  }
  outcome.seconds = watch.elapsed_seconds();
  outcome.rss_kb = peak_rss_kb();
  return outcome;
}

/// Forks, runs the chain in the child, and reads the outcome back over a
/// pipe.  Isolation keeps VmHWM per configuration and lets a wedged or
/// exhausted run fail without taking the sweep down.
Outcome run_isolated(std::size_t relays, sched::SchedulerOptions options) {
  int fds[2];
  if (pipe(fds) != 0) throw IoError{"bench pipe failed"};
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    const Outcome outcome = run_chain(relays, options);
    ssize_t ignored = write(fds[1], &outcome, sizeof outcome);
    (void)ignored;
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  Outcome outcome;
  const ssize_t got = read(fds[0], &outcome, sizeof outcome);
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (got != static_cast<ssize_t>(sizeof outcome)) {
    outcome = {};  // child died before reporting
  }
  return outcome;
}

/// Prints one table row; returns false if the run failed (a refusal is
/// a result, not a failure).
bool print_row(std::size_t relays, const char* label, const char* workers,
               const Outcome& outcome) {
  if (outcome.refused) {
    std::printf("%8zu  %-12s  %7s  %10s  %10s\n", relays, label, workers,
                "refused", "-");
  } else if (!outcome.completed) {
    std::printf("%8zu  %-12s  %7s  %10s  %10s\n", relays, label, workers,
                "FAILED", "-");
  } else {
    std::printf("%8zu  %-12s  %7s  %9.3fs  %7ld MB\n", relays, label,
                workers, outcome.seconds, outcome.rss_kb / 1024);
  }
  std::fflush(stdout);
  return outcome.refused || outcome.completed;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_threads = true;
  std::vector<std::size_t> sizes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fibers-only") == 0) {
      with_threads = false;
    } else {
      sizes.push_back(std::strtoull(argv[i], nullptr, 10));
    }
  }
  if (sizes.empty()) sizes = {1000, 3000, 10000, 30000, 100000};

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("sched_scale: %ld values through N-relay chains "
              "(channel capacity %zu B, %u hardware threads)\n\n",
              kValues, kCapacity, nproc);
  std::printf("%8s  %-12s  %7s  %10s  %10s\n", "relays", "scheduler",
              "workers", "wall", "peak RSS");

  bool ok = true;
  for (const std::size_t relays : sizes) {
    if (with_threads) {
      sched::SchedulerOptions threads;  // kThreadPerProcess default
      ok &= print_row(relays, "threads", "-", run_isolated(relays, threads));
    }
    std::vector<unsigned> worker_counts{1};
    if (nproc > 1) worker_counts.push_back(nproc);
    for (const unsigned workers : worker_counts) {
      sched::SchedulerOptions fibers;
      fibers.mode = sched::SchedMode::kWorkSteal;
      fibers.workers = workers;
      fibers.stack_kb = 32;  // relay frames are shallow; 100k fit in RAM
      const std::string column = std::to_string(workers);
      ok &= print_row(relays, "work-steal", column.c_str(),
                      run_isolated(relays, fibers));
    }
  }
  return ok ? 0 : 1;
}
