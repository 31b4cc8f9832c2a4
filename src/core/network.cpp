#include "core/network.hpp"

#include <algorithm>
#include <set>

#include "obs/flight.hpp"
#include "support/log.hpp"

namespace dpn::core {

Network::~Network() {
  // jthread members join on destruction; nothing else to do.
}

void Network::add(std::shared_ptr<Process> process) {
  if (started_) throw UsageError{"Network::add after start"};
  if (!process) throw UsageError{"Network::add(nullptr)"};
  processes_.push_back(std::move(process));
}

std::shared_ptr<Channel> Network::make_channel(ChannelOptions options) {
  auto channel = std::make_shared<Channel>(std::move(options));
  watch(channel);
  return channel;
}

void Network::add_connected(std::shared_ptr<Process> process) {
  if (!process) return;  // slot wired the endpoint into an existing process
  // Index whatever was added since the last call, so graphs built with
  // add() alone never pay for the set.
  for (; indexed_ < processes_.size(); ++indexed_) {
    registered_.insert(processes_[indexed_].get());
  }
  if (registered_.contains(process.get())) return;
  add(std::move(process));
}

void Network::watch(const std::shared_ptr<Channel>& channel) {
  std::scoped_lock lock{channels_mutex_};
  channels_.push_back(channel->state());
}

void Network::enable_monitor(MonitorOptions options) {
  monitor_enabled_ = true;
  options_ = options;
}

void Network::set_scheduler(sched::SchedulerOptions options) {
  if (started_) throw UsageError{"Network::set_scheduler after start"};
  // Validate eagerly so a bad DPN_STACK_KB fails at configuration, not
  // halfway through spawning a graph.
  options.resolved_stack_bytes();
  sched_options_ = std::move(options);
}

void Network::start() {
  if (started_) throw UsageError{"Network::start called twice"};
  started_ = true;

  // Discover channels referenced by the processes (deduplicated with any
  // explicitly watched ones).
  {
    std::scoped_lock lock{channels_mutex_};
    std::set<const ChannelState*> seen;
    for (const auto& state : channels_) seen.insert(state.get());
    for (const auto& process : processes_) {
      for (const auto& in : process->channel_inputs()) {
        if (seen.insert(in->state().get()).second) {
          channels_.push_back(in->state());
        }
      }
      for (const auto& out : process->channel_outputs()) {
        if (seen.insert(out->state().get()).second) {
          channels_.push_back(out->state());
        }
      }
    }
  }

  // Flight-recorder topology: bind every process to the channels it
  // reads/writes *before* anything runs.  The wait-for reconstruction
  // needs these static edges -- in an all-blocked-reading deadlock no
  // writer ever blocked, so dynamic block events alone cannot attribute
  // the channels' writers.
  obs::flight_install_crash_handler();
  for (const auto& process : processes_) {
    for (const auto& in : process->channel_inputs()) {
      obs::flight_record_named(obs::FlightKind::kChanReader, process->name(),
                               in->state()->id);
    }
    for (const auto& out : process->channel_outputs()) {
      obs::flight_record_named(obs::FlightKind::kChanWriter, process->name(),
                               out->state()->id);
    }
  }

  if (sched_options_.mode == sched::SchedMode::kThreadPerProcess &&
      processes_.size() > sched_options_.max_threads) {
    throw UsageError{
        "thread-per-process mode refuses " + std::to_string(processes_.size()) +
        " processes (cap " + std::to_string(sched_options_.max_threads) +
        "); use SchedMode::kWorkSteal (DPN_SCHED=mn) for graphs this size"};
  }

  live_.store(processes_.size());
  // Process contexts inherit the starter's trace attribution (see
  // CompositeProcess::run).
  const std::uint32_t node_tag = obs::node_tag();
  if (sched_options_.mode == sched::SchedMode::kWorkSteal) {
    sched::SchedulerOptions options = sched_options_;
    options.worker_init = [node_tag] { obs::set_node_tag(node_tag); };
    scheduler_ = std::make_unique<sched::Scheduler>(options);
    graph_done_.add(processes_.size());
    for (const auto& process : processes_) {
      // The phase hook keeps ProcessStats honest about scheduler-side
      // states the process body cannot see: sitting runnable on a deque,
      // and migrating between workers.
      auto stats = process->stats();
      scheduler_->spawn(
          [this, process] {
            try {
              process->run();
            } catch (const IoError&) {
              // Graceful stop.
            } catch (...) {
              std::scoped_lock lock{failures_mutex_};
              failures_.push_back(std::current_exception());
            }
            live_.fetch_sub(1);
            graph_done_.done();
          },
          process->name(),
          [stats](sched::FiberPhase phase) {
            switch (phase) {
              case sched::FiberPhase::kReady:
                stats->set_state(obs::ProcessState::kRunnable);
                break;
              case sched::FiberPhase::kRunning:
                stats->set_state(obs::ProcessState::kRunning);
                break;
              case sched::FiberPhase::kStolen:
                obs::bump(stats->stolen, 1);
                break;
            }
          });
    }
  } else {
    threads_.reserve(processes_.size());
    for (const auto& process : processes_) {
      threads_.emplace_back([this, process, node_tag] {
        obs::set_node_tag(node_tag);
        obs::flight_set_actor(process->name());
        try {
          process->run();
        } catch (const IoError&) {
          // Graceful stop.
        } catch (...) {
          std::scoped_lock lock{failures_mutex_};
          failures_.push_back(std::current_exception());
        }
        live_.fetch_sub(1);
      });
    }
  }
  if (monitor_enabled_) {
    monitor_thread_ = std::jthread{[this](std::stop_token st) {
      monitor_loop(st);
    }};
  }
}

void Network::join() {
  if (scheduler_) {
    // Quiescence-based termination: wait for every top-level fiber to
    // report done, then let the scheduler drain -- which also covers
    // detached stragglers a process spawned at runtime (Sift's filters).
    graph_done_.wait();
    scheduler_->shutdown();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  if (monitor_thread_.joinable()) {
    monitor_thread_.request_stop();
    monitor_thread_.join();
  }
  std::scoped_lock lock{failures_mutex_};
  if (!failures_.empty()) std::rethrow_exception(failures_.front());
}

obs::NetworkSnapshot Network::snapshot() const {
  obs::NetworkSnapshot snap;
  snap.live = live_.load();
  snap.outcome = static_cast<std::uint8_t>(outcome_.load());
  snap.growth_events = growth_events_.load();
  if (scheduler_) {
    const sched::Scheduler::Counters counters = scheduler_->counters();
    snap.sched_workers = scheduler_->workers();
    snap.sched_spawned = counters.spawned;
    snap.sched_completed = counters.completed;
    snap.sched_steals = counters.steals;
    snap.sched_dispatches = counters.dispatches;
    snap.sched_parks = counters.parks;
  }
  for (const auto& process : processes_) {
    append_process_snapshots(*process, snap.processes);
  }
  std::scoped_lock lock{channels_mutex_};
  snap.channels.reserve(channels_.size());
  for (const auto& state : channels_) {
    snap.channels.push_back(snapshot_channel(*state));
  }
  snap.fill_fault_counters();
  snap.fill_transport_counters();
  return snap;
}

std::string Network::channel_report() const { return snapshot().to_string(); }

Network::BlockedCounts Network::blocked_counts() const {
  BlockedCounts counts;
  counts.live = live_.load();
  std::scoped_lock lock{channels_mutex_};
  for (const auto& state : channels_) {
    if (!state->pipe) continue;
    std::size_t readers = state->pipe->blocked_readers();
    std::size_t writers = state->pipe->blocked_writers();
    std::size_t capacity = state->pipe->capacity();
    if (state->typed && !state->typed->demoted()) {
      // Typed fast path live: processes park on the ring, the pipe idles.
      // The ring's bound (in bytes, via the codec's wire size) is the
      // channel's effective capacity for the growth arithmetic.
      readers += state->typed->blocked_readers();
      writers += state->typed->blocked_writers();
      capacity = state->typed->capacity() * state->typed->value_bytes();
    }
    counts.blocked_readers += readers;
    counts.blocked_writers += writers;
    if (writers > 0) {
      if (!counts.has_write_blocked ||
          capacity < counts.smallest_blocked_capacity) {
        counts.smallest_blocked_capacity = capacity;
      }
      counts.has_write_blocked = true;
    }
  }
  return counts;
}

bool Network::grow_smallest_blocked(double factor, std::size_t max_capacity) {
  // The victim may be a byte pipe or a live typed ring; both are compared
  // and grown in bytes (ring slots x wire size) so Parks' smallest-first
  // rule treats mixed networks uniformly.
  std::shared_ptr<io::Pipe> pipe_victim;
  std::shared_ptr<io::TypedRingBase> ring_victim;
  std::size_t victim_bytes = 0;
  {
    std::scoped_lock lock{channels_mutex_};
    for (const auto& state : channels_) {
      if (!state->pipe) continue;
      if (state->typed && !state->typed->demoted()) {
        if (state->typed->blocked_writers() == 0) continue;
        const std::size_t bytes =
            state->typed->capacity() * state->typed->value_bytes();
        if ((!pipe_victim && !ring_victim) || bytes < victim_bytes) {
          ring_victim = state->typed;
          pipe_victim = nullptr;
          victim_bytes = bytes;
        }
        continue;
      }
      if (state->pipe->blocked_writers() == 0) continue;
      const std::size_t bytes = state->pipe->capacity();
      if ((!pipe_victim && !ring_victim) || bytes < victim_bytes) {
        pipe_victim = state->pipe;
        ring_victim = nullptr;
        victim_bytes = bytes;
      }
    }
  }
  if (!pipe_victim && !ring_victim) return false;
  const std::size_t old_capacity = victim_bytes;
  const auto grown =
      static_cast<std::size_t>(static_cast<double>(old_capacity) * factor);
  const std::size_t new_capacity =
      std::min(std::max(grown, old_capacity + 1), max_capacity);
  if (new_capacity <= old_capacity) return false;
  if (ring_victim) {
    const std::size_t vb = ring_victim->value_bytes();
    ring_victim->grow(
        std::max(new_capacity / vb, ring_victim->capacity() + 1));
  } else {
    pipe_victim->grow(new_capacity);
  }
  growth_events_.fetch_add(1);
  obs::flight_record_named(obs::FlightKind::kMonitorGrow, "ddm", old_capacity,
                           new_capacity);
  return true;
}

void Network::abort() {
  std::scoped_lock lock{channels_mutex_};
  for (const auto& state : channels_) {
    if (state->typed) state->typed->abort();
    if (state->pipe) state->pipe->abort();
  }
}

void Network::monitor_loop(std::stop_token stop) {
  bool stalled_last_poll = false;
  while (!stop.stop_requested() && live_.load() > 0) {
    std::this_thread::sleep_for(options_.poll_interval);

    // One structured snapshot per poll: the same view an operator gets, so
    // every monitor decision can be reproduced from snapshot data.
    const obs::NetworkSnapshot snap = snapshot();
    const std::uint64_t blocked = snap.blocked_readers() + snap.blocked_writers();
    const bool stalled = snap.live > 0 && blocked >= snap.live;
    if (stalled && stalled_last_poll) {
      // Confirmed on two consecutive polls: act.
      if (!resolve_stall(snap)) return;  // true deadlock handled
      stalled_last_poll = false;
    } else {
      stalled_last_poll = stalled;
    }
  }
}

bool Network::resolve_stall(const obs::NetworkSnapshot& stall) {
  const obs::ChannelSnapshot* victim = stall.smallest_write_blocked();
  if (victim == nullptr) {
    // Everyone was blocked reading when the snapshot was taken -- but a
    // process finishing in between (its final close wakes its neighbours)
    // makes that evidence stale, not a deadlock.  Re-poll in that case.
    if (live_.load() != stall.live) return true;
    outcome_.store(DeadlockOutcome::kTrueDeadlock);
    log::warn("network: true deadlock (all processes blocked reading)");
    // Post-mortem before the abort wakes anyone: the block events still
    // standing in the rings ARE the wait-for graph.
    obs::flight_record_named(obs::FlightKind::kDeadlockAbort,
                             "all-blocked-reading");
    const std::string dump = obs::flight_dump("deadlock");
    if (!dump.empty()) log::warn("network: flight dump written to ", dump);
    if (options_.abort_on_true_deadlock) abort();
    return false;
  }
  const std::size_t old_capacity = victim->capacity;
  const auto grown = static_cast<std::size_t>(
      static_cast<double>(old_capacity) * options_.growth_factor);
  const std::size_t new_capacity = std::max(grown, old_capacity + 1);
  if (new_capacity > options_.max_channel_capacity) {
    if (live_.load() != stall.live) return true;  // stale evidence
    outcome_.store(DeadlockOutcome::kTrueDeadlock);
    log::warn("network: channel '", victim->label, "' hit the capacity cap (",
              options_.max_channel_capacity, " bytes); treating as deadlock");
    obs::flight_record_named(obs::FlightKind::kDeadlockAbort, victim->label,
                             victim->id, old_capacity);
    const std::string dump = obs::flight_dump("deadlock");
    if (!dump.empty()) log::warn("network: flight dump written to ", dump);
    if (options_.abort_on_true_deadlock) abort();
    return false;
  }
  if (!apply_growth(stall, options_.growth_factor,
                    options_.max_channel_capacity)) {
    // The stall dissolved between snapshot and growth (process exited, or
    // the victim's writer got unblocked).  Nothing to fix; keep watching.
    return true;
  }
  if (outcome_.load() == DeadlockOutcome::kNone) {
    outcome_.store(DeadlockOutcome::kGrown);
  }
  log::debug("network: grew channel '", victim->label, "' ", old_capacity,
             " -> ", new_capacity, " bytes");
  return true;
}

bool Network::apply_growth(const obs::NetworkSnapshot& stall, double factor,
                           std::size_t max_capacity) {
  const obs::ChannelSnapshot* victim_row = stall.smallest_write_blocked();
  if (victim_row == nullptr) return false;
  // Growth-after-finish guard: the snapshot deduced "everyone is blocked"
  // from a live count that is no longer true.
  if (live_.load() != stall.live) return false;
  std::shared_ptr<io::Pipe> victim;
  std::shared_ptr<io::TypedRingBase> ring;
  {
    std::scoped_lock lock{channels_mutex_};
    for (const auto& state : channels_) {
      if (state->id == victim_row->id && state->pipe) {
        victim = state->pipe;
        if (state->typed && !state->typed->demoted()) ring = state->typed;
        break;
      }
    }
  }
  if (!victim) return false;  // channel went remote/away
  if (ring) {
    // Typed fast path: the writer is parked on the ring, so grow the ring
    // (same byte arithmetic; slots = bytes / wire size).
    if (ring->blocked_writers() == 0) return false;  // writer moved on
    const std::size_t vb = ring->value_bytes();
    const std::size_t old_capacity = ring->capacity() * vb;
    const auto grown =
        static_cast<std::size_t>(static_cast<double>(old_capacity) * factor);
    const std::size_t new_capacity =
        std::min(std::max(grown, old_capacity + 1), max_capacity);
    if (new_capacity <= old_capacity) return false;
    ring->grow(std::max(new_capacity / vb, ring->capacity() + 1));
    growth_events_.fetch_add(1);
    obs::flight_record_named(obs::FlightKind::kMonitorGrow, victim_row->label,
                             old_capacity, new_capacity);
    return true;
  }
  if (victim->blocked_writers() == 0) return false;  // writer moved on
  const std::size_t old_capacity = victim->capacity();
  const auto grown =
      static_cast<std::size_t>(static_cast<double>(old_capacity) * factor);
  const std::size_t new_capacity =
      std::min(std::max(grown, old_capacity + 1), max_capacity);
  if (new_capacity <= old_capacity) return false;
  victim->grow(new_capacity);
  growth_events_.fetch_add(1);
  obs::flight_record_named(obs::FlightKind::kMonitorGrow, victim_row->label,
                           old_capacity, new_capacity);
  return true;
}

}  // namespace dpn::core
