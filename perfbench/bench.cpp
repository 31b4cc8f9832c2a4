// One repetition of one benchmark workload, run in its own process.
//
//   dpn_perfbench --workload <name> --seed <n> [--trace 0|1] [--smoke]
//                 [--fault none|drop|reorder]
//
// Prints one JSON object on stdout: the repetition's phase times, CPU and
// peak RSS, sink verification, token latency and -- with --trace 1 -- the
// per-layer figures.  perfbench/run.py runs repetitions, aggregates them
// and checks the verification; see perfbench/README.md for the workloads
// and the metric definitions.
//
// Every source emits seeded pseudo-random i64 values; every sink keeps
// the count and an order-sensitive checksum of what it read, which are
// checked against the values the seed implies once the run is over.
// Token latency is sampled: the source stamps every k-th token just
// before writing it, the sink reads the stamp back after reading the
// token (all nodes share this process, so one steady clock serves both).
//
// Tracing here is done from outside the library: clocks around the calls
// the benchmark makes into core / io / dist, plus the counters those
// layers already export.  Per-call clocks run only with --trace 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "core/typed.hpp"
#include "dist/node.hpp"
#include "dist/ship.hpp"
#include "net/mux.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/snapshot.hpp"
#include "processes/copy.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"

namespace {

using namespace dpn;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

enum class Fault { kNone, kDrop, kReorder };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;   // tiny sizes, for the self-check
  Fault fault = Fault::kNone;
};

// ---------------------------------------------------------------------
// Workload sizes.  The full sizes are the benchmark's definition; a
// change to any of them is a change of benchmark, not of the program.

// local_stream: source -> 2 typed relays -> sink on typed channels.
constexpr std::int64_t kStreamTokens = 1 << 20;
constexpr std::size_t kStreamCapacity = 64 << 10;  // bytes: 8192 slots
// relay_chain: one token in flight per hop.
constexpr std::size_t kChainRelays = 2000;
constexpr std::int64_t kChainTokens = 512;
constexpr std::size_t kChainCapacity = 8;
// remote_fanout: many small shipped channels; setup dominates.
constexpr std::size_t kFanoutChannels = 4096;
constexpr std::int64_t kFanoutTokens = 244;  // per channel: ~2 KiB, 1M total
// remote_bulk: few shipped channels, each past the 256 KiB default credit
// window (dist and mux alike): the regime of today's throughput cliff.
constexpr std::size_t kBulkChannels = 4;
constexpr std::int64_t kBulkTokens = 2 * 32768;  // per channel: 512 KiB
// Remote channels keep the library's default capacity and windows.

constexpr std::size_t kFiberStackKb = 64;
// Per-call durations kept per process for percentiles (traced runs).
constexpr std::size_t kCallSamples = 1 << 14;
// Latency stamps wanted per repetition, across all paths.
constexpr std::int64_t kLatencySamples = 1 << 14;

// ---------------------------------------------------------------------
// Seeded values and the sink checksum.

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::int64_t token_value(std::uint64_t seed, std::uint32_t path,
                         std::int64_t index) {
  const std::uint64_t key = (std::uint64_t{path} << 40) ^
                            static_cast<std::uint64_t>(index);
  return static_cast<std::int64_t>(splitmix64(seed ^ splitmix64(key)));
}

/// Order-sensitive: swapping two tokens changes the result.
std::uint64_t fold(std::uint64_t checksum, std::int64_t value) {
  return (checksum ^ static_cast<std::uint64_t>(value)) * 0x100000001b3ULL;
}

constexpr std::uint64_t kChecksumBasis = 0xcbf29ce484222325ULL;

// ---------------------------------------------------------------------
// Shared state of one repetition.  Shipped sources are rebuilt on the
// receiving node, which lives in this same process, so they find their
// path and log here by index.

/// One source-to-sink stream.
struct Path {
  std::int64_t tokens = 0;
  std::int64_t stamp_every = 1;
  std::unique_ptr<std::atomic<std::int64_t>[]> stamps;
  // Written by the sink only.
  std::int64_t received = 0;
  std::uint64_t checksum = kChecksumBasis;
  std::vector<std::int64_t> latency_ns;
};

/// Per-call clocks of one benchmark process (traced runs only).
struct CallLog {
  std::int64_t calls = 0;
  std::int64_t stride = 1;
  std::int64_t total_ns = 0;
  std::vector<std::int64_t> samples;

  void record(std::int64_t ns) {
    total_ns += ns;
    if (calls++ % stride == 0) samples.push_back(ns);
  }
};

struct ProcessLog {
  CallLog put;
  CallLog get;
  std::int64_t start_ns = 0;
  std::int64_t wall_ns = 0;
};

struct Run {
  Options options;
  std::vector<Path> paths;
  std::vector<ProcessLog> logs;
};

Run* g_run = nullptr;

void init_paths(Run& run, std::size_t count, std::int64_t tokens) {
  const std::int64_t total = static_cast<std::int64_t>(count) * tokens;
  const std::int64_t every = std::max<std::int64_t>(1, total / kLatencySamples);
  run.paths.resize(count);
  for (auto& path : run.paths) {
    path.tokens = tokens;
    path.stamp_every = every;
    const std::int64_t slots = tokens / every + 1;
    path.stamps = std::make_unique<std::atomic<std::int64_t>[]>(
        static_cast<std::size_t>(slots));
    for (std::int64_t i = 0; i < slots; ++i) path.stamps[i].store(0);
    path.latency_ns.reserve(static_cast<std::size_t>(slots));
  }
}

std::size_t add_log(Run& run, std::int64_t calls_expected) {
  ProcessLog log;
  const std::int64_t stride = std::max<std::int64_t>(
      1, calls_expected / static_cast<std::int64_t>(kCallSamples));
  log.put.stride = stride;
  log.get.stride = stride;
  if (run.options.trace) {
    const auto keep = static_cast<std::size_t>(calls_expected / stride) + 1;
    log.put.samples.reserve(keep);
    log.get.samples.reserve(keep);
  }
  run.logs.push_back(std::move(log));
  return run.logs.size() - 1;
}

// ---------------------------------------------------------------------
// The benchmark's own processes.

/// Emits `tokens` seeded values on one path.  Shippable: the remote
/// workloads build it on node A and run it on node B.
class SeededSource final : public core::IterativeProcess {
 public:
  SeededSource(std::shared_ptr<core::ChannelOutputStream> out,
               std::uint32_t path, std::uint32_t log, long tokens)
      : IterativeProcess(tokens), path_(path), log_(log) {
    track_output(std::move(out));
  }

  std::string type_name() const override { return "perfbench.SeededSource"; }

  void write_fields(serial::ObjectOutputStream& out) const override {
    write_base(out);
    out.write_u32(path_);
    out.write_u32(log_);
    out.write_i64(next_);
  }

  static std::shared_ptr<SeededSource> read_object(
      serial::ObjectInputStream& in) {
    auto process = std::shared_ptr<SeededSource>(new SeededSource);
    process->read_base(in);
    process->path_ = in.read_u32();
    process->log_ = in.read_u32();
    process->next_ = in.read_i64();
    return process;
  }

 protected:
  void on_start() override {
    writer_.emplace(output(0));
    g_run->logs[log_].start_ns = now_ns();
  }

  void step() override {
    const Run& run = *g_run;
    Path& path = g_run->paths[path_];
    std::int64_t index = next_++;
    // Injected faults (self-check only) hit path 0 in the middle.
    if (path_ == 0 && run.options.fault != Fault::kNone &&
        index == path.tokens / 2) {
      if (run.options.fault == Fault::kDrop) return;
      index += 1;  // kReorder: emit the pair (mid, mid+1) swapped
    } else if (path_ == 0 && run.options.fault == Fault::kReorder &&
               index == path.tokens / 2 + 1) {
      index -= 1;
    }
    const std::int64_t value = token_value(run.options.seed, path_, index);
    if (index % path.stamp_every == 0) {
      path.stamps[index / path.stamp_every].store(now_ns(),
                                                  std::memory_order_relaxed);
    }
    if (run.options.trace) {
      const std::int64_t begin = now_ns();
      writer_->put(value);
      g_run->logs[log_].put.record(now_ns() - begin);
    } else {
      writer_->put(value);
    }
  }

  void on_stop() override {
    ProcessLog& log = g_run->logs[log_];
    log.wall_ns = now_ns() - log.start_ns;
    writer_.reset();
  }

 private:
  SeededSource() = default;

  std::uint32_t path_ = 0;
  std::uint32_t log_ = 0;
  std::int64_t next_ = 0;
  std::optional<core::TypedWriter<std::int64_t>> writer_;
};

[[maybe_unused]] const bool kRegistered =
    serial::register_type<SeededSource>("perfbench.SeededSource");

/// Copies values between typed endpoints (local_stream's middle stages).
class TypedRelay final : public core::IterativeProcess {
 public:
  TypedRelay(std::shared_ptr<core::ChannelInputStream> in,
             std::shared_ptr<core::ChannelOutputStream> out, std::size_t log)
      : log_(log) {
    track_input(std::move(in));
    track_output(std::move(out));
  }

  std::string type_name() const override { return "perfbench.TypedRelay"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw UsageError{"perfbench.TypedRelay is not shippable"};
  }

 protected:
  void on_start() override {
    reader_.emplace(input(0));
    writer_.emplace(output(0));
    g_run->logs[log_].start_ns = now_ns();
  }

  void step() override {
    if (!g_run->options.trace) {
      const std::optional<std::int64_t> value = reader_->get();
      if (!value) throw EndOfStream{};
      writer_->put(*value);
      return;
    }
    ProcessLog& log = g_run->logs[log_];
    const std::int64_t t0 = now_ns();
    const std::optional<std::int64_t> value = reader_->get();
    const std::int64_t t1 = now_ns();
    log.get.record(t1 - t0);
    if (!value) throw EndOfStream{};
    writer_->put(*value);
    log.put.record(now_ns() - t1);
  }

  void on_stop() override {
    ProcessLog& log = g_run->logs[log_];
    log.wall_ns = now_ns() - log.start_ns;
    reader_.reset();
    writer_.reset();
  }

 private:
  std::size_t log_;
  std::optional<core::TypedReader<std::int64_t>> reader_;
  std::optional<core::TypedWriter<std::int64_t>> writer_;
};

/// Reads one path to its end, folding every value into the checksum and
/// taking the latency of every stamped token.
class VerifySink final : public core::IterativeProcess {
 public:
  VerifySink(std::shared_ptr<core::ChannelInputStream> in,
             std::uint32_t path, std::size_t log)
      : path_(path), log_(log) {
    track_input(std::move(in));
  }

  std::string type_name() const override { return "perfbench.VerifySink"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw UsageError{"perfbench.VerifySink is not shippable"};
  }

 protected:
  void on_start() override {
    reader_.emplace(input(0));
    g_run->logs[log_].start_ns = now_ns();
  }

  void step() override {
    std::optional<std::int64_t> value;
    if (g_run->options.trace) {
      const std::int64_t begin = now_ns();
      value = reader_->get();
      g_run->logs[log_].get.record(now_ns() - begin);
    } else {
      value = reader_->get();
    }
    if (!value) throw EndOfStream{};
    Path& path = g_run->paths[path_];
    const std::int64_t index = path.received++;
    path.checksum = fold(path.checksum, *value);
    if (index % path.stamp_every == 0 && index < path.tokens) {
      const std::int64_t stamp = path.stamps[index / path.stamp_every].load(
          std::memory_order_relaxed);
      if (stamp != 0) path.latency_ns.push_back(now_ns() - stamp);
    }
  }

  void on_stop() override {
    ProcessLog& log = g_run->logs[log_];
    log.wall_ns = now_ns() - log.start_ns;
    reader_.reset();
  }

 private:
  std::uint32_t path_;
  std::size_t log_;
  std::optional<core::TypedReader<std::int64_t>> reader_;
};

// ---------------------------------------------------------------------
// Measurements.

/// Exact quantile of a sample (linear between order statistics).
double quantile(std::vector<std::int64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1.0 - frac) +
         static_cast<double>(values[hi]) * frac;
}

/// Quantile of a log2-bucket histogram, interpolated inside the bucket
/// (the histogram's own percentile_ns reports bucket bounds only).
double histogram_quantile_ns(const HistogramSnapshot& hist, double q) {
  if (hist.count == 0) return 0.0;
  const double target = q * static_cast<double>(hist.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(hist.counts[i]);
    if (in_bucket > 0 && seen + in_bucket >= target) {
      const double lo =
          i == 0 ? 0.0
                 : static_cast<double>(HistogramSnapshot::bucket_bound_ns(i - 1));
      const double hi = static_cast<double>(HistogramSnapshot::bucket_bound_ns(i));
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return static_cast<double>(
      HistogramSnapshot::bucket_bound_ns(HistogramSnapshot::kBuckets - 1));
}

double peak_rss_mb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Counters read from the layers after join(), before teardown.
struct LayerCounters {
  std::uint64_t reader_wakeups = 0;
  std::uint64_t writer_wakeups = 0;
  std::uint64_t blocked_read_ns = 0;
  std::uint64_t blocked_write_ns = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  HistogramSnapshot runq;
  net::MuxStats mux;
  std::uint64_t wire_bytes = 0;
  obs::FlightCounters flight;
};

void add_network(LayerCounters& counters, const core::Network& network) {
  const obs::NetworkSnapshot snap = network.snapshot();
  for (const auto& channel : snap.channels) {
    counters.reader_wakeups += channel.reader_wakeups;
    counters.writer_wakeups += channel.writer_wakeups;
    counters.blocked_read_ns += channel.blocked_read_ns;
    counters.blocked_write_ns += channel.blocked_write_ns;
  }
  if (const sched::Scheduler* scheduler = network.scheduler()) {
    const sched::Scheduler::Counters sc = scheduler->counters();
    counters.dispatches += sc.dispatches;
    counters.steals += sc.steals;
    counters.parks += sc.parks;
  }
}

void add_process_counters(LayerCounters& counters,
                          const std::vector<std::shared_ptr<dist::NodeContext>>&
                              nodes) {
  counters.runq = sched::runq_wait_histogram().snapshot();
  counters.mux = net::mux_stats();
  for (const auto& node : nodes) {
    counters.wire_bytes += node->traffic()->bytes_sent.load();
  }
  counters.flight = obs::flight_counters();
}

/// What one workload function hands back besides the shared Run state.
struct Phases {
  std::int64_t t0 = 0;          // before the first construction
  std::int64_t built = 0;       // graph built (and shipped)
  std::int64_t started = 0;     // every start() returned
  std::int64_t joined = 0;      // every join() returned
  // Counters are read between joined and teardown_begin, off the clock.
  std::int64_t teardown_begin = 0;
  std::int64_t torn_down = 0;   // networks and nodes destroyed
  std::int64_t hops_per_token = 1;
  unsigned workers = 0;
  std::vector<std::int64_t> ship_ns;
  std::vector<std::int64_t> receive_ns;
  LayerCounters counters;
  std::string error;
};

sched::SchedulerOptions fibers(unsigned workers) {
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = workers;
  options.stack_kb = kFiberStackKb;
  return options;
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Joins a network, keeping the first failure instead of throwing.
void join_into(core::Network& network, std::string& error) {
  try {
    network.join();
  } catch (const std::exception& e) {
    if (error.empty()) error = e.what();
  }
}

// ---------------------------------------------------------------------
// Workloads.

/// Starts, joins and destroys a one-network workload, stamping phases.
void run_local(Run& run, Phases& phases,
               std::unique_ptr<core::Network> network) {
  phases.built = now_ns();
  network->start();
  phases.started = now_ns();
  join_into(*network, phases.error);
  phases.joined = now_ns();
  if (run.options.trace) {
    add_network(phases.counters, *network);
    add_process_counters(phases.counters, {});
  }
  phases.teardown_begin = now_ns();
  network.reset();
  phases.torn_down = now_ns();
}

Phases local_stream(Run& run) {
  const std::int64_t tokens = run.options.smoke ? 20000 : kStreamTokens;
  init_paths(run, 1, tokens);
  Phases phases;
  phases.hops_per_token = 3;
  phases.workers = hardware_threads();
  phases.t0 = now_ns();
  auto network = std::make_unique<core::Network>();
  // M:N rather than the library's thread-per-process default: on a shared
  // 4-vCPU host the futex hand-offs of four threads spread 6-12% between
  // runs, M:N about 3%.  A parked ring reader still costs one wake per
  // token either way.
  network->set_scheduler(fibers(phases.workers));
  std::vector<std::shared_ptr<core::Channel>> channels;
  for (int i = 0; i < 3; ++i) {
    channels.push_back(core::make_typed_channel<std::int64_t>(
        {.capacity = kStreamCapacity}));
    network->watch(channels.back());
  }
  network->add(std::make_shared<SeededSource>(
      channels[0]->output(), 0,
      static_cast<std::uint32_t>(add_log(run, tokens)), tokens));
  for (int i = 0; i < 2; ++i) {
    network->add(std::make_shared<TypedRelay>(
        channels[i]->input(), channels[i + 1]->output(), add_log(run, tokens)));
  }
  network->add(std::make_shared<VerifySink>(channels[2]->input(), 0,
                                            add_log(run, tokens)));
  channels.clear();
  run_local(run, phases, std::move(network));
  return phases;
}

Phases relay_chain(Run& run) {
  const std::size_t relays = run.options.smoke ? 50 : kChainRelays;
  const std::int64_t tokens = run.options.smoke ? 64 : kChainTokens;
  init_paths(run, 1, tokens);
  Phases phases;
  phases.hops_per_token = static_cast<std::int64_t>(relays) + 1;
  phases.workers = hardware_threads();
  phases.t0 = now_ns();
  auto network = std::make_unique<core::Network>();
  network->set_scheduler(fibers(phases.workers));
  std::vector<std::shared_ptr<core::Channel>> chain;
  chain.reserve(relays + 1);
  for (std::size_t i = 0; i <= relays; ++i) {
    chain.push_back(network->make_channel({.capacity = kChainCapacity}));
  }
  network->add(std::make_shared<SeededSource>(
      chain.front()->output(), 0,
      static_cast<std::uint32_t>(add_log(run, tokens)), tokens));
  for (std::size_t i = 0; i < relays; ++i) {
    network->add(std::make_shared<processes::Identity>(
        chain[i]->input(), chain[i + 1]->output()));
  }
  network->add(std::make_shared<VerifySink>(chain.back()->input(), 0,
                                            add_log(run, tokens)));
  chain.clear();
  run_local(run, phases, std::move(network));
  return phases;
}

/// Shared shape of the two remote workloads: `channels` SeededSources
/// built on node A, shipped to node B over mux, each feeding a VerifySink
/// on A.  Each node runs its own M:N scheduler with half the workers.
Phases remote(Run& run, std::size_t channels, std::int64_t tokens) {
  init_paths(run, channels, tokens);
  Phases phases;
  const unsigned per_node = std::max(1u, hardware_threads() / 2);
  phases.workers = 2 * per_node;
  phases.ship_ns.reserve(channels);
  phases.receive_ns.reserve(channels);
  net::network_options().transport = net::TransportKind::kMux;

  phases.t0 = now_ns();
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  auto consumers = std::make_unique<core::Network>();  // node A
  auto producers = std::make_unique<core::Network>();  // node B
  consumers->set_scheduler(fibers(per_node));
  producers->set_scheduler(fibers(per_node));
  for (std::size_t i = 0; i < channels; ++i) {
    const auto path = static_cast<std::uint32_t>(i);
    auto channel = std::make_shared<core::Channel>(core::ChannelOptions{});
    consumers->watch(channel);
    auto source = std::make_shared<SeededSource>(
        channel->output(), path,
        static_cast<std::uint32_t>(add_log(run, tokens)), tokens);
    consumers->add(
        std::make_shared<VerifySink>(channel->input(), path, add_log(run, tokens)));
    const std::int64_t t_ship = now_ns();
    const ByteVector shipment = dist::ship_process(node_a, source);
    const std::int64_t t_receive = now_ns();
    producers->add(
        dist::receive_process(node_b, {shipment.data(), shipment.size()}));
    const std::int64_t t_done = now_ns();
    phases.ship_ns.push_back(t_receive - t_ship);
    phases.receive_ns.push_back(t_done - t_receive);
  }
  phases.built = now_ns();
  consumers->start();
  producers->start();
  phases.started = now_ns();
  join_into(*consumers, phases.error);
  join_into(*producers, phases.error);
  phases.joined = now_ns();
  if (run.options.trace) {
    add_network(phases.counters, *consumers);
    add_network(phases.counters, *producers);
    add_process_counters(phases.counters, {node_a, node_b});
  }
  phases.teardown_begin = now_ns();
  producers.reset();
  consumers.reset();
  node_b.reset();
  node_a.reset();
  phases.torn_down = now_ns();
  return phases;
}

Phases remote_fanout(Run& run) {
  if (run.options.smoke) return remote(run, 64, 16);
  return remote(run, kFanoutChannels, kFanoutTokens);
}

Phases remote_bulk(Run& run) {
  if (run.options.smoke) return remote(run, kBulkChannels, 4096);
  return remote(run, kBulkChannels, kBulkTokens);
}

// ---------------------------------------------------------------------
// Output.

class JsonObject {
 public:
  void number(const char* key, double value) {
    separator();
    std::snprintf(buffer_, sizeof buffer_, "\"%s\": %.9g", key, value);
    text_ += buffer_;
  }
  void text(const char* key, const std::string& value) {
    separator();
    text_ += '"';
    text_ += key;
    text_ += "\": \"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        text_ += ' ';
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }
  void raw(const char* key, const std::string& json) {
    separator();
    text_ += '"';
    text_ += key;
    text_ += "\": ";
    text_ += json;
  }
  std::string str() const { return "{" + text_ + "}"; }

 private:
  void separator() {
    if (!text_.empty()) text_ += ", ";
  }
  std::string text_;
  char buffer_[256];
};

double median_of_quartile(const std::vector<std::int64_t>& values,
                          std::size_t quartile) {
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  const std::size_t begin = n * quartile / 4;
  const std::size_t end = std::max(begin + 1, n * (quartile + 1) / 4);
  return quantile({values.begin() + static_cast<std::ptrdiff_t>(begin),
                   values.begin() + static_cast<std::ptrdiff_t>(std::min(end, n))},
                  0.5);
}

std::string layer_json(const Run& run, const Phases& phases,
                       std::int64_t tokens, bool remote_workload) {
  const LayerCounters& c = phases.counters;
  const double per_token = tokens > 0 ? 1.0 / static_cast<double>(tokens) : 0.0;
  const double hops = static_cast<double>(tokens * phases.hops_per_token);
  const double per_hop = hops > 0 ? 1.0 / hops : 0.0;

  std::vector<std::int64_t> put_ns;
  std::vector<std::int64_t> get_ns;
  std::int64_t inside_ns = 0;
  std::int64_t wall_ns = 0;
  for (const ProcessLog& log : run.logs) {
    put_ns.insert(put_ns.end(), log.put.samples.begin(), log.put.samples.end());
    get_ns.insert(get_ns.end(), log.get.samples.begin(), log.get.samples.end());
    inside_ns += log.put.total_ns + log.get.total_ns;
    wall_ns += log.wall_ns;
  }

  JsonObject out;
  out.number("io.typed.put_ns_p50", quantile(put_ns, 0.50));
  out.number("io.typed.put_ns_p99", quantile(put_ns, 0.99));
  out.number("io.typed.get_ns_p50", quantile(get_ns, 0.50));
  out.number("io.typed.get_ns_p99", quantile(get_ns, 0.99));
  out.number("io.typed.blocked_share",
             wall_ns > 0 ? static_cast<double>(inside_ns) /
                               static_cast<double>(wall_ns)
                         : 0.0);

  out.number("io.pipe.reader_wakeups_per_token",
             static_cast<double>(c.reader_wakeups) * per_token);
  out.number("io.pipe.writer_wakeups_per_token",
             static_cast<double>(c.writer_wakeups) * per_token);
  out.number("io.pipe.blocked_read_s",
             static_cast<double>(c.blocked_read_ns) * 1e-9);
  out.number("io.pipe.blocked_write_s",
             static_cast<double>(c.blocked_write_ns) * 1e-9);

  out.number("sched.dispatches_per_hop",
             static_cast<double>(c.dispatches) * per_hop);
  out.number("sched.steals_per_hop", static_cast<double>(c.steals) * per_hop);
  out.number("sched.parks", static_cast<double>(c.parks));
  out.number("sched.runq_wait_us_p50", histogram_quantile_ns(c.runq, 0.50) * 1e-3);
  out.number("sched.runq_wait_us_p99", histogram_quantile_ns(c.runq, 0.99) * 1e-3);

  out.number("core.build_s", seconds_between(phases.t0, phases.built));
  out.number("core.start_s", seconds_between(phases.built, phases.started));
  out.number("core.join_s", seconds_between(phases.started, phases.joined));
  out.number("core.teardown_s",
             seconds_between(phases.teardown_begin, phases.torn_down));

  std::vector<std::int64_t> remote_puts;
  if (remote_workload) remote_puts = put_ns;  // the shipped sources' writes
  out.number("dist.ship_us_p50", quantile(phases.ship_ns, 0.50) * 1e-3);
  out.number("dist.ship_us_p99", quantile(phases.ship_ns, 0.99) * 1e-3);
  out.number("dist.receive_us_p50", quantile(phases.receive_ns, 0.50) * 1e-3);
  out.number("dist.receive_us_p99", quantile(phases.receive_ns, 0.99) * 1e-3);
  const double first = median_of_quartile(phases.receive_ns, 0);
  out.number("dist.receive_growth",
             first > 0 ? median_of_quartile(phases.receive_ns, 3) / first : 0.0);
  out.number("dist.remote_write_us_p99", quantile(remote_puts, 0.99) * 1e-3);

  out.number("net.mux.credit_stalls", static_cast<double>(c.mux.credit_stalls));
  out.number("net.mux.credit_stall_s",
             static_cast<double>(c.mux.credit_stall_ns) * 1e-9);
  out.number("net.mux.streams_total", static_cast<double>(c.mux.streams_total));
  out.number("net.mux.connections", static_cast<double>(c.mux.connections));
  out.number("net.mux.wire_bytes_per_token",
             static_cast<double>(c.wire_bytes) * per_token);

  out.number("obs.flight_events_per_token",
             static_cast<double>(c.flight.recorded) * per_token);
  out.number("obs.flight_dropped", static_cast<double>(c.flight.dropped));
  return out.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: dpn_perfbench --workload "
               "local_stream|relay_chain|remote_fanout|remote_bulk "
               "--seed N [--trace 0|1] [--smoke] [--fault none|drop|reorder]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  Options& options = run.options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string{argv[++i]} == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--fault" && has_value) {
      const std::string fault = argv[++i];
      if (fault == "drop") {
        options.fault = Fault::kDrop;
      } else if (fault == "reorder") {
        options.fault = Fault::kReorder;
      } else if (fault != "none") {
        return usage();
      }
    } else {
      return usage();
    }
  }
  g_run = &run;

  Phases phases;
  bool remote_workload = false;
  try {
    if (options.workload == "local_stream") {
      phases = local_stream(run);
    } else if (options.workload == "relay_chain") {
      phases = relay_chain(run);
    } else if (options.workload == "remote_fanout") {
      phases = remote_fanout(run);
      remote_workload = true;
    } else if (options.workload == "remote_bulk") {
      phases = remote_bulk(run);
      remote_workload = true;
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    phases.error = e.what();
  }
  const double cpu_s = cpu_seconds();
  const double rss_mb = peak_rss_mb();

  // Verification, after every clock has stopped.
  std::int64_t delivered = 0;
  std::size_t failed = 0;
  std::vector<std::int64_t> latency;
  for (std::uint32_t p = 0; p < run.paths.size(); ++p) {
    const Path& path = run.paths[p];
    std::uint64_t expected = kChecksumBasis;
    for (std::int64_t i = 0; i < path.tokens; ++i) {
      expected = fold(expected, token_value(options.seed, p, i));
    }
    if (path.received != path.tokens || path.checksum != expected) {
      ++failed;
    } else {
      delivered += path.received;
    }
    latency.insert(latency.end(), path.latency_ns.begin(),
                   path.latency_ns.end());
  }
  if (!phases.error.empty()) failed = run.paths.size();

  JsonObject out;
  out.text("workload", options.workload);
  out.text("error", phases.error);
  out.number("sinks", static_cast<double>(run.paths.size()));
  out.number("sinks_failed", static_cast<double>(failed));
  out.number("tokens", static_cast<double>(delivered));
  out.number("workers", phases.workers);
  out.number("setup_s", seconds_between(phases.t0, phases.started));
  out.number("data_s", seconds_between(phases.started, phases.joined));
  out.number("wall_s", seconds_between(phases.t0, phases.joined) +
                           seconds_between(phases.teardown_begin,
                                           phases.torn_down));
  out.number("cpu_s", cpu_s);
  out.number("peak_rss_mb", rss_mb);
  // Raw samples: the driver pools them over a run's repetitions.
  std::string samples = "[";
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (i > 0) samples += ',';
    samples += std::to_string(latency[i]);
  }
  samples += ']';
  out.raw("latency_ns", samples);
  out.text("compiler", DPN_PERFBENCH_COMPILER);
  out.text("build_type", DPN_PERFBENCH_BUILD_TYPE);
  if (options.trace) {
    out.raw("layers", layer_json(run, phases, delivered, remote_workload));
  }
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
