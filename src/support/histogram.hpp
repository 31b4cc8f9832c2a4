#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

/// Fixed-bucket log2 latency histograms (dpn::obs v2).
///
/// Scalar blocked-ns totals hide multimodality: a channel that blocks a
/// million times for 2us looks identical to one that blocked once for
/// 2s, yet the scheduling story (steady backpressure vs a single stall)
/// is opposite.  A histogram with power-of-two microsecond buckets keeps
/// the shape at a fixed, tiny cost: 24 buckets cover <1us .. >4.2s, and
/// recording is a bit-scan plus one relaxed store.
///
/// This lives in dpn::support (not dpn::obs) because io::Pipe -- below
/// obs in the library stack -- records into it directly at its wait
/// sites; obs aggregates, encodes and renders the snapshots.
namespace dpn {

/// A copied, mergeable view of a histogram: plain integers, no atomics.
/// This is what travels in NetworkSnapshot and what percentile queries
/// run on.
struct HistogramSnapshot {
  /// Bucket 0 holds waits under 1us; bucket i (1..22) holds
  /// [2^(i-1), 2^i) us; the last bucket holds everything >= ~4.2s.
  static constexpr std::size_t kBuckets = 24;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t count = 0;    // total samples
  std::uint64_t sum_ns = 0;   // total recorded time

  bool empty() const { return count == 0; }

  void merge(const HistogramSnapshot& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
    count += other.count;
    sum_ns += other.sum_ns;
  }

  /// Bucket index for a nanosecond sample.
  static std::size_t bucket_of(std::uint64_t ns) {
    const std::uint64_t us = ns / 1000;
    if (us == 0) return 0;
    const auto bit = static_cast<std::size_t>(std::bit_width(us));
    return bit < kBuckets ? bit : kBuckets - 1;
  }

  /// Inclusive upper bound of a bucket, in nanoseconds (the value a
  /// percentile query reports).  The last bucket is open-ended; its
  /// bound is the start of the bucket, the most honest single number.
  static std::uint64_t bucket_bound_ns(std::size_t bucket) {
    if (bucket == 0) return 1000;
    return (std::uint64_t{1} << bucket) * 1000;
  }

  /// Upper-bound estimate of the p-quantile (p in [0,1]): the bound of
  /// the first bucket whose cumulative count reaches p * count.
  /// Returns 0 when empty.
  std::uint64_t percentile_ns(double p) const {
    if (count == 0) return 0;
    const auto target =
        static_cast<std::uint64_t>(p * static_cast<double>(count) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen >= target) return bucket_bound_ns(i);
    }
    return bucket_bound_ns(kBuckets - 1);
  }

  std::uint64_t p50_ns() const { return percentile_ns(0.50); }
  std::uint64_t p95_ns() const { return percentile_ns(0.95); }
  std::uint64_t p99_ns() const { return percentile_ns(0.99); }
};

/// The live, writable histogram: atomic buckets so concurrent snapshot
/// readers never see torn counters.
///
/// record() uses the single-writer idiom of obs::bump (a plain add, no
/// lock-prefixed RMW); it is correct when writes are serialized -- which
/// they are at every channel-level call site, because io::Pipe records
/// under its mutex.  Multi-writer sites (the process-wide task-RTT and
/// connect histograms) use record_shared(), a fetch_add: those paths
/// just paid a network round-trip, so an RMW is immaterial.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t ns) {
    auto& slot = counts_[HistogramSnapshot::bucket_of(ns)];
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    sum_ns_.store(sum_ns_.load(std::memory_order_relaxed) + ns,
                  std::memory_order_relaxed);
  }

  void record_shared(std::uint64_t ns) {
    counts_[HistogramSnapshot::bucket_of(ns)].fetch_add(
        1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
      s.count += s.counts[i];
    }
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// A process-wide histogram that many threads record into without a
/// shared write: each recording thread holds one shard (a LatencyHistogram
/// on cache lines of its own, recorded single-writer) and snapshot()
/// merges them.  A thread takes a shard with acquire() and hands it back
/// with release(); a released shard keeps its counts and goes to the next
/// thread that asks, so the merged view never goes backwards, keeps the
/// samples of threads that have exited, and has as many shards as the
/// most threads that ever held one at once.  The mutex only guards the
/// shard list; it also orders one holder's last record before the next
/// holder's first.
class ShardedHistogram {
 public:
  LatencyHistogram* acquire() {
    std::scoped_lock lock{mutex_};
    if (!free_.empty()) {
      LatencyHistogram* shard = free_.back();
      free_.pop_back();
      return shard;
    }
    shards_.push_back(std::make_unique<Shard>());
    return &shards_.back()->histogram;
  }

  void release(LatencyHistogram* shard) {
    std::scoped_lock lock{mutex_};
    free_.push_back(shard);
  }

  HistogramSnapshot snapshot() const {
    std::scoped_lock lock{mutex_};
    HistogramSnapshot merged;
    for (const auto& shard : shards_) merged.merge(shard->histogram.snapshot());
    return merged;
  }

 private:
  struct alignas(64) Shard {
    LatencyHistogram histogram;
  };
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<LatencyHistogram*> free_;
};

}  // namespace dpn
