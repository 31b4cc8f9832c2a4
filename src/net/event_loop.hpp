#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

/// A single-threaded edge-triggered epoll reactor: the engine under the
/// mux transport (net/mux.hpp).
///
/// One EventLoop drives every mux connection of the process: descriptors
/// are registered edge-triggered (EPOLLIN | EPOLLOUT | EPOLLET), so a
/// handler must drain reads to EAGAIN and retry writes on the next
/// writable edge -- level-triggered wakeup storms are avoided by design.
/// All handler callbacks, posted functions and timer expirations run on
/// the loop thread; handlers therefore never race each other, which is
/// what keeps the mux frame codec lock-light.
///
/// Cross-thread interaction is post(): an eventfd wakes the loop, the
/// function runs on the loop thread.  Timers live in a hashed timer wheel
/// (fixed tick, ring of slots, rounds counter per entry) -- O(1) arm and
/// cancel, which matters when every accepted connection arms a
/// handshake deadline (the PR 3 rule: half-open must die by timeout,
/// never hang).
namespace dpn::net {

class EventLoop {
 public:
  /// Timer-wheel granularity.  Deadlines round up to the next tick;
  /// handshake/connect deadlines are hundreds of milliseconds, so a
  /// coarse tick keeps the wheel cheap without hurting anyone.
  static constexpr std::chrono::milliseconds kTick{10};
  static constexpr std::size_t kWheelSlots = 256;

  /// Edge-notification callback for one registered descriptor.  `events`
  /// is the raw epoll bitmask (EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP/...).
  /// Runs on the loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void on_io(std::uint32_t events) = 0;
  };

  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// True on the loop thread (handlers may call add/remove directly).
  bool on_loop() const;

  /// Runs `fn` on the loop thread (immediately when already there,
  /// else queued and the loop woken).  Functions run in post order.
  void post(std::function<void()> fn);

  /// Registers `fd` edge-triggered for read+write readiness.  The
  /// handler must outlive the registration.  Must run on the loop thread
  /// (post() from elsewhere).
  void add(int fd, Handler* handler);

  /// Unregisters `fd`; no further callbacks after this returns.  Must
  /// run on the loop thread.
  void remove(int fd);

  /// Stops epoll watching `fd`; safe from any thread.  A thread about to
  /// close `fd` calls this first, so the close is ordered after the
  /// loop's last use of the descriptor.  Events already collected may
  /// still reach the handler until forget() runs on the loop thread.
  void unwatch(int fd);

  /// Drops `fd`'s handler after unwatch(), unless the number has since
  /// been registered to another handler.  Must run on the loop thread.
  void forget(int fd, const Handler* handler);

  /// Arms a one-shot timer ~`delay` from now (rounded up to a tick);
  /// `fn` runs on the loop thread.  Returns an id for cancel_timer.
  /// Must run on the loop thread.
  TimerId add_timer(std::chrono::milliseconds delay, std::function<void()> fn);

  /// Cancels a pending timer; harmless if already fired.  Must run on
  /// the loop thread.
  void cancel_timer(TimerId id);

  /// Timers currently armed (tests; safe from any thread).
  std::size_t armed_timers() const {
    return armed_.load(std::memory_order_relaxed);
  }

 private:
  struct TimerEntry {
    TimerId id = 0;
    std::uint32_t rounds = 0;  // full wheel revolutions still to wait
    std::function<void()> fn;
  };

  void run();
  void wake();
  void advance_wheel();
  int next_timeout_ms() const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;

  // Timer wheel: loop-thread-only state.
  std::vector<std::vector<TimerEntry>> wheel_{kWheelSlots};
  std::size_t wheel_pos_ = 0;
  std::chrono::steady_clock::time_point wheel_time_;
  TimerId next_timer_id_ = 1;
  std::atomic<std::size_t> armed_{0};

  std::unordered_map<int, Handler*> handlers_;
};

}  // namespace dpn::net
