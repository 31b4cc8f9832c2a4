#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/error.hpp"
#include "support/log.hpp"

namespace dpn::net {

namespace {
/// The loop the calling thread is running, if any.  A thread-local (not a
/// stored thread::id) so on_loop() never races the constructor's thread
/// startup.
thread_local EventLoop* t_current_loop = nullptr;
}  // namespace

bool EventLoop::on_loop() const { return t_current_loop == this; }

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw NetError{std::string{"epoll_create1: "} + std::strerror(errno)};
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    throw NetError{std::string{"eventfd: "} + std::strerror(err)};
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered on purpose: never miss a wake
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    const int err = errno;
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw NetError{std::string{"epoll_ctl(wakeup): "} + std::strerror(err)};
  }
  wheel_time_ = std::chrono::steady_clock::now();
  thread_ = std::thread{[this] { run(); }};
}

EventLoop::~EventLoop() {
  stopping_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::post(std::function<void()> fn) {
  if (on_loop()) {
    fn();
    return;
  }
  {
    std::scoped_lock lock{post_mutex_};
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::add(int fd, Handler* handler) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw NetError{std::string{"epoll_ctl(add): "} + std::strerror(errno)};
  }
  handlers_[fd] = handler;
}

void EventLoop::remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::unwatch(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::forget(int fd, const Handler* handler) {
  const auto it = handlers_.find(fd);
  if (it != handlers_.end() && it->second == handler) handlers_.erase(it);
}

EventLoop::TimerId EventLoop::add_timer(std::chrono::milliseconds delay,
                                        std::function<void()> fn) {
  // An idle wheel's anchor is stale by however long epoll_wait slept
  // (unbounded when nothing was armed).  Re-anchor on the 0->1
  // transition, or the end-of-iteration advance_wheel() "catches up" the
  // whole idle gap and sweeps past this entry's slot, firing it
  // instantly instead of `delay` from now.
  if (armed_.load(std::memory_order_relaxed) == 0) {
    wheel_time_ = std::chrono::steady_clock::now();
  }
  // Round up: a timer must never fire early.
  const std::uint64_t ticks = static_cast<std::uint64_t>(
      (delay.count() + kTick.count() - 1) / kTick.count());
  const std::uint64_t ahead = ticks == 0 ? 1 : ticks;
  TimerEntry entry;
  entry.id = next_timer_id_++;
  // ahead >= 1, so (ahead - 1) / kWheelSlots counts only *full* extra
  // revolutions; plain ahead / kWheelSlots would overshoot by a whole
  // revolution whenever ahead is an exact multiple of the slot count.
  entry.rounds = static_cast<std::uint32_t>((ahead - 1) / kWheelSlots);
  entry.fn = std::move(fn);
  const std::size_t slot = (wheel_pos_ + ahead) % kWheelSlots;
  const TimerId id = entry.id;
  wheel_[slot].push_back(std::move(entry));
  ++armed_;
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  for (auto& slot : wheel_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --armed_;
        return;
      }
    }
  }
}

int EventLoop::next_timeout_ms() const {
  if (armed_ == 0) return -1;  // sleep until a descriptor or post() wakes us
  const auto next_tick = wheel_time_ + kTick;
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      next_tick - std::chrono::steady_clock::now());
  return remaining.count() <= 0
             ? 0
             : static_cast<int>(remaining.count());
}

void EventLoop::advance_wheel() {
  // Fire every tick the wall clock has crossed; a late wakeup (busy loop
  // iteration) catches up instead of silently stretching deadlines.
  const auto now = std::chrono::steady_clock::now();
  while (armed_ > 0 && now - wheel_time_ >= kTick) {
    wheel_time_ += kTick;
    wheel_pos_ = (wheel_pos_ + 1) % kWheelSlots;
    auto& slot = wheel_[wheel_pos_];
    std::vector<TimerEntry> due;
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->rounds == 0) {
        due.push_back(std::move(*it));
        it = slot.erase(it);
        --armed_;
      } else {
        --it->rounds;
        ++it;
      }
    }
    for (auto& entry : due) {
      try {
        entry.fn();
      } catch (const std::exception& e) {
        log::warn("event loop: timer callback failed: ", e.what());
      }
    }
  }
  if (armed_ == 0) wheel_time_ = now;  // idle wheel re-anchors lazily
}

void EventLoop::run() {
  t_current_loop = this;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                               next_timeout_ms());
    if (n < 0 && errno != EINTR) {
      log::warn("event loop: epoll_wait: ", std::strerror(errno));
      return;
    }
    // Reset the wake counter BEFORE draining the post queue.  The other
    // order loses wakeups: a post() that lands between the queue drain
    // and the eventfd read has its wake consumed with nothing left in
    // the queue for it, and the loop re-enters an unbounded epoll_wait
    // with the function still queued.  One shared loop gets re-woken by
    // unrelated traffic soon enough to hide that; a per-connection loop
    // whose only work arrives via post() sleeps forever.  Resetting
    // first makes any concurrent post's wake stick to the next
    // epoll_wait (worst case one spurious wakeup).
    for (int i = 0; i < std::max(n, 0); ++i) {
      if (events[i].data.fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof drained);
        break;
      }
    }
    // Drain posts before handler dispatch: add()/remove() posted from
    // other threads must apply before dispatch sees stale registrations.
    std::vector<std::function<void()>> posted;
    {
      std::scoped_lock lock{post_mutex_};
      posted.swap(posted_);
    }
    for (auto& fn : posted) {
      try {
        fn();
      } catch (const std::exception& e) {
        log::warn("event loop: posted function failed: ", e.what());
      }
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed by an earlier handler
      try {
        it->second->on_io(events[i].events);
      } catch (const std::exception& e) {
        log::warn("event loop: handler failed: ", e.what());
      }
    }
    advance_wheel();
  }
}

}  // namespace dpn::net
