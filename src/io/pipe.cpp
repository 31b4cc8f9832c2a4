#include "io/pipe.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/flight.hpp"
#include "support/stopwatch.hpp"

namespace dpn::io {

Pipe::Pipe(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  buffer_.resize(capacity_);
}

void Pipe::claim_locked(Waiters& waiters, sched::WaitQueue& fibers,
                        std::condition_variable& cv) {
  // Wakeup elision: the counters are exact under mutex_, so when nobody is
  // waiting the (potentially syscall-priced) notify is skipped entirely,
  // and a single waiter gets notify_one instead of a broadcast.
  if (waiters.blocked == 0) return;
  // Fiber waiters first: requeueing on the waker's own deque is the M:N
  // fast path (the bytes just written are cache-hot right here).
  while (sched::Fiber* fiber = fibers.pop()) {
    sched::make_runnable(fiber);
    --waiters.blocked;
  }
  if (waiters.cv == 0) return;
  // What is left are the cv waiters of the current epoch; bumping it
  // releases exactly those.  Every earlier waiter has already been
  // notified, so a lone one can take notify_one.
  waiters.blocked -= waiters.cv;
  ++waiters.epoch;
  if (std::exchange(waiters.cv, 0) == 1) {
    cv.notify_one();
  } else {
    cv.notify_all();
  }
}

void Pipe::notify_readers_locked() {
  claim_locked(readers_, reader_fibers_, readable_);
}

void Pipe::notify_writers_locked() {
  claim_locked(writers_, writer_fibers_, writable_);
}

std::uint64_t Pipe::wait_locked(Waiters& waiters, sched::WaitQueue& fibers,
                                std::condition_variable& cv,
                                std::unique_lock<std::mutex>& lock) {
  ++waiters.blocked;
  if (sched::on_fiber()) {
    // Run-to-block: park the fiber, freeing this worker thread for other
    // processes.  The worker that resumes us stamped the dispatch.
    sched::suspend_current(fibers, lock);
    const std::uint64_t resumed = sched::resume_ns();
    lock.lock();
    return resumed;
  }
  const std::uint64_t epoch = waiters.epoch;
  ++waiters.cv;
  cv.wait(lock, [&] { return waiters.epoch != epoch; });
  return steady_ns();
}

std::size_t Pipe::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  std::unique_lock lock{mutex_};
  bool parked = false;
  std::uint64_t resumed = 0;
  while (count_ == 0 && !write_closed_ && !read_closed_ && !aborted_) {
    // The clock is only consulted when actually parking, once: the stamp
    // starts the wait and, on the first pass, dates the flight event (an
    // unblocked read stays clock- and record-free).  One wakeup per wait;
    // the while re-checks the predicate like a cv wait would.
    const std::uint64_t wait_start = steady_ns();
    if (!parked) {
      parked = true;
      obs::flight_record_at(obs::FlightKind::kChanBlockRead, wait_start,
                            flight_id_, count_);
    }
    resumed = wait_locked(readers_, reader_fibers_, readable_, lock);
    const std::uint64_t waited = resumed > wait_start ? resumed - wait_start : 0;
    blocked_read_ns_ += waited;
    read_block_hist_.record(waited);
    ++reader_wakeups_;
  }
  if (parked) {
    obs::flight_record_at(obs::FlightKind::kChanUnblockRead, resumed,
                          flight_id_, count_);
  }
  if (aborted_) throw Interrupted{"pipe aborted during read"};
  if (read_closed_) throw IoError{"read from closed pipe"};
  if (count_ == 0) return 0;  // write end closed and drained
  const std::size_t n = take_locked(out);
  notify_writers_locked();
  return n;
}

void Pipe::write(ByteSpan data) { write_vectored(data, {}); }

void Pipe::write_vectored(ByteSpan a, ByteSpan b) {
  std::unique_lock lock{mutex_};
  bool parked = false;
  std::uint64_t resumed = 0;
  for (ByteSpan data : {a, b}) {
    while (!data.empty()) {
      if (aborted_) throw Interrupted{"pipe aborted during write"};
      if (read_closed_) throw ChannelClosed{};
      if (write_closed_) throw IoError{"write to closed pipe"};
      // Room is computed once per loop pass; when the pipe is full we wait
      // (the reader was already woken by the previous pass's notify, so no
      // extra notify is issued before sleeping) and re-enter the loop.
      const std::size_t room = unbounded_ ? data.size() : capacity_ - count_;
      if (room == 0) {
        const std::uint64_t wait_start = steady_ns();
        if (!parked) {
          parked = true;
          obs::flight_record_at(obs::FlightKind::kChanBlockWrite, wait_start,
                                flight_id_, count_);
        }
        resumed = wait_locked(writers_, writer_fibers_, writable_, lock);
        const std::uint64_t waited =
            resumed > wait_start ? resumed - wait_start : 0;
        blocked_write_ns_ += waited;
        write_block_hist_.record(waited);
        ++writer_wakeups_;
        continue;
      }
      const std::size_t n = std::min(room, data.size());
      put_locked(data.first(n));
      data = data.subspan(n);
      notify_readers_locked();
    }
  }
  if (parked) {
    obs::flight_record_at(obs::FlightKind::kChanUnblockWrite, resumed,
                          flight_id_, count_);
  }
}

void Pipe::close_write() {
  std::scoped_lock lock{mutex_};
  write_closed_ = true;
  wake_all_locked();
}

void Pipe::close_read() {
  std::scoped_lock lock{mutex_};
  read_closed_ = true;
  // Data still buffered is discarded: the reader is gone.  The storage is
  // released too -- the pipe can never carry bytes again, and a shipped
  // endpoint's steal_buffer must deterministically find it empty.
  count_ = 0;
  head_ = 0;
  ByteVector{}.swap(buffer_);
  wake_all_locked();
}

void Pipe::abort() {
  std::scoped_lock lock{mutex_};
  aborted_ = true;
  wake_all_locked();
}

void Pipe::wake_all_locked() {
  notify_readers_locked();
  notify_writers_locked();
}

void Pipe::grow(std::size_t new_capacity) {
  std::scoped_lock lock{mutex_};
  if (new_capacity <= capacity_) return;
  ensure_storage_locked(new_capacity);
  capacity_ = new_capacity;
  notify_writers_locked();
}

void Pipe::set_unbounded() {
  std::scoped_lock lock{mutex_};
  unbounded_ = true;
  notify_writers_locked();
}

ByteVector Pipe::steal_buffer() {
  ByteVector out;
  std::scoped_lock lock{mutex_};
  out.resize(count_);
  take_locked({out.data(), out.size()});
  notify_writers_locked();
  return out;
}

std::size_t Pipe::capacity() const {
  std::scoped_lock lock{mutex_};
  return capacity_;
}

std::size_t Pipe::size() const {
  std::scoped_lock lock{mutex_};
  return count_;
}

bool Pipe::write_closed() const {
  std::scoped_lock lock{mutex_};
  return write_closed_;
}

bool Pipe::read_closed() const {
  std::scoped_lock lock{mutex_};
  return read_closed_;
}

std::size_t Pipe::blocked_readers() const {
  std::scoped_lock lock{mutex_};
  return readers_.blocked;
}

std::size_t Pipe::blocked_writers() const {
  std::scoped_lock lock{mutex_};
  return writers_.blocked;
}

Pipe::Stats Pipe::stats() const {
  std::scoped_lock lock{mutex_};
  Stats s;
  s.size = count_;
  s.capacity = capacity_;
  s.occupancy_hwm = occupancy_hwm_;
  s.blocked_read_ns = blocked_read_ns_;
  s.blocked_write_ns = blocked_write_ns_;
  s.reader_wakeups = reader_wakeups_;
  s.writer_wakeups = writer_wakeups_;
  s.blocked_readers = readers_.blocked;
  s.blocked_writers = writers_.blocked;
  s.write_closed = write_closed_;
  s.read_closed = read_closed_;
  s.read_block = read_block_hist_.snapshot();
  s.write_block = write_block_hist_.snapshot();
  return s;
}

std::size_t Pipe::take_locked(MutableByteSpan out) {
  const std::size_t n = std::min(out.size(), count_);
  if (n == 0) return 0;  // also guards % by zero once storage is released
  // Bulk ring copy: at most two memcpys, split exactly at the wrap point.
  const std::size_t cap = buffer_.size();
  const std::size_t first = std::min(n, cap - head_);
  std::memcpy(out.data(), buffer_.data() + head_, first);
  if (n > first) std::memcpy(out.data() + first, buffer_.data(), n - first);
  head_ = (head_ + n) % cap;
  count_ -= n;
  if (count_ == 0) head_ = 0;
  return n;
}

void Pipe::put_locked(ByteSpan data) {
  ensure_storage_locked(count_ + data.size());
  // Bulk ring copy, mirror of take_locked: one memcpy up to the wrap point,
  // one for the remainder at offset 0.
  const std::size_t cap = buffer_.size();
  const std::size_t tail = (head_ + count_) % cap;
  const std::size_t first = std::min(data.size(), cap - tail);
  std::memcpy(buffer_.data() + tail, data.data(), first);
  if (data.size() > first) {
    std::memcpy(buffer_.data(), data.data() + first, data.size() - first);
  }
  count_ += data.size();
  if (count_ > occupancy_hwm_) occupancy_hwm_ = count_;
}

void Pipe::ensure_storage_locked(std::size_t needed) {
  if (needed <= buffer_.size()) return;
  std::size_t new_size = std::max<std::size_t>(buffer_.size() * 2, 16);
  while (new_size < needed) new_size *= 2;
  ByteVector fresh(new_size);
  // Linearize existing contents at offset 0.
  const std::size_t cap = buffer_.size();
  if (count_ > 0) {
    const std::size_t first = std::min(count_, cap - head_);
    std::memcpy(fresh.data(), buffer_.data() + head_, first);
    if (count_ > first) {
      std::memcpy(fresh.data() + first, buffer_.data(), count_ - first);
    }
  }
  buffer_ = std::move(fresh);
  head_ = 0;
}

}  // namespace dpn::io
