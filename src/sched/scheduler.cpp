#include "sched/scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/flight.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dpn::sched {

namespace {

/// Single-writer relaxed increment (the obs::bump idiom): a plain add on
/// the owning worker, atomic visibility for counters() readers.
inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

/// Spin hint for the (nanoseconds-scale) switch-out window.
inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

#if defined(__SANITIZE_THREAD__)
inline void tsan_switch(void* fiber) {
  if (fiber != nullptr) __tsan_switch_to_fiber(fiber, 0);
}
#else
inline void tsan_switch(void*) {}
#endif

}  // namespace

/// Per-worker state.  The worker's own thread context doubles as the
/// "scheduler context" every fiber switches back to.
struct Worker {
  Scheduler* scheduler = nullptr;
  unsigned index = 0;
  ucontext_t loop_context{};  // swapcontext target (TSan build only)
  jmp_buf loop_jump{};        // fast switch target: set per dispatch
  void* tsan_fiber = nullptr;  // the worker thread's own TSan fiber
  WorkStealDeque deque;
  // Written only by this worker's thread, on a cache line no other worker
  // writes: the victim-selection state, this worker's share of
  // Scheduler::counters() (bump()ed, summed by counters()) and its shard
  // of runq_wait_histogram().
  alignas(64) std::uint64_t rng = 0;  // xorshift state for victim selection
  std::atomic<std::uint64_t> spawned{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> dispatches{0};
  std::atomic<std::uint64_t> parks{0};
  LatencyHistogram* runq = nullptr;
  std::jthread thread;  // last member: joins before the rest dies
};

namespace {

// Worker-thread identity.  All post-switch reads go through the noinline
// accessors below: a fiber that suspends on worker A and resumes on
// worker B must not reuse a TLS address the compiler cached before the
// switch, and a non-inlined call is recomputed from scratch.
thread_local Worker* t_worker = nullptr;
thread_local Fiber* t_current = nullptr;
thread_local std::uint64_t t_dispatch_ns = 0;  // stamp of t_current's dispatch

[[gnu::noinline]] Worker* current_worker_slow() { return t_worker; }
[[gnu::noinline]] Fiber* current_fiber_slow() { return t_current; }

}  // namespace

namespace detail {

/// Switches the calling fiber out to its worker's scheduler loop.  All
/// thread-local reads happen inside this non-inlined frame, freshly, on
/// whatever thread is running the fiber right now.
///
/// Fast path: _setjmp records the suspension point (registers only, no
/// sigprocmask syscall) and _longjmp re-enters the dispatching worker's
/// run_fiber frame, which is still live underneath us.  The TSan build
/// keeps full swapcontext so the sanitizer's shadow stacks track the
/// switch through its proven ucontext hooks.
[[gnu::noinline]] void switch_out(Fiber* self) {
  Worker* worker = current_worker_slow();
  tsan_switch(worker->tsan_fiber);
#if defined(__SANITIZE_THREAD__)
  swapcontext(&self->context_, &worker->loop_context);
#else
  if (_setjmp(self->jump_) == 0) _longjmp(worker->loop_jump, 1);
#endif
  // Resumed -- possibly on a different worker.  Nothing thread-local may
  // be touched here; the caller re-derives everything it needs.
}

}  // namespace detail

namespace {
using detail::switch_out;
}  // namespace

// --- Fiber ------------------------------------------------------------------

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             std::string name, std::function<void(FiberPhase)> on_phase)
    : body_(std::move(body)),
      on_phase_(std::move(on_phase)),
      name_(std::move(name)),
      stack_(new std::byte[stack_bytes]),
      stack_size_(stack_bytes) {
  if (getcontext(&context_) != 0) {
    throw UsageError{"getcontext failed for fiber"};
  }
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_size_;
  context_.uc_link = nullptr;  // entry() never returns; it switches out
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::entry), 0);
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
  if (!name_.empty()) __tsan_set_fiber_name(tsan_fiber_, name_.c_str());
#endif
}

Fiber::~Fiber() {
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::entry() {
  // The dispatching worker stored us in t_current just before switching.
  Fiber* self = current_fiber_slow();
  try {
    self->body_();
  } catch (const std::exception& e) {
    // Process bodies wrap their own failures; anything escaping to here
    // would otherwise tear the worker down.  Contain and log.
    log::error("fiber '", self->name_, "' escaped exception: ", e.what());
  } catch (...) {
    log::error("fiber '", self->name_, "' escaped unknown exception");
  }
  // Release the (possibly large) captures before the final switch: the
  // worker only deletes the shell after we are gone from this stack.
  self->body_ = nullptr;
  self->finished_ = true;
  switch_out(self);
  // Unreachable: a finished fiber is never dispatched again.
  std::abort();
}

bool on_fiber() { return current_fiber_slow() != nullptr; }

Fiber* current_fiber() { return current_fiber_slow(); }

// Non-inlined like the accessors above: the caller has just resumed,
// possibly on another worker, and must read that worker's stamp.
[[gnu::noinline]] std::uint64_t resume_ns() { return t_dispatch_ns; }

// --- WaitQueue --------------------------------------------------------------

void WaitQueue::push(Fiber* fiber) {
  fiber->next_waiter_ = nullptr;
  if (tail_ == nullptr) {
    head_ = tail_ = fiber;
  } else {
    tail_->next_waiter_ = fiber;
    tail_ = fiber;
  }
}

Fiber* WaitQueue::pop() {
  Fiber* fiber = head_;
  if (fiber == nullptr) return nullptr;
  head_ = fiber->next_waiter_;
  if (head_ == nullptr) tail_ = nullptr;
  fiber->next_waiter_ = nullptr;
  return fiber;
}

void suspend_current(WaitQueue& queue, std::unique_lock<std::mutex>& guard) {
  Fiber* self = current_fiber_slow();
  if (self == nullptr) {
    throw UsageError{"sched::suspend_current called off a fiber"};
  }
  queue.push(self);
  // Unlock before switching: the waker needs this mutex to pop us, and a
  // mutex must never be held across a context switch (its owner is the
  // OS thread, which is about to run a different fiber).  The window
  // between unlock and the switch is covered by in_switch_: a waker that
  // requeues us immediately simply makes the next worker spin until our
  // switch-out completes.
  guard.unlock();
  switch_out(self);
}

void make_runnable(Fiber* fiber) {
  fiber->scheduler_->enqueue(fiber, /*spawn=*/false);
}

// --- SchedulerOptions -------------------------------------------------------

SchedulerOptions SchedulerOptions::from_env() {
  SchedulerOptions options;
  if (const char* mode = std::getenv("DPN_SCHED")) {
    if (std::strcmp(mode, "mn") == 0 || std::strcmp(mode, "steal") == 0 ||
        std::strcmp(mode, "fibers") == 0) {
      options.mode = SchedMode::kWorkSteal;
    } else if (std::strcmp(mode, "threads") == 0 ||
               std::strcmp(mode, "tpp") == 0) {
      options.mode = SchedMode::kThreadPerProcess;
    } else {
      log::warn("DPN_SCHED='", mode, "' not recognized (mn|threads); ",
                "keeping thread-per-process");
    }
  }
  if (const char* workers = std::getenv("DPN_WORKERS")) {
    options.workers = static_cast<unsigned>(std::strtoul(workers, nullptr, 10));
  }
  return options;
}

std::size_t SchedulerOptions::resolved_stack_bytes() const {
  std::size_t kb = stack_kb;
  if (kb == 0) {
    if (const char* env = std::getenv("DPN_STACK_KB")) {
      kb = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
  }
  if (kb == 0) kb = kDefaultStackKb;
  if (kb < kMinStackKb) {
    throw UsageError{"fiber stack of " + std::to_string(kb) +
                     " KB is below the " + std::to_string(kMinStackKb) +
                     " KB minimum (heap stacks have no guard page)"};
  }
  return kb * 1024;
}

unsigned SchedulerOptions::resolved_workers() const {
  if (workers > 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// --- WorkStealDeque ---------------------------------------------------------

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

WorkStealDeque::WorkStealDeque(std::size_t capacity)
    : ring_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(ring_.size() - 1) {}

bool WorkStealDeque::push_bottom(Fiber* fiber) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t >= static_cast<std::int64_t>(ring_.size())) return false;
  ring_[static_cast<std::size_t>(b) & mask_].store(fiber,
                                                   std::memory_order_relaxed);
  // seq_cst publish: pairs with the thieves' top/bottom loads and gives
  // pop_bottom's decrement the store-load ordering the algorithm needs.
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return true;
}

Fiber* WorkStealDeque::pop_bottom() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Empty: undo.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  Fiber* fiber =
      ring_[static_cast<std::size_t>(b) & mask_].load(std::memory_order_relaxed);
  if (t != b) return fiber;  // more than one element: no race possible
  // Last element: race the thieves for it.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    fiber = nullptr;  // a thief got it
  }
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return fiber;
}

bool WorkStealDeque::empty() const {
  const std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  return t >= b;
}

Fiber* WorkStealDeque::steal_top() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Fiber* fiber =
      ring_[static_cast<std::size_t>(t) & mask_].load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return nullptr;  // lost the race; caller retries elsewhere
  }
  return fiber;
}

// --- Scheduler --------------------------------------------------------------

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)),
      stack_bytes_(options_.resolved_stack_bytes()) {
  const unsigned n = options_.resolved_workers();
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->scheduler = this;
    worker->index = i;
    worker->rng = 0x9e3779b97f4a7c15ULL * (i + 1) + 1;
    workers_.push_back(std::move(worker));
  }
  // Start the threads only after the vector is complete: workers steal
  // from each other from their first instant.
  for (auto& worker : workers_) {
    worker->thread = std::jthread{[this, w = worker.get()] { worker_main(*w); }};
  }
}

Scheduler::~Scheduler() { shutdown(); }

Fiber* Scheduler::spawn(std::function<void()> body, std::string name,
                        std::function<void(FiberPhase)> on_phase) {
  auto* fiber =
      new Fiber{std::move(body), stack_bytes_, std::move(name),
                std::move(on_phase)};
  fiber->scheduler_ = this;
  live_.fetch_add(1, std::memory_order_relaxed);
  enqueue(fiber, /*spawn=*/true);
  return fiber;
}

void Scheduler::enqueue(Fiber* fiber, bool spawn) {
  if (fiber->on_phase_) fiber->on_phase_(FiberPhase::kReady);
  // Runnable instant for the run-queue wait histogram; published to the
  // dispatching worker by the deque/inject handoff below.
  fiber->enqueue_ns_ = steady_ns();
  Worker* worker = current_worker_slow();
  if (worker != nullptr && worker->scheduler != this) worker = nullptr;
  if (worker != nullptr) {
    if (spawn) bump(worker->spawned);
    // push_bottom's seq_cst bottom_ store is this side's half of the idle
    // handshake (see wake_one_worker).
    if (worker->deque.push_bottom(fiber)) {
      wake_one_worker();
      return;
    }
  }
  {
    std::scoped_lock lock{inject_mutex_};
    inject_.push_back(fiber);
    inject_size_.store(inject_.size(), std::memory_order_relaxed);
    ++injects_;
    if (spawn && worker == nullptr) ++spawned_outside_;
  }
  wake_one_worker();
}

void Scheduler::wake_one_worker() {
  // Dekker handshake with the parking path in worker_main.  A deque push
  // is a seq_cst bottom_ store ordered before this seq_cst load; the
  // parker's seq_cst idle_workers_ increment is ordered before its
  // seq_cst deque loads in work_visible().  If this load misses the
  // increment, the increment follows it in the single total order, so
  // the parker's rescan sees the push.  An inject push is ordered by
  // inject_mutex_ instead: if the parker's locked rescan came first, its
  // increment happens-before our unlock-then-load and we see it;
  // otherwise the rescan sees the fiber.  Either way no fiber is left
  // runnable while every worker sleeps.
  if (idle_workers_.load(std::memory_order_seq_cst) == 0) return;
  std::scoped_lock lock{idle_mutex_};
  idle_cv_.notify_one();
}

bool Scheduler::work_visible() const {
  // A non-zero inject hint is enough to go and look (and is what a
  // Network::start burst shows); only a zero needs the authoritative read
  // under the mutex (see wake_one_worker).
  if (inject_size_.load(std::memory_order_relaxed) != 0) return true;
  for (const auto& worker : workers_) {
    if (!worker->deque.empty()) return true;
  }
  std::scoped_lock lock{inject_mutex_};
  return !inject_.empty();
}

Fiber* Scheduler::pop_inject(Worker& worker) {
  // Lock-free emptiness hint first: an idle sweep must not write the
  // mutex's line that every worker shares.  A stale 0 only defers the
  // fiber to the parker's locked rescan.
  if (inject_size_.load(std::memory_order_relaxed) == 0) return nullptr;
  std::scoped_lock lock{inject_mutex_};
  if (inject_.empty()) return nullptr;
  Fiber* fiber = inject_.front();
  inject_.pop_front();
  // Batch-drain: pull extra injected fibers into our deque so 100k
  // spawns from a Network::start do not serialize on this mutex.
  std::size_t moved = 0;
  while (moved < 64 && !inject_.empty()) {
    if (!worker.deque.push_bottom(inject_.front())) break;
    inject_.pop_front();
    ++moved;
  }
  inject_size_.store(inject_.size(), std::memory_order_relaxed);
  return fiber;
}

Fiber* Scheduler::try_steal(Worker& worker) {
  const std::size_t n = workers_.size();
  if (n <= 1) return nullptr;
  // xorshift64 victim starting point; sweep every other worker once.
  worker.rng ^= worker.rng << 13;
  worker.rng ^= worker.rng >> 7;
  worker.rng ^= worker.rng << 17;
  const std::size_t start = static_cast<std::size_t>(worker.rng) % n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t victim = (start + i) % n;
    if (victim == worker.index) continue;
    if (Fiber* fiber = workers_[victim]->deque.steal_top()) {
      bump(worker.steals);
      return fiber;
    }
  }
  return nullptr;
}

Fiber* Scheduler::find_work(Worker& worker) {
  if (Fiber* fiber = worker.deque.pop_bottom()) return fiber;
  if (Fiber* fiber = pop_inject(worker)) return fiber;
  return try_steal(worker);
}

void Scheduler::worker_main(Worker& worker) {
  t_worker = &worker;
  worker.runq = runq_wait_histogram().acquire();
#if defined(__SANITIZE_THREAD__)
  worker.tsan_fiber = __tsan_get_current_fiber();
#endif
#if defined(__linux__)
  if (options_.pin_workers) {
    cpu_set_t set;
    CPU_ZERO(&set);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    CPU_SET(worker.index % hw, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
  if (options_.worker_init) options_.worker_init();

  for (;;) {
    if (Fiber* fiber = find_work(worker)) {
      run_fiber(worker, fiber);
      continue;
    }
    // Park: announce idleness first, then rescan (wake_one_worker has the
    // other half of the handshake).  The idle mutex is held from the
    // rescan into the wait, so a notify cannot fall between them.  A wake
    // that finds nothing visible (another worker took the fiber) sleeps
    // again without leaving the park.
    std::unique_lock lock{idle_mutex_};
    idle_workers_.fetch_add(1, std::memory_order_seq_cst);
    if (!stopping_ && !work_visible()) {
      bump(worker.parks);
      obs::flight_record_named(obs::FlightKind::kSchedPark, "worker",
                               worker.index);
      do {
        idle_cv_.wait(lock);
      } while (!stopping_ && !work_visible());
      obs::flight_record_named(obs::FlightKind::kSchedUnpark, "worker",
                               worker.index);
    }
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
    if (stopping_) break;
  }
  runq_wait_histogram().release(worker.runq);
}

void Scheduler::run_fiber(Worker& worker, Fiber* fiber) {
  // A waker may hand us a fiber whose previous worker has not finished
  // switching it out; wait out that (sub-microsecond) window.  This
  // acquire also pairs with the previous worker's release below, making
  // every byte of fiber state -- stack included -- visible here.
  while (fiber->in_switch_.load(std::memory_order_acquire)) cpu_relax();

  // The one clock read of a dispatch.  It ends the run-queue wait, stamps
  // a migration's kSchedSteal event, and is the resumed fiber's wake-up
  // instant (resume_ns), so a pipe waking up reads no clock of its own.
  // Sharing it keeps this ring's timestamps non-decreasing: the steal
  // event and the fiber's unblock event carry the same stamp.
  const std::uint64_t now = steady_ns();
  const int last = fiber->last_worker_;
  const bool migrated = last >= 0 && last != static_cast<int>(worker.index);
  if (fiber->on_phase_) {
    if (migrated) fiber->on_phase_(FiberPhase::kStolen);
    fiber->on_phase_(FiberPhase::kRunning);
  }
  // Attribute everything this fiber does (the steal itself, pipe blocks,
  // dials, faults) to its process name.
  obs::flight_set_actor(fiber->name());
  if (migrated) {
    obs::flight_record_at(obs::FlightKind::kSchedSteal, now, worker.index,
                          static_cast<std::uint64_t>(last));
  }
  // Every dispatch follows an enqueue, which stamped enqueue_ns_.
  worker.runq->record(now > fiber->enqueue_ns_ ? now - fiber->enqueue_ns_
                                               : 0);
  bump(worker.dispatches);
  fiber->last_worker_ = static_cast<int>(worker.index);
  fiber->in_switch_.store(true, std::memory_order_relaxed);

  t_dispatch_ns = now;
  t_current = fiber;
  tsan_switch(fiber->tsan_fiber_);
#if defined(__SANITIZE_THREAD__)
  swapcontext(&worker.loop_context, &fiber->context_);
#else
  // _setjmp marks the return point switch_out longjmps to.  First entry
  // onto a fresh stack still goes through swapcontext (the portable way
  // to start executing on new memory, one-time cost per fiber); every
  // later resume is a _longjmp into the fiber's recorded suspension
  // point.  Either way control comes back here as "_setjmp returned 1"
  // when the fiber parks or finishes -- the abandoned swapcontext frame
  // below us is dead weight on this stack, not an unwind problem.
  if (_setjmp(worker.loop_jump) == 0) {
    if (!fiber->started_) {
      fiber->started_ = true;
      ucontext_t scratch;
      swapcontext(&scratch, &fiber->context_);
    } else {
      _longjmp(fiber->jump_, 1);
    }
  }
#endif
  t_current = nullptr;

  // The fiber switched out: it either finished or parked on a wait
  // queue.  Read its verdict *before* releasing in_switch_ -- the
  // instant that flag drops, a suspended fiber may be resumed, finished
  // and freed by another worker.
  const bool finished = fiber->finished_;
  fiber->in_switch_.store(false, std::memory_order_release);
  if (!finished) return;  // a wait queue owns it now

  delete fiber;
  bump(worker.completed);
  if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::scoped_lock lock{quiesce_mutex_};
    quiesce_cv_.notify_all();
  }
}

void Scheduler::wait_quiescent() {
  std::unique_lock lock{quiesce_mutex_};
  quiesce_cv_.wait(lock, [&] {
    return live_.load(std::memory_order_acquire) == 0;
  });
}

void Scheduler::shutdown() {
  wait_quiescent();
  {
    std::scoped_lock lock{idle_mutex_};
    stopping_ = true;
    idle_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

Scheduler* Scheduler::current() {
  Worker* worker = current_worker_slow();
  return worker != nullptr ? worker->scheduler : nullptr;
}

Scheduler::Counters Scheduler::counters() const {
  Counters c;
  for (const auto& worker : workers_) {
    c.spawned += worker->spawned.load(std::memory_order_relaxed);
    c.completed += worker->completed.load(std::memory_order_relaxed);
    c.steals += worker->steals.load(std::memory_order_relaxed);
    c.dispatches += worker->dispatches.load(std::memory_order_relaxed);
    c.parks += worker->parks.load(std::memory_order_relaxed);
  }
  std::scoped_lock lock{inject_mutex_};
  c.spawned += spawned_outside_;
  c.injects = injects_;
  return c;
}

ShardedHistogram& runq_wait_histogram() {
  // Leaked on purpose: worker threads of a scheduler that outlives static
  // destruction still hand their shard back.
  static auto* histogram = new ShardedHistogram;
  return *histogram;
}

bool spawn_detached(std::function<void()> body, std::string name) {
  Scheduler* scheduler = Scheduler::current();
  if (scheduler == nullptr) return false;
  scheduler->spawn(std::move(body), std::move(name));
  return true;
}

// --- WaitGroup --------------------------------------------------------------

void WaitGroup::add(std::size_t n) {
  std::scoped_lock lock{mutex_};
  count_ += n;
}

void WaitGroup::done() {
  // Collect fiber waiters under the lock; wake them after release so a
  // woken fiber re-acquiring mutex_ never collides with us holding it.
  std::vector<Fiber*> wake;
  {
    std::scoped_lock lock{mutex_};
    if (count_ == 0) throw UsageError{"WaitGroup::done underflow"};
    if (--count_ > 0) return;
    while (Fiber* fiber = waiters_.pop()) wake.push_back(fiber);
    cv_.notify_all();
  }
  for (Fiber* fiber : wake) make_runnable(fiber);
}

void WaitGroup::wait() {
  std::unique_lock lock{mutex_};
  while (count_ > 0) {
    if (on_fiber()) {
      suspend_current(waiters_, lock);
      lock.lock();
    } else {
      cv_.wait(lock);
    }
  }
}

}  // namespace dpn::sched
