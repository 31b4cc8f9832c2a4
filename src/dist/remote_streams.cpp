#include "dist/remote_streams.hpp"

#include <atomic>

#include "obs/flight.hpp"
#include "support/log.hpp"

namespace dpn::dist {

FrameChannelInput::FrameChannelInput(std::shared_ptr<net::Stream> stream,
                                     std::shared_ptr<NodeContext> node,
                                     PeerAddress producer)
    : node_(std::move(node)), stream_(std::move(stream)),
      producer_addr_(std::move(producer)) {
  if (node_) node_->register_remote_stream(stream_);
  input_ = std::make_shared<net::StreamInput>(stream_);
  reader_.emplace(input_);
}

FrameChannelInput::FrameChannelInput(std::shared_ptr<StreamPromise> promise,
                                     std::uint64_t token,
                                     std::shared_ptr<NodeContext> node)
    : node_(std::move(node)),
      promise_(std::move(promise)),
      pending_token_(token) {}

namespace {

/// Increments a blocked counter for the duration of a scope.
class BlockedScope {
 public:
  explicit BlockedScope(std::atomic<std::int64_t>* counter)
      : counter_(counter) {
    if (counter_ != nullptr) counter_->fetch_add(1);
  }
  ~BlockedScope() {
    if (counter_ != nullptr) counter_->fetch_sub(1);
  }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  std::atomic<std::int64_t>* counter_;
};

}  // namespace

void FrameChannelInput::ensure_connected() {
  if (reader_) return;
  std::shared_ptr<StreamPromise> promise;
  {
    std::scoped_lock lock{mutex_};
    promise = promise_;
  }
  std::shared_ptr<net::Stream> stream = promise->wait();
  {
    std::scoped_lock lock{mutex_};
    stream_ = stream;
    promise_.reset();
  }
  // The producer's HELLO told us its rendezvous.
  producer_addr_ = promise->dialer();
  if (node_) node_->register_remote_stream(stream);
  input_ = std::make_shared<net::StreamInput>(stream);
  reader_.emplace(input_);
  // A close() that raced the handoff found no stream to reset.
  if (closed_.load()) stream->close();
}

std::size_t FrameChannelInput::receive(MutableByteSpan out) {
  try {
    const std::size_t n = input_->read_some(out);
    if (n == 0) throw EndOfStream{"transport ended mid-frame"};
    return n;
  } catch (const IoError& e) {
    producer_lost(e);
  }
}

void FrameChannelInput::producer_lost(const IoError& e) {
  // A producer that finishes sends FIN before its transport goes away, so
  // a stream dying mid-frame means the producer was *lost*, not done.
  // Locally-closed reads (our own close()/abort woke us via shutdown)
  // keep the quiet IoError stop; everything else surfaces as WorkerLost,
  // which IterativeProcess::run does NOT swallow -- the application sees
  // the fault instead of a silently truncated history (docs/FAULTS.md).
  if (closed_.load() || (node_ && node_->aborting())) throw;
  obs::flight_record_named(obs::FlightKind::kWorkerLost, producer_addr_.host);
  // One post-mortem per process is plenty: a lost worker can fail many
  // streams at once and each would otherwise write its own dump file.
  static std::atomic<bool> dumped{false};
  if (!dumped.exchange(true)) {
    const std::string dump = obs::flight_dump("worker-lost");
    if (!dump.empty()) {
      log::warn("remote stream: flight dump written to ", dump);
    }
  }
  throw WorkerLost{std::string{"remote producer lost mid-stream: "} +
                   e.what()};
}

bool FrameChannelInput::next_frame() {
  net::FrameHeader header;
  try {
    ensure_connected();
    header = reader_->read_header();
  } catch (const IoError& e) {
    producer_lost(e);
  }
  const auto read_payload = [&](MutableByteSpan out) {
    for (std::size_t got = 0; got < out.size();) {
      got += receive(out.subspan(got));
    }
  };
  switch (header.type) {
    case net::FrameType::kData:
      payload_left_ = header.length;
      return true;
    case net::FrameType::kDataTraced: {
      // Data frame carrying the trace-context extension: peel the 17
      // context bytes, adopt the context as this thread's ambient one
      // (spans recorded downstream chain to it), and mark the arrival --
      // same span id as the producer's kNetSend, which is what the
      // Chrome renderer turns into a cross-host flow arrow.
      if (header.length < obs::TraceContext::kWireSize) {
        throw IoError{"traced data frame shorter than its context"};
      }
      std::uint8_t ctx_bytes[obs::TraceContext::kWireSize];
      read_payload({ctx_bytes, sizeof ctx_bytes});
      const auto ctx = obs::TraceContext::decode(ctx_bytes);
      obs::current_trace_context() = ctx;
      payload_left_ = header.length - obs::TraceContext::kWireSize;
      obs::flight_record(obs::FlightKind::kNetRecv, ctx.span_id,
                         payload_left_);
      return true;
    }
    case net::FrameType::kFin:
      eof_ = true;
      return false;
    case net::FrameType::kRedirect: {
      ByteVector payload(header.length);
      read_payload({payload.data(), payload.size()});
      handle_redirect(
          net::RedirectInfo::decode({payload.data(), payload.size()}));
      return true;
    }
  }
  throw IoError{"unexpected frame type on a remote channel"};
}

std::size_t FrameChannelInput::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  if (closed_.load()) throw IoError{"read from closed remote channel"};
  TrafficStats* stats = node_ ? node_->traffic().get() : nullptr;
  // Waiting for the producer is this node "blocked on a remote read" for
  // the distributed deadlock detector.
  BlockedScope blocked{stats ? &stats->blocked_remote_readers : nullptr};
  while (payload_left_ == 0) {
    if (eof_ || !next_frame()) return 0;
  }
  const std::size_t n =
      receive(out.first(std::min(out.size(), payload_left_)));
  payload_left_ -= n;
  if (stats != nullptr) stats->bytes_received.fetch_add(n);
  return n;
}

void FrameChannelInput::handle_redirect(const net::RedirectInfo& info) {
  // The producer moved to a new server; it (or rather its reincarnation)
  // will dial our node's rendezvous with `info.token`.  Splice the
  // successor segment after ourselves so the consumer keeps reading
  // without interruption once this segment's FIN arrives.
  auto parent = parent_.lock();
  if (!parent) {
    throw IoError{"REDIRECT received but the channel sequence is gone"};
  }
  if (info.trace.valid()) {
    obs::current_trace_context() = info.trace;
    obs::flight_record_named(obs::FlightKind::kShipRecv, "redirect",
                             info.trace.span_id, info.token);
  }
  auto promise = node_->rendezvous().expect(info.token);
  auto successor =
      std::make_shared<FrameChannelInput>(promise, info.token, node_);
  successor->set_parent_sequence(parent_);
  if (node_) node_->register_remote_input(successor);
  parent->append(successor);
  log::debug("channel segment redirected; awaiting token ", info.token);
}

void FrameChannelInput::grant_bonus_credits(std::uint32_t bytes) {
  std::shared_ptr<net::Stream> stream;
  {
    std::scoped_lock lock{mutex_};
    stream = stream_;
  }
  if (stream) stream->grant(bytes);
}

void FrameChannelInput::close() {
  if (closed_.exchange(true)) return;
  std::shared_ptr<StreamPromise> promise;
  std::shared_ptr<net::Stream> stream;
  {
    std::scoped_lock lock{mutex_};
    promise = promise_;
    stream = stream_;
  }
  if (promise) {
    node_->rendezvous().forget(pending_token_);
    promise->cancel();
  }
  // Close, not just stop reading: it wakes a reader blocked on this stream
  // (the abort path closes endpoints from another thread), and the reset
  // it sends wakes a producer parked on the stream's exhausted window
  // into ChannelClosed, propagating termination upstream (Section 3.4).
  if (stream) stream->close();
}

FrameChannelOutput::FrameChannelOutput(std::shared_ptr<net::Stream> stream,
                                       PeerAddress peer,
                                       std::shared_ptr<NodeContext> node)
    : node_(std::move(node)), stream_(std::move(stream)),
      peer_(std::move(peer)) {
  if (node_) node_->register_remote_stream(stream_);
  writer_.emplace(std::make_shared<net::StreamOutput>(stream_));
}

FrameChannelOutput::FrameChannelOutput(std::shared_ptr<StreamPromise> promise,
                                       std::uint64_t token,
                                       std::shared_ptr<NodeContext> node)
    : node_(std::move(node)),
      promise_(std::move(promise)),
      pending_token_(token) {}

void FrameChannelOutput::ensure_connected(std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (closed_) throw IoError{"remote channel closed while connecting"};
    if (writer_) return;
    // mutex_ is released across the wait: a fiber must not park holding
    // it, and connected() must not queue behind a consumer that has not
    // dialed yet.
    const std::shared_ptr<StreamPromise> promise = promise_;
    std::shared_ptr<net::Stream> stream;
    lock.unlock();
    try {
      stream = promise->wait();
    } catch (...) {
      lock.lock();
      throw;
    }
    lock.lock();
    if (writer_ || closed_) continue;  // another caller got here first
    stream_ = std::move(stream);
    peer_ = promise->dialer();
    promise_.reset();
    if (node_) node_->register_remote_stream(stream_);
    writer_.emplace(std::make_shared<net::StreamOutput>(stream_));
  }
}

void FrameChannelOutput::write(ByteSpan data) {
  std::unique_lock lock{mutex_};
  if (closed_) throw IoError{"write to closed remote channel"};
  TrafficStats* stats = node_ ? node_->traffic().get() : nullptr;
  {
    // Blocks while the stream's window is spent -- the cross-machine
    // equivalent of a full pipe.
    BlockedScope blocked{stats ? &stats->blocked_remote_writers : nullptr};
    ensure_connected(lock);
    for (std::size_t offset = 0; offset < data.size();) {
      const std::size_t chunk =
          std::min(kMaxFramePayload, data.size() - offset);
      if (obs::causal_tracing()) {
        // Stamp the frame with a fresh span in this thread's ambient
        // trace (minting the trace lazily): the consumer's kNetRecv of
        // the same span id becomes the flow arrow across the wire.
        obs::TraceContext& ambient = obs::current_trace_context();
        if (!ambient.valid()) {
          ambient.trace_id = obs::new_trace_id();
          ambient.flags = obs::TraceContext::kSampled;
        }
        obs::TraceContext ctx = ambient;
        ctx.span_id = obs::next_span_id();
        writer_->write_data_traced(ctx, data.subspan(offset, chunk));
        obs::flight_record(obs::FlightKind::kNetSend, ctx.span_id, chunk);
      } else {
        writer_->write_data(data.subspan(offset, chunk));
      }
      offset += chunk;
    }
  }
  if (stats != nullptr) stats->bytes_sent.fetch_add(data.size());
}

void FrameChannelOutput::finish_locked() {
  // The stream's own FIN ends the segment: it is queued behind our data
  // but needs no window, so a close never waits for the consumer (the
  // consumer's frame reader reports it as kFin).  Nothing ever arrives on
  // the reverse direction, so it closes too.
  stream_->close();
  closed_ = true;
}

void FrameChannelOutput::close() {
  std::unique_lock lock{mutex_};
  if (closed_) return;
  try {
    // Deliver FIN even if the consumer has not dialed in yet: the stream
    // contract promises the consumer an explicit end-of-stream.
    ensure_connected(lock);
    finish_locked();
  } catch (const IoError&) {
    // Consumer already gone; nothing to tell it.
    closed_ = true;
  }
}

void FrameChannelOutput::connect_now() {
  std::unique_lock lock{mutex_};
  ensure_connected(lock);
}

bool FrameChannelOutput::connected() const {
  std::scoped_lock lock{mutex_};
  return writer_.has_value();
}

void FrameChannelOutput::redirect_and_finish(std::uint64_t successor_token) {
  std::unique_lock lock{mutex_};
  if (closed_) throw IoError{"redirect on closed remote channel"};
  ensure_connected(lock);
  net::RedirectInfo info;
  info.token = successor_token;
  if (obs::causal_tracing()) {
    // The redirect handshake is part of a SHIP lifecycle: stamp it so
    // the consumer's acceptance (kShipRecv) links back to this span.
    info.trace.trace_id = obs::current_trace_context().valid()
                              ? obs::current_trace_context().trace_id
                              : obs::new_trace_id();
    info.trace.span_id = obs::next_span_id();
    info.trace.flags = obs::TraceContext::kSampled;
    obs::flight_record_named(obs::FlightKind::kShipSend, "redirect",
                             info.trace.span_id, successor_token);
  }
  {
    // In-band, so it waits for window like data: counted as a blocked
    // remote writer, it lets the deadlock detector grant room.
    TrafficStats* stats = node_ ? node_->traffic().get() : nullptr;
    BlockedScope blocked{stats ? &stats->blocked_remote_writers : nullptr};
    writer_->write_redirect(info);
  }
  finish_locked();
}

}  // namespace dpn::dist
