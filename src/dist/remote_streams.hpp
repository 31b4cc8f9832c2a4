#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "dist/node.hpp"
#include "io/sequence.hpp"
#include "io/stream.hpp"
#include "net/frames.hpp"
#include "net/transport.hpp"

/// The transport-backed stream segments that sit underneath a distributed
/// channel (the paper's RemoteInputStream / RemoteOutputStream /
/// RedirectedInputStream, Sections 4.2-4.3).
///
/// A remote channel segment is one net::Stream carrying frames in the
/// producer->consumer direction:
///   DATA     -- payload bytes;
///   REDIRECT -- "the stream continues on a new connection; expect a
///               rendezvous with this token" (sent when the producing
///               endpoint is shipped onward to a third server, so traffic
///               stops relaying through the middle man -- Figure 15).
/// The producer's close is the stream's own FIN, which needs no window,
/// so the consumer sees end-of-stream after the drain and the producer
/// never waits to close.  Nothing travels the other way.
///
/// The stream's credit window is the channel's bound (Section 3.5 across
/// machines): it is fixed when the stream opens, the producer blocks
/// inside the transport once it is spent, and consumption returns it.  A
/// consumer-side close resets the stream, which surfaces as ChannelClosed
/// on the producer's next -- or window-stalled -- write: the cascade of
/// Section 3.4 crosses machine boundaries.
namespace dpn::dist {

/// Consumer side of a remote channel segment.  Lives inside a
/// ChannelInputStream's SequenceInputStream; when a REDIRECT arrives it
/// appends the successor segment to that same sequence and lets the
/// current segment run out.
class FrameChannelInput final : public io::InputStream {
 public:
  /// An established connection (this endpoint dialed the producer's node,
  /// whose rendezvous is `producer`; used for diagnostics only).
  FrameChannelInput(std::shared_ptr<net::Stream> stream,
                    std::shared_ptr<NodeContext> node,
                    PeerAddress producer = {});

  /// A connection that will arrive at this node's rendezvous (this
  /// endpoint stayed put / was redirected to).  The first read blocks
  /// until the producer dials in.
  FrameChannelInput(std::shared_ptr<StreamPromise> promise,
                    std::uint64_t token, std::shared_ptr<NodeContext> node);

  /// The sequence to splice successor segments into on REDIRECT.
  void set_parent_sequence(std::weak_ptr<io::SequenceInputStream> parent) {
    parent_ = std::move(parent);
  }

  /// DATA payload goes straight from the stream to `out`, so unread bytes
  /// stay inside the stream's window instead of in a segment buffer.
  std::size_t read_some(MutableByteSpan out) override;
  void close() override;

  /// Grants the producer `bytes` of window beyond what consumption
  /// returns.  The distributed deadlock detector uses this as the remote
  /// analogue of growing a full local channel.  Thread-safe; a no-op
  /// until the segment has a live stream.
  void grant_bonus_credits(std::uint32_t bytes);

 private:
  void ensure_connected();
  /// Reads one header and handles every frame type but DATA payload;
  /// false once the segment has ended.
  bool next_frame();
  /// stream read_some, with a lost producer surfaced as WorkerLost.
  std::size_t receive(MutableByteSpan out);
  /// Called from a handler for `e`: rethrows it when this side closed or
  /// is aborting, else throws WorkerLost.
  [[noreturn]] void producer_lost(const IoError& e);
  void handle_redirect(const net::RedirectInfo& info);

  std::shared_ptr<NodeContext> node_;
  std::weak_ptr<io::SequenceInputStream> parent_;

  // stream_ is written by the reader (ensure_connected) and read by
  // close()/grant_bonus_credits() from other threads: under mutex_.
  std::mutex mutex_;
  std::shared_ptr<net::Stream> stream_;
  std::shared_ptr<StreamPromise> promise_;
  std::uint64_t pending_token_ = 0;
  // Reader-thread state.
  std::shared_ptr<net::StreamInput> input_;
  std::optional<net::FrameReader> reader_;
  PeerAddress producer_addr_;
  std::size_t payload_left_ = 0;  // unread bytes of the current DATA frame
  bool eof_ = false;
  std::atomic<bool> closed_{false};
};

/// Producer side of a remote channel segment.  Its flow-control window is
/// the stream's, fixed when the stream opens: the channel's
/// ChannelOptions::remote.credit_window, else the producer node's
/// NodeContext::remote_window().
class FrameChannelOutput final : public io::OutputStream {
 public:
  /// An established connection; `peer` is the consumer node's rendezvous
  /// address (kept so this endpoint can orchestrate a redirect if it is
  /// shipped again).  `node` attributes traffic to the hosting node's
  /// counters (may be null in tests).
  FrameChannelOutput(std::shared_ptr<net::Stream> stream, PeerAddress peer,
                     std::shared_ptr<NodeContext> node = nullptr);

  /// A connection that will arrive at this node's rendezvous (this
  /// endpoint stayed put while its consumer shipped out; the consumer
  /// dials with the window this endpoint's node resolved).  The first
  /// write blocks until the consumer dials in; the consumer's rendezvous
  /// address is learned from its HELLO.
  FrameChannelOutput(std::shared_ptr<StreamPromise> promise,
                     std::uint64_t token, std::shared_ptr<NodeContext> node);

  void write(ByteSpan data) override;
  void flush() override {}
  void close() override;

  /// Blocks until the segment has a live stream (no-op if it already
  /// does).  Used before a redirect.
  void connect_now();

  bool connected() const;

  /// The consumer node's rendezvous address (valid once connected).
  const PeerAddress& peer() const { return peer_; }

  /// Tells the consumer the stream continues elsewhere (paper Figure 15),
  /// then ends this segment with a FIN.  The endpoint is unusable after.
  void redirect_and_finish(std::uint64_t successor_token);

 private:
  /// Waits for the consumer to dial in, releasing `lock` (on mutex_)
  /// across the wait; returns, or throws, with it held again.
  void ensure_connected(std::unique_lock<std::mutex>& lock);
  /// Ends the segment with the stream's FIN, queued behind our data.
  void finish_locked();

  /// Largest DATA frame payload: bounds the copy a frame write makes.
  static constexpr std::size_t kMaxFramePayload = 64 << 10;

  mutable std::mutex mutex_;
  std::shared_ptr<NodeContext> node_;
  std::shared_ptr<net::Stream> stream_;
  std::shared_ptr<StreamPromise> promise_;
  std::uint64_t pending_token_ = 0;
  std::optional<net::FrameWriter> writer_;
  PeerAddress peer_;
  bool closed_ = false;
};

/// Output whose reader is already gone: every write throws ChannelClosed.
/// Used when an endpoint is shipped after its consumer terminated.
class DeadOutputStream final : public io::OutputStream {
 public:
  void write(ByteSpan) override { throw ChannelClosed{}; }
  void close() override {}
};

}  // namespace dpn::dist
