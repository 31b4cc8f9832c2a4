#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "io/stream.hpp"
#include "net/socket.hpp"
#include "support/bytes.hpp"

/// The transport abstraction: every wire conversation in dpn -- remote
/// channel segments, rendezvous handshakes, compute-server and registry
/// requests -- runs over a `Stream` obtained from a `Transport`, never
/// over a raw Socket.  The one backend is the multiplexed transport
/// (net/mux.hpp): all streams to the same host:port share one TCP
/// connection, multiplexed as stream-id-tagged frames with a credit
/// window per stream, driven by the per-core epoll reactor pool
/// (net/reactor.hpp).  Connection count is O(hosts), so 50k logical
/// channels do not need 50k descriptors, and the stream window is the
/// flow control of every remote channel (docs/PROTOCOLS.md Section 3).
namespace dpn::net {

/// A bidirectional byte stream between two endpoints.  The semantics
/// mirror Socket: reads block for at least one byte and return 0 only at
/// end-of-stream, writes block while the stream's send window is spent
/// and throw ChannelClosed once the peer stopped reading, and the two
/// directions shut down independently.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Reads up to out.size() bytes; 0 means the peer finished the stream.
  virtual std::size_t read_some(MutableByteSpan out) = 0;

  /// Writes all bytes; throws ChannelClosed when the peer is gone,
  /// NetError on hard transport failure.
  virtual void write_all(ByteSpan data) = 0;

  /// Writes `a` then `b` as one unit (frame header + payload) without
  /// first copying them into one buffer.
  virtual void write_vectored(ByteSpan a, ByteSpan b) = 0;

  /// Blocks until a read would make progress (data, EOF or error pending)
  /// or the timeout elapses; false on timeout.
  virtual bool wait_readable(std::chrono::milliseconds timeout) = 0;

  /// Half-close of the send direction: the peer reads EOF after the
  /// buffered bytes drain.
  virtual void shutdown_write() = 0;
  /// Half-close of the receive direction: local reads end, the peer's
  /// next write fails with ChannelClosed.
  virtual void shutdown_read() = 0;

  /// Grants the peer `bytes` of send window on this stream on top of what
  /// consumption returns (mux: one CREDIT frame).  The distributed
  /// deadlock resolver's bonus -- the remote analogue of growing a full
  /// channel.  A no-op once this side stopped reading or the peer
  /// finished.
  virtual void grant(std::size_t bytes) = 0;

  /// Full close (both directions).  Idempotent.
  virtual void close() = 0;

  virtual std::string peer_description() const = 0;
};

/// InputStream adapter over a shared Stream (the receive direction).
class StreamInput final : public io::InputStream {
 public:
  explicit StreamInput(std::shared_ptr<Stream> stream)
      : stream_(std::move(stream)) {}

  std::size_t read_some(MutableByteSpan out) override {
    return stream_->read_some(out);
  }
  void close() override { stream_->shutdown_read(); }

  const std::shared_ptr<Stream>& stream() const { return stream_; }

 private:
  std::shared_ptr<Stream> stream_;
};

/// OutputStream adapter over a shared Stream (the send direction).
class StreamOutput final : public io::OutputStream {
 public:
  explicit StreamOutput(std::shared_ptr<Stream> stream)
      : stream_(std::move(stream)) {}

  void write(ByteSpan data) override { stream_->write_all(data); }
  void write_vectored(ByteSpan a, ByteSpan b) override {
    stream_->write_vectored(a, b);
  }
  void close() override { stream_->shutdown_write(); }

  const std::shared_ptr<Stream>& stream() const { return stream_; }

 private:
  std::shared_ptr<Stream> stream_;
};

/// An accepting endpoint: one bound port yielding inbound Streams, each a
/// logical stream a peer opened over a shared connection.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound stream.  Throws NetError once the
  /// listener is closed (the accept loop's shutdown path).
  virtual std::shared_ptr<Stream> accept() = 0;

  virtual std::uint16_t port() const = 0;

  virtual void close() = 0;
  virtual bool closed() const = 0;
};

/// The transport backends.  Mux is the only one; the enum and
/// NetworkOptions::transport survive only because the benchmark harness
/// (perfbench/bench.cpp) assigns the field, and that file changes only
/// together with the benchmark itself.
enum class TransportKind : std::uint8_t {
  kMux,  // event loop, one connection per host pair
};

/// Per-dial tuning (all optional; zero means "transport default").
struct DialOptions {
  std::chrono::milliseconds timeout = Socket::kDefaultConnectTimeout;
  /// Initial credit window of BOTH directions of the new stream, carried
  /// by the mux OPEN frame: the bytes either side may send before the
  /// other's consumption grants more.  A remote channel's producer window
  /// is decided here, by whichever endpoint dials.  0 =
  /// NetworkOptions::stream_window; values above kMaxStreamWindow are
  /// clamped to it.
  std::size_t stream_window = 0;
};

/// Largest per-stream window a mux OPEN may carry -- and so the most one
/// logical stream may buffer unconsumed at its receiver.  An OPEN
/// announcing 0 or more than this kills the connection (NetError).
inline constexpr std::size_t kMaxStreamWindow = std::size_t{1} << 26;

/// Process-wide network configuration, adjustable in code before the
/// first transport use.
struct NetworkOptions {
  /// Always kMux (see TransportKind).
  TransportKind transport = TransportKind::kMux;
  /// Default per-stream credit window (bytes a peer may send on one
  /// logical stream before the receiver's consumption grants more).
  std::size_t stream_window = std::size_t{1} << 18;
  /// Round-robin flush quantum -- bytes one stream may put on the wire
  /// per turn while siblings wait (fairness granularity), and the
  /// coalescing target for small writes.
  std::size_t coalesce_bytes = std::size_t{16} << 10;
};

/// The mutable process-wide options.  Mutate before creating
/// listeners/nodes; a Transport already constructed keeps the settings it
/// captured.
NetworkOptions& network_options();

class Transport {
 public:
  virtual ~Transport() = default;

  /// Opens a stream to host:port: reuses (or establishes) the one shared
  /// connection to that host:port and opens a logical stream over it.
  /// Throws NetError on failure or timeout.
  virtual std::shared_ptr<Stream> dial(const std::string& host,
                                       std::uint16_t port,
                                       const DialOptions& options = {}) = 0;

  /// Binds a listening endpoint; port 0 picks an ephemeral port.
  virtual std::shared_ptr<Listener> listen(std::uint16_t port = 0) = 0;
};

/// The process-wide mux Transport (constructed on first use; drives its
/// connections on the per-core reactor() pool).
Transport& default_transport();

/// Transport::dial wrapped in fault::with_retry, recording the whole
/// retry loop into the connect-latency histogram -- the Stream-level
/// successor of connect_with_retry.
std::shared_ptr<Stream> dial_with_retry(Transport& transport,
                                        const std::string& host,
                                        std::uint16_t port,
                                        const fault::RetryPolicy& policy = {},
                                        std::size_t stream_window = 0);

}  // namespace dpn::net
