#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "io/stream.hpp"
#include "obs/flight.hpp"
#include "support/bytes.hpp"

/// Frame codec for remote channels.
///
/// A raw TCP byte stream cannot express the channel events the paper's
/// termination and redirection protocols need (Sections 3.4, 4.3), so a
/// remote channel segment carries framed traffic:
///
///   frame := type:u8 length:u32 payload[length]
///
///   kData     -- channel payload bytes
///   kFin      -- writer closed; reader sees end-of-stream after draining
///   kRedirect -- "the rest of this stream continues at host:port, token T"
///                (decentralized reconnection, paper Figure 15)
///
/// Frames flow producer -> consumer only.  Flow control and the reader's
/// close belong to the transport stream underneath (its credit window and
/// RST), so a remote channel needs no reverse-direction frames.  The
/// codec is transport-agnostic (it reads/writes io streams) so it is
/// unit-testable without sockets.
namespace dpn::net {

enum class FrameType : std::uint8_t {
  kData = 0,
  kFin = 1,
  kRedirect = 3,
  /// kData with a 17-byte TraceContext prefix (trace_id:u64 span_id:u64
  /// flags:u8) ahead of the channel bytes -- the frame extension of
  /// docs/PROTOCOLS.md Section 6.  Emitted only while causal tracing is
  /// on (obs::set_causal_tracing), so the wire format is byte-identical
  /// to the untraced protocol otherwise.
  kDataTraced = 5,
};

struct Frame {
  FrameType type = FrameType::kData;
  ByteVector payload;
};

/// A frame's type and payload length, its payload not yet read.
struct FrameHeader {
  FrameType type = FrameType::kData;
  std::uint32_t length = 0;
};

/// Payload of a kRedirect frame.
struct RedirectInfo {
  std::string host;
  std::uint16_t port = 0;
  std::uint64_t token = 0;
  /// Optional causal context for the redirect handshake, appended after
  /// `token` only when valid: decoders that predate it stop at the token
  /// (payload decoding ignores trailing bytes), new decoders of old
  /// payloads leave it invalid.
  obs::TraceContext trace;

  ByteVector encode() const;
  static RedirectInfo decode(ByteSpan payload);
};

class FrameWriter {
 public:
  explicit FrameWriter(std::shared_ptr<io::OutputStream> out)
      : out_(std::move(out)) {}

  void write_data(ByteSpan data);
  /// write_data with the trace-context frame extension: the 17 context
  /// bytes ride in the same single vectored transport write as the
  /// header and payload, so causal tracing adds no extra syscall.
  void write_data_traced(const obs::TraceContext& ctx, ByteSpan data);
  void write_fin();
  void write_redirect(const RedirectInfo& info);

  void flush() { out_->flush(); }
  void close() { out_->close(); }

 private:
  void write_frame(FrameType type, ByteSpan payload);

  std::shared_ptr<io::OutputStream> out_;
};

class FrameReader {
 public:
  explicit FrameReader(std::shared_ptr<io::InputStream> in)
      : in_(std::move(in)) {}

  /// Reads the next frame.  Transport end-of-stream (peer vanished without
  /// a kFin) is reported as a synthetic kFin so channel draining still
  /// terminates cleanly.
  Frame read_frame();

  /// Reads only the next frame's header, leaving its payload in the
  /// stream for the caller (a remote channel hands DATA payload straight
  /// to its reader instead of buffering whole frames).  Clean
  /// end-of-stream between frames synthesizes kFin, as in read_frame().
  FrameHeader read_header();

  void close() { in_->close(); }

 private:
  std::shared_ptr<io::InputStream> in_;
};

}  // namespace dpn::net
