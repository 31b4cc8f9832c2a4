#include "net/frames.hpp"

#include "io/data.hpp"
#include "io/memory.hpp"

namespace dpn::net {

namespace {
constexpr std::size_t kMaxFramePayload = 1u << 26;  // 64 MiB sanity bound
}

ByteVector RedirectInfo::encode() const {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  io::DataOutputStream data{sink};
  data.write_string(host);
  data.write_u16(port);
  data.write_u64(token);
  // Optional trace-context extension: appended only when set, so a
  // pre-extension decoder (which stops at the token) still parses the
  // payload, and an untraced redirect is byte-identical to before.
  if (trace.valid()) {
    std::uint8_t ctx[obs::TraceContext::kWireSize];
    trace.encode(ctx);
    data.write({ctx, sizeof ctx});
  }
  return sink->take();
}

RedirectInfo RedirectInfo::decode(ByteSpan payload) {
  auto source = std::make_shared<io::MemoryInputStream>(
      ByteVector{payload.begin(), payload.end()});
  io::DataInputStream data{source};
  RedirectInfo info;
  info.host = data.read_string();
  info.port = data.read_u16();
  info.token = data.read_u64();
  std::uint8_t ctx[obs::TraceContext::kWireSize];
  try {
    data.read_fully({ctx, sizeof ctx});
    info.trace = obs::TraceContext::decode(ctx);
  } catch (const EndOfStream&) {
    // Pre-extension sender: no context appended.
  }
  return info;
}

void FrameWriter::write_data(ByteSpan data) {
  // Zero-length data frames are legal no-ops but never emitted.
  if (!data.empty()) write_frame(FrameType::kData, data);
}

void FrameWriter::write_data_traced(const obs::TraceContext& ctx,
                                    ByteSpan data) {
  if (data.empty()) return;
  // Header and context share one stack buffer so the traced frame is
  // still a single vectored transport write (same syscall count as
  // write_data; the extension costs 17 payload bytes, nothing else).
  std::uint8_t head[5 + obs::TraceContext::kWireSize];
  head[0] = static_cast<std::uint8_t>(FrameType::kDataTraced);
  put_u32(head + 1, static_cast<std::uint32_t>(
                        data.size() + obs::TraceContext::kWireSize));
  ctx.encode(head + 5);
  out_->write_vectored({head, sizeof head}, data);
}

void FrameWriter::write_fin() { write_frame(FrameType::kFin, {}); }

void FrameWriter::write_redirect(const RedirectInfo& info) {
  const ByteVector payload = info.encode();
  write_frame(FrameType::kRedirect, {payload.data(), payload.size()});
}

void FrameWriter::write_frame(FrameType type, ByteSpan payload) {
  std::uint8_t header[5];
  header[0] = static_cast<std::uint8_t>(type);
  put_u32(header + 1, static_cast<std::uint32_t>(payload.size()));
  // Header and payload travel as ONE vectored write per frame: a kData
  // frame is a single ::writev on a socket (no per-frame allocation or
  // copy), and the un-tearable write keeps concurrent framing layers on
  // the same stream from interleaving (writers serialize in the stream
  // below us, but a torn frame must be impossible).
  if (payload.empty()) {
    out_->write({header, sizeof header});
  } else {
    out_->write_vectored({header, sizeof header}, payload);
  }
}

Frame FrameReader::read_frame() {
  const FrameHeader header = read_header();
  Frame frame;
  frame.type = header.type;
  frame.payload.resize(header.length);
  if (header.length > 0) {
    io::read_fully(*in_, {frame.payload.data(), header.length});
  }
  return frame;
}

FrameHeader FrameReader::read_header() {
  std::uint8_t header[5];
  std::size_t got = 0;
  while (got < sizeof header) {
    const std::size_t n = in_->read_some({header + got, sizeof header - got});
    if (n == 0) {
      if (got == 0) {
        // Transport ended cleanly between frames: synthesize FIN.
        return FrameHeader{FrameType::kFin, 0};
      }
      throw EndOfStream{"transport ended mid-frame"};
    }
    got += n;
  }
  const std::uint32_t length = get_u32(header + 1);
  if (length > kMaxFramePayload) {
    throw IoError{"frame payload of " + std::to_string(length) +
                  " bytes exceeds limit"};
  }
  return FrameHeader{static_cast<FrameType>(header[0]), length};
}

}  // namespace dpn::net
