#pragma once

#include <cstdint>

#include "net/transport.hpp"

/// The multiplexed transport, dpn's one backend (default_transport()).
///
/// All logical streams between one pair of hosts share ONE TCP
/// connection, driven by the per-core edge-triggered EventLoop pool
/// (net/reactor.hpp): each connection is pinned to one loop of the pool
/// at establishment (round-robin), its timers and posts stay
/// loop-local, and separate connections scale across cores instead of
/// serializing behind a single reactor thread.  Connection count is
/// O(host pairs), not O(channels): 50k channels between two nodes cost
/// two descriptors, one per direction of dialing.
///
/// Wire format (docs/PROTOCOLS.md Section 8).  Each side sends a preface
/// immediately after connect:
///
///   preface := magic:u32 'DPNM' version:u8
///
/// then the connection carries frames:
///
///   frame := stream_id:u32 type:u8 length:u32 payload[length]
///
///   OPEN(0)        payload = window:u32 -- dialer opens stream_id; both
///                  directions start with `window` bytes of send credit
///                  (1..kMaxStreamWindow, else the connection dies)
///   DATA(1)        payload = stream bytes (counted against the window)
///   (2)            retired (was DATA_TRACED); unknown, kills the connection
///   CREDIT(3)      payload = bytes:u32 -- receiver consumed (or granted a
///                  bonus), send more
///   FIN(4)         sender finished writing (ordered after its data)
///   RST(5)         sender stopped reading; peer writes fail
///
/// Stream ids are allocated by the dialer only, so the two directions of
/// dialing between a host pair can never collide.  The OPEN window
/// (DialOptions::stream_window) is the initial send window of both
/// directions; credit is granted by the consuming side as it reads.  A
/// remote channel has no flow control of its own: this window *is* the
/// channel's bound (Section 3.5 across machines), and a receiver kills a
/// connection whose peer sends past the credit it was granted.
///
/// Fairness: each connection flushes its ready streams round-robin, one
/// chunk (<= NetworkOptions::coalesce_bytes) per turn, so one hot stream
/// cannot starve its siblings on the shared connection.  A stream enters
/// the ready ring once per flush cycle: the write that finds it idle
/// queues it, and writes made before the flusher takes its last chunk
/// only extend its tail chunk under the stream's own lock, never the
/// connection's.
namespace dpn::net {

/// Aggregate counters of the mux backend (all zero when it is unused).
/// Mirrored into NetworkSnapshot so dpn_top can show streams/connection.
struct MuxStats {
  /// Live mux connections (both dialed and accepted).
  std::uint64_t connections = 0;
  /// Logical streams currently open across all connections.
  std::uint64_t streams_active = 0;
  /// Logical streams ever opened.
  std::uint64_t streams_total = 0;
  /// Times a writer blocked with an exhausted per-stream credit window.
  std::uint64_t credit_stalls = 0;
  /// Total nanoseconds spent in those stalls.
  std::uint64_t credit_stall_ns = 0;
};

MuxStats mux_stats();

}  // namespace dpn::net
