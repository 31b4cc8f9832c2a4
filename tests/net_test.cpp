#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "io/memory.hpp"
#include "net/event_loop.hpp"
#include "net/frames.hpp"
#include "net/mux.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "sched/scheduler.hpp"

namespace dpn::net {
namespace {

TEST(Socket, ConnectAndEcho) {
  ServerSocket server{0};
  std::jthread echo{[&] {
    Socket peer = server.accept();
    ByteVector buffer(64);
    const std::size_t n = peer.read_some({buffer.data(), buffer.size()});
    peer.write_all({buffer.data(), n});
  }};
  Socket client = Socket::connect("127.0.0.1", server.port());
  const std::string message = "ping";
  client.write_all(as_bytes(message));
  ByteVector reply(4);
  std::size_t got = 0;
  while (got < reply.size()) {
    got += client.read_some({reply.data() + got, reply.size() - got});
  }
  EXPECT_EQ(dpn::to_string(ByteSpan{reply.data(), reply.size()}), message);
}

TEST(Socket, PeerShutdownDeliversEof) {
  ServerSocket server{0};
  std::jthread closer{[&] {
    Socket peer = server.accept();
    peer.shutdown_write();
    // Keep the socket alive briefly so the client reads a clean EOF.
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }};
  Socket client = Socket::connect("127.0.0.1", server.port());
  std::uint8_t b = 0;
  EXPECT_EQ(client.read_some({&b, 1}), 0u);
}

TEST(Socket, WriteToClosedPeerThrowsChannelClosed) {
  ServerSocket server{0};
  std::jthread closer{[&] {
    Socket peer = server.accept();
    peer.close();
  }};
  Socket client = Socket::connect("127.0.0.1", server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  const ByteVector junk(8192, 1);
  // The first write may be buffered; keep writing until the RST lands.
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) {
          client.write_all({junk.data(), junk.size()});
        }
      },
      ChannelClosed);
}

TEST(Socket, CloseWakesAccept) {
  ServerSocket server{0};
  std::jthread closer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    server.close();
  }};
  EXPECT_THROW(server.accept(), NetError);
}

TEST(Socket, ConnectRefusedThrows) {
  // Port 1 is never listening on a sane test host.
  EXPECT_THROW(Socket::connect("127.0.0.1", 1), NetError);
}

TEST(Socket, BadAddressThrows) {
  EXPECT_THROW(Socket::connect("not-an-address", 80), NetError);
}

TEST(Socket, LocalhostNameResolves) {
  ServerSocket server{0};
  std::jthread acceptor{[&] { Socket peer = server.accept(); }};
  EXPECT_NO_THROW(Socket::connect("localhost", server.port()));
}

TEST(Socket, EphemeralPortAssigned) {
  ServerSocket server{0};
  EXPECT_GT(server.port(), 0);
}

TEST(SocketStreams, StreamOverSocket) {
  // The io stream stack over a transport stream (one mux stream on a
  // loopback socket), half-closes included.
  auto listener = default_transport().listen(0);
  std::jthread echo{[&] {
    auto peer = listener->accept();
    StreamInput in{peer};
    StreamOutput out{peer};
    io::pump(in, out);
  }};
  auto client = default_transport().dial("127.0.0.1", listener->port());
  StreamOutput out{client};
  StreamInput in{client};
  const std::string message = "through the stream stack";
  out.write(as_bytes(message));
  out.close();  // half-close ends the echo pump
  ByteVector reply(message.size());
  io::read_fully(in, {reply.data(), reply.size()});
  EXPECT_EQ(dpn::to_string(ByteSpan{reply.data(), reply.size()}), message);
}

// --- Event-loop timer wheel --------------------------------------------------

TEST(EventLoopTimers, FiresAfterDelay) {
  EventLoop loop;
  std::promise<void> fired;
  const auto armed_at = std::chrono::steady_clock::now();
  loop.post([&] {
    loop.add_timer(std::chrono::milliseconds{50}, [&] { fired.set_value(); });
  });
  auto done = fired.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds{5}), std::future_status::ready);
  EXPECT_GE(std::chrono::steady_clock::now() - armed_at,
            std::chrono::milliseconds{40});
}

TEST(EventLoopTimers, ArmedAfterIdleGapFiresAfterItsDelay) {
  EventLoop loop;
  // Let the loop go fully idle (no timers armed, epoll_wait parked) for
  // longer than the timer delay.  Regression: the wheel anchor went stale
  // across the idle gap, and the end-of-iteration catch-up swept past the
  // freshly armed entry's slot, firing it instantly -- the "first mux
  // accept after an idle period dies with a preface timeout at t=0" bug.
  std::this_thread::sleep_for(std::chrono::milliseconds{250});
  std::promise<void> fired;
  const auto armed_at = std::chrono::steady_clock::now();
  loop.post([&] {
    loop.add_timer(std::chrono::milliseconds{100}, [&] { fired.set_value(); });
  });
  auto done = fired.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds{5}), std::future_status::ready);
  EXPECT_GE(std::chrono::steady_clock::now() - armed_at,
            std::chrono::milliseconds{90});
}

TEST(EventLoopPosts, PostDuringDrainIsNotLost) {
  EventLoop loop;
  // Regression: the loop read (reset) its wake eventfd AFTER draining the
  // post queue, so a post() landing while earlier posted functions ran
  // had its wake consumed with the function still queued, and an idle
  // loop re-entered an unbounded epoll_wait without ever running it.
  // One process-wide loop was re-woken by unrelated connections fast
  // enough to hide this; a quiet per-connection loop in the reactor pool
  // slept forever -- the "mux endpoint stops flushing credits under
  // DPN_NET_LOOPS>1" hang.  Holding the first posted function open while
  // posting a second lands the second post exactly in that window.
  std::promise<void> started, release, second_ran;
  loop.post([&] {
    started.set_value();
    release.get_future().wait();
  });
  started.get_future().wait();  // the loop is now mid-drain
  loop.post([&] { second_ran.set_value(); });
  release.set_value();
  ASSERT_EQ(second_ran.get_future().wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
}

TEST(EventLoopTimers, CancelledTimerNeverFires) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  std::promise<void> cancelled;
  loop.post([&] {
    const auto id = loop.add_timer(std::chrono::milliseconds{30},
                                   [&] { fired.store(true); });
    loop.cancel_timer(id);
    cancelled.set_value();
  });
  cancelled.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds{80});
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(loop.armed_timers(), 0u);
}

// --- Frame codec -------------------------------------------------------------

TEST(Frames, DataRoundTrip) {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  FrameWriter writer{sink};
  const std::string payload = "hello frames";
  writer.write_data(as_bytes(payload));
  writer.write_fin();

  FrameReader reader{std::make_shared<io::MemoryInputStream>(sink->take())};
  Frame frame = reader.read_frame();
  EXPECT_EQ(frame.type, FrameType::kData);
  EXPECT_EQ(dpn::to_string(ByteSpan{frame.payload.data(), frame.payload.size()}), payload);
  EXPECT_EQ(reader.read_frame().type, FrameType::kFin);
}

/// Counts discrete write operations -- each stands for one syscall when
/// the underlying stream is a socket.
class CountingOutputStream final : public io::OutputStream {
 public:
  void write(ByteSpan data) override {
    ++ops;
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
  void write_vectored(ByteSpan a, ByteSpan b) override {
    ++ops;
    bytes.insert(bytes.end(), a.begin(), a.end());
    bytes.insert(bytes.end(), b.begin(), b.end());
  }
  void close() override {}
  int ops = 0;
  ByteVector bytes;
};

TEST(Frames, DataFrameIsOneWriteOperation) {
  // Header and payload travel as one gathered write: on a socket that is
  // a single ::sendmsg, not a 5-byte header syscall plus a payload one.
  auto sink = std::make_shared<CountingOutputStream>();
  FrameWriter writer{sink};
  const ByteVector payload{1, 2, 3, 4, 5};
  writer.write_data({payload.data(), payload.size()});
  EXPECT_EQ(sink->ops, 1);

  // And the wire bytes are still a well-formed frame.
  FrameReader reader{std::make_shared<io::MemoryInputStream>(sink->bytes)};
  const Frame frame = reader.read_frame();
  EXPECT_EQ(frame.type, FrameType::kData);
  EXPECT_EQ(frame.payload, payload);
}

TEST(Frames, ControlFramesAreOneWriteOperation) {
  auto sink = std::make_shared<CountingOutputStream>();
  FrameWriter writer{sink};
  writer.write_fin();
  EXPECT_EQ(sink->ops, 1);
  RedirectInfo info;
  info.host = "10.0.0.1";
  info.port = 4000;
  info.token = 77;
  writer.write_redirect(info);
  EXPECT_EQ(sink->ops, 2);

  FrameReader reader{std::make_shared<io::MemoryInputStream>(sink->bytes)};
  EXPECT_EQ(reader.read_frame().type, FrameType::kFin);
  const Frame redirect = reader.read_frame();
  EXPECT_EQ(redirect.type, FrameType::kRedirect);
  EXPECT_EQ(RedirectInfo::decode({redirect.payload.data(),
                                  redirect.payload.size()})
                .token,
            77u);
}

TEST(Frames, EmptyDataFrameElided) {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  FrameWriter writer{sink};
  writer.write_data({});
  EXPECT_TRUE(sink->data().empty());
}

TEST(Frames, TransportEofSynthesizesFin) {
  FrameReader reader{std::make_shared<io::MemoryInputStream>(ByteVector{})};
  EXPECT_EQ(reader.read_frame().type, FrameType::kFin);
}

TEST(Frames, TruncatedHeaderThrows) {
  ByteVector partial{0, 0, 0};  // half a header
  FrameReader reader{std::make_shared<io::MemoryInputStream>(partial)};
  EXPECT_THROW(reader.read_frame(), EndOfStream);
}

TEST(Frames, TruncatedPayloadThrows) {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  FrameWriter writer{sink};
  writer.write_data(as_bytes(std::string{"full payload"}));
  ByteVector bytes = sink->take();
  bytes.resize(bytes.size() - 3);
  FrameReader reader{std::make_shared<io::MemoryInputStream>(bytes)};
  EXPECT_THROW(reader.read_frame(), EndOfStream);
}

TEST(Frames, OversizedFrameRejected) {
  ByteVector header{0 /*kData*/, 0xff, 0xff, 0xff, 0xff};
  FrameReader reader{std::make_shared<io::MemoryInputStream>(header)};
  EXPECT_THROW(reader.read_frame(), IoError);
}

TEST(Frames, RedirectInfoRoundTrip) {
  RedirectInfo info;
  info.host = "10.1.2.3";
  info.port = 65000;
  info.token = 0xdeadbeefcafef00dULL;
  auto sink = std::make_shared<io::MemoryOutputStream>();
  FrameWriter writer{sink};
  writer.write_redirect(info);
  FrameReader reader{std::make_shared<io::MemoryInputStream>(sink->take())};
  Frame frame = reader.read_frame();
  ASSERT_EQ(frame.type, FrameType::kRedirect);
  const RedirectInfo decoded =
      RedirectInfo::decode({frame.payload.data(), frame.payload.size()});
  EXPECT_EQ(decoded.host, info.host);
  EXPECT_EQ(decoded.port, info.port);
  EXPECT_EQ(decoded.token, info.token);
}

TEST(Frames, ManyFramesInOrder) {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  FrameWriter writer{sink};
  for (int i = 0; i < 50; ++i) {
    ByteVector payload(static_cast<std::size_t>(i) + 1,
                       static_cast<std::uint8_t>(i));
    writer.write_data({payload.data(), payload.size()});
  }
  writer.write_fin();
  FrameReader reader{std::make_shared<io::MemoryInputStream>(sink->take())};
  for (int i = 0; i < 50; ++i) {
    Frame frame = reader.read_frame();
    ASSERT_EQ(frame.type, FrameType::kData);
    EXPECT_EQ(frame.payload.size(), static_cast<std::size_t>(i) + 1);
    EXPECT_EQ(frame.payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(reader.read_frame().type, FrameType::kFin);
}

// --- Per-core reactor pool ---------------------------------------------------

TEST(Reactor, PoolIsLazyAndRoundRobin) {
  EventLoopPool pool{4};
  EXPECT_EQ(pool.live_loops(), 0u);  // no loop (or thread) until first use
  EventLoop& a = pool.next();
  EXPECT_EQ(pool.live_loops(), 1u);
  EventLoop& b = pool.next();
  EXPECT_NE(&a, &b);  // round-robin spreads waiters across loops
  EXPECT_EQ(pool.live_loops(), 2u);
}

TEST(Reactor, LoopForFdIsStable) {
  EventLoopPool pool{4};
  EventLoop& first = pool.loop_for(7);
  // Same fd, same loop: concurrent waits on one fd share one epoll set.
  EXPECT_EQ(&pool.loop_for(7), &first);
}

TEST(Reactor, SocketWaitReadableProbesAndTimesOut) {
  ServerSocket server{0};
  Socket client = Socket::connect("127.0.0.1", server.port());
  Socket peer = server.accept();

  // Zero timeout is an instantaneous probe, not an unconditional false.
  EXPECT_FALSE(client.wait_readable(std::chrono::milliseconds{0}));
  EXPECT_FALSE(client.wait_readable(std::chrono::milliseconds{30}));
  const std::uint8_t token = 7;
  peer.write_all({&token, 1});
  EXPECT_TRUE(client.wait_readable(std::chrono::seconds{5}));
  EXPECT_TRUE(client.wait_readable(std::chrono::milliseconds{0}));
}

TEST(Reactor, FiberParkedInSocketReadDoesNotStallWorker) {
  ServerSocket server{0};
  Socket client = Socket::connect("127.0.0.1", server.port());
  Socket peer = server.accept();

  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};

  std::promise<std::size_t> read_result;
  std::promise<void> bystander_ran;
  scheduler.spawn(
      [&] {
        std::uint8_t b = 0;
        read_result.set_value(client.read_some({&b, 1}));
      },
      "parked-reader");
  scheduler.spawn([&] { bystander_ran.set_value(); }, "bystander");

  // With a single worker the bystander only runs if the blocked read
  // parks its fiber on the reactor instead of wedging the worker in
  // recv() -- the fiber-blind-transport regression.
  auto ran = bystander_ran.get_future();
  ASSERT_EQ(ran.wait_for(std::chrono::seconds{5}), std::future_status::ready);

  const std::uint8_t token = 42;
  peer.write_all({&token, 1});
  auto result = read_result.get_future();
  ASSERT_EQ(result.wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
  EXPECT_EQ(result.get(), 1u);
  scheduler.shutdown();
}

TEST(Reactor, FiberParkedInSocketWriteDoesNotStallWorker) {
  ServerSocket server{0};
  Socket client = Socket::connect("127.0.0.1", server.port());
  Socket peer = server.accept();
  // Shrink the send buffer so a modest burst fills it; the peer never
  // reads, so write_all must park on writability.
  const int sndbuf = 4096;
  ASSERT_EQ(setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                       sizeof sndbuf),
            0);

  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};

  std::promise<void> write_done;
  std::promise<void> bystander_ran;
  const ByteVector burst(1u << 20, 0xAB);
  scheduler.spawn(
      [&] {
        client.write_all({burst.data(), burst.size()});
        write_done.set_value();
      },
      "parked-writer");
  scheduler.spawn([&] { bystander_ran.set_value(); }, "bystander");

  // The write-side twin of FiberParkedInSocketReadDoesNotStallWorker:
  // with one worker the bystander only runs if the full send buffer
  // parks the writing fiber on the reactor instead of wedging the worker
  // in send().
  auto ran = bystander_ran.get_future();
  ASSERT_EQ(ran.wait_for(std::chrono::seconds{5}), std::future_status::ready);

  std::jthread drainer{[&] {
    ByteVector sink(1u << 16);
    std::size_t total = 0;
    while (total < burst.size()) {
      const std::size_t n = peer.read_some({sink.data(), sink.size()});
      if (n == 0) break;
      total += n;
    }
  }};
  auto done = write_done.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds{10}),
            std::future_status::ready);
  scheduler.shutdown();
}

TEST(Reactor, FiberWaitReadableTimesOutWithoutStallingWorker) {
  ServerSocket server{0};
  Socket client = Socket::connect("127.0.0.1", server.port());
  Socket peer = server.accept();

  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};

  std::promise<bool> wait_result;
  std::promise<void> bystander_ran;
  scheduler.spawn(
      [&] {
        wait_result.set_value(
            client.wait_readable(std::chrono::milliseconds{200}));
      },
      "waiter");
  scheduler.spawn([&] { bystander_ran.set_value(); }, "bystander");

  auto ran = bystander_ran.get_future();
  ASSERT_EQ(ran.wait_for(std::chrono::seconds{5}), std::future_status::ready);
  auto result = wait_result.get_future();
  ASSERT_EQ(result.wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
  EXPECT_FALSE(result.get());  // no data ever arrived: clean timeout
  scheduler.shutdown();
}

// --- Hostile mux OPEN -----------------------------------------------------------
//
// The OPEN window comes off the wire and bounds what the acceptor buffers
// for the stream, so a value of 0 or above kMaxStreamWindow must kill the
// connection before anything is built from it.

/// Sends a raw OPEN frame for `stream_id` announcing `window`.
void send_open(Socket& raw, std::uint32_t stream_id, std::uint32_t window) {
  std::uint8_t frame[9 + 4];
  put_u32(frame, stream_id);
  frame[4] = 0;  // OPEN
  put_u32(frame + 5, 4);
  put_u32(frame + 9, window);
  raw.write_all({frame, sizeof frame});
}

/// Dials a mux listener with a raw socket, exchanges prefaces
/// (docs/PROTOCOLS.md Section 8: 'DPNM', version 2) and sends one OPEN
/// announcing `window`.
Socket open_raw_stream(const Listener& listener, std::uint32_t window) {
  Socket raw = Socket::connect("127.0.0.1", listener.port());
  std::uint8_t preface[5];
  for (std::size_t got = 0; got < sizeof preface;) {
    const std::size_t n = raw.read_some({preface + got, sizeof preface - got});
    if (n == 0) throw NetError{"listener hung up during the preface"};
    got += n;
  }
  EXPECT_EQ(get_u32(preface), 0x44504E4Du);
  std::uint8_t bytes[5];
  put_u32(bytes, 0x44504E4D);
  bytes[4] = 2;
  raw.write_all({bytes, sizeof bytes});
  send_open(raw, 1, window);
  return raw;
}

/// True if the peer drops `raw` (EOF or reset) within `timeout`.
bool dropped_within(Socket& raw, std::chrono::milliseconds timeout) {
  if (!raw.wait_readable(timeout)) return false;
  std::uint8_t byte = 0;
  try {
    return raw.read_some({&byte, 1}) == 0;
  } catch (const IoError&) {
    return true;  // reset
  }
}

TEST(MuxHostile, OpenWindowOutOfRangeKillsTheConnection) {
  auto listener = default_transport().listen(0);
  const std::uint64_t streams_before = mux_stats().streams_total;
  for (const std::uint64_t window :
       {std::uint64_t{0}, std::uint64_t{kMaxStreamWindow} + 1,
        std::uint64_t{0xFFFFFFFF}}) {
    Socket raw =
        open_raw_stream(*listener, static_cast<std::uint32_t>(window));
    EXPECT_TRUE(dropped_within(raw, std::chrono::seconds{10})) << window;
  }
  // No stream -- and so no receive buffering -- was built from them.
  EXPECT_EQ(mux_stats().streams_total, streams_before);
}

TEST(MuxHostile, OpenWindowAtTheCapIsAccepted) {
  // The control: the same bytes with the largest legal window yield a
  // stream and keep the connection up.
  auto listener = default_transport().listen(0);
  Socket raw = open_raw_stream(
      *listener, static_cast<std::uint32_t>(kMaxStreamWindow));
  auto stream = listener->accept();
  ASSERT_TRUE(stream != nullptr);
  EXPECT_FALSE(dropped_within(raw, std::chrono::milliseconds{200}));
  listener->close();
}

TEST(MuxHostile, RetiredDataTracedTypeKillsTheConnection) {
  // Mux frame type 2 (DATA_TRACED) is retired: a remote channel's
  // context rides its own DATA_TRACED frame, one layer up.  A type-2
  // frame on a live stream is now an unknown type and ends the
  // connection instead of delivering bytes.
  auto listener = default_transport().listen(0);
  Socket raw = open_raw_stream(*listener, 1024);
  auto stream = listener->accept();
  ASSERT_TRUE(stream != nullptr);
  std::uint8_t frame[9 + 17 + 4] = {};
  put_u32(frame, 1);  // stream id
  frame[4] = 2;       // the retired DATA_TRACED
  put_u32(frame + 5, 17 + 4);
  put_u64(frame + 9, 7);  // a well-formed context: trace id 7
  raw.write_all({frame, sizeof frame});
  EXPECT_TRUE(dropped_within(raw, std::chrono::seconds{10}));
  std::uint8_t byte = 0;
  EXPECT_THROW(stream->read_some({&byte, 1}), NetError);
}

// --- Mux ready ring ----------------------------------------------------------------
//
// A stream enters its connection's ready ring once per flush cycle: the
// write that finds it idle queues it, and writes in between only extend
// its tail chunk.  Waits are bounded, so a stranded chunk fails a test
// instead of hanging it.

constexpr auto kArrivalBound = std::chrono::seconds{10};

/// Reads exactly out.size() bytes; false on EOF, on a wait past
/// kArrivalBound or on a transport error.
bool read_exact(Stream& stream, MutableByteSpan out) {
  try {
    for (std::size_t got = 0; got < out.size();) {
      if (!stream.wait_readable(kArrivalBound)) return false;
      const std::size_t n = stream.read_some(out.subspan(got));
      if (n == 0) return false;
      got += n;
    }
    return true;
  } catch (const IoError&) {
    return false;
  }
}

TEST(MuxReadyRing, ManyStreamsWithConcurrentSmallWritersArriveInOrder) {
  constexpr std::size_t kStreams = 32;
  constexpr std::size_t kWriters = 8;  // each drives kStreams / kWriters
  constexpr std::uint32_t kTokens = 2000;
  auto listener = default_transport().listen(0);
  // A small window makes writers stall and resume on credit as well.
  DialOptions options;
  options.stream_window = 1024;
  std::vector<std::shared_ptr<Stream>> dialed;
  std::vector<std::shared_ptr<Stream>> accepted;
  for (std::size_t i = 0; i < kStreams; ++i) {
    dialed.push_back(
        default_transport().dial("127.0.0.1", listener->port(), options));
    accepted.push_back(listener->accept());
  }

  // Token = stream index << 32 | sequence number, one 8-byte write each.
  std::vector<std::jthread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      try {
        for (std::uint32_t seq = 0; seq < kTokens; ++seq) {
          for (std::size_t i = w; i < kStreams; i += kWriters) {
            std::uint8_t token[8];
            put_u64(token, (std::uint64_t{i} << 32) | seq);
            dialed[i]->write_all({token, sizeof token});
          }
        }
        for (std::size_t i = w; i < kStreams; i += kWriters) {
          dialed[i]->shutdown_write();
        }
      } catch (const IoError&) {
        // A reader gave up and reset its stream; it reports the failure.
      }
    });
  }

  struct Seen {
    std::uint64_t stream = ~std::uint64_t{0};
    std::uint32_t tokens = 0;
    bool in_order = true;
    bool fin_after_data = false;
  };
  std::vector<Seen> seen(kStreams);
  {
    std::vector<std::jthread> readers;
    for (std::size_t j = 0; j < kStreams; ++j) {
      readers.emplace_back([&, j] {
        Seen& mine = seen[j];
        std::uint8_t token[8];
        while (read_exact(*accepted[j], {token, sizeof token})) {
          const std::uint64_t value = get_u64(token);
          if (mine.tokens == 0) mine.stream = value >> 32;
          mine.in_order &= (value >> 32) == mine.stream &&
                           (value & 0xFFFFFFFF) == mine.tokens;
          ++mine.tokens;
        }
        // The loop ended at EOF (FIN after the data read so far) or at a
        // timeout, which leaves the stream open: reset it then, to free
        // its writer.
        std::uint8_t probe = 0;
        try {
          mine.fin_after_data =
              accepted[j]->wait_readable(std::chrono::milliseconds{0}) &&
              accepted[j]->read_some({&probe, 1}) == 0;
        } catch (const IoError&) {
        }
        if (!mine.fin_after_data) accepted[j]->close();
      });
    }
  }
  writers.clear();

  std::vector<bool> streams_seen(kStreams, false);
  for (std::size_t j = 0; j < kStreams; ++j) {
    EXPECT_EQ(seen[j].tokens, kTokens) << "accepted stream " << j;
    EXPECT_TRUE(seen[j].in_order) << "accepted stream " << j;
    EXPECT_TRUE(seen[j].fin_after_data) << "accepted stream " << j;
    if (seen[j].stream < kStreams) streams_seen[seen[j].stream] = true;
  }
  EXPECT_EQ(std::count(streams_seen.begin(), streams_seen.end(), true),
            static_cast<std::ptrdiff_t>(kStreams));
}

TEST(MuxReadyRing, WriteAfterTheFlusherDrainedTheRingIsDelivered) {
  // Ping-pong: every write lands after the flusher took the stream's
  // previous (and last) chunk, so each one must queue the stream anew.
  auto listener = default_transport().listen(0);
  auto a = default_transport().dial("127.0.0.1", listener->port());
  auto b = listener->accept();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    std::uint8_t ping = static_cast<std::uint8_t>(i);
    a->write_all({&ping, 1});
    std::uint8_t got = 0;
    ASSERT_TRUE(read_exact(*b, {&got, 1})) << "ping " << i << " stranded";
    ASSERT_EQ(got, ping);
    b->write_all({&got, 1});
    ASSERT_TRUE(read_exact(*a, {&got, 1})) << "pong " << i << " stranded";
    ASSERT_EQ(got, ping);
  }
}

TEST(MuxReadyRing, RstWhileQueuedDoesNotWedgeTheRing) {
  auto listener = default_transport().listen(0);
  // A window far above what the test sends: the hot writer never stalls,
  // so its stream stays queued with chunks pending when the RST lands.
  DialOptions options;
  options.stream_window = std::size_t{16} << 20;
  auto hot = default_transport().dial("127.0.0.1", listener->port(), options);
  auto sibling = default_transport().dial("127.0.0.1", listener->port());
  auto hot_peer = listener->accept();
  auto sibling_peer = listener->accept();

  std::promise<bool> writer_closed;
  std::jthread writer{[&] {
    const ByteVector token(8, 0x5A);
    try {
      for (std::size_t sent = 0; sent < options.stream_window;
           sent += token.size()) {
        hot->write_all({token.data(), token.size()});
      }
      writer_closed.set_value(false);  // never saw the reset
    } catch (const ChannelClosed&) {
      writer_closed.set_value(true);
    } catch (const IoError&) {
      writer_closed.set_value(false);
    }
  }};
  ByteVector some(64 << 10);
  ASSERT_TRUE(read_exact(*hot_peer, {some.data(), some.size()}));
  hot_peer->shutdown_read();  // RST to the hot writer

  auto closed = writer_closed.get_future();
  const bool woke = closed.wait_for(kArrivalBound) == std::future_status::ready;
  if (!woke) hot->shutdown_write();  // frees the writer: fail, not hang
  ASSERT_TRUE(woke) << "hot writer never saw the RST";
  EXPECT_TRUE(closed.get());

  // The ring still turns: the sibling and a stream opened after the RST
  // both deliver, with the reset stream's FIN queued among them.
  hot->shutdown_write();
  auto late = default_transport().dial("127.0.0.1", listener->port());
  auto late_peer = listener->accept();
  for (std::uint32_t i = 0; i < 100; ++i) {
    std::uint8_t byte = static_cast<std::uint8_t>(i);
    sibling->write_all({&byte, 1});
    late->write_all({&byte, 1});
    std::uint8_t got = 0;
    ASSERT_TRUE(read_exact(*sibling_peer, {&got, 1})) << i;
    EXPECT_EQ(got, byte);
    ASSERT_TRUE(read_exact(*late_peer, {&got, 1})) << i;
    EXPECT_EQ(got, byte);
  }
}

TEST(MuxReadyRing, HotBacklogDoesNotStarveASiblingsSingleWrite) {
  // A raw dialer reads the wire itself, so arrival order is exact: the
  // listener's two streams are a hot one with a large backlog queued
  // first and a sibling that writes one byte after it.
  constexpr std::size_t kBacklog = std::size_t{16} << 20;
  auto listener = default_transport().listen(0);
  Socket raw = open_raw_stream(*listener, static_cast<std::uint32_t>(kBacklog));
  // A small fixed receive buffer keeps most of the backlog on the
  // sender's side (a loopback buffer left to autotune can hold it all).
  const int rcvbuf = 64 << 10;
  ASSERT_EQ(setsockopt(raw.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof rcvbuf),
            0);
  send_open(raw, 2, 1024);
  auto hot = listener->accept();
  auto sibling = listener->accept();

  const ByteVector backlog(kBacklog, 0xAB);
  hot->write_all({backlog.data(), backlog.size()});
  hot->shutdown_write();
  const std::uint8_t byte = 0x42;
  sibling->write_all({&byte, 1});

  // Walk the frames: count hot DATA bytes before and after the sibling's.
  std::size_t hot_before = 0;
  std::size_t hot_after = 0;
  bool sibling_seen = false;
  bool hot_fin = false;
  ByteVector payload;
  while (!hot_fin || !sibling_seen) {
    std::uint8_t header[9];
    for (std::size_t got = 0; got < sizeof header;) {
      ASSERT_TRUE(raw.wait_readable(kArrivalBound));
      const std::size_t n = raw.read_some({header + got, sizeof header - got});
      ASSERT_GT(n, 0u);
      got += n;
    }
    const std::uint32_t id = get_u32(header);
    const std::uint8_t type = header[4];
    payload.resize(get_u32(header + 5));
    for (std::size_t got = 0; got < payload.size();) {
      ASSERT_TRUE(raw.wait_readable(kArrivalBound));
      const std::size_t n =
          raw.read_some({payload.data() + got, payload.size() - got});
      ASSERT_GT(n, 0u);
      got += n;
    }
    if (type == 1 && id == 1) {
      (sibling_seen ? hot_after : hot_before) += payload.size();
    } else if (type == 1 && id == 2) {
      ASSERT_EQ(payload.size(), 1u);
      EXPECT_EQ(payload[0], byte);
      EXPECT_FALSE(hot_fin) << "the sibling waited for the whole backlog";
      sibling_seen = true;
    } else if (type == 4 && id == 1) {
      hot_fin = true;
    }
  }
  EXPECT_EQ(hot_before + hot_after, kBacklog);
  // Round-robin: the sibling's one chunk goes out next to one hot chunk,
  // so most of the backlog that had not reached the socket follows it.
  EXPECT_GE(hot_after, kBacklog / 4)
      << hot_before << " hot bytes went out before the sibling's one";
}

TEST(Frames, OverSocketEndToEnd) {
  auto listener = default_transport().listen(0);
  std::jthread producer{[&] {
    FrameWriter writer{std::make_shared<StreamOutput>(listener->accept())};
    writer.write_data(as_bytes(std::string{"one"}));
    writer.write_data(as_bytes(std::string{"two"}));
    writer.write_fin();
  }};
  FrameReader reader{std::make_shared<StreamInput>(
      default_transport().dial("127.0.0.1", listener->port()))};
  EXPECT_EQ(dpn::to_string(ByteSpan{reader.read_frame().payload.data(), 3}), "one");
  EXPECT_EQ(dpn::to_string(ByteSpan{reader.read_frame().payload.data(), 3}), "two");
  EXPECT_EQ(reader.read_frame().type, FrameType::kFin);
}

}  // namespace
}  // namespace dpn::net
