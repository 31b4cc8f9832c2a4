#include "dist/node.hpp"

#include <algorithm>
#include <random>

#include "dist/remote_streams.hpp"

#include "io/data.hpp"
#include "io/memory.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace dpn::dist {

namespace {

constexpr std::uint32_t kHelloMagic = 0x44504e43;  // "DPNC"

/// HELLO: magic, token, dialer rendezvous host + port.
void write_hello(net::Stream& stream, std::uint64_t token,
                 const PeerAddress& self) {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  io::DataOutputStream data{sink};
  data.write_u32(kHelloMagic);
  data.write_u64(token);
  data.write_string(self.host);
  data.write_u16(self.port);
  const ByteVector& bytes = sink->data();
  stream.write_all({bytes.data(), bytes.size()});
}

/// Adapts a freshly accepted stream for DataInputStream; the dialer
/// writes its opening message immediately, so blocking reads are fine.
class StreamReader final : public io::InputStream {
 public:
  explicit StreamReader(net::Stream& s) : stream_(s) {}
  std::size_t read_some(MutableByteSpan out) override {
    return stream_.read_some(out);
  }
  void close() override {}

 private:
  net::Stream& stream_;
};

struct Hello {
  std::uint64_t token = 0;
  PeerAddress dialer;
};

Hello read_hello(net::Stream& stream) {
  auto reader = std::make_shared<StreamReader>(stream);
  io::DataInputStream data{reader};
  if (data.read_u32() != kHelloMagic) {
    throw NetError{"rendezvous: bad HELLO magic"};
  }
  Hello hello;
  hello.token = data.read_u64();
  hello.dialer.host = data.read_string();
  hello.dialer.port = data.read_u16();
  return hello;
}

}  // namespace

bool StreamPromise::fulfill(std::shared_ptr<net::Stream> stream,
                            PeerAddress dialer) {
  std::scoped_lock lock{mutex_};
  if (cancelled_ || fulfilled_) return false;
  stream_ = std::move(stream);
  dialer_ = std::move(dialer);
  fulfilled_ = true;
  wake_locked();
  return true;
}

std::shared_ptr<net::Stream> StreamPromise::wait() {
  std::unique_lock lock{mutex_};
  while (!fulfilled_ && !cancelled_) {
    if (sched::on_fiber()) {
      sched::suspend_current(fibers_, lock);
      lock.lock();
    } else {
      cv_.wait(lock);
    }
  }
  if (!fulfilled_) throw NetError{"pending channel connection cancelled"};
  // A copy, not a move: an endpoint's writer and its close() may both be
  // waiting for the same connection.
  return stream_;
}

void StreamPromise::cancel() {
  std::scoped_lock lock{mutex_};
  cancelled_ = true;
  wake_locked();
}

void StreamPromise::wake_locked() {
  while (sched::Fiber* fiber = fibers_.pop()) sched::make_runnable(fiber);
  cv_.notify_all();
}

bool StreamPromise::fulfilled() const {
  std::scoped_lock lock{mutex_};
  return fulfilled_;
}

RendezvousService::RendezvousService()
    : listener_(net::default_transport().listen(0)) {
  acceptor_ = std::jthread{[this] { accept_loop(); }};
}

RendezvousService::~RendezvousService() {
  shutting_down_.store(true);
  listener_->close();  // wakes the acceptor
  if (acceptor_.joinable()) acceptor_.join();
  std::scoped_lock lock{mutex_};
  for (auto& [token, promise] : pending_) promise->cancel();
  pending_.clear();
}

std::shared_ptr<StreamPromise> RendezvousService::expect(std::uint64_t token) {
  auto promise = std::make_shared<StreamPromise>();
  std::scoped_lock lock{mutex_};
  if (const auto parked = parked_.find(token); parked != parked_.end()) {
    promise->fulfill(std::move(parked->second.stream),
                     std::move(parked->second.dialer));
    parked_.erase(parked);
    return promise;
  }
  const auto [it, inserted] = pending_.emplace(token, promise);
  (void)it;
  if (!inserted) {
    throw UsageError{"rendezvous token registered twice"};
  }
  return promise;
}

void RendezvousService::forget(std::uint64_t token) {
  std::shared_ptr<StreamPromise> promise;
  {
    std::scoped_lock lock{mutex_};
    parked_.erase(token);
    const auto it = pending_.find(token);
    if (it == pending_.end()) return;
    promise = it->second;
    pending_.erase(it);
  }
  promise->cancel();
}

std::shared_ptr<net::Stream> RendezvousService::dial(const std::string& host,
                                                     std::uint16_t port,
                                                     std::uint64_t token,
                                                     const PeerAddress& self,
                                                     std::size_t stream_window) {
  // Dial-backs race the peer's listener coming up (ship_process sends the
  // shipment before every cut channel has reconnected), so a refused or
  // slow connect here retries with backoff instead of failing the whole
  // re-establishment.
  auto stream = net::dial_with_retry(net::default_transport(), host, port,
                                     {}, stream_window);
  write_hello(*stream, token, self);
  return stream;
}

void RendezvousService::accept_loop() {
  for (;;) {
    std::shared_ptr<net::Stream> stream;
    try {
      stream = listener_->accept();
    } catch (const NetError&) {
      if (shutting_down_.load()) return;
      continue;
    }
    try {
      const Hello hello = read_hello(*stream);
      std::shared_ptr<StreamPromise> promise;
      {
        std::scoped_lock lock{mutex_};
        const auto it = pending_.find(hello.token);
        if (it != pending_.end()) {
          promise = it->second;
          pending_.erase(it);
        }
      }
      if (!promise) {
        // No one expects this token yet; a redirected producer can dial
        // before the consumer's lazy frame reader sees the REDIRECT.
        // Park the connection for the expect() that is on its way.
        std::scoped_lock lock{mutex_};
        parked_.emplace(hello.token,
                        Parked{std::move(stream), hello.dialer});
        continue;
      }
      promise->fulfill(std::move(stream), hello.dialer);
    } catch (const std::exception& e) {
      log::warn("rendezvous: handshake failed: ", e.what());
    }
  }
}

namespace {
std::uint64_t random_seed() {
  std::random_device rd;
  return (std::uint64_t{rd()} << 32) ^ rd();
}
}  // namespace

NodeContext::NodeContext(std::string advertised_host)
    : host_(std::move(advertised_host)), token_state_(random_seed()) {}

std::shared_ptr<NodeContext> NodeContext::create(std::string advertised_host) {
  // Installs the channel-endpoint serialization hooks on first use.
  extern void ensure_hooks_installed();
  ensure_hooks_installed();
  return std::shared_ptr<NodeContext>(
      new NodeContext{std::move(advertised_host)});
}

std::shared_ptr<NodeContext> NodeContext::default_node() {
  static std::shared_ptr<NodeContext>* node =
      new std::shared_ptr<NodeContext>(create());
  return *node;
}

void NodeContext::register_remote_stream(
    const std::shared_ptr<net::Stream>& stream) {
  remote_streams_.add(stream);
}

void NodeContext::abort_remote_channels() {
  aborting_.store(true, std::memory_order_release);
  for (const auto& stream : remote_streams_.live()) {
    // shutdown (not close) so a concurrently blocked recv/send wakes
    // without racing on descriptor reuse.
    stream->shutdown_read();
    stream->shutdown_write();
  }
}

void NodeContext::register_remote_input(
    const std::shared_ptr<FrameChannelInput>& input) {
  remote_inputs_.add(input);
}

void NodeContext::grant_remote_credits() {
  const auto bonus = static_cast<std::uint32_t>(
      std::min<std::size_t>(remote_window(), ~std::uint32_t{0}));
  for (const auto& input : remote_inputs_.live()) {
    input->grant_bonus_credits(bonus);
  }
}

NodeContext::RegistrySizes NodeContext::registry_sizes() const {
  return {remote_streams_.stored(), remote_inputs_.stored()};
}

std::uint64_t NodeContext::next_token() {
  std::scoped_lock lock{token_mutex_};
  SplitMix64 mix{token_state_};
  const std::uint64_t token = mix.next();
  token_state_ = token ^ 0x5bd1e995;
  return token;
}

}  // namespace dpn::dist
