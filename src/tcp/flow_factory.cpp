// net::FlowFactory::create and the two FlowHandle implementations (the
// fluid one is declared in tcp/fluid.hpp, beside the engine that calls it).
//
// This file is the one production construction site of tcp::TcpConnection /
// tcp::TcpListener (tests may still build them directly). It lives in the
// tcp library so net/flow.hpp can stay a pure interface; every consumer of
// the factory already links scidmz_tcp, so the symbol resolves everywhere.
//
// PacketFlowHandle reproduces the historical call-site construction order
// exactly — listener first, then each client connection (whose constructor
// draws the ephemeral port) — so pre-factory scenarios stay byte-identical.
#include "net/flow.hpp"

#include <tuple>
#include <utility>
#include <vector>

#include "net/context.hpp"
#include "net/host.hpp"
#include "sim/arena.hpp"
#include "tcp/connection.hpp"
#include "tcp/fluid.hpp"
#include "telemetry/span.hpp"

namespace scidmz::tcp {

namespace {

/// Arena-place a concrete handle type. The FlowPtr deleter dispatches
/// through FlowHandle::destroySelf(), so each concrete class returns its
/// own exact block size (ArenaPtr's typed deleter cannot type-erase).
template <typename T, typename... Args>
net::FlowPtr makeHandle(net::Context& ctx, Args&&... args) {
  void* mem = ctx.arena().allocate(sizeof(T), alignof(T));
  try {
    return net::FlowPtr(::new (mem) T(std::forward<Args>(args)...));
  } catch (...) {
    ctx.arena().deallocate(mem, sizeof(T), alignof(T));
    throw;
  }
}

/// Open the flow's root span (both fidelities route through here so a
/// trace always has one root per created flow). Returns a disarmed pair
/// when tracing is off.
std::pair<telemetry::Tracer*, telemetry::SpanId> beginFlowSpan(
    net::Context& ctx, net::Host& src, net::Host& dst, net::FlowFidelity fidelity, int streams,
    const net::FlowFactory::Options& options) {
  telemetry::Tracer& tracer = ctx.extension<telemetry::Tracer>();
  if (!tracer.enabled()) return {nullptr, telemetry::SpanId{}};
  const telemetry::SpanId root =
      tracer.begin(ctx.now(), "flow " + src.name() + "->" + dst.name(), "flow");
  tracer.annotate(root, "fidelity", net::toString(fidelity));
  tracer.annotate(root, "streams", static_cast<std::uint64_t>(streams));
  tracer.annotate(root, "port", static_cast<std::uint64_t>(options.port));
  tracer.setCorrelationKey(root, src.address().value(), dst.address().value());
  return {&tracer, root};
}

class PacketFlowHandle final : public net::FlowHandle {
 public:
  PacketFlowHandle(net::Context& ctx, net::Host& src, net::Host& dst, const TcpConfig& config,
                   const net::FlowFactory::Options& options)
      : ctx_(ctx), src_(src), dst_(dst) {
    const int streams = options.streams < 1 ? 1 : options.streams;
    const TcpConfig& serverConfig = options.serverTcp != nullptr ? *options.serverTcp : config;
    listener_ = ctx.arena().make<TcpListener>(dst, options.port, serverConfig);
    listener_->onAccept = [this](TcpConnection& conn) { onServerAccept(conn); };
    servers_.assign(static_cast<std::size_t>(streams), nullptr);
    pending_.assign(static_cast<std::size_t>(streams), 0);
    clients_.reserve(static_cast<std::size_t>(streams));
    const auto [tracer, root] =
        beginFlowSpan(ctx, src, dst, net::FlowFidelity::kPacket, streams, options);
    tracer_ = tracer;
    root_ = root;
    for (int i = 0; i < streams; ++i) {
      auto client = ctx.arena().make<TcpConnection>(src, dst.address(), options.port, config);
      client->onEstablished = [this, i] { onStreamUp(i); };
      client->onSendComplete = [this, i] { onStreamDrained(i); };
      if (tracer_ != nullptr) client->setTrace(tracer_, root_, i);
      clients_.push_back(std::move(client));
    }
  }

  ~PacketFlowHandle() override {
    deregisterRoute();
    endRootSpan();
  }

  void start() override {
    if (!registered_) registerRoute();
    for (auto& client : clients_) client->start();
  }

  void sendData(sim::DataSize bytes) override {
    const int i = next_stream_;
    next_stream_ = (next_stream_ + 1) % static_cast<int>(clients_.size());
    sendOnStream(i, bytes);
  }

  void sendOnStream(int stream, sim::DataSize bytes) override {
    auto& client = clients_.at(static_cast<std::size_t>(stream));
    queued_any_ = true;
    if (pending_[static_cast<std::size_t>(stream)] == 0) {
      pending_[static_cast<std::size_t>(stream)] = 1;
      ++pending_count_;
    }
    client->sendData(bytes);
  }

  void abort() override {
    deregisterRoute();
    for (auto& client : clients_) client.reset();
    listener_.reset();
    for (auto& server : servers_) server = nullptr;
    endRootSpan();
  }

  [[nodiscard]] net::FlowFidelity fidelity() const override {
    return net::FlowFidelity::kPacket;
  }
  [[nodiscard]] int streamCount() const override { return static_cast<int>(clients_.size()); }

  [[nodiscard]] bool established() const override {
    if (clients_.empty()) return false;
    for (const auto& client : clients_) {
      if (!client || !client->established()) return false;
    }
    return true;
  }

  [[nodiscard]] bool sendComplete() const override { return queued_any_ && pending_count_ == 0; }

  [[nodiscard]] sim::DataSize deliveredBytes() const override {
    auto total = sim::DataSize::zero();
    for (const auto* server : servers_) {
      if (server != nullptr) total += server->deliveredBytes();
    }
    return total;
  }

  [[nodiscard]] sim::DataSize ackedBytes() const override {
    auto total = sim::DataSize::zero();
    for (const auto& client : clients_) {
      if (client) total += client->stats().bytesAcked;
    }
    return total;
  }

  [[nodiscard]] sim::DataRate goodput() const override {
    std::uint64_t bps = 0;
    for (const auto& client : clients_) {
      if (client) bps += client->goodput().bps();
    }
    return sim::DataRate::bitsPerSecond(bps);
  }

  [[nodiscard]] std::uint64_t retransmits() const override {
    std::uint64_t total = 0;
    for (const auto& client : clients_) {
      if (client) total += client->stats().retransmits;
    }
    return total;
  }

  [[nodiscard]] sim::DataRate currentRate() const override {
    double bps = 0.0;
    for (const auto& client : clients_) {
      if (!client || !client->established()) continue;
      const auto srtt = client->srtt();
      if (srtt > sim::Duration::zero()) {
        bps += client->cwndBytes() * 8.0 / srtt.toSeconds();
      }
    }
    return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(bps));
  }

  [[nodiscard]] TcpConnection* clientConnection(int stream) override {
    if (stream < 0 || stream >= streamCount()) return nullptr;
    return clients_[static_cast<std::size_t>(stream)].get();
  }
  [[nodiscard]] TcpConnection* serverConnection(int stream) override {
    if (stream < 0 || stream >= streamCount()) return nullptr;
    return servers_[static_cast<std::size_t>(stream)];
  }

  std::uint64_t serializeState(sim::Codec& c) override {
    std::uint64_t claimed = 0;
    bool hasListener = static_cast<bool>(listener_);
    c.b(hasListener);
    if (!c.writing()) {
      if (!hasListener) {
        listener_.reset();  // the flow was aborted before the snapshot
      } else if (!listener_) {
        c.reader().markFailed();
        return claimed;
      }
    }
    if (hasListener) claimed += listener_->serialize(c);
    std::uint64_t clientCount = clients_.size();
    c.vu64(clientCount);
    if (!c.writing() && clientCount != clients_.size()) {
      c.reader().markFailed();
      return claimed;
    }
    for (auto& client : clients_) {
      bool alive = static_cast<bool>(client);
      c.b(alive);
      if (!c.writing() && !alive) {
        client.reset();
        continue;
      }
      if (!alive) continue;
      if (!client) {  // snapshot has a live client the rebuild lacks
        c.reader().markFailed();
        return claimed;
      }
      claimed += client->serialize(c);
    }
    for (auto& p : pending_) {
      std::uint8_t v = static_cast<std::uint8_t>(p);
      c.u8(v);
      if (!c.writing()) p = static_cast<char>(v);
    }
    c.vint(pending_count_);
    c.vint(established_count_);
    c.vint(next_stream_);
    c.b(queued_any_);
    bool registered = registered_;
    c.b(registered);
    if (!c.writing()) {
      // Re-derive servers_: the listener restored its accepted connections
      // under their packet-flow keys; match each client's ephemeral port
      // and re-wire delivery, exactly as onServerAccept() did originally.
      for (std::size_t i = 0; i < clients_.size(); ++i) {
        servers_[i] = nullptr;
        if (!clients_[i] || !listener_) continue;
        TcpConnection* server = listener_->find(clients_[i]->flow());
        if (server != nullptr && server->established()) {
          servers_[i] = server;
          server->onDelivered = [this](sim::DataSize bytes) {
            if (onDelivered) onDelivered(bytes);
          };
        }
      }
      // Re-register with the fluid engine (pure bookkeeping; the FLU
      // section overlays the authoritative per-link counts afterwards, but
      // the registration keeps link_dirs_'s first-touch set complete).
      deregisterRoute();
      if (registered) registerRoute();
    }
    return claimed;
  }

 protected:
  void destroySelf() noexcept override {
    sim::Arena& arena = ctx_.arena();
    this->~PacketFlowHandle();
    arena.deallocate(this, sizeof(PacketFlowHandle), alignof(PacketFlowHandle));
  }

 private:
  void onServerAccept(TcpConnection& conn) {
    // Map the accepted connection to its stream: the server side's remote
    // port is the client's ephemeral port, drawn in our constructor.
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i] && clients_[i]->flow().srcPort == conn.flow().dstPort) {
        servers_[i] = &conn;
        conn.onDelivered = [this](sim::DataSize bytes) {
          if (onDelivered) onDelivered(bytes);
        };
        if (onAccepted) onAccepted(static_cast<int>(i));
        return;
      }
    }
  }

  void onStreamUp(int stream) {
    ++established_count_;
    if (onStreamEstablished) onStreamEstablished(stream);
    if (established_count_ == streamCount() && onEstablished) onEstablished();
  }

  void onStreamDrained(int stream) {
    if (pending_[static_cast<std::size_t>(stream)] == 0) return;
    pending_[static_cast<std::size_t>(stream)] = 0;
    --pending_count_;
    if (onStreamSendComplete) onStreamSendComplete(stream);
    if (pending_count_ == 0) {
      deregisterRoute();  // the flow no longer competes for capacity
      if (onSendComplete) onSendComplete();
    }
  }

  /// Register with the fluid engine so capacity entitlement on shared
  /// links counts this flow; pure bookkeeping, no events or RNG draws.
  void registerRoute() {
    FluidEngine& engine = ctx_.extension<FluidEngine>();
    route_ = engine.routeTo(src_, dst_);
    if (engine.routable(route_)) {
      engine.registerPacketRoute(route_);
      registered_ = true;
    }
  }

  void deregisterRoute() noexcept {
    if (registered_) {
      ctx_.extension<FluidEngine>().deregisterPacketRoute(route_);
      registered_ = false;
    }
  }

  void endRootSpan() {
    if (tracer_ != nullptr && root_.valid()) {
      tracer_->end(root_, ctx_.now());
      root_ = telemetry::SpanId{};
    }
  }

  telemetry::Tracer* tracer_ = nullptr;
  telemetry::SpanId root_{};
  net::Context& ctx_;
  net::Host& src_;
  net::Host& dst_;
  sim::ArenaPtr<TcpListener> listener_;
  std::vector<sim::ArenaPtr<TcpConnection>> clients_;
  std::vector<TcpConnection*> servers_;
  std::vector<char> pending_;  ///< per stream: queued data not yet drained
  int pending_count_ = 0;
  int established_count_ = 0;
  int next_stream_ = 0;
  bool queued_any_ = false;
  bool registered_ = false;
  std::uint32_t route_ = 0;  ///< FluidEngine route id, valid while registered_
};

}  // namespace

FluidFlowHandle::FluidFlowHandle(net::Context& ctx, net::Host& src, net::Host& dst,
                                 const TcpConfig& config, const net::FlowFactory::Options& options)
    : ctx_(ctx), engine_(ctx.extension<FluidEngine>()) {
  streams_ = options.streams < 1 ? 1 : options.streams;
  id_ = engine_.addFlow(src, dst, config, streams_, this);
  std::tie(tracer_, root_) =
      beginFlowSpan(ctx, src, dst, net::FlowFidelity::kFluid, streams_, options);
}

}  // namespace scidmz::tcp

namespace scidmz::net {

FlowPtr FlowFactory::create(Host& src, Host& dst, const tcp::TcpConfig& tcp,
                            const Options& options) {
  const FlowFidelity fidelity =
      options.pinned ? options.fidelity : override_.value_or(options.fidelity);
  const int streams = options.streams < 1 ? 1 : options.streams;
  flows_created_ += static_cast<std::uint64_t>(streams);
  Context& ctx = src.ctx();
  FlowPtr handle;
  if (fidelity == FlowFidelity::kFluid) {
    fluid_flows_created_ += static_cast<std::uint64_t>(streams);
    handle = tcp::makeHandle<tcp::FluidFlowHandle>(ctx, ctx, src, dst, tcp, options);
  } else {
    handle = tcp::makeHandle<tcp::PacketFlowHandle>(ctx, ctx, src, dst, tcp, options);
  }
  noteHandleCreated(handle.get());
  return handle;
}

}  // namespace scidmz::net
