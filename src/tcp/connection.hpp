// TCP connection: handshake with RFC 1323 window-scale negotiation, bulk
// data transfer with NewReno loss recovery, RFC 6298 retransmission timer,
// and pluggable congestion control.
//
// The model is deliberately faithful in the places the paper's phenomena
// live: window scaling can be stripped by middleboxes (capping throughput
// at 64 KiB / RTT), loss detection is duplicate-ACK based (so a single
// drop halves the window), and the sender emits whole windows back-to-back
// at NIC line rate (the bursts that overflow shallow buffers downstream).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/host.hpp"
#include "sim/arena.hpp"
#include "tcp/congestion.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace scidmz::tcp {

struct TcpConfig {
  CcAlgorithm algorithm = CcAlgorithm::kReno;
  /// Cap on unacknowledged in-flight data (sender-side socket buffer).
  sim::DataSize sndBuf = sim::DataSize::mebibytes(16);
  /// Advertised receive window (receiver-side socket buffer; the app in
  /// this model consumes instantly, so the full buffer is always offered).
  sim::DataSize rcvBuf = sim::DataSize::mebibytes(16);
  /// Host supports RFC 1323 window scaling (both ends must, and the option
  /// must survive middleboxes, for windows beyond 64 KiB).
  bool windowScaling = true;
  /// Sender-side pacing (fq-style, per the DTN tuning guides): spread the
  /// window over the RTT at pacingGain * cwnd/srtt instead of emitting
  /// line-rate bursts. Protects shallow-buffered devices downstream.
  bool pacing = false;
  double pacingGain = 1.25;
  std::uint32_t initialWindowSegments = 10;
  sim::Duration minRto = sim::Duration::milliseconds(200);
  sim::Duration initialRto = sim::Duration::seconds(1);
  sim::Duration maxRto = sim::Duration::seconds(60);

  /// A tuned data transfer node: large buffers, H-TCP.
  static TcpConfig tunedDtn() {
    TcpConfig c;
    c.algorithm = CcAlgorithm::kHtcp;
    c.sndBuf = sim::DataSize::mebibytes(512);
    c.rcvBuf = sim::DataSize::mebibytes(512);
    return c;
  }

  /// An untuned general-purpose host: 64 KiB buffers, no effective scaling
  /// headroom (the pre-autotuning default the paper's Section 6.2 cites).
  static TcpConfig untunedDefault() {
    TcpConfig c;
    c.sndBuf = sim::DataSize::kibibytes(64);
    c.rcvBuf = sim::DataSize::kibibytes(64);
    return c;
  }
};

struct TcpStats {
  std::uint64_t dataSegmentsSent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fastRetransmits = 0;
  std::uint64_t rtos = 0;
  sim::DataSize bytesAcked = sim::DataSize::zero();
};

/// One end of a TCP connection. Create client side via the active-open
/// constructor + start(); server sides are created by TcpListener.
///
/// NOTE: these constructors are internal to the flow seam. Production code
/// creates flows through net::FlowFactory (src/tcp/flow_factory.cpp is the
/// one production call site), which is where fidelity (packet vs fluid),
/// CC algorithm and arena placement are decided. Direct construction is
/// reserved for unit tests exercising TCP internals.
class TcpConnection : public net::PacketSink {
 public:
  /// Active open (client).
  TcpConnection(net::Host& host, net::Address remote, std::uint16_t remotePort, TcpConfig config);
  /// Passive open (server side), constructed by TcpListener from a SYN.
  TcpConnection(net::Host& host, const net::Packet& syn, TcpConfig config);
  /// Snapshot-restore construction (server side): a bare shell with the
  /// given local-perspective flow key and no wire side effects — every
  /// remaining field is overlaid by serialize() in read mode. Used by
  /// TcpListener when re-materializing accepted connections from a blob.
  struct RestoreTag {};
  TcpConnection(net::Host& host, net::FlowKey flow, TcpConfig config, RestoreTag);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Client: begin the handshake.
  void start();

  /// Attach span tracing: this connection emits contiguous TCP-phase child
  /// spans (handshake / slow_start / cwnd_limited / rwnd_limited /
  /// loss_recovery) plus per-episode recovery spans under `parent` (the
  /// flow's root span). Sender-side instrumentation: the factory calls this
  /// on client connections only, before start(). No-op if the tracer is
  /// null or disabled.
  void setTrace(telemetry::Tracer* tracer, telemetry::SpanId parent, int stream);

  /// Queue `bytes` of bulk data for transmission (callable repeatedly).
  void sendData(sim::DataSize bytes);

  /// Half-close after all queued data: sends FIN, peer fires onClosed.
  void close();

  // --- completion callbacks -------------------------------------------
  std::function<void()> onEstablished;
  std::function<void(sim::DataSize)> onDelivered;  ///< Receiver: in-order bytes handed to app.
  std::function<void()> onSendComplete;            ///< Sender: all queued data ACKed.
  std::function<void()> onClosed;                  ///< Receiver: FIN consumed.

  // --- introspection ----------------------------------------------------
  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }
  [[nodiscard]] const net::FlowKey& flow() const { return flow_; }
  [[nodiscard]] const TcpStats& stats() const { return stats_; }
  [[nodiscard]] double cwndBytes() const { return cc_state_.cwnd; }
  [[nodiscard]] sim::Duration srtt() const { return srtt_; }
  [[nodiscard]] bool windowScalingActive() const { return scaling_ok_; }
  [[nodiscard]] std::uint64_t peerWindowBytes() const { return peer_wnd_; }

  /// Snapshot of internal transfer state, for diagnosis tooling and tests.
  struct DebugState {
    std::uint64_t sndUna = 0;
    std::uint64_t sndNxt = 0;
    std::uint64_t sendTarget = 0;
    std::uint64_t rcvNxt = 0;
    bool inRecovery = false;
    int dupAcks = 0;
    bool rtoArmed = false;
    sim::Duration rto = sim::Duration::zero();
  };
  [[nodiscard]] DebugState debugState() const {
    return DebugState{snd_una_, snd_nxt_, send_target_, rcv_nxt_,
                      in_recovery_, dup_acks_, rto_timer_.valid(), rto_};
  }

  /// Receiver-side delivered byte count and average goodput.
  [[nodiscard]] sim::DataSize deliveredBytes() const { return delivered_; }
  [[nodiscard]] sim::DataRate deliveryRate() const;
  /// Sender-side goodput (acked bytes over active sending time).
  [[nodiscard]] sim::DataRate goodput() const;

  /// Entry point for segments (host demux for clients, listener dispatch
  /// for server sides).
  void onPacket(const net::Packet& packet) override;

  /// Snapshot/restore of the full connection state: handshake results, the
  /// window, sender/receiver sequence state, SACK scoreboard, RTO
  /// machinery, stats, CC-internal state, telemetry registration, the
  /// span-trace phase and open span ids (the spans themselves travel in the
  /// snapshot's SPAN overlay), and the pending RTO/pacing timers (re-armed
  /// under their original keys). Returns the number of pending events
  /// claimed.
  std::uint64_t serialize(sim::Codec& c);

 private:
  enum class State { kIdle, kSynSent, kSynReceived, kEstablished, kClosed };

  void sendSyn();
  void sendSynAck();
  void sendAckOnly();
  void sendSegment(std::uint64_t seq, sim::DataSize len, bool fin, bool isRetransmit);
  void trySend();
  /// Paced mode: emit at most one segment, then arm the pacing timer.
  void pacedSend();
  [[nodiscard]] bool sendOneSegment();
  void handleAck(const net::TcpHeader& header);
  void handleData(const net::Packet& packet);
  void enterRecovery();
  void retransmitFrom(std::uint64_t seq);
  /// Merge the ACK's SACK blocks into the scoreboard.
  void absorbSack(const net::TcpHeader& header);
  /// RFC 6675-style recovery step: retransmit un-SACKed holes (and then
  /// new data) while the pipe has room under cwnd.
  void sackRetransmit();
  [[nodiscard]] std::uint64_t sackedBytesInFlight() const;
  /// First un-SACKed byte at or after `point`.
  [[nodiscard]] std::uint64_t nextHole(std::uint64_t point) const;
  void becomeEstablished();
  /// Registers per-flow probes (cwnd/ssthresh/srtt/in-flight), caches the
  /// retransmit/RTO counters and takes the flow's emit point: interned
  /// afresh, or the snapshotted id `point` on restore (the flight-recorder
  /// overlay re-installs the matching intern table). Called on
  /// establishment when telemetry is enabled, and by serialize(); a no-op
  /// once armed (restore-twice into one Context). Samplers are unregistered
  /// in the destructor so a closing connection stops being sampled.
  void initTelemetry(std::optional<std::uint32_t> point = std::nullopt);
  void checkSendComplete();

  /// Span-tracing phase machine (active only when setTrace armed it).
  /// Phases are contiguous: exactly one phase span is open from start()
  /// until destruction, so the critical-path report can attribute the
  /// flow's whole lifetime. Transitions are evaluated at establishment, on
  /// loss (fast retransmit / RTO) and at each new-data ACK.
  enum class TracePhase : std::uint8_t {
    kNone,
    kHandshake,
    kSlowStart,     ///< cwnd < ssthresh, window not receiver-limited.
    kCwndLimited,   ///< congestion avoidance; cwnd is the binding term.
    kRwndLimited,   ///< peer window binds Eq. 2's min(cwnd, rwnd, sndbuf).
    kLossRecovery,  ///< from loss until cwnd regrows to its pre-loss value.
  };
  void traceSetPhase(TracePhase phase, sim::SimTime now);
  [[nodiscard]] TracePhase steadyPhase() const;
  void traceOnAck(sim::SimTime now);

  void sampleRtt(sim::Duration sample);
  void armRto();
  void cancelRto();
  void onRtoFire();
  [[nodiscard]] std::uint64_t effectiveWindow() const;
  [[nodiscard]] std::uint16_t advertisedField() const;
  [[nodiscard]] std::uint64_t sendLimit() const {
    return send_target_ + (fin_pending_ ? 1 : 0);
  }

  net::Host& host_;
  TcpConfig config_;
  net::FlowKey flow_;  ///< Local perspective: src = this host.
  State state_ = State::kIdle;
  bool client_side_ = false;
  bool bound_port_ = false;

  // Congestion control: the algorithm and the window state its hooks adjust
  // in place (cwnd, ssthresh and the connection's only copy of mss).
  std::unique_ptr<CongestionControl> cc_;
  CcState cc_state_;

  // Sender state (byte sequence space; data starts at 0, FIN at target).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t send_target_ = 0;
  bool fin_pending_ = false;
  bool send_complete_notified_ = false;
  std::uint64_t peer_wnd_ = 65535;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  /// SACK scoreboard: received ranges above snd_una_, disjoint, sorted.
  std::map<std::uint64_t, std::uint64_t> sacked_;
  /// Highest sequence retransmitted during this recovery episode.
  std::uint64_t high_rxt_ = 0;
  sim::SimTime first_send_at_;
  sim::SimTime last_ack_at_;
  bool sent_any_ = false;

  // Window scaling negotiation.
  bool scaling_ok_ = false;
  std::uint8_t snd_wscale_ = 0;  ///< Peer's receive-window shift.
  std::uint8_t rcv_wscale_ = 0;  ///< Our receive-window shift.

  // RTO machinery (RFC 6298).
  sim::Duration srtt_ = sim::Duration::zero();
  sim::Duration rttvar_ = sim::Duration::zero();
  bool have_rtt_ = false;
  sim::Duration rto_;
  sim::EventId rto_timer_{};
  sim::EventId pace_timer_{};

  // Receiver state.
  std::uint64_t rcv_nxt_ = 0;
  std::uint64_t ts_recent_ = 0;  ///< tsVal of the segment triggering our next ACK.
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< start -> end, disjoint.
  std::optional<std::uint64_t> fin_seq_;
  sim::DataSize delivered_ = sim::DataSize::zero();
  sim::SimTime first_delivery_at_;
  sim::SimTime last_delivery_at_;
  bool delivered_any_ = false;

  TcpStats stats_;

  // Span tracing (armed by setTrace; null tracer = zero cost).
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::SpanId trace_parent_{};
  int trace_stream_ = 0;
  TracePhase trace_phase_ = TracePhase::kNone;
  telemetry::SpanId phase_span_{};
  telemetry::SpanId episode_span_{};
  /// cwnd at the loss that opened the current loss-recovery phase; the
  /// phase ends when cwnd regrows past it (or the connection dies).
  double loss_cwnd_ref_ = 0.0;

  // Telemetry (armed lazily; zero cost while the hub is disabled).
  bool tel_init_ = false;
  std::uint32_t tel_point_ = 0;
  std::uint64_t* tel_retransmits_ = nullptr;
  std::uint64_t* tel_rtos_ = nullptr;
  std::array<telemetry::SamplerId, 4> tel_samplers_{};
};

/// Listening socket: accepts SYNs on a port, owns the spawned server-side
/// connections, and dispatches subsequent segments to them by flow.
class TcpListener : public net::PacketSink {
 public:
  TcpListener(net::Host& host, std::uint16_t port, TcpConfig config);
  ~TcpListener() override;

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Fired when a new connection completes its handshake.
  std::function<void(TcpConnection&)> onAccept;

  void onPacket(const net::Packet& packet) override;

  [[nodiscard]] std::size_t connectionCount() const { return connections_.size(); }

  /// Accepted connection for a client→server packet flow key, or nullptr.
  /// Flow handles use this after a restore to re-wire per-stream callbacks.
  [[nodiscard]] TcpConnection* find(const net::FlowKey& packetFlow) {
    const auto it = connections_.find(packetFlow);
    return it == connections_.end() ? nullptr : it->second.get();
  }

  /// Snapshot/restore of the accept table. Connections are written in a
  /// deterministic (sorted-key) order; on read the table is rebuilt from
  /// scratch with restore-constructed connections, each overlaid by its own
  /// serialize(). Returns the number of pending events claimed.
  std::uint64_t serialize(sim::Codec& c);

 private:
  net::Host& host_;
  std::uint16_t port_;
  TcpConfig config_;
  /// Server-side connections are arena blocks: accept/teardown churn in
  /// fan-in scenarios recycles Context-arena slabs instead of the heap.
  std::unordered_map<net::FlowKey, sim::ArenaPtr<TcpConnection>, net::FlowKeyHash> connections_;
};

}  // namespace scidmz::tcp
