#include "tcp/connection.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "net/codec.hpp"
#include "net/trace.hpp"

namespace scidmz::tcp {

namespace {

/// Smallest shift s in [0, 14] such that (buf >> s) fits the 16-bit field.
std::uint8_t scaleFor(sim::DataSize rcvBuf) {
  std::uint8_t s = 0;
  std::uint64_t win = rcvBuf.byteCount();
  while (s < 14 && (win >> s) > 65535) ++s;
  return s;
}

/// Disjoint sorted sequence-range map (SACK scoreboard, reassembly buffer).
void codecSeqMap(sim::Codec& c, std::map<std::uint64_t, std::uint64_t>& m) {
  if (c.writing()) {
    std::uint64_t n = m.size();
    c.vu64(n);
    for (auto& [start, end] : m) {
      std::uint64_t s = start;
      std::uint64_t e = end;
      c.vu64(s);
      c.vu64(e);
    }
  } else {
    m.clear();
    std::uint64_t n = 0;
    c.vu64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t s = 0;
      std::uint64_t e = 0;
      c.vu64(s);
      c.vu64(e);
      m.emplace(s, e);
    }
  }
}

[[nodiscard]] auto flowKeyTuple(const net::FlowKey& k) {
  return std::make_tuple(k.src.value(), k.dst.value(), k.srcPort, k.dstPort,
                         static_cast<int>(k.proto));
}

}  // namespace

TcpConnection::TcpConnection(net::Host& host, net::Address remote, std::uint16_t remotePort,
                             TcpConfig config)
    : host_(host),
      config_(config),
      rto_(config.initialRto) {
  client_side_ = true;
  flow_ = net::FlowKey{host_.address(), remote, host_.allocatePort(), remotePort,
                       net::Protocol::kTcp};
  host_.bind(net::Protocol::kTcp, flow_.srcPort, *this);
  bound_port_ = true;
  cc_ = makeCongestionControl(config_.algorithm);
  cc_state_.mss = host_.mss();
  cc_state_.cwnd = static_cast<double>(cc_state_.mss.byteCount()) * config_.initialWindowSegments;
  cc_state_.ssthresh = 1e18;
  rcv_wscale_ = config_.windowScaling ? scaleFor(config_.rcvBuf) : 0;
}

TcpConnection::TcpConnection(net::Host& host, const net::Packet& syn, TcpConfig config)
    : host_(host),
      config_(config),
      rto_(config.initialRto) {
  client_side_ = false;
  flow_ = syn.flow.reversed();
  cc_ = makeCongestionControl(config_.algorithm);
  cc_state_.mss = host_.mss();
  cc_state_.cwnd = static_cast<double>(cc_state_.mss.byteCount()) * config_.initialWindowSegments;
  cc_state_.ssthresh = 1e18;

  const auto& header = syn.tcp();
  if (header.windowScalePresent && config_.windowScaling) {
    scaling_ok_ = true;
    snd_wscale_ = header.windowScale;
    rcv_wscale_ = scaleFor(config_.rcvBuf);
  } else {
    scaling_ok_ = false;
    snd_wscale_ = 0;
    rcv_wscale_ = 0;
  }
  peer_wnd_ = header.windowField;  // SYN windows are never scaled
  state_ = State::kSynReceived;
  sendSynAck();
  armRto();
}

TcpConnection::TcpConnection(net::Host& host, net::FlowKey flow, TcpConfig config, RestoreTag)
    : host_(host),
      config_(config),
      rto_(config.initialRto) {
  client_side_ = false;
  flow_ = flow;
  cc_ = makeCongestionControl(config_.algorithm);
  cc_state_.mss = host_.mss();
}

TcpConnection::~TcpConnection() {
  if (tracer_ != nullptr) {
    const auto now = host_.ctx().now();
    if (episode_span_.valid()) tracer_->end(episode_span_, now);
    if (phase_span_.valid()) tracer_->end(phase_span_, now);
  }
  cancelRto();
  if (pace_timer_.valid()) {
    host_.ctx().sim().cancel(pace_timer_);
    pace_timer_ = sim::EventId{};
  }
  if (tel_init_) {
    auto& tel = host_.ctx().telemetry();
    for (const auto id : tel_samplers_) tel.removeSampler(id);
  }
  if (bound_port_) host_.unbind(net::Protocol::kTcp, flow_.srcPort);
}

void TcpConnection::start() {
  if (tracer_ != nullptr) traceSetPhase(TracePhase::kHandshake, host_.ctx().now());
  state_ = State::kSynSent;
  sendSyn();
  armRto();
}

void TcpConnection::setTrace(telemetry::Tracer* tracer, telemetry::SpanId parent, int stream) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  trace_parent_ = parent;
  trace_stream_ = stream;
}

void TcpConnection::traceSetPhase(TracePhase phase, sim::SimTime now) {
  if (phase == trace_phase_) return;
  if (phase_span_.valid()) tracer_->end(phase_span_, now);
  trace_phase_ = phase;
  phase_span_ = telemetry::SpanId{};
  const char* name = nullptr;
  switch (phase) {
    case TracePhase::kNone: return;
    case TracePhase::kHandshake: name = "handshake"; break;
    case TracePhase::kSlowStart: name = "slow_start"; break;
    case TracePhase::kCwndLimited: name = "cwnd_limited"; break;
    case TracePhase::kRwndLimited: name = "rwnd_limited"; break;
    case TracePhase::kLossRecovery: name = "loss_recovery"; break;
  }
  phase_span_ = tracer_->begin(now, name, "tcp.phase", trace_parent_);
  tracer_->annotate(phase_span_, "stream", static_cast<std::uint64_t>(trace_stream_));
}

TcpConnection::TracePhase TcpConnection::steadyPhase() const {
  // Loss recovery is sticky: it runs from the loss until cwnd regrows to
  // its pre-loss reference, so the phase covers the whole AIMD sawtooth
  // valley (on a chronically lossy path cwnd never gets back and the
  // entire stretch is attributed to loss recovery — the paper's point).
  if (trace_phase_ == TracePhase::kLossRecovery &&
      (in_recovery_ || cc_state_.cwnd < loss_cwnd_ref_)) {
    return TracePhase::kLossRecovery;
  }
  // Eq. 2: the window is min(cwnd, peer rwnd, sndbuf); the binding term
  // names the phase.
  const auto cwnd = static_cast<std::uint64_t>(std::max(cc_state_.cwnd, 0.0));
  if (peer_wnd_ < std::min(cwnd, config_.sndBuf.byteCount())) return TracePhase::kRwndLimited;
  if (cc_state_.cwnd < cc_state_.ssthresh) return TracePhase::kSlowStart;
  return TracePhase::kCwndLimited;
}

void TcpConnection::traceOnAck(sim::SimTime now) {
  if (episode_span_.valid() && !in_recovery_) {
    tracer_->end(episode_span_, now);
    episode_span_ = telemetry::SpanId{};
  }
  traceSetPhase(steadyPhase(), now);
}

void TcpConnection::sendData(sim::DataSize bytes) {
  send_target_ += bytes.byteCount();
  send_complete_notified_ = false;
  trySend();
}

void TcpConnection::close() {
  fin_pending_ = true;
  trySend();
}

sim::DataRate TcpConnection::deliveryRate() const {
  if (!delivered_any_) return sim::DataRate::zero();
  const auto span = last_delivery_at_ - first_delivery_at_;
  if (span <= sim::Duration::zero()) return sim::DataRate::zero();
  return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(
      static_cast<double>(delivered_.bitCount()) / span.toSeconds()));
}

sim::DataRate TcpConnection::goodput() const {
  if (!sent_any_) return sim::DataRate::zero();
  const auto span = last_ack_at_ - first_send_at_;
  if (span <= sim::Duration::zero()) return sim::DataRate::zero();
  return sim::DataRate::bitsPerSecond(static_cast<std::uint64_t>(
      static_cast<double>(stats_.bytesAcked.bitCount()) / span.toSeconds()));
}

// ---------------------------------------------------------------------------
// Segment construction

std::uint16_t TcpConnection::advertisedField() const {
  const std::uint64_t cap = std::uint64_t{65535} << rcv_wscale_;
  const std::uint64_t win = std::min(config_.rcvBuf.byteCount(), cap);
  return static_cast<std::uint16_t>(std::min<std::uint64_t>(win >> rcv_wscale_, 65535));
}

void TcpConnection::sendSyn() {
  net::TcpHeader header;
  header.syn = true;
  header.windowField = static_cast<std::uint16_t>(
      std::min<std::uint64_t>(config_.rcvBuf.byteCount(), 65535));
  if (config_.windowScaling) {
    header.windowScalePresent = true;
    header.windowScale = rcv_wscale_;
  }
  host_.send(net::makeTcpPacket(host_.ctx().pool(), flow_, header, sim::DataSize::zero()));
}

void TcpConnection::sendSynAck() {
  net::TcpHeader header;
  header.syn = true;
  header.ack = true;
  header.ackNo = 0;
  header.windowField = static_cast<std::uint16_t>(
      std::min<std::uint64_t>(config_.rcvBuf.byteCount(), 65535));
  if (scaling_ok_) {
    header.windowScalePresent = true;
    header.windowScale = rcv_wscale_;
  }
  host_.send(net::makeTcpPacket(host_.ctx().pool(), flow_, header, sim::DataSize::zero()));
}

void TcpConnection::sendAckOnly() {
  net::TcpHeader header;
  header.ack = true;
  header.ackNo = rcv_nxt_;
  header.windowField = advertisedField();
  header.tsVal = static_cast<std::uint64_t>(host_.ctx().now().ns());
  header.tsEcho = ts_recent_;
  // Up to three most-recent blocks, highest first (RFC 2018 spirit); a
  // block beyond 32-bit offsets of ackNo is not sent.
  for (auto it = ooo_.rbegin(); it != ooo_.rend() && header.sackCount < 3; ++it) {
    header.addSack(it->first, it->second);
  }
  host_.send(net::makeTcpPacket(host_.ctx().pool(), flow_, header, sim::DataSize::zero()));
}

void TcpConnection::sendSegment(std::uint64_t seq, sim::DataSize len, bool fin,
                                bool isRetransmit) {
  net::TcpHeader header;
  header.seq = seq;
  header.ack = true;
  header.fin = fin;
  header.ackNo = rcv_nxt_;
  header.windowField = advertisedField();
  header.tsVal = static_cast<std::uint64_t>(host_.ctx().now().ns());
  header.tsEcho = ts_recent_;
  host_.send(net::makeTcpPacket(host_.ctx().pool(), flow_, header, len));
  ++stats_.dataSegmentsSent;
  if (isRetransmit) {
    ++stats_.retransmits;
    auto& tel = host_.ctx().telemetry();
    if (tel.enabled()) {
      if (!tel_init_) initTelemetry();
      ++*tel_retransmits_;
      telemetry::FlightEvent ev;
      ev.at = host_.ctx().now();
      ev.kind = telemetry::FlightEventKind::kRetransmit;
      ev.point = tel_point_;
      ev.aux = seq;
      ev.flow = net::toFlowRef(flow_);
      ev.bytes = static_cast<std::uint32_t>((len + net::kTcpIpHeaderBytes).byteCount());
      tel.recorder().record(ev);
    }
  }
  if (!sent_any_) {
    sent_any_ = true;
    first_send_at_ = host_.ctx().now();
  }
}

// ---------------------------------------------------------------------------
// Sending

std::uint64_t TcpConnection::effectiveWindow() const {
  const auto cwnd = static_cast<std::uint64_t>(std::max(cc_state_.cwnd, 0.0));
  return std::min({cwnd, peer_wnd_, config_.sndBuf.byteCount()});
}

bool TcpConnection::sendOneSegment() {
  const std::uint64_t limit = sendLimit();
  const std::uint64_t window = effectiveWindow();
  const std::uint64_t mss = cc_state_.mss.byteCount();
  if (snd_nxt_ >= limit || snd_nxt_ - snd_una_ >= window) return false;
  if (snd_nxt_ == send_target_) {
    // All data queued so far is out; emit the FIN (occupies one seq).
    sendSegment(snd_nxt_, sim::DataSize::zero(), /*fin=*/true, /*isRetransmit=*/false);
    snd_nxt_ += 1;
  } else {
    const std::uint64_t len = std::min(mss, send_target_ - snd_nxt_);
    sendSegment(snd_nxt_, sim::DataSize::bytes(len), /*fin=*/false, /*isRetransmit=*/false);
    snd_nxt_ += len;
  }
  return true;
}

void TcpConnection::trySend() {
  if (state_ != State::kEstablished) return;
  if (config_.pacing && have_rtt_) {
    pacedSend();
    return;
  }
  while (sendOneSegment()) {
  }
  if (snd_nxt_ > snd_una_ && !rto_timer_.valid()) armRto();
}

void TcpConnection::pacedSend() {
  if (pace_timer_.valid()) return;  // the next emission is already scheduled
  if (!sendOneSegment()) {
    if (snd_nxt_ > snd_una_ && !rto_timer_.valid()) armRto();
    return;
  }
  if (snd_nxt_ > snd_una_ && !rto_timer_.valid()) armRto();
  // Inter-segment gap: spread cwnd over the smoothed RTT, sped up by the
  // pacing gain so the window can still grow.
  const double rateBps =
      std::max(config_.pacingGain * cc_state_.cwnd * 8.0 / std::max(srtt_.toSeconds(), 1e-6),
               8.0 * 1460.0);
  const double gapSecs =
      static_cast<double>(cc_state_.mss.byteCount()) * 8.0 / rateBps;
  pace_timer_ = host_.ctx().sim().schedule(sim::Duration::fromSeconds(gapSecs), [this] {
    pace_timer_ = sim::EventId{};
    if (state_ == State::kEstablished) pacedSend();
  });
}

void TcpConnection::retransmitFrom(std::uint64_t seq) {
  const std::uint64_t mss = cc_state_.mss.byteCount();
  if (fin_pending_ && seq == send_target_) {
    sendSegment(seq, sim::DataSize::zero(), /*fin=*/true, /*isRetransmit=*/true);
    return;
  }
  const std::uint64_t len = std::min(mss, send_target_ - seq);
  sendSegment(seq, sim::DataSize::bytes(len), /*fin=*/false, /*isRetransmit=*/true);
}

// ---------------------------------------------------------------------------
// Receiving

void TcpConnection::onPacket(const net::Packet& packet) {
  if (!packet.isTcp()) return;
  const auto& header = packet.tcp();
  const auto now = host_.ctx().now();

  // Handshake transitions.
  if (state_ == State::kSynSent) {
    if (header.syn && header.ack) {
      if (header.windowScalePresent && config_.windowScaling) {
        scaling_ok_ = true;
        snd_wscale_ = header.windowScale;
      } else {
        scaling_ok_ = false;
        snd_wscale_ = 0;
        rcv_wscale_ = 0;  // RFC 1323: both sides or neither
      }
      peer_wnd_ = header.windowField;  // SYN-ACK window unscaled
      cancelRto();
      becomeEstablished();
      sendAckOnly();
      trySend();
    }
    return;
  }
  if (state_ == State::kSynReceived) {
    if (header.syn && !header.ack) {
      sendSynAck();  // our SYN-ACK was lost
      return;
    }
    if (header.ack && !header.syn) {
      cancelRto();
      becomeEstablished();
      // Fall through: this segment may carry data.
    } else {
      return;
    }
  }
  if (state_ == State::kIdle) return;

  // Duplicate SYN-ACK after establishment: our handshake ACK was lost.
  if (header.syn && header.ack && state_ == State::kEstablished) {
    sendAckOnly();
    return;
  }

  if (header.ack) {
    peer_wnd_ = static_cast<std::uint64_t>(header.windowField) << snd_wscale_;
    last_ack_at_ = now;
    handleAck(header);
  }
  if (packet.payload > sim::DataSize::zero() || header.fin) {
    handleData(packet);
  }
}

void TcpConnection::becomeEstablished() {
  if (state_ == State::kEstablished) return;
  state_ = State::kEstablished;
  if (host_.ctx().telemetry().enabled() && !tel_init_) initTelemetry();
  if (tracer_ != nullptr) traceSetPhase(steadyPhase(), host_.ctx().now());
  if (onEstablished) onEstablished();
}

void TcpConnection::initTelemetry(std::optional<std::uint32_t> point) {
  if (tel_init_) return;  // restore-twice: samplers already registered
  auto& tel = host_.ctx().telemetry();
  const std::string base = "tcp/" + flow_.toString();
  tel_point_ = point ? *point : tel.recorder().internPoint("tcp:" + flow_.toString());
  tel_retransmits_ = &tel.metrics().counter(base + "/retransmits");
  tel_rtos_ = &tel.metrics().counter(base + "/rtos");
  tel_samplers_[0] = tel.addSampler(base + "/cwnd_bytes", [this] { return cc_state_.cwnd; });
  tel_samplers_[1] =
      tel.addSampler(base + "/ssthresh_bytes", [this] { return cc_state_.ssthresh; });
  tel_samplers_[2] = tel.addSampler(base + "/srtt_ms", [this] { return srtt_.toMillis(); });
  tel_samplers_[3] = tel.addSampler(base + "/inflight_bytes", [this] {
    return snd_nxt_ >= snd_una_ ? static_cast<double>(snd_nxt_ - snd_una_) : 0.0;
  });
  tel_init_ = true;
}

void TcpConnection::handleAck(const net::TcpHeader& header) {
  const auto now = host_.ctx().now();

  // Timestamp-echo RTT sample (valid on new and duplicate ACKs alike).
  if (header.tsEcho != 0) {
    const auto sentAt = sim::SimTime::fromNs(static_cast<std::int64_t>(header.tsEcho));
    if (sentAt <= now) sampleRtt(now - sentAt);
  }

  absorbSack(header);

  if (header.ackNo > snd_una_) {
    const std::uint64_t acked = header.ackNo - snd_una_;
    snd_una_ = header.ackNo;
    // After a go-back-N RTO reset, ACKs for the original flight can race
    // past the rewound snd_nxt; never let the send point fall behind the
    // cumulative ACK or the unsigned in-flight arithmetic underflows.
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    stats_.bytesAcked += sim::DataSize::bytes(acked);


    if (in_recovery_) {
      if (header.ackNo >= recover_) {
        // Recovery complete: resume congestion avoidance from ssthresh.
        in_recovery_ = false;
        dup_acks_ = 0;
        high_rxt_ = 0;
        cc_state_.cwnd = cc_state_.ssthresh;
      } else {
        // Partial ACK: keep repairing holes, SACK-guided, pipe-limited.
        sackRetransmit();
      }
    } else {
      dup_acks_ = 0;
      cc_->onAckedBytes(cc_state_, acked, srtt_, now);
    }

    cancelRto();
    if (snd_nxt_ > snd_una_) armRto();
    trySend();
    checkSendComplete();
    if (tracer_ != nullptr) traceOnAck(now);
    return;
  }

  // Duplicate ACK (only meaningful while data is outstanding).
  if (snd_nxt_ > snd_una_ && header.ackNo == snd_una_) {
    if (in_recovery_) {
      sackRetransmit();
    } else if (++dup_acks_ == 3) {
      enterRecovery();
    }
  }
}

void TcpConnection::absorbSack(const net::TcpHeader& header) {
  for (std::uint8_t i = 0; i < header.sackCount; ++i) {
    std::uint64_t start = header.sackStart(i);
    std::uint64_t end = header.sackEnd(i);
    if (end <= start || end <= snd_una_) continue;
    start = std::max(start, snd_una_);
    // Merge [start, end) into the scoreboard.
    auto it = sacked_.lower_bound(start);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = sacked_.erase(prev);
      }
    }
    while (it != sacked_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = sacked_.erase(it);
    }
    sacked_.emplace(start, end);
  }
  // Drop ranges the cumulative ACK has passed.
  while (!sacked_.empty() && sacked_.begin()->second <= snd_una_) {
    sacked_.erase(sacked_.begin());
  }
  if (!sacked_.empty() && sacked_.begin()->first < snd_una_) {
    auto node = sacked_.extract(sacked_.begin());
    if (node.mapped() > snd_una_) sacked_.emplace(snd_una_, node.mapped());
  }
}

std::uint64_t TcpConnection::sackedBytesInFlight() const {
  std::uint64_t total = 0;
  for (const auto& [start, end] : sacked_) {
    const auto hi = std::min(end, snd_nxt_);
    if (hi > start) total += hi - start;
  }
  return total;
}

std::uint64_t TcpConnection::nextHole(std::uint64_t point) const {
  for (const auto& [start, end] : sacked_) {
    if (point < start) return point;
    if (point < end) point = end;
  }
  return point;
}

void TcpConnection::sackRetransmit() {
  const std::uint64_t mss = cc_state_.mss.byteCount();
  const auto cwnd = static_cast<std::uint64_t>(std::max(cc_state_.cwnd, 0.0));
  const std::uint64_t highestSack = sacked_.empty() ? snd_una_ : sacked_.rbegin()->second;
  // Conservative pipe estimate: outstanding minus what SACK confirms
  // arrived. (Lost-but-unretransmitted bytes still count, which only makes
  // us less aggressive.)
  std::uint64_t outstanding = snd_nxt_ - snd_una_;
  std::uint64_t pipe = outstanding - std::min(outstanding, sackedBytesInFlight());

  int budget = 64;  // hard bound on work per ACK
  while (pipe + mss <= cwnd && budget-- > 0) {
    std::uint64_t point = nextHole(std::max(snd_una_, high_rxt_));
    if (point < highestSack && point < snd_nxt_) {
      retransmitFrom(point);
      high_rxt_ = point + mss;
      pipe += mss;
      continue;
    }
    // No known holes left: grow with new data if the window allows.
    if (!sendOneSegment()) break;
    pipe += mss;
  }
  if (snd_nxt_ > snd_una_ && !rto_timer_.valid()) armRto();
}

void TcpConnection::enterRecovery() {
  const auto now = host_.ctx().now();
  if (tracer_ != nullptr) {
    // Pre-loss cwnd, captured before the CC reaction halves it.
    if (trace_phase_ != TracePhase::kLossRecovery) loss_cwnd_ref_ = cc_state_.cwnd;
    traceSetPhase(TracePhase::kLossRecovery, now);
    if (!episode_span_.valid()) {
      episode_span_ = tracer_->begin(now, "fast_retransmit", "tcp.recovery", trace_parent_);
      tracer_->annotate(episode_span_, "stream", static_cast<std::uint64_t>(trace_stream_));
      tracer_->annotate(episode_span_, "cwnd_at_loss", cc_state_.cwnd);
    }
  }
  recover_ = snd_nxt_;
  cc_->onPacketLoss(cc_state_, now);
  cc_state_.cwnd = cc_state_.ssthresh;
  in_recovery_ = true;
  high_rxt_ = 0;
  ++stats_.fastRetransmits;
  retransmitFrom(snd_una_);
  high_rxt_ = snd_una_ + cc_state_.mss.byteCount();
  sackRetransmit();
}

void TcpConnection::handleData(const net::Packet& packet) {
  const auto& header = packet.tcp();
  const auto now = host_.ctx().now();
  const std::uint64_t len = packet.payload.byteCount();
  const std::uint64_t seq = header.seq;

  // RFC 7323 (simplified): echo the timestamp of the segment that triggers
  // this ACK. Valid for in-order, out-of-order and duplicate arrivals
  // alike, so RTT samples stay honest through loss recovery.
  if (header.tsVal != 0) ts_recent_ = header.tsVal;

  if (header.fin) {
    if (len == 0 && seq == rcv_nxt_) {
      // In-order pure FIN.
      rcv_nxt_ += 1;
      sendAckOnly();
      if (state_ != State::kClosed) {
        state_ = State::kClosed;
        if (onClosed) onClosed();
      }
      return;
    }
    if (seq >= rcv_nxt_) fin_seq_ = seq;  // FIN beyond a hole; consume later
    // else: duplicate FIN; fall through to re-ACK below.
  }

  std::uint64_t advance = 0;
  if (len > 0) {
    if (seq == rcv_nxt_) {
      rcv_nxt_ += len;
      advance += len;
      // Absorb any now-contiguous out-of-order blocks.
      auto it = ooo_.begin();
      while (it != ooo_.end() && it->first <= rcv_nxt_) {
        if (it->second > rcv_nxt_) {
          advance += it->second - rcv_nxt_;
          rcv_nxt_ = it->second;
        }
        it = ooo_.erase(it);
      }
    } else if (seq > rcv_nxt_) {
      // Store [seq, seq+len), merging overlaps.
      std::uint64_t start = seq;
      std::uint64_t end = seq + len;
      auto it = ooo_.lower_bound(start);
      if (it != ooo_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= start) {
          start = prev->first;
          end = std::max(end, prev->second);
          it = ooo_.erase(prev);
        }
      }
      while (it != ooo_.end() && it->first <= end) {
        end = std::max(end, it->second);
        it = ooo_.erase(it);
      }
      ooo_.emplace(start, end);
    }
    // else: fully duplicate segment; just re-ACK.
  }

  if (advance > 0) {
    const auto bytes = sim::DataSize::bytes(advance);
    delivered_ += bytes;
    if (!delivered_any_) {
      delivered_any_ = true;
      first_delivery_at_ = now;
    }
    last_delivery_at_ = now;
    if (onDelivered) onDelivered(bytes);
  }

  // Deferred FIN: all data before it has now arrived.
  if (fin_seq_ && *fin_seq_ == rcv_nxt_) {
    rcv_nxt_ += 1;
    fin_seq_.reset();
    sendAckOnly();
    if (state_ != State::kClosed) {
      state_ = State::kClosed;
      if (onClosed) onClosed();
    }
    return;
  }

  sendAckOnly();
}

void TcpConnection::checkSendComplete() {
  if (send_target_ > 0 && snd_una_ >= send_target_ && !send_complete_notified_) {
    send_complete_notified_ = true;
    if (onSendComplete) onSendComplete();
  }
}

// ---------------------------------------------------------------------------
// Timers

void TcpConnection::sampleRtt(sim::Duration sample) {
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sim::Duration::nanoseconds(sample.ns() / 2);
    have_rtt_ = true;
  } else {
    const double s = sample.toSeconds();
    const double smoothed = srtt_.toSeconds();
    const double var = rttvar_.toSeconds();
    const double newVar = 0.75 * var + 0.25 * std::abs(smoothed - s);
    const double newSrtt = 0.875 * smoothed + 0.125 * s;
    srtt_ = sim::Duration::fromSeconds(newSrtt);
    rttvar_ = sim::Duration::fromSeconds(newVar);
  }
  cc_->onRttSample(sample);
  const auto candidate =
      sim::Duration::fromSeconds(srtt_.toSeconds() + std::max(4.0 * rttvar_.toSeconds(), 1e-3));
  rto_ = std::clamp(candidate, config_.minRto, config_.maxRto);
}

void TcpConnection::armRto() {
  cancelRto();
  rto_timer_ = host_.ctx().sim().schedule(rto_, [this] {
    rto_timer_ = sim::EventId{};
    onRtoFire();
  });
}

void TcpConnection::cancelRto() {
  if (rto_timer_.valid()) {
    host_.ctx().sim().cancel(rto_timer_);
    rto_timer_ = sim::EventId{};
  }
}

void TcpConnection::onRtoFire() {
  rto_ = std::min(rto_ * 2, config_.maxRto);

  if (state_ == State::kSynSent) {
    sendSyn();
    armRto();
    return;
  }
  if (state_ == State::kSynReceived) {
    sendSynAck();
    armRto();
    return;
  }
  if (snd_nxt_ <= snd_una_) return;  // nothing outstanding

  ++stats_.rtos;
  {
    auto& tel = host_.ctx().telemetry();
    if (tel.enabled()) {
      if (!tel_init_) initTelemetry();
      ++*tel_rtos_;
    }
  }
  if (tracer_ != nullptr) {
    const auto now = host_.ctx().now();
    if (trace_phase_ != TracePhase::kLossRecovery) loss_cwnd_ref_ = cc_state_.cwnd;
    traceSetPhase(TracePhase::kLossRecovery, now);
    if (!episode_span_.valid()) {
      episode_span_ = tracer_->begin(now, "rto", "tcp.recovery", trace_parent_);
      tracer_->annotate(episode_span_, "stream", static_cast<std::uint64_t>(trace_stream_));
    } else {
      tracer_->bump(episode_span_, "rtos", 1);
    }
  }
  cc_->onRto(cc_state_, host_.ctx().now());
  in_recovery_ = false;
  dup_acks_ = 0;
  sacked_.clear();
  high_rxt_ = 0;
  snd_nxt_ = snd_una_;  // go-back-N from the last cumulative ACK
  trySend();
  if (!rto_timer_.valid()) armRto();
}

// ---------------------------------------------------------------------------
// Snapshot/restore

std::uint64_t TcpConnection::serialize(sim::Codec& c) {
  std::uint64_t claimed = 0;
  std::uint8_t state = static_cast<std::uint8_t>(state_);
  c.u8(state);
  if (!c.writing()) state_ = static_cast<State>(state);
  c.b(scaling_ok_);
  c.u8(snd_wscale_);
  c.u8(rcv_wscale_);

  // Window and per-ACK sequence state.
  c.f64(cc_state_.cwnd);
  c.f64(cc_state_.ssthresh);
  std::int64_t srtt_ns = srtt_.ns();
  c.vint(srtt_ns);
  if (!c.writing()) srtt_ = sim::Duration::nanoseconds(srtt_ns);
  c.vu64(snd_una_);
  c.vu64(snd_nxt_);

  // Sender state.
  c.vu64(send_target_);
  c.b(fin_pending_);
  c.b(send_complete_notified_);
  c.vu64(peer_wnd_);
  c.vint(dup_acks_);
  c.b(in_recovery_);
  c.vu64(recover_);
  c.vu64(high_rxt_);
  codecSeqMap(c, sacked_);
  sim::codecTime(c, first_send_at_);
  sim::codecTime(c, last_ack_at_);
  c.b(sent_any_);

  // RTO machinery.
  sim::codecDuration(c, rttvar_);
  c.b(have_rtt_);
  sim::codecDuration(c, rto_);

  // Receiver state.
  c.vu64(rcv_nxt_);
  c.vu64(ts_recent_);
  codecSeqMap(c, ooo_);
  bool hasFin = fin_seq_.has_value();
  c.b(hasFin);
  std::uint64_t finSeq = hasFin ? *fin_seq_ : 0;
  c.vu64(finSeq);
  if (!c.writing()) {
    fin_seq_.reset();
    if (hasFin) fin_seq_ = finSeq;
  }
  sim::codecSize(c, delivered_);
  sim::codecTime(c, first_delivery_at_);
  sim::codecTime(c, last_delivery_at_);
  c.b(delivered_any_);

  c.vu64(stats_.dataSegmentsSent);
  c.vu64(stats_.retransmits);
  c.vu64(stats_.fastRetransmits);
  c.vu64(stats_.rtos);
  sim::codecSize(c, stats_.bytesAcked);

  cc_->serializeState(c);

  // Telemetry registration: a restored established connection must resume
  // per-tick sampling immediately, under the snapshot's emit-point id (the
  // flight-recorder overlay re-installs the matching intern table).
  bool telInit = tel_init_;
  c.b(telInit);
  std::uint32_t telPoint = tel_point_;
  c.vu32(telPoint);
  if (!c.writing() && telInit && host_.ctx().telemetry().enabled()) {
    initTelemetry(telPoint);
  }

  // Span-trace machine. The ids index the tracer's span table, which the
  // snapshot's SPAN overlay replaces wholesale after the TCP section, so
  // restored ids land on exactly the spans they named when saved. A blob
  // traced into an untraced rebuild leaves tracer_ null (spans drop); the
  // ids stay parked and every emit site guards on tracer_.
  bool traced = tracer_ != nullptr;
  c.b(traced);
  std::uint8_t tracePhase = static_cast<std::uint8_t>(trace_phase_);
  c.u8(tracePhase);
  c.vu32(trace_parent_.value);
  c.vint(trace_stream_);
  c.vu32(phase_span_.value);
  c.vu32(episode_span_.value);
  c.f64(loss_cwnd_ref_);
  if (!c.writing()) {
    trace_phase_ = static_cast<TracePhase>(tracePhase);
    if (traced) {
      telemetry::Tracer& tracer = host_.ctx().extension<telemetry::Tracer>();
      tracer_ = tracer.enabled() ? &tracer : nullptr;
    }
  }

  // Pending timers, re-armed under their original keys.
  claimed += sim::codecTimer(c, host_.ctx().sim(), rto_timer_, [this] {
    rto_timer_ = sim::EventId{};
    onRtoFire();
  });
  claimed += sim::codecTimer(c, host_.ctx().sim(), pace_timer_, [this] {
    pace_timer_ = sim::EventId{};
    if (state_ == State::kEstablished) pacedSend();
  });
  return claimed;
}

std::uint64_t TcpListener::serialize(sim::Codec& c) {
  std::uint64_t claimed = 0;
  if (c.writing()) {
    std::vector<std::pair<net::FlowKey, TcpConnection*>> sorted;
    sorted.reserve(connections_.size());
    for (auto& [key, conn] : connections_) sorted.emplace_back(key, conn.get());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return flowKeyTuple(a.first) < flowKeyTuple(b.first);
    });
    std::uint64_t n = sorted.size();
    c.vu64(n);
    for (auto& [key, conn] : sorted) {
      net::FlowKey k = key;
      net::codecFlowKey(c, k);
      claimed += conn->serialize(c);
    }
  } else {
    connections_.clear();  // restore-twice: drop previously restored shells
    std::uint64_t n = 0;
    c.vu64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      net::FlowKey key{};
      net::codecFlowKey(c, key);
      auto conn = host_.ctx().arena().make<TcpConnection>(
          host_, key.reversed(), config_, TcpConnection::RestoreTag{});
      auto& ref = *conn;
      ref.onEstablished = [this, &ref] {
        if (onAccept) onAccept(ref);
      };
      claimed += ref.serialize(c);
      connections_.emplace(key, std::move(conn));
    }
  }
  return claimed;
}

// ---------------------------------------------------------------------------
// Listener

TcpListener::TcpListener(net::Host& host, std::uint16_t port, TcpConfig config)
    : host_(host), port_(port), config_(config) {
  host_.bind(net::Protocol::kTcp, port_, *this);
}

TcpListener::~TcpListener() { host_.unbind(net::Protocol::kTcp, port_); }

void TcpListener::onPacket(const net::Packet& packet) {
  if (!packet.isTcp()) return;
  const auto key = packet.flow;
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    const auto& header = packet.tcp();
    if (!(header.syn && !header.ack)) return;  // stray segment
    auto conn = host_.ctx().arena().make<TcpConnection>(host_, packet, config_);
    auto& ref = *conn;
    ref.onEstablished = [this, &ref] {
      if (onAccept) onAccept(ref);
    };
    connections_.emplace(key, std::move(conn));
    return;
  }
  it->second->onPacket(packet);
}

}  // namespace scidmz::tcp
