// Tests for causal span tracing: tracer lifecycle, parent/child nesting,
// annotations, flight-recorder correlation, both exporters (JSONL and
// Chrome trace), determinism of the serialized form, and the
// FlightRecorder::forEachInWindow helper the correlator rides on.
#include "telemetry/span.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/codec.hpp"
#include "telemetry/flight_recorder.hpp"

namespace scidmz::telemetry {
namespace {

sim::SimTime at(std::int64_t ns) { return sim::SimTime::fromNs(ns); }

/// Tracer is non-copyable; enable in a constructor instead of a factory.
struct TestTracer : Tracer {
  TestTracer() { enable(); }
};

TEST(Tracer, DisabledByDefaultWithoutEnvOrProcessFlag) {
  // Only the process flag (`--trace`) enables tracing; the retired
  // SCIDMZ_TRACE environment variable is not read.
  ::setenv("SCIDMZ_TRACE", "1", 1);
  Tracer t;
  ::unsetenv("SCIDMZ_TRACE");
  EXPECT_FALSE(t.enabled());
}

TEST(Tracer, IdsAreSequentialAndSimTimeOnly) {
  TestTracer t;
  const SpanId a = t.begin(at(100), "a", "flow");
  const SpanId b = t.begin(at(200), "b", "tcp.phase", a);
  EXPECT_EQ(a.value, 1u);
  EXPECT_EQ(b.value, 2u);
  EXPECT_EQ(t.spansEmitted(), 2u);
  EXPECT_EQ(t.openCount(), 2u);
  t.end(b, at(300));
  t.end(a, at(400));
  EXPECT_EQ(t.openCount(), 0u);
  const Tracer::Span* span = t.find(a);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->t0.ns(), 100);
  EXPECT_EQ(span->t1.ns(), 400);
  EXPECT_FALSE(span->open);
}

TEST(Tracer, EndIsIdempotentAndClampsReversedClose) {
  TestTracer t;
  const SpanId a = t.begin(at(500), "a", "flow");
  t.end(a, at(100));  // close before open: clamped to t0
  EXPECT_EQ(t.find(a)->t1.ns(), 500);
  t.end(a, at(900));  // already closed: no-op
  EXPECT_EQ(t.find(a)->t1.ns(), 500);
  t.end(SpanId{}, at(900));     // invalid id: no-op
  t.end(SpanId{99}, at(900));   // unknown id: no-op
}

TEST(Tracer, AnnotateAndBumpKeepInsertionOrder) {
  TestTracer t;
  const SpanId a = t.begin(at(0), "a", "flow");
  t.annotate(a, "fidelity", "packet");
  t.annotate(a, "streams", std::uint64_t{4});
  t.annotate(a, "rate", 2.5);
  t.bump(a, "rtos", 1);
  t.bump(a, "rtos", 2);
  const auto& args = t.find(a)->args;
  ASSERT_EQ(args.size(), 4u);
  EXPECT_EQ(args[0].first, "fidelity");
  EXPECT_EQ(args[0].second, "\"packet\"");
  EXPECT_EQ(args[1].second, "4");
  EXPECT_EQ(args[2].first, "rate");
  EXPECT_EQ(args[3].first, "rtos");
  EXPECT_EQ(args[3].second, "3");
}

TEST(Tracer, CorrelateCountsMatchingFlowEventsInWindow) {
  FlightRecorder rec(16);
  const std::uint32_t point = rec.internPoint("sw0/if0");
  auto record = [&](std::int64_t ns, FlightEventKind kind, std::uint32_t src, std::uint32_t dst,
                    std::uint64_t depth = 0) {
    FlightEvent ev;
    ev.at = at(ns);
    ev.kind = kind;
    ev.flow.src = src;
    ev.flow.dst = dst;
    ev.aux2 = depth;
    ev.point = point;
    rec.record(ev);
  };
  record(50, FlightEventKind::kDrop, 1, 2);        // before window
  record(150, FlightEventKind::kDrop, 1, 2);       // in window, forward
  record(200, FlightEventKind::kLinkLoss, 2, 1);   // in window, reverse
  record(250, FlightEventKind::kRetransmit, 1, 2); // in window
  record(260, FlightEventKind::kEnqueue, 1, 2, 7000);
  record(270, FlightEventKind::kEnqueue, 1, 2, 9000);
  record(280, FlightEventKind::kDrop, 3, 4);       // other flow
  record(900, FlightEventKind::kDrop, 1, 2);       // after window

  TestTracer t;
  const SpanId a = t.begin(at(100), "flow", "flow");
  t.setCorrelationKey(a, 1, 2);
  t.end(a, at(300));
  t.correlate(rec, at(1000));

  const auto& args = t.find(a)->args;
  auto value = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : args) {
      if (k == key) return v;
    }
    return "<missing>";
  };
  EXPECT_EQ(value("fr_drops"), "1");
  EXPECT_EQ(value("fr_link_loss"), "1");
  EXPECT_EQ(value("fr_retransmits"), "1");
  EXPECT_EQ(value("fr_max_queue_bytes"), "9000");

  // Idempotent: a second correlate must not double-count.
  t.correlate(rec, at(1000));
  EXPECT_EQ(value("fr_drops"), "1");
}

TEST(Tracer, ChromeExportClosesOpenSpansVirtually) {
  TestTracer t;
  const SpanId root = t.begin(at(0), "flow a->b", "flow");
  const SpanId child = t.begin(at(10), "handshake", "tcp.phase", root);
  t.end(child, at(40));

  std::ostringstream out;
  t.exportChromeTrace(out, at(100), 3);
  const std::string text = out.str();
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // header, one track name, two spans, close
  EXPECT_EQ(lines[0],
            "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"schema\": \"scidmz.spans.v2\", "
            "\"cell\": 3, \"spans\": 2, \"open\": 1, \"now_ns\": 100}, \"traceEvents\": [");
  EXPECT_NE(lines[2].find("\"ts\": 0.000, \"dur\": 0.100"), std::string::npos);  // closed at now
  EXPECT_NE(lines[2].find("\"args\": {\"span_id\": 1, \"open\": true}"), std::string::npos);
  EXPECT_NE(lines[3].find("\"ts\": 0.010, \"dur\": 0.030"), std::string::npos);
  EXPECT_NE(lines[3].find("\"args\": {\"span_id\": 2, \"parent\": 1}"), std::string::npos);
  EXPECT_EQ(lines[4], "]}");

  // Byte-determinism: exporting the same tracer twice is byte-identical.
  std::ostringstream again;
  t.exportChromeTrace(again, at(100), 3);
  EXPECT_EQ(text, again.str());
}

TEST(Tracer, ChromeTraceGroupsTracksByRootSpan) {
  TestTracer t;
  const SpanId r1 = t.begin(at(0), "flow a->b", "flow");
  const SpanId r2 = t.begin(at(0), "flow c->d", "flow");
  (void)t.begin(at(10), "handshake", "tcp.phase", r1);
  (void)t.begin(at(10), "handshake", "tcp.phase", r2);

  std::ostringstream out;
  t.exportChromeTrace(out, at(1000));
  const std::string text = out.str();
  // Two thread_name metadata records, one per root track.
  std::size_t metas = 0;
  for (std::size_t p = 0; (p = text.find("thread_name", p)) != std::string::npos; ++p) ++metas;
  EXPECT_EQ(metas, 2u);
  // Children inherit their root's tid.
  EXPECT_NE(text.find("\"tid\": 1, \"name\": \"handshake\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\": 2, \"name\": \"handshake\""), std::string::npos);
  // Microsecond timestamps with sub-ns fidelity kept as decimals.
  EXPECT_NE(text.find("\"ts\": 0.010"), std::string::npos);
}

// --- FlightRecorder::forEachInWindow -------------------------------------

FlightEvent eventAt(std::int64_t ns, std::uint64_t id) {
  FlightEvent ev;
  ev.at = at(ns);
  ev.packetId = id;
  return ev;
}

TEST(Tracer, SpanAndArgumentCountsPastTheEndFailWithoutAllocating) {
  for (const std::uint64_t n : {std::uint64_t{1} << 40, (std::uint64_t{1} << 61) + 1,
                                std::numeric_limits<std::uint64_t>::max()}) {
    {  // the span count
      sim::BitWriter w;
      w.writeVarint(n);
      for (int i = 0; i < 8; ++i) w.writeU64(0);
      sim::BitReader r(w.bytes().data(), w.byteSize());
      sim::Codec c(r);
      Tracer tracer;
      tracer.serialize(c);
      EXPECT_TRUE(r.fail()) << n;
      EXPECT_EQ(tracer.spansEmitted(), 0u) << n;
    }
    {  // one empty span, then its argument count
      sim::BitWriter w;
      w.writeVarint(1);
      w.writeString("");  // name
      w.writeString("");  // category
      w.writeVarint(0);   // parent
      w.writeZigzag(0);   // t0
      w.writeZigzag(0);   // t1
      w.writeBool(false);
      w.writeVarint(0);  // correlation source
      w.writeVarint(0);  // correlation destination
      w.writeBool(false);
      w.writeVarint(n);
      for (int i = 0; i < 8; ++i) w.writeU64(0);
      sim::BitReader r(w.bytes().data(), w.byteSize());
      sim::Codec c(r);
      Tracer tracer;
      tracer.serialize(c);
      EXPECT_TRUE(r.fail()) << n;
    }
  }
}

TEST(Tracer, RestoredParentAtOrAfterItsChildIsRefused) {
  // Export chases parents back to a root: a span naming itself (a cycle)
  // or a later span as its parent would loop or read past the table. A
  // root (parent 0) restores.
  for (const std::uint32_t parent : {0u, 1u, 2u, 1000u}) {
    sim::BitWriter w;
    w.writeVarint(1);
    w.writeString("transfer");
    w.writeString("flow");
    w.writeVarint(parent);
    w.writeZigzag(0);
    w.writeZigzag(10);
    w.writeBool(false);
    w.writeVarint(0);
    w.writeVarint(0);
    w.writeBool(false);
    w.writeVarint(0);  // no arguments
    sim::BitReader r(w.bytes().data(), w.byteSize());
    sim::Codec c(r);
    Tracer tracer;
    tracer.serialize(c);
    EXPECT_EQ(r.fail(), parent != 0) << parent;
    EXPECT_EQ(tracer.spansEmitted(), 1u) << parent;
  }
}

TEST(FlightRecorderWindow, SelectsClosedWindowOldestFirst) {
  FlightRecorder rec(8);  // not full: head at 0
  for (std::uint64_t i = 0; i < 5; ++i) rec.record(eventAt(static_cast<std::int64_t>(i) * 100, i));
  std::vector<std::uint64_t> ids;
  rec.forEachInWindow(at(100), at(300), [&](const FlightEvent& e) { ids.push_back(e.packetId); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));  // [t0, t1] inclusive
}

TEST(FlightRecorderWindow, StaysChronologicalAcrossRingWrap) {
  FlightRecorder rec(4);
  // 7 events into a 4-slot ring: retained window is ids 3..6, with the
  // physical ring wrapped (head mid-buffer). Oldest-first must hold.
  for (std::uint64_t i = 0; i < 7; ++i) rec.record(eventAt(static_cast<std::int64_t>(i) * 100, i));
  ASSERT_EQ(rec.overwritten(), 3u);

  std::vector<std::uint64_t> all;
  rec.forEachInWindow(at(0), at(10'000), [&](const FlightEvent& e) { all.push_back(e.packetId); });
  EXPECT_EQ(all, (std::vector<std::uint64_t>{3, 4, 5, 6}));

  std::vector<std::uint64_t> window;
  rec.forEachInWindow(at(400), at(500), [&](const FlightEvent& e) { window.push_back(e.packetId); });
  EXPECT_EQ(window, (std::vector<std::uint64_t>{4, 5}));

  // Window entirely before the retained range: nothing (those events are
  // gone, not resurrected).
  std::vector<std::uint64_t> gone;
  rec.forEachInWindow(at(0), at(250), [&](const FlightEvent& e) { gone.push_back(e.packetId); });
  EXPECT_TRUE(gone.empty());
}

TEST(FlightRecorderWindow, FullAndNonFullAgreeOnSameRetainedEvents) {
  // Same final four events reached two ways — exactly-at-capacity (no wrap)
  // and over-capacity (wrapped) — must iterate identically.
  FlightRecorder exact(4);
  for (std::uint64_t i = 3; i < 7; ++i) {
    exact.record(eventAt(static_cast<std::int64_t>(i) * 100, i));
  }
  FlightRecorder wrapped(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    wrapped.record(eventAt(static_cast<std::int64_t>(i) * 100, i));
  }
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  exact.forEachInWindow(at(300), at(600), [&](const FlightEvent& e) { a.push_back(e.packetId); });
  wrapped.forEachInWindow(at(300), at(600), [&](const FlightEvent& e) { b.push_back(e.packetId); });
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::vector<std::uint64_t>{3, 4, 5, 6}));
}

}  // namespace
}  // namespace scidmz::telemetry
