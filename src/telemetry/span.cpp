#include "telemetry/span.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "sim/json_escape.hpp"

namespace scidmz::telemetry {

namespace {

bool g_process_tracing = false;

std::string jsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  sim::appendJsonEscaped(out, s);
  out.push_back('"');
  return out;
}

std::string jsonNumber(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string jsonNumber(double v) {
  // %.17g round-trips doubles and is locale-independent for the values we
  // emit (the C locale is never changed by the simulator).
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void setProcessTracingEnabled(bool enabled) { g_process_tracing = enabled; }

Tracer::Tracer() : enabled_(g_process_tracing) {}

SpanId Tracer::begin(sim::SimTime at, std::string name, std::string category, SpanId parent) {
  Span span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.parent = parent.value <= spans_.size() ? parent.value : 0;
  span.t0 = at;
  span.t1 = at;
  spans_.push_back(std::move(span));
  ++open_count_;
  return SpanId{static_cast<std::uint32_t>(spans_.size())};
}

void Tracer::end(SpanId id, sim::SimTime at) {
  Span* span = mutableSpan(id);
  if (span == nullptr || !span->open) return;
  span->t1 = at < span->t0 ? span->t0 : at;
  span->open = false;
  --open_count_;
}

bool Tracer::isOpen(SpanId id) const {
  const Span* span = find(id);
  return span != nullptr && span->open;
}

void Tracer::annotate(SpanId id, std::string_view key, std::string_view value) {
  Span* span = mutableSpan(id);
  if (span != nullptr) span->args.emplace_back(std::string(key), jsonString(value));
}

void Tracer::annotate(SpanId id, std::string_view key, std::uint64_t value) {
  Span* span = mutableSpan(id);
  if (span != nullptr) span->args.emplace_back(std::string(key), jsonNumber(value));
}

void Tracer::annotate(SpanId id, std::string_view key, double value) {
  Span* span = mutableSpan(id);
  if (span != nullptr) span->args.emplace_back(std::string(key), jsonNumber(value));
}

void Tracer::bump(SpanId id, std::string_view key, std::uint64_t delta) {
  Span* span = mutableSpan(id);
  if (span == nullptr) return;
  for (auto& [k, v] : span->args) {
    if (k == key) {
      v = jsonNumber(static_cast<std::uint64_t>(std::strtoull(v.c_str(), nullptr, 10)) + delta);
      return;
    }
  }
  span->args.emplace_back(std::string(key), jsonNumber(delta));
}

void Tracer::setCorrelationKey(SpanId id, std::uint32_t srcAddr, std::uint32_t dstAddr) {
  Span* span = mutableSpan(id);
  if (span == nullptr) return;
  span->corrSrc = srcAddr;
  span->corrDst = dstAddr;
}

void Tracer::correlate(const FlightRecorder& recorder, sim::SimTime now) {
  correlate(std::vector<const FlightRecorder*>{&recorder}, now);
}

void Tracer::correlate(const std::vector<const FlightRecorder*>& recorders, sim::SimTime now) {
  for (auto& span : spans_) {
    if (span.correlated || (span.corrSrc == 0 && span.corrDst == 0)) continue;
    span.correlated = true;
    const sim::SimTime t1 = span.open ? now : span.t1;
    std::uint64_t drops = 0;
    std::uint64_t linkLoss = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t maxDepth = 0;
    for (const FlightRecorder* recorder : recorders) {
      recorder->forEachInWindow(span.t0, t1, [&](const FlightEvent& ev) {
        const bool fwd = ev.flow.src == span.corrSrc && ev.flow.dst == span.corrDst;
        const bool rev = ev.flow.src == span.corrDst && ev.flow.dst == span.corrSrc;
        if (!fwd && !rev) return;
        switch (ev.kind) {
          case FlightEventKind::kDrop: ++drops; break;
          case FlightEventKind::kLinkLoss: ++linkLoss; break;
          case FlightEventKind::kRetransmit: ++retransmits; break;
          case FlightEventKind::kEnqueue:
            if (ev.aux2 > maxDepth) maxDepth = ev.aux2;
            break;
          default: break;
        }
      });
    }
    span.args.emplace_back("fr_drops", jsonNumber(drops));
    span.args.emplace_back("fr_link_loss", jsonNumber(linkLoss));
    span.args.emplace_back("fr_retransmits", jsonNumber(retransmits));
    span.args.emplace_back("fr_max_queue_bytes", jsonNumber(maxDepth));
  }
}

void Tracer::mergeFrom(const std::vector<const Tracer*>& parts) {
  spans_.clear();
  open_count_ = 0;

  // Gather every root with a sort key; subtrees stay in creation order and
  // follow their root, so only roots need a canonical order.
  struct RootRef {
    std::size_t part = 0;
    std::size_t index = 0;
    const Span* span = nullptr;
  };
  std::vector<RootRef> roots;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const auto& src = parts[p]->spans_;
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (src[i].parent == 0) roots.push_back(RootRef{p, i, &src[i]});
    }
  }
  const auto argsKey = [](const Span& s) {
    std::string key;
    for (const auto& [k, v] : s.args) {
      key += k;
      key += '=';
      key += v;
      key += ';';
    }
    return key;
  };
  std::stable_sort(roots.begin(), roots.end(), [&](const RootRef& a, const RootRef& b) {
    if (a.span->t0 != b.span->t0) return a.span->t0 < b.span->t0;
    if (a.span->name != b.span->name) return a.span->name < b.span->name;
    const std::string ka = argsKey(*a.span);
    const std::string kb = argsKey(*b.span);
    if (ka != kb) return ka < kb;
    if (a.span->corrSrc != b.span->corrSrc) return a.span->corrSrc < b.span->corrSrc;
    return a.span->corrDst < b.span->corrDst;
  });

  // Emit each root followed by its descendants (a span's root is found by
  // chasing parents — parents always precede children in creation order).
  for (const RootRef& root : roots) {
    const auto& src = parts[root.part]->spans_;
    std::vector<std::uint32_t> remap(src.size(), 0);  // old index+1 -> new id
    const auto rootIndexOf = [&src](std::size_t i) {
      while (src[i].parent != 0) i = src[i].parent - 1;
      return i;
    };
    for (std::size_t i = root.index; i < src.size(); ++i) {
      if (rootIndexOf(i) != root.index) continue;
      Span copy = src[i];
      copy.parent = copy.parent == 0 ? 0 : remap[copy.parent - 1];
      remap[i] = static_cast<std::uint32_t>(spans_.size() + 1);
      if (copy.open) ++open_count_;
      spans_.push_back(std::move(copy));
    }
  }
}

void Tracer::serialize(sim::Codec& c) {
  // A span is at least its two names' one-byte lengths, six one-byte
  // varints and two flag bits; an argument, its key's and value's lengths.
  std::uint64_t count = spans_.size();
  c.count(count, 66);
  if (!c.writing()) {
    spans_.clear();
    spans_.resize(count);
    open_count_ = 0;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    Span& s = spans_[i];
    c.str(s.name);
    c.str(s.category);
    c.vu32(s.parent);
    // A parent precedes its child (rootOf chases parents back to a root),
    // so span i + 1 may name only spans 1..i.
    if (!c.writing() && s.parent > i) {
      c.reader().markFailed();
      s.parent = 0;
    }
    sim::codecTime(c, s.t0);
    sim::codecTime(c, s.t1);
    c.b(s.open);
    c.vu32(s.corrSrc);
    c.vu32(s.corrDst);
    c.b(s.correlated);
    std::uint64_t nargs = s.args.size();
    c.count(nargs, 16);
    if (!c.writing()) s.args.resize(nargs);
    for (auto& [k, v] : s.args) {
      c.str(k);
      c.str(v);
    }
    if (!c.writing() && s.open) ++open_count_;
  }
}

const Tracer::Span* Tracer::find(SpanId id) const {
  if (id.value == 0 || id.value > spans_.size()) return nullptr;
  return &spans_[id.value - 1];
}

Tracer::Span* Tracer::mutableSpan(SpanId id) {
  if (id.value == 0 || id.value > spans_.size()) return nullptr;
  return &spans_[id.value - 1];
}

std::size_t Tracer::rootOf(std::size_t i) const {
  while (spans_[i].parent != 0) i = spans_[i].parent - 1;
  return i;
}

void Tracer::exportChromeTrace(std::ostream& out, sim::SimTime now, std::size_t cell) const {
  // Chrome trace-event "X" (complete) events: ts/dur are microseconds, as
  // doubles, relative to simulation start. pid 1; each root span gets its
  // own tid (track) named after the root, so a flow and all its phases
  // stack on one Perfetto track. Perfetto ignores "otherData".
  std::string line = "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"schema\": ";
  line += jsonString(kSpanTraceSchema);
  line += ", \"cell\": ";
  line += jsonNumber(static_cast<std::uint64_t>(cell));
  line += ", \"spans\": ";
  line += jsonNumber(static_cast<std::uint64_t>(spans_.size()));
  line += ", \"open\": ";
  line += jsonNumber(static_cast<std::uint64_t>(open_count_));
  line += ", \"now_ns\": ";
  line += jsonNumber(static_cast<std::uint64_t>(now.ns()));
  line += "}, \"traceEvents\": [\n";
  out << line;
  char buf[64];
  // One metadata record per root span, in first-appearance order.
  std::vector<std::uint32_t> rootTid(spans_.size(), 0);
  std::uint32_t nextTid = 0;
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::size_t root = rootOf(i);
    if (i == root) {
      rootTid[i] = ++nextTid;
      line.clear();
      line += first ? "" : ",\n";
      first = false;
      line += "{\"ph\": \"M\", \"pid\": 1, \"tid\": ";
      line += jsonNumber(static_cast<std::uint64_t>(rootTid[i]));
      line += ", \"name\": \"thread_name\", \"args\": {\"name\": ";
      line += jsonString(spans_[i].name);
      line += "}}";
      out << line;
    } else {
      rootTid[i] = rootTid[root];
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const sim::SimTime t1 = s.open ? now : s.t1;
    line.clear();
    line += first ? "" : ",\n";
    first = false;
    line += "{\"ph\": \"X\", \"pid\": 1, \"tid\": ";
    line += jsonNumber(static_cast<std::uint64_t>(rootTid[i]));
    line += ", \"name\": ";
    line += jsonString(s.name);
    line += ", \"cat\": ";
    line += jsonString(s.category);
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.t0.ns()) / 1000.0,
                  static_cast<double>((t1 - s.t0).ns()) / 1000.0);
    line += buf;
    line += ", \"args\": {\"span_id\": ";
    line += jsonNumber(static_cast<std::uint64_t>(i + 1));
    if (s.parent != 0) {
      line += ", \"parent\": ";
      line += jsonNumber(static_cast<std::uint64_t>(s.parent));
    }
    if (s.open) line += ", \"open\": true";
    for (const auto& [k, v] : s.args) {
      line += ", ";
      line += jsonString(k);
      line += ": ";
      line += v;
    }
    line += "}}";
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace scidmz::telemetry
