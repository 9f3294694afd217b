#!/usr/bin/env python3
"""Validate telemetry artifacts against their schemas (stdlib only).

Usage: validate_trace.py FILE [FILE ...]
       validate_trace.py --profile-diff A.json B.json

Dispatch is by content:
  binary starting "scidmz.snap.v1\\n"  -> simulation snapshot blob
                                          (section framing + clock header)
  binary starting "scidmz.frbin.v1\\n" -> binary flight-recorder export
                                          (fully decoded and cross-checked)
  *.jsonl                       -> scidmz.trace.v1 (one flight event per line)
  {"traceEvents": [...], "otherData": {"schema": "scidmz.spans.v2"}}
                                -> causal span trace (scidmz_run --trace),
                                   Chrome trace-event JSON
  {"schema": "scidmz.telemetry.v1"}    -> snapshot
  {"schema": "scidmz.profile.v1"}      -> self-profiler export
                                          (scidmz_run --profile)
  {"schema": "scidmz.bench.table.v1"}  -> bench table
  {"schema": "scidmz.scenario.v2"}     -> declarative scenario spec
  {"schema": "scidmz.scenario.catalog.v1"} -> scidmz_run --dump catalog
                                          (embedded specs validated too)
  {"benchmark": ..., "runs": [...]}    -> BENCH_sim.json sweep report
                                          (embedded telemetry validated too;
                                          spans_emitted cross-checked against
                                          per-cell spans and flows_created)

--profile-diff compares two scidmz.profile.v1 files after discarding the
machine-dependent "host" object: the deterministic remainder (event counts,
source attribution, occupancy, high-water marks) must be identical. CI uses
this to prove profiles agree across SCIDMZ_SWEEP_THREADS settings.

Exits non-zero on the first structural violation, printing file:line context.
Used by the CI telemetry smoke job; handy locally after any bench run.
"""

import json
import re
import sys
import zlib

TRACE_EVENTS = {"enqueue", "dequeue", "drop", "link_loss", "retransmit", "deliver"}
TRACE_PROTOS = {"tcp", "udp", "other"}
IP_RE = re.compile(r"^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}$")


class ValidationError(Exception):
    pass


def fail(where, message):
    raise ValidationError(f"{where}: {message}")


def require(cond, where, message):
    if not cond:
        fail(where, message)


def check_uint(obj, key, where, bits=64):
    require(key in obj, where, f"missing key {key!r}")
    value = obj[key]
    require(isinstance(value, int) and not isinstance(value, bool), where,
            f"{key!r} must be an integer, got {type(value).__name__}")
    require(0 <= value < 2 ** bits, where, f"{key!r}={value} out of range")
    return value


def check_str(obj, key, where):
    require(key in obj, where, f"missing key {key!r}")
    require(isinstance(obj[key], str), where, f"{key!r} must be a string")
    return obj[key]


def validate_trace_line(event, where, prev_t, depths):
    t = check_uint(event, "t_ns", where)
    require(t >= prev_t, where, f"t_ns={t} goes backwards (previous {prev_t})")
    ev = check_str(event, "ev", where)
    require(ev in TRACE_EVENTS, where, f"unknown ev {ev!r}")
    point = check_str(event, "point", where)
    check_uint(event, "pkt", where)
    for key in ("src", "dst"):
        ip = check_str(event, key, where)
        require(IP_RE.match(ip) and all(int(o) < 256 for o in ip.split(".")),
                where, f"{key!r}={ip!r} is not a dotted quad")
    check_uint(event, "sport", where, bits=16)
    check_uint(event, "dport", where, bits=16)
    proto = check_str(event, "proto", where)
    require(proto in TRACE_PROTOS, where, f"unknown proto {proto!r}")
    nbytes = check_uint(event, "bytes", where, bits=32)
    check_uint(event, "seq", where)
    depth = check_uint(event, "depth", where)

    # Per-point queue-depth bookkeeping. enqueue/dequeue record the depth
    # *after* the queue mutated, and a drop at a queue point leaves it
    # unchanged, so consecutive events at one point must chain exactly:
    #   enqueue: depth == prev + bytes
    #   dequeue: depth == prev - bytes
    #   drop:    depth == prev
    # The ring buffer may have overwritten the start of a point's history,
    # so the first enqueue/dequeue seen at a point only seeds its depth;
    # drops at points with no queue history (ACL, TTL, no-route, firewall
    # verdicts) carry depth 0 and are never tracked.
    if ev in ("enqueue", "dequeue"):
        prev_depth = depths.get(point)
        if prev_depth is not None:
            expect = prev_depth + nbytes if ev == "enqueue" else prev_depth - nbytes
            require(expect >= 0, where,
                    f"point {point!r}: dequeue of {nbytes} bytes from depth {prev_depth}")
            require(depth == expect, where,
                    f"point {point!r}: depth {depth} after {ev} of {nbytes} bytes, "
                    f"expected {expect} (previous depth {prev_depth})")
        elif ev == "enqueue":
            require(depth >= nbytes, where,
                    f"point {point!r}: enqueue of {nbytes} bytes reports depth {depth}")
        depths[point] = depth
    elif ev == "drop" and point in depths:
        require(depth == depths[point], where,
                f"point {point!r}: drop changed depth {depths[point]} -> {depth}")
    return t


def validate_trace(path):
    count = 0
    prev_t = 0
    depths = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                fail(where, f"invalid JSON: {err}")
            require(isinstance(event, dict), where, "line is not a JSON object")
            prev_t = validate_trace_line(event, where, prev_t, depths)
            count += 1
    require(count > 0, path, "trace contains no events")
    return (f"scidmz.trace.v1, {count} events, time monotone, "
            f"{len(depths)} queue points depth-consistent")


def check_us(event, key, where):
    """A ts/dur field (microseconds, three decimals) as integer ns."""
    require(key in event, where, f"missing key {key!r}")
    value = event[key]
    require(isinstance(value, (int, float)) and not isinstance(value, bool), where,
            f"{key!r} must be a number")
    require(0 <= value < 4e15, where, f"{key!r}={value} out of range")
    return round(value * 1000)


def validate_span_trace(doc, where):
    """scidmz.spans.v2: a Chrome trace-event document whose "otherData"
    carries the span header; one "X" event per span, in id order, one
    "thread_name" record per root's track."""
    header = doc["otherData"]
    require(header.get("schema") == "scidmz.spans.v2", where,
            f"unknown otherData.schema {header.get('schema')!r}")
    check_uint(header, "cell", where)
    span_total = check_uint(header, "spans", where)
    open_total = check_uint(header, "open", where)
    now_ns = check_uint(header, "now_ns", where)
    events = doc["traceEvents"]
    require(isinstance(events, list) and events, where, "traceEvents must be non-empty")
    named_tracks = set()
    root_tracks = set()
    spans = {}  # span id -> (t0_ns, t1_ns, tid)
    open_count = 0
    for index, event in enumerate(events):
        at = f"{where} (event {index})"
        require(isinstance(event, dict), at, "event is not a JSON object")
        phase = check_str(event, "ph", at)
        tid = check_uint(event, "tid", at)
        args = event.get("args")
        require(isinstance(args, dict), at, "'args' must be an object")
        if phase == "M":
            require(event.get("name") == "thread_name", at, "metadata must be thread_name")
            check_str(args, "name", at)
            require(tid not in named_tracks, at, f"track {tid} named twice")
            named_tracks.add(tid)
            continue
        require(phase == "X", at, f"unexpected ph {phase!r}")
        check_str(event, "name", at)
        check_str(event, "cat", at)
        t0 = check_us(event, "ts", at)
        t1 = t0 + check_us(event, "dur", at)
        span_id = check_uint(args, "span_id", at)
        require(span_id == len(spans) + 1, at,
                f"span_id {span_id} out of sequence (expected {len(spans) + 1})")
        is_open = args.get("open", False)
        require(is_open is True or "open" not in args, at, "'open' may only be true")
        if is_open:
            open_count += 1
            require(t1 == now_ns, at,
                    f"open span must be virtually closed at now_ns={now_ns}, got {t1}")
        if "parent" in args:
            parent = check_uint(args, "parent", at)
            require(1 <= parent < span_id, at,
                    f"parent {parent} does not precede span {span_id}")
            p_t0, p_t1, p_tid = spans[parent]
            # Children nest inside their parent's bounds (open spans compare
            # against the parent's virtual close at now_ns).
            require(p_t0 <= t0 and t1 <= p_t1, at,
                    f"span {span_id} [{t0}, {t1}] escapes parent {parent} [{p_t0}, {p_t1}]")
            require(tid == p_tid, at, f"span {span_id} is on track {tid}, its parent on {p_tid}")
        else:
            require(tid not in root_tracks, at,
                    f"root span {span_id} shares track {tid} with an earlier root")
            root_tracks.add(tid)
        spans[span_id] = (t0, t1, tid)
    for span_id, (_, _, tid) in spans.items():
        require(tid in named_tracks, where, f"track {tid} (span {span_id}) has no thread_name")
    require(len(spans) == span_total, where,
            f"header says {span_total} spans, file has {len(spans)}")
    require(open_count == open_total, where,
            f"header says {open_total} open spans, file has {open_count}")
    return (f"scidmz.spans.v2, {len(spans)} spans ({open_count} open) on "
            f"{len(named_tracks)} tracks, ids dense, children nested within parents")


def validate_profile(doc, where):
    require(doc.get("schema") == "scidmz.profile.v1", where, "wrong schema")
    events = check_uint(doc, "events_profiled", where)
    sources = doc.get("sources")
    require(isinstance(sources, dict), where, "'sources' must be an object")
    counted = 0
    for name, stats in sources.items():
        require(isinstance(stats, dict), where, f"source {name!r} must be an object")
        counted += check_uint(stats, "count", where)
    require(counted == events, where,
            f"source counts sum to {counted}, events_profiled is {events}")
    occupancy = doc.get("occupancy")
    require(isinstance(occupancy, dict), where, "'occupancy' must be an object")
    samples = check_uint(occupancy, "samples", where)
    check_uint(occupancy, "max_pending", where)
    check_uint(occupancy, "max_parked", where)
    log2 = occupancy.get("log2_pending")
    require(isinstance(log2, list), where, "'log2_pending' must be a list")
    require(all(isinstance(b, int) and b >= 0 for b in log2), where,
            "'log2_pending' buckets must be non-negative integers")
    require(sum(log2) == samples, where,
            f"log2_pending buckets sum to {sum(log2)}, samples is {samples}")
    high_water = doc.get("high_water")
    require(isinstance(high_water, dict), where, "'high_water' must be an object")
    for name in high_water:
        check_uint(high_water, name, where)
    host = doc.get("host")
    require(isinstance(host, dict), where, "'host' must be an object")
    host_sources = host.get("sources")
    require(isinstance(host_sources, dict), where, "'host.sources' must be an object")
    require(set(host_sources) == set(sources), where,
            "host.sources does not mirror the deterministic sources")
    for name, stats in host_sources.items():
        check_uint(stats, "total_ns", where)
        latency = stats.get("latency_log2_ns")
        require(isinstance(latency, list), where,
                f"host source {name!r}: 'latency_log2_ns' must be a list")
        require(sum(latency) == sources[name]["count"], where,
                f"host source {name!r}: latency buckets sum to {sum(latency)}, "
                f"count is {sources[name]['count']}")
    return (f"scidmz.profile.v1, {events} events across {len(sources)} sources, "
            f"{samples} occupancy samples, {len(high_water)} high-water marks")


def strip_host(doc):
    return {key: value for key, value in doc.items() if key != "host"}


def profile_diff(path_a, path_b):
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        validate_profile(doc, path)
        docs.append(strip_host(doc))
    if docs[0] != docs[1]:
        keys = [key for key in docs[0]
                if docs[0].get(key) != docs[1].get(key)]
        fail(f"{path_a} vs {path_b}",
             f"deterministic profile fields differ: {', '.join(keys)}")
    return f"{path_a} == {path_b} (ignoring host)"


def validate_snapshot(doc, where):
    require(doc.get("schema") == "scidmz.telemetry.v1", where, "wrong schema")
    for section in ("counters", "gauges", "series"):
        require(isinstance(doc.get(section), dict), where,
                f"{section!r} must be a JSON object")
    names = list(doc["counters"])
    require(names == sorted(names), where, "counters are not sorted by name")
    for name, value in doc["counters"].items():
        require(isinstance(value, int) and value >= 0, where,
                f"counter {name!r} must be a non-negative integer")
    for name, value in doc["gauges"].items():
        require(isinstance(value, (int, float)), where, f"gauge {name!r} must be numeric")
    for name, series in doc["series"].items():
        require(isinstance(series, dict), where, f"series {name!r} must be an object")
        check_uint(series, "samples", where)
        for key in ("first", "last", "min", "max", "mean"):
            require(isinstance(series.get(key), (int, float)), where,
                    f"series {name!r} missing numeric {key!r}")
    flight = doc.get("flight_recorder")
    require(isinstance(flight, dict), where, "missing flight_recorder section")
    recorded = check_uint(flight, "recorded", where)
    retained = check_uint(flight, "retained", where)
    overwritten = check_uint(flight, "overwritten", where)
    require(recorded == retained + overwritten, where,
            f"recorded ({recorded}) != retained ({retained}) + overwritten ({overwritten})")
    return (f"scidmz.telemetry.v1, {len(doc['counters'])} counters, "
            f"{len(doc['series'])} series")


def validate_table(doc, where):
    require(doc.get("schema") == "scidmz.bench.table.v1", where, "wrong schema")
    check_str(doc, "bench", where)
    check_str(doc, "title", where)
    check_str(doc, "paper_ref", where)
    columns = doc.get("columns")
    require(isinstance(columns, list) and columns, where, "columns must be non-empty")
    rows = doc.get("rows")
    require(isinstance(rows, list), where, "rows must be a list")
    for i, row in enumerate(rows):
        require(isinstance(row, list) and len(row) == len(columns), where,
                f"row {i} has {len(row)} cells, expected {len(columns)}")
        for cell in row:
            require(isinstance(cell, (int, float, str)), where,
                    f"row {i} cell {cell!r} is not a number or string")
    require(isinstance(doc.get("notes"), list), where, "notes must be a list")
    return f"scidmz.bench.table.v1, bench {doc['bench']!r}, {len(rows)} rows"


TOPOLOGY_KINDS = {"path", "fanin", "enterprise_edge", "site", "usecase", "ring"}
WORKLOAD_KINDS = {"steady_flow", "converging_flows", "timed_flow", "parallel_transfer",
                  "dtn_transfer", "campaign", "probe", "roce", "background"}
SCENARIO_FAMILIES = {"figure", "arch", "usecase", "ablation", "vc", "scale"}


FLOW_FIDELITIES = {"packet", "fluid"}


def validate_scenario_spec(doc, where):
    schema = doc.get("schema")
    require(schema == "scidmz.scenario.v2", where, "wrong schema")
    check_str(doc, "name", where)
    check_uint(doc, "seed", where)
    require(isinstance(doc.get("telemetry"), bool), where, "'telemetry' must be a boolean")
    topology = doc.get("topology")
    require(isinstance(topology, dict), where, "'topology' must be an object")
    kind = check_str(topology, "kind", where)
    require(kind in TOPOLOGY_KINDS, where, f"unknown topology kind {kind!r}")
    require(kind in topology, where, f"topology is missing its {kind!r} section")
    analysis = doc.get("analysis")
    require(isinstance(analysis, dict), where, "'analysis' must be an object")
    workloads = doc.get("workloads")
    require(isinstance(workloads, list), where, "'workloads' must be a list")
    for i, workload in enumerate(workloads):
        require(isinstance(workload, dict), where, f"workload {i} is not an object")
        wkind = check_str(workload, "kind", where)
        require(wkind in WORKLOAD_KINDS, where,
                f"workload {i}: unknown kind {wkind!r}")
        # Optional fields: per-flow model fidelity, mixed-fidelity fan-in.
        if "fidelity" in workload:
            fidelity = check_str(workload, "fidelity", where)
            require(fidelity in FLOW_FIDELITIES, where,
                    f"workload {i}: unknown fidelity {fidelity!r}")
        if "fluid_flows" in workload:
            require(wkind == "converging_flows", where,
                    f"workload {i}: 'fluid_flows' only applies to converging_flows")
            check_uint(workload, "fluid_flows", where)
    return (f"{schema}, scenario {doc['name']!r}, topology {kind!r}, "
            f"{len(workloads)} workloads")


def validate_scenario_catalog(doc, where):
    require(doc.get("schema") == "scidmz.scenario.catalog.v1", where, "wrong schema")
    scenarios = doc.get("scenarios")
    require(isinstance(scenarios, list) and scenarios, where, "scenarios must be non-empty")
    specs = 0
    for entry in scenarios:
        name = check_str(entry, "name", where)
        family = check_str(entry, "family", where)
        require(family in SCENARIO_FAMILIES, where,
                f"scenario {name!r}: unknown family {family!r}")
        check_str(entry, "title", where)
        check_str(entry, "sweep", where)
        native = entry.get("native")
        require(isinstance(native, bool), where, f"scenario {name!r}: 'native' must be a bool")
        cells = check_uint(entry, "cells", where)
        if native:
            require("specs" not in entry, where,
                    f"native scenario {name!r} must not embed specs")
            continue
        require(isinstance(entry.get("specs"), list), where,
                f"scenario {name!r} is missing its specs")
        require(len(entry["specs"]) == cells, where,
                f"scenario {name!r}: {len(entry['specs'])} specs but cells={cells}")
        for spec in entry["specs"]:
            validate_scenario_spec(spec, f"{where} ({name})")
            specs += 1
    return (f"scidmz.scenario.catalog.v1, {len(scenarios)} scenarios, "
            f"{specs} embedded specs")


def validate_bench_report(doc, where):
    check_str(doc, "benchmark", where)
    runs = doc.get("runs")
    require(isinstance(runs, list) and runs, where, "runs must be non-empty")
    cells_with_telemetry = 0
    for run in runs:
        check_str(run, "name", where)
        cell_stats = run.get("cell_stats")
        require(isinstance(cell_stats, list), where, "missing cell_stats")
        require(len(cell_stats) == run.get("cells"), where,
                f"cell_stats length {len(cell_stats)} != cells {run.get('cells')}")
        cell_flows = 0
        cell_spans = 0
        for cell in cell_stats:
            if "flows" in cell:
                cell_flows += check_uint(cell, "flows", where)
            if "spans" in cell:
                cell_spans += check_uint(cell, "spans", where)
            if "domains" in cell:
                domains = check_uint(cell, "domains", where)
                require(domains >= 1, where,
                        f"run {run['name']!r}: cell domains must be >= 1")
                if "domain_events" in cell:
                    split = cell["domain_events"]
                    require(isinstance(split, list), where,
                            f"run {run['name']!r}: domain_events must be a list")
                    require(len(split) == domains, where,
                            f"run {run['name']!r}: domain_events has {len(split)} "
                            f"entries for {domains} domains")
                    require(all(isinstance(e, int) and e >= 0 for e in split), where,
                            f"run {run['name']!r}: domain_events entries must be "
                            f"non-negative integers")
                    require(sum(split) == cell.get("events"), where,
                            f"run {run['name']!r}: domain_events sums to "
                            f"{sum(split)} but the cell executed {cell.get('events')}")
                    # A sharded cell also splits its host time per domain.
                    for key in ("domain_busy_s", "domain_wait_s"):
                        seconds = cell.get(key)
                        require(isinstance(seconds, list), where,
                                f"run {run['name']!r}: sharded cell without a {key} list")
                        require(len(seconds) == domains, where,
                                f"run {run['name']!r}: {key} has {len(seconds)} "
                                f"entries for {domains} domains")
                        require(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                    and v >= 0 for v in seconds), where,
                                f"run {run['name']!r}: {key} entries must be "
                                f"non-negative numbers")
                else:
                    for key in ("domain_busy_s", "domain_wait_s"):
                        require(key not in cell, where,
                                f"run {run['name']!r}: {key} without domain_events")
            else:
                for key in ("domain_events", "domain_busy_s", "domain_wait_s"):
                    require(key not in cell, where,
                            f"run {run['name']!r}: {key} without domains")
            if "telemetry" in cell:
                validate_snapshot(cell["telemetry"], where)
                cells_with_telemetry += 1
        if "flows_created" in run:
            total = check_uint(run, "flows_created", where)
            require(cell_flows == total, where,
                    f"run {run['name']!r}: flows_created {total} != "
                    f"sum of cell flows {cell_flows}")
            require(isinstance(run.get("flows_per_second"), (int, float)), where,
                    f"run {run['name']!r}: missing numeric flows_per_second")
        if "spans_emitted" in run:
            total_spans = check_uint(run, "spans_emitted", where)
            require(cell_spans == total_spans, where,
                    f"run {run['name']!r}: spans_emitted {total_spans} != "
                    f"sum of cell spans {cell_spans}")
            # Every traced flow opens a root span, so with tracing on the
            # span count bounds the flow count from above.
            if total_spans > 0 and "flows_created" in run:
                require(total_spans >= run["flows_created"], where,
                        f"run {run['name']!r}: {total_spans} spans < "
                        f"{run['flows_created']} flows (each flow opens a root span)")
    return (f"BENCH_sim.json, benchmark {doc['benchmark']!r}, {len(runs)} runs, "
            f"{cells_with_telemetry} instrumented cells")


SNAP_MAGIC = b"scidmz.snap.v1\n"
FRBIN_MAGIC = b"scidmz.frbin.v1\n"
FRBIN_KINDS = 6  # enqueue, dequeue, drop, link_loss, retransmit, deliver


class BlobReader:
    """Byte-aligned reader for the sim::Codec wire format (varints are
    LEB128, signed values zigzag, sections are fourcc + u32le length +
    u32le CRC-32 of the body, as zlib.crc32 computes it)."""

    def __init__(self, data, where):
        self.data = data
        self.pos = 0
        self.where = where

    def take(self, n):
        require(self.pos + n <= len(self.data), self.where,
                f"truncated at byte {self.pos} (need {n} more)")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return int.from_bytes(self.take(4), "little")

    def varint(self):
        out = 0
        for shift in range(0, 70, 7):
            group = self.u8()
            out |= (group & 0x7F) << shift
            if not group & 0x80:
                return out
        fail(self.where, "unterminated varint")

    def zigzag(self):
        z = self.varint()
        return (z >> 1) ^ -(z & 1)

    def string(self):
        return self.take(self.varint()).decode("utf-8", errors="replace")

    def section(self, fourcc):
        got = self.take(4)
        require(got == fourcc, self.where,
                f"expected section {fourcc!r} at byte {self.pos - 4}, got {got!r}")
        length = self.u32()
        crc = self.u32()
        require(self.pos + length <= len(self.data), self.where,
                f"section {fourcc!r} claims {length} bytes, "
                f"only {len(self.data) - self.pos} remain")
        got_crc = zlib.crc32(self.data[self.pos:self.pos + length])
        require(got_crc == crc, self.where,
                f"section {fourcc!r} CRC-32 {got_crc:#010x} != header {crc:#010x}")
        return length


def validate_snap_blob(data, path):
    reader = BlobReader(data[len(SNAP_MAGIC):], path)
    clk_len = reader.section(b"CLK ")
    clk_end = reader.pos + clk_len
    now_ns = reader.zigzag()
    require(now_ns >= 0, path, f"clock now_ns={now_ns} is negative")
    executed = reader.varint()
    next_seq = reader.varint()
    pending = reader.varint()
    daemons = reader.varint()
    require(reader.pos <= clk_end, path, "CLK body overran its declared length")
    require(next_seq >= executed + pending, path,
            f"sequence counter {next_seq} < executed {executed} + pending {pending}")
    require(daemons <= pending, path,
            f"daemon count {daemons} exceeds pending events {pending}")
    reader.pos = clk_end
    body_len = reader.section(b"BODY")
    reader.pos += body_len
    require(reader.pos == len(reader.data), path,
            f"{len(reader.data) - reader.pos} trailing bytes after BODY section")
    return (f"scidmz.snap.v1, t={now_ns} ns, {executed} events executed, "
            f"{pending} pending ({daemons} daemons), BODY {body_len} bytes")


def validate_frbin(data, path):
    reader = BlobReader(data[len(FRBIN_MAGIC):], path)
    pts_len = reader.section(b"PTS ")
    pts_end = reader.pos + pts_len
    n_points = reader.varint()
    points = [reader.string() for _ in range(n_points)]
    require(reader.pos <= pts_end, path, "PTS body overran its declared length")
    reader.pos = pts_end
    evts_len = reader.section(b"EVTS")
    evts_end = reader.pos + evts_len
    n_events = reader.varint()
    prev_ns = 0
    n_flows = 0  # flow tuples are interned in stream order (no dictionary section)
    for i in range(n_events):
        where = f"{path} (event {i})"
        t_ns = prev_ns + reader.zigzag()
        require(t_ns >= prev_ns, where,
                f"t_ns={t_ns} goes backwards (previous {prev_ns})")
        prev_ns = t_ns
        for _ in range(3):   # packetId, aux, aux2
            reader.varint()
        flow_ref = reader.varint()
        require(flow_ref <= n_flows, where,
                f"flow ref {flow_ref} out of range ({n_flows} interned)")
        if flow_ref == n_flows:  # first sighting carries the full 5-tuple
            for _ in range(4):   # src, dst, sport, dport
                reader.varint()
            reader.u8()          # proto
            n_flows += 1
        reader.varint()      # bytes
        point = reader.varint()
        require(point < n_points, where,
                f"point index {point} out of range ({n_points} interned)")
        kind = reader.u8()
        require(kind < FRBIN_KINDS, where, f"unknown event kind {kind}")
    require(reader.pos <= evts_end, path, "EVTS body overran its declared length")
    reader.pos = evts_end
    require(reader.pos == len(reader.data), path,
            f"{len(reader.data) - reader.pos} trailing bytes after EVTS section")
    return (f"scidmz.frbin.v1, {n_events} events over {len(points)} points "
            f"and {n_flows} flows, time monotone, refs in range")


def validate_file(path):
    with open(path, "rb") as handle:
        head = handle.read(max(len(SNAP_MAGIC), len(FRBIN_MAGIC)))
    if head.startswith(SNAP_MAGIC) or head.startswith(FRBIN_MAGIC):
        with open(path, "rb") as handle:
            data = handle.read()
        if head.startswith(SNAP_MAGIC):
            return validate_snap_blob(data, path)
        return validate_frbin(data, path)
    if path.endswith(".jsonl"):
        return validate_trace(path)
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    require(isinstance(doc, dict), path, "top level is not a JSON object")
    if "traceEvents" in doc and isinstance(doc.get("otherData"), dict):
        return validate_span_trace(doc, path)
    schema = doc.get("schema")
    if schema == "scidmz.telemetry.v1":
        return validate_snapshot(doc, path)
    if schema == "scidmz.profile.v1":
        return validate_profile(doc, path)
    if schema == "scidmz.bench.table.v1":
        return validate_table(doc, path)
    if schema == "scidmz.scenario.v2":
        return validate_scenario_spec(doc, path)
    if schema == "scidmz.scenario.catalog.v1":
        return validate_scenario_catalog(doc, path)
    if "benchmark" in doc and "runs" in doc:
        return validate_bench_report(doc, path)
    fail(path, f"unrecognized document (schema={schema!r})")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--profile-diff":
        if len(argv) != 4:
            print("usage: validate_trace.py --profile-diff A.json B.json", file=sys.stderr)
            return 2
        try:
            summary = profile_diff(argv[2], argv[3])
        except ValidationError as err:
            print(f"FAIL {err}", file=sys.stderr)
            return 1
        except OSError as err:
            print(f"FAIL {err}", file=sys.stderr)
            return 1
        print(f"OK   {summary}")
        return 0
    for path in argv[1:]:
        try:
            summary = validate_file(path)
        except ValidationError as err:
            print(f"FAIL {err}", file=sys.stderr)
            return 1
        except OSError as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            return 1
        print(f"OK   {path}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
