"""Spans recorded around the library's public entry points.

The benchmark wraps each layer's entry points from its own files: the
library itself is not instrumented.  A span is ``[name, start_ns,
end_ns, parent, request, attrs]``; spans stay in memory and are written
out as JSON lines when the run ends.  ``perf_counter_ns`` reads the
system-wide monotonic clock on Linux, so spans of the decode server's
process line up with the client's.
"""

from __future__ import annotations

import json
import resource
import threading
import time

import numpy as np

from repro.channel import ChannelFrontend
from repro.decoder import LayeredDecoder
from repro.encoder import SystematicQCEncoder
from repro.encoder.nr import NRSystematicEncoder
from repro.link import Link
from repro.nr import HarqSession
from repro.server import protocol
from repro.service import DecodeService, PlanCache

from perfbench.common import fingerprint, row_fingerprints

now_ns = time.perf_counter_ns


class Recorder:
    """Thread-safe in-memory span store with a per-thread parent stack."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, span: list) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def begin(self, name: str) -> int:
        """Open a span nested under this thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = self._add([name, now_ns(), None, parent, None, {}])
        stack.append(index)
        return index

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[2] = now_ns()
        span[5].update(attrs)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def detached(self, name: str, start_ns: int, **attrs) -> int:
        """A span another thread ends (a request resolved by a worker)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        return self._add([name, start_ns, None, parent, None, attrs])

    def finish(self, index: int) -> None:
        self.spans[index][2] = now_ns()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load(path) -> list:
    with open(path, encoding="utf-8") as source:
        return [json.loads(line) for line in source if line.strip()]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, owner, name: str, factory) -> None:
        original = getattr(owner, name)
        own = name in vars(owner)
        setattr(owner, name, factory(original))
        self._undo.append((owner, name, original, own))

    def restore(self) -> None:
        while self._undo:
            owner, name, original, own = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _timed(recorder: Recorder, name: str, attrs_of=None):
    """Factory for a plain span around one function."""

    def factory(original):
        def wrapper(*args, **kwargs):
            index = recorder.begin(name)
            try:
                out = original(*args, **kwargs)
            except BaseException:
                recorder.end(index, error=True)
                raise
            recorder.end(index, **(attrs_of(args, out) if attrs_of else {}))
            return out

        return wrapper

    return factory


def install(recorder: Recorder, patches: Patches, *, rows: bool) -> None:
    """Wrap every layer's entry points on this side of the wire.

    ``rows=True`` fingerprints decoder and service inputs row by row so
    a decode call can be matched to the requests it carried.
    """
    wire_ids: dict = {}
    last_wire = threading.local()

    patches.wrap(PlanCache, "get", _timed(recorder, "plan_cache.get"))
    for encoder_cls in (SystematicQCEncoder, NRSystematicEncoder):
        patches.wrap(
            encoder_cls,
            "random_codewords",
            _timed(
                recorder,
                "encoder.random_codewords",
                lambda args, out: {"frames": int(out[1].shape[0])},
            ),
        )
    patches.wrap(
        ChannelFrontend,
        "run",
        _timed(
            recorder,
            "channel.run",
            lambda args, out: {"frames": int(np.atleast_2d(out).shape[0])},
        ),
    )
    patches.wrap(Link, "sweep", _timed(recorder, "link.sweep"))

    def decode_factory(original):
        def decode(self, channel_llr):
            attrs = {}
            if rows:
                attrs["rows"] = row_fingerprints(channel_llr)
            faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            index = recorder.begin("decoder.decode")
            try:
                result = original(self, channel_llr)
            except BaseException:
                recorder.end(index, error=True)
                raise
            faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults
            recorder.end(
                index,
                frames=int(result.bits.shape[0]),
                iterations=int(np.sum(result.iterations)),
                edges=int(self.code.num_edges),
                fixed=bool(self.config.is_fixed_point),
                minor_faults=int(faults),
                **attrs,
            )
            return result

        return decode

    patches.wrap(LayeredDecoder, "decode", decode_factory)

    def submit_factory(original):
        def submit(self, mode, llr, *args, **kwargs):
            start = now_ns()
            attrs = {"mode": str(mode)}
            if rows:
                attrs["rows"] = row_fingerprints(llr)
            carried = wire_ids.pop(id(llr), None)
            if carried is not None:
                attrs["wire"] = carried[1]
            future = original(self, mode, llr, *args, **kwargs)
            index = recorder.detached("service.submit", start, **attrs)
            future.add_done_callback(lambda _f, i=index: recorder.finish(i))
            return future

        return submit

    patches.wrap(DecodeService, "submit", submit_factory)
    patches.wrap(HarqSession, "push", _timed(recorder, "harq.push"))

    def condition_factory(original):
        def decoder_llrs(self):
            index = recorder.begin("harq.condition")
            out = original(self)
            recorder.end(index)
            wire = getattr(last_wire, "fp", None)
            if wire is not None:
                # Server side: the combined buffer, not the parsed
                # payload, is what reaches DecodeService.submit.
                wire_ids[id(out)] = (out, wire)
            return out

        return decoder_llrs

    patches.wrap(HarqSession, "decoder_llrs", condition_factory)

    def encode_request_factory(original):
        def encode_request(request_id, mode, llr, *args, **kwargs):
            wire = fingerprint(llr)
            index = recorder.begin("protocol.encode_request")
            frame = original(request_id, mode, llr, *args, **kwargs)
            recorder.end(index, bytes=len(frame), wire=wire)
            return frame

        return encode_request

    def parse_request_factory(original):
        def parse_request(header, payload):
            wire = fingerprint(np.frombuffer(payload, dtype=np.uint8))
            index = recorder.begin("protocol.parse_request")
            parsed = original(header, payload)
            recorder.end(index, wire=wire)
            wire_ids[id(parsed[2])] = (parsed[2], wire)
            last_wire.fp = wire
            return parsed

        return parse_request

    def encode_result_factory(original):
        def encode_result(request_id, result):
            index = recorder.begin("protocol.encode_result")
            frame = original(request_id, result)
            recorder.end(index, bytes=len(frame))
            return frame

        return encode_result

    patches.wrap(protocol, "encode_request", encode_request_factory)
    patches.wrap(protocol, "parse_result", _timed(recorder, "protocol.parse_result"))
    patches.wrap(protocol, "parse_request", parse_request_factory)
    patches.wrap(protocol, "encode_result", encode_result_factory)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------
#: name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.plan_compile_ms": "ms",
    "encoder.us_per_frame": "us",
    "channel.us_per_frame": "us",
    "engine.overhead_share": "fraction",
    "decoder.ns_per_edge_iter.fixed": "ns",
    "decoder.ns_per_edge_iter.float": "ns",
    "decoder.iterations_per_frame": "count",
    "decoder.minor_faults_per_call": "count",
    "decoder.ms_per_call": "ms",
    "service.batch_frames_mean": "frames",
    "service.deadline_flush_share": "fraction",
    "service.queue_wait_ms_p50": "ms",
    "service.deliver_ms_p50": "ms",
    "nr.combine_us_per_tx": "us",
    "nr.transmissions_per_block": "count",
    "protocol.encode_request_us": "us",
    "protocol.parse_result_us": "us",
    "protocol.encode_result_us": "us",
    "wire.bytes_per_frame": "bytes",
    "server.overhead_ms_p50": "ms",
}


def _dur(span) -> float:
    return (span[2] - span[1]) * 1e-9


def _mean_us(spans, name) -> float:
    picked = [_dur(s) for s in spans if s[0] == name]
    return 1e6 * float(np.mean(picked)) if picked else 0.0


def _per_frame_us(spans, name) -> float:
    picked = [s for s in spans if s[0] == name]
    frames = sum(s[5].get("frames", 0) for s in picked)
    return 1e6 * sum(_dur(s) for s in picked) / frames if frames else 0.0


def layer_metrics(
    spans: list,
    window: tuple,
    setup: dict,
    max_batch: "int | None" = None,
    requests: "list | None" = None,
    server_spans: "list | None" = None,
) -> dict:
    """Every per-layer metric of one run; 0 where a layer is off the path.

    ``spans`` come from the benchmark process, ``server_spans`` from the
    decode server's.  Only spans that start inside ``window`` (the timed
    phase, in ns) count, except encoder and channel spans, which in the
    serving mixes run while the inputs are generated.  ``requests`` is
    the load generator's record of the mix: ``(request_span,
    block_uid_or_None)`` pairs.  ``setup`` carries the set-up probe
    figures.
    """
    lo, hi = window
    server_spans = server_spans or []

    def in_window(span) -> bool:
        return span[2] is not None and lo <= span[1] <= hi

    timed = [s for s in spans + server_spans if in_window(s)]
    values = {
        "setup.import_s": setup["import_s"],
        "setup.plan_compile_ms": setup["plan_compile_ms"],
        "encoder.us_per_frame": _per_frame_us(spans, "encoder.random_codewords"),
        "channel.us_per_frame": _per_frame_us(spans, "channel.run"),
    }

    sweeps = [
        i for i, s in enumerate(spans) if s[0] == "link.sweep" and in_window(s)
    ]
    inner = {"encoder.random_codewords", "channel.run", "decoder.decode"}
    sweep_time = sum(_dur(spans[i]) for i in sweeps)
    sweep_set = set(sweeps)
    child_time = sum(
        _dur(s) for s in spans if s[3] in sweep_set and s[0] in inner
    )
    values["engine.overhead_share"] = (
        (sweep_time - child_time) / sweep_time if sweep_time else 0.0
    )

    submits = [s for s in timed if s[0] == "service.submit"]
    by_row = {}
    for s in submits:
        for fp in s[5].get("rows", ()):
            by_row[fp] = s
    # Only the program's decode calls count: those carrying a served
    # request, or made by a sweep; not the benchmark's reference checks.
    decodes = [
        s for s in timed
        if s[0] == "decoder.decode"
        and (
            any(fp in by_row for fp in s[5].get("rows", ()))
            if submits
            else s[3] in sweep_set
        )
    ]
    for datapath, fixed in (("fixed", True), ("float", False)):
        picked = [s for s in decodes if s[5]["fixed"] == fixed]
        work = sum(s[5]["edges"] * s[5]["iterations"] for s in picked)
        values[f"decoder.ns_per_edge_iter.{datapath}"] = (
            1e9 * sum(_dur(s) for s in picked) / work if work else 0.0
        )
    frames = sum(s[5]["frames"] for s in decodes)
    values["decoder.iterations_per_frame"] = (
        sum(s[5]["iterations"] for s in decodes) / frames if frames else 0.0
    )
    values["decoder.minor_faults_per_call"] = (
        float(np.mean([s[5]["minor_faults"] for s in decodes])) if decodes else 0.0
    )
    values["decoder.ms_per_call"] = (
        1e3 * float(np.median([_dur(s) for s in decodes])) if decodes else 0.0
    )

    waits, delivers = [], []
    for s in decodes if submits else ():
        for fp in s[5]["rows"]:
            owner = by_row.get(fp)
            if owner is not None:
                waits.append((s[1] - owner[1]) * 1e-6)
                delivers.append((owner[2] - s[2]) * 1e-6)
    values["service.batch_frames_mean"] = (
        frames / len(decodes) if submits and decodes else 0.0
    )
    values["service.deadline_flush_share"] = (
        sum(1 for s in decodes if s[5]["frames"] < max_batch) / len(decodes)
        if submits and decodes and max_batch
        else 0.0
    )
    values["service.queue_wait_ms_p50"] = float(np.median(waits)) if waits else 0.0
    values["service.deliver_ms_p50"] = float(np.median(delivers)) if delivers else 0.0

    pushes = [s for s in timed if s[0] == "harq.push"]
    combine = sum(_dur(s) for s in timed if s[0] in ("harq.push", "harq.condition"))
    values["nr.combine_us_per_tx"] = 1e6 * combine / len(pushes) if pushes else 0.0
    blocks = [uid for _, uid in requests or () if uid is not None]
    values["nr.transmissions_per_block"] = (
        len(blocks) / len(set(blocks)) if blocks else 0.0
    )

    values["protocol.encode_request_us"] = _mean_us(timed, "protocol.encode_request")
    values["protocol.parse_result_us"] = _mean_us(timed, "protocol.parse_result")
    values["protocol.encode_result_us"] = _mean_us(timed, "protocol.encode_result")
    sent = [s for s in timed if s[0] == "protocol.encode_request"]
    answered = [s for s in timed if s[0] == "protocol.encode_result"]
    wire_bytes = sum(s[5]["bytes"] for s in sent + answered)
    values["wire.bytes_per_frame"] = wire_bytes / len(sent) if sent else 0.0

    served = {
        s[5]["wire"]: s
        for s in server_spans
        if s[0] == "service.submit" and "wire" in s[5] and s[2] is not None
    }
    overheads = [
        (_dur(span) - _dur(served[span[5]["wire"]])) * 1e3
        for span, _ in requests or ()
        if span[5].get("wire") in served
    ]
    values["server.overhead_ms_p50"] = float(np.median(overheads)) if overheads else 0.0
    return values
