#!/usr/bin/env python3
"""Benchmark of the repro LDPC decoder library, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload waterfall --seed 1 --seconds 20 --trace 0

Workloads: ``waterfall``, ``inproc_mix`` and ``wire_mix`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps every layer's entry points and reports the
per-layer metrics instead.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries reference figures under ``info``.  The library is
imported from ``src/`` next to this directory and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("waterfall", "inproc_mix", "wire_mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child-process roles.
    parser.add_argument("--setup-probe", choices=WORKLOADS[:2], help=argparse.SUPPRESS)
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.setup_probe or args.serve):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> float:
    """Import repro from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found at {src / 'repro'}")
    sys.path[:0] = [str(src), str(ROOT)]
    start = time.perf_counter()
    import repro

    import_s = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return import_s


def setup_probe(workload: str, import_s: float) -> int:
    """Child role: get one workload ready, report, exit."""
    service = None
    if workload == "waterfall":
        from perfbench.waterfall import prepare

        compile_ms = prepare()
    else:
        from perfbench.mixes import prepare_inproc

        service, _, compile_ms = prepare_inproc()
    print(json.dumps({"import_s": import_s, "plan_compile_ms": compile_ms}), flush=True)
    if service is not None:
        service.close()
    return 0


def failure_summary(problems: list) -> dict:
    """The most common failure reasons, for the info line."""
    return dict(Counter(p for found in problems for p in found).most_common(5))


def bench(args) -> int:
    from perfbench import mixes, waterfall
    from perfbench.common import OUT_DIR, emit, metric, numpy_loop_ms
    from perfbench.spans import LAYER_UNITS, Recorder, layer_metrics

    OUT_DIR.mkdir(exist_ok=True)
    numpy_before = numpy_loop_ms()
    recorder = Recorder() if args.trace else None
    stem = f"{args.workload}-{args.seed}"
    if args.workload == "waterfall":
        run = waterfall.run(args.seed, args.seconds, recorder)
    elif args.workload == "inproc_mix":
        run = mixes.run_inproc(args.seed, args.seconds, recorder)
    else:
        run = mixes.run_wire(
            args.seed, args.seconds, recorder, OUT_DIR / f"server-spans-{stem}.jsonl"
        )

    units = {
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "fixed_mbps": "Mbps",
        "float_mbps": "Mbps",
        "latency_p50_ms": "ms",
        "latency_tail_ms": "ms",
    }
    end_to_end = {name: metric(run.values[name], unit) for name, unit in units.items()}
    info = dict(
        run.info,
        workload=args.workload,
        seed=args.seed,
        numpy_loop_ms=[numpy_before, numpy_loop_ms()],
        setup=run.setup,
        failures=failure_summary(run.problems),
    )
    if recorder is not None:
        recorder.dump(OUT_DIR / f"spans-{stem}.jsonl")
        layers = layer_metrics(recorder.spans, run.window, run.setup, **run.layer_inputs)
        info["traced_end_to_end"] = {k: v["value"] for k, v in end_to_end.items()}
        metrics = {name: metric(layers[name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        metrics = end_to_end
    failed = sum(1 for found in run.problems if found)
    emit(run.correct, len(run.problems), failed, metrics, info)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    if args.serve:
        from perfbench.mixes import serve

        return serve(import_s, bool(args.trace), args.spans)
    if args.setup_probe:
        return setup_probe(args.setup_probe, import_s)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
