"""Run one benchmark workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query-online --seed 1 --seconds 30 --trace 0

Prints a human-readable report -- provenance, every metric with its unit
and sample count, failures by kind, and digests of the answers -- then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs span wrappers around the layers' entry points and
reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

WORKLOADS = ("query-online", "query-bulk", "offline-sweep")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace):
    from perfbench import offline, serving
    from perfbench.spans import Patcher, Tracer

    workload = {
        "query-online": serving.run_online,
        "query-bulk": serving.run_bulk,
        "offline-sweep": offline.run_offline,
    }[args.workload]
    if not args.trace:
        return workload(args.seed, args.seconds, None)
    from perfbench import layers

    tracer, patcher = Tracer(), Patcher()
    layers.install(tracer, patcher)
    try:
        return workload(args.seed, args.seconds, tracer)
    finally:
        patcher.undo()


def report(args: argparse.Namespace, result) -> list[str]:
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    provenance = env.provenance(seed=args.seed, **result.provenance)
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    sections = [("per-layer" if args.trace else "end-to-end",
                 result.layers if args.trace else result.metrics),
                ("workload", result.named)]
    for title, metrics in sections:
        lines.append(f"-- {title}")
        for name, m in metrics.items():
            note = f"  ({m.note})" if m.note else ""
            lines.append(f"{name:34s} {m.value:14.6g} {m.unit}{note}")
    lines.append(f"attempted {result.attempted} failed {result.failed} "
                 f"{dict(sorted(result.failures.items()))}")
    lines += [f"note {note}" for note in result.notes]
    lines += [f"digest {k} {v}" for k, v in sorted(result.digests.items())]
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    env.pin_blas()
    env.require_program()
    probe = env.host_probe_ms()
    result = run(args)
    result.provenance.update(host_probe_ms_before=probe,
                             host_probe_ms_after=env.host_probe_ms())
    for line in report(args, result):
        print(line)
    metrics = result.layers if args.trace else result.metrics
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
