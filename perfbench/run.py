"""Benchmark entry point.

    python3 perfbench/run.py --workload knum8-top20 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones. Every earlier line is a readable
note (host fingerprint, window sizes, failures).

``--role`` selects an internal helper process (cache builder, set-up
sample, reference worker); a benchmark run never passes it.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role", choices=("bench", "prepare", "setup", "reference"), default="bench"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        harness.load_program()
    except (harness.ProgramMissing, ImportError) as error:
        print(f"perfbench: cannot load the program: {error}", file=sys.stderr)
        return 2
    harness.keep_temp_files_in_checkout()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.role == "prepare":
        from closed import build_caches

        build_caches(args.seconds)
        return 0
    if args.role == "setup":
        from closed import host_setup_s
        from workloads import set_up

        print(repr(host_setup_s(set_up(workload))), flush=True)
        return 0
    if args.role == "reference":
        from reference import reference_worker

        queries = json.loads(sys.stdin.read())
        print(json.dumps(reference_worker(workload, queries)), flush=True)
        return 0

    host = harness.fingerprint()
    harness.emit("host: " + json.dumps(host, sort_keys=True))
    if not host["native_kernel"]:
        harness.emit("WARNING: native kernel did not load; this run measures the NumPy tier")
        print("perfbench: native kernel not loaded (NumPy tier)", file=sys.stderr)

    import closed

    correct, attempted, failed, metrics = closed.run(
        workload, args.seed, args.seconds, bool(args.trace)
    )

    section = "per_layer" if args.trace else "end_to_end"
    units = harness.metric_units(section)
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}"
        )
    for name in units:
        harness.emit(f"{name} = {metrics[name]:.6g} {units[name]}")
    harness.emit_result(correct, attempted, failed, {n: metrics[n] for n in units}, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
