"""Run one benchmark workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload hierarchy-scalar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` times calls for ``--seconds`` with tracing off and prints
the end-to-end metrics; ``--trace 1`` runs the workload's fixed number of
calls untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record — provenance, per-call times, problems, and for traced runs the
per-layer self times and the metrics-registry snapshot, plus a Chrome
trace beside it — is written under ``--out`` (default
``perfbench-results/`` at the repository root) for ``compare.py``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("hierarchy-scalar", "prg-vectorized", "clique-fleet", "budget-sweep-pool")
#: Seconds one workload of ``--workload all`` may take before it is stopped.
WORKLOAD_TIMEOUT = 600


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench-results")
    return parser.parse_args(argv)


def require_program() -> None:
    missing = [
        rel
        for rel in ("src/repro/__init__.py", "benchmarks/_util.py")
        if not (ROOT / rel).is_file()
    ]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def format_metrics(name: str, record: dict) -> list[str]:
    lines = [f"== {name}  seed {record['seed']}  calls {record['attempted']}"]
    for metric, entry in record["metrics"].items():
        note = ""
        if metric == "call_ms_tail":
            note = f"  (p{record['tail_percentile']} of {record['attempted']} calls)"
        lines.append(f"  {metric:30s} {entry['value']:>14.6g} {entry['unit']}{note}")
    if "failed_frac" in record:
        lines.append(f"  {'failed_frac':30s} {record['failed_frac']:>14.6g} ratio")
    for problem in record["problems"][:20]:
        lines.append(f"  PROBLEM {problem}")
    return lines


def run_one(args: argparse.Namespace) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import measure, measure_traced, provenance
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if args.trace:
        record = measure_traced(workload, str(args.out / f"{stem}.chrome.json"))
    else:
        record = measure(workload, args.seconds)
    record.update(
        schema="perfbench-result-v1",
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        seconds=args.seconds,
        provenance=provenance(workload),
    )
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(args.out),
        ]
        done = subprocess.run(
            argv, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: workload {name} exited {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    require_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_one(args)
        print("\n".join(format_metrics(args.workload, record)))
        result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
