"""Compare two benchmark result sets.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` records ``run.py --out DIR`` writes.
For every workload and end-to-end metric it prints both sides' median and
quartiles over the untraced runs and the change of the medians.  From the
traced runs it names, per workload, the layer whose median self time
moved most.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import median, quartiles  # noqa: E402

SCHEMA = "perfbench-result-v1"


def load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".chrome.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("schema") == SCHEMA:
            records.append(record)
    return records


def group(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for record in records:
        if record["trace"] == trace:
            out.setdefault(record["workload"], []).append(record)
    return out


def summary(values: list[float]) -> str:
    if not values:
        return "-"
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def metric_lines(base: dict[str, list[dict]], new: dict[str, list[dict]]) -> list[str]:
    lines = [f"{'workload':18s} {'metric':14s} {'unit':9s} {'base':36s} {'new':36s} change"]
    for workload in sorted(set(base) | set(new)):
        names: dict[str, str] = {}
        for record in base.get(workload, []) + new.get(workload, []):
            for name, entry in record["metrics"].items():
                names.setdefault(name, entry["unit"])
        for name, unit in names.items():
            a = [r["metrics"][name]["value"] for r in base.get(workload, [])]
            b = [r["metrics"][name]["value"] for r in new.get(workload, [])]
            change = f"{median(b) / median(a) - 1:+.1%}" if a and b and median(a) else "-"
            lines.append(
                f"{workload:18s} {name:14s} {unit:9s} {summary(a):36s} {summary(b):36s} {change}"
            )
    return lines


def moved_layer(base: list[dict], new: list[dict]) -> tuple[str, float, float] | None:
    """The layer whose median self time changed most, with both medians."""
    layers = set()
    for record in base + new:
        layers |= set(record["layer_self_s"])
    best = None
    for layer in sorted(layers):
        a = median([r["layer_self_s"].get(layer, 0.0) for r in base])
        b = median([r["layer_self_s"].get(layer, 0.0) for r in new])
        if best is None or abs(b - a) > abs(best[2] - best[1]):
            best = (layer, a, b)
    return best


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    print("\n".join(metric_lines(group(base, 0), group(new, 0))))
    traced_base, traced_new = group(base, 1), group(new, 1)
    for workload in sorted(set(traced_base) & set(traced_new)):
        found = moved_layer(traced_base[workload], traced_new[workload])
        if found is not None:
            layer, a, b = found
            print(f"{workload}: layer moved most: {layer} self time {a:.6g} s -> {b:.6g} s")


if __name__ == "__main__":
    main()
