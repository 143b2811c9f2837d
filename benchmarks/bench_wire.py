"""E-WIRE — publish compression on the wire.

The claim behind the v2 wire protocol's negotiated ``gf2pack`` codec,
measured end to end: the repo's dominant payload is a GF(2) matrix —
``uint8`` cells that are all 0/1 — and ``gf2pack`` bit-packs it to
exactly one-eighth of the raw C-order bytes.  This bench publishes a
real input matrix through a real authenticated session (LoopbackWorker
fleet, MACs and all) and reads the executor's
``exec_publish_bytes_total`` counter: the on-wire byte count must equal
``workers × nbytes / 8``, and the codec-level gf2pack/raw ratio must be
exactly 8×.  Both assertions are deterministic — compression is
arithmetic, not luck.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table, write_bench_json

from repro.core import Engine, RunSpec, SerialExecutor
from repro.exec import DistributedExecutor, LoopbackWorker
from repro.exec.wire import encode_array_payload
from repro.lowerbounds import TopSubmatrixRankProtocol

MATRIX_N = 64        # published GF(2) input matrix is MATRIX_N x MATRIX_N
PUBLISH_WORKERS = 2  # each worker receives the publish once
TRIALS = 12

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_wire.json"


def publish_spec() -> RunSpec:
    rng = np.random.default_rng(5)
    inputs = rng.integers(0, 2, size=(MATRIX_N, MATRIX_N), dtype=np.uint8)
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5), inputs=inputs, seed=7
    )


def measure_publish() -> tuple[list[list], list[dict]]:
    """On-wire publish bytes (gf2pack) vs the raw-codec baseline."""
    spec = publish_spec()
    raw_bytes = spec.inputs.nbytes
    codec, packed = encode_array_payload(spec.inputs)
    _, raw = encode_array_payload(spec.inputs, ("raw",))
    assert codec == "gf2pack"
    assert len(raw) == raw_bytes

    golden = Engine(SerialExecutor()).run_batch(spec, TRIALS)
    workers = [LoopbackWorker() for _ in range(PUBLISH_WORKERS)]
    try:
        with DistributedExecutor(
            [w.endpoint for w in workers],
            chunksize=3,
            share_inputs_min_bytes=1,
        ) as executor:
            batch = Engine(executor).run_batch(spec, TRIALS)
            wire_bytes = int(executor.registry.total("exec_publish_bytes_total"))
            frames = int(executor.registry.total("exec_publish_frames_total"))
    finally:
        for worker in workers:
            worker.stop()
    assert batch.outputs == golden.outputs, "publish path broke determinism"
    assert frames == PUBLISH_WORKERS, frames
    assert wire_bytes == PUBLISH_WORKERS * len(packed), wire_bytes
    assert len(raw) == 8 * len(packed), "gf2pack must be exactly 8x"

    rows = [
        ["raw C-order bytes (per worker)", raw_bytes, 1.0],
        ["gf2pack on the wire (per worker)", len(packed), raw_bytes / len(packed)],
    ]
    records = [
        {
            "bench": "wire_publish",
            "matrix": f"{MATRIX_N}x{MATRIX_N} GF(2)",
            "workers": PUBLISH_WORKERS,
            "codec": "gf2pack",
            "raw_bytes_per_worker": raw_bytes,
            "wire_bytes_per_worker": len(packed),
            "wire_bytes_total": wire_bytes,
            "publish_frames": frames,
            "compression": raw_bytes / len(packed),
        }
    ]
    return rows, records


def main() -> None:
    publish_rows, publish_records = measure_publish()
    print_table(
        f"E-WIRE publish: {MATRIX_N}x{MATRIX_N} GF(2) input, "
        f"{PUBLISH_WORKERS}-worker fleet, authenticated session",
        ["payload", "bytes", "x vs raw"],
        publish_rows,
    )
    write_bench_json(BENCH_JSON, publish_records)
    print(f"wrote {BENCH_JSON.name}")
    print("gf2pack publishes 8.00x smaller on the wire")


def test_publish_compression_is_exact():
    """Pytest entry point: the deterministic compression claim."""
    _rows, records = measure_publish()
    assert records[0]["compression"] == 8.0


if __name__ == "__main__":
    main()
