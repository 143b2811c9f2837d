"""E-WIRE — what the wire protocol costs in bytes.

Two records, both gated on deterministic byte counts only:

* ``wire_publish`` — the claim behind the negotiated ``gf2pack`` codec,
  measured end to end: the repo's dominant payload is a GF(2) matrix —
  ``uint8`` cells that are all 0/1 — and ``gf2pack`` bit-packs it to
  exactly one-eighth of the raw C-order bytes.  This bench publishes a
  real input matrix through a real authenticated session (LoopbackWorker
  fleet, MACs and all) and reads the executor's
  ``exec_publish_bytes_total`` counter: the on-wire byte count must equal
  ``workers × nbytes / 8``, and the codec-level gf2pack/raw ratio must be
  exactly 8×.
* ``wire_reply`` — one 4-trial chunk reply ``("ok", [TrialResult, …])``
  of the ``clique-fleet`` workload's protocol.  In ``BCAST(b)`` every
  broadcast is a ``b``-bit integer, so the reply is mostly int
  containers: transcript keys, output vertex sets, private-coin counts.
  Protocol v3 packs each one into a run of one byte per value (all lie
  in 0..255 here) behind a 10-byte header, where v2 spent 9 bytes per
  value.  The bound follows from that format: the reply with every int
  container emptied, plus 1 header byte and 1 byte per value for each
  non-empty container.  Encode and decode times per trial are recorded,
  not gated.

Compression is arithmetic, not luck, so both gates are exact.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import median_ns, print_table, write_bench_json

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import PlantedClique
from repro.exec import DistributedExecutor, LoopbackWorker
from repro.exec.wire import decode_value, encode_array_payload, encode_value
from repro.lowerbounds import TopSubmatrixRankProtocol

MATRIX_N = 64        # published GF(2) input matrix is MATRIX_N x MATRIX_N
PUBLISH_WORKERS = 2  # each worker receives the publish once
TRIALS = 12
REPLY_TRIALS = 4     # one clique-fleet chunk: ceil(32 trials / (4 x 2 lanes))

#: Bytes a v2 element-wise container spent per int (tag + 8-byte i64).
ELEMENTWISE_INT_BYTES = 9
#: Extra header bytes of a packed run over an empty container: the run
#: tag ahead of the container tag (both carry the 8-byte count).
RUN_EXTRA_HEADER_BYTES = 1

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


def _int_containers(result) -> list:
    """A trial's int containers: key, output vertex sets, coin counts."""
    return [
        result.transcript_key,
        *result.outputs,
        result.cost.private_bits_per_processor,
    ]


def _emptied(result):
    """``result`` with every int container emptied, kinds kept."""
    return dataclasses.replace(
        result,
        transcript_key=(),
        outputs=[frozenset() for _ in result.outputs],
        cost=dataclasses.replace(result.cost, private_bits_per_processor=[]),
    )


def measure_reply() -> tuple[list[list], list[dict]]:
    """Bytes and codec time of one clique-fleet chunk reply."""
    spec = RunSpec(
        protocol=PlantedCliqueSubsampleProtocol(12, activation_factor=0.5),
        distribution=PlantedClique(16, 12),
        seed=1,
    )
    results = Engine(SerialExecutor()).run_batch(spec, REPLY_TRIALS).trials
    assert all(isinstance(out, frozenset) for r in results for out in r.outputs)
    containers = [c for r in results for c in _int_containers(r)]
    assert all(0 <= v <= 0xFF for c in containers for v in c)
    values = sum(len(c) for c in containers)

    reply = ("ok", results)
    payload = encode_value(reply)
    assert decode_value(payload) == reply, "reply does not round-trip"
    skeleton = len(encode_value(("ok", [_emptied(r) for r in results])))
    bound = skeleton + sum(RUN_EXTRA_HEADER_BYTES + len(c) for c in containers if c)
    elementwise = skeleton + ELEMENTWISE_INT_BYTES * values
    assert len(payload) <= bound, (len(payload), bound)
    assert 3 * len(payload) <= elementwise, (len(payload), elementwise)

    encode_us = median_ns(encode_value, reply, repeats=7, number=20) / 1e3
    decode_us = median_ns(decode_value, payload, repeats=7, number=20) / 1e3
    rows = [
        ["v2 element-wise ints (derived)", elementwise, elementwise / REPLY_TRIALS],
        ["v3 packed runs (measured)", len(payload), len(payload) / REPLY_TRIALS],
        ["v3 format bound", bound, bound / REPLY_TRIALS],
    ]
    records = [
        {
            "bench": "wire_reply",
            "protocol": "PlantedCliqueSubsampleProtocol(12, activation_factor=0.5)",
            "distribution": "PlantedClique(16, 12)",
            "trials": REPLY_TRIALS,
            "int_values": values,
            "wire_bytes": len(payload),
            "bound_bytes": bound,
            "elementwise_bytes": elementwise,
            "bytes_per_trial": len(payload) / REPLY_TRIALS,
            "encode_us_per_trial": encode_us / REPLY_TRIALS,
            "decode_us_per_trial": decode_us / REPLY_TRIALS,
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
    reply_rows, reply_records = measure_reply()
    print_table(
        f"E-WIRE reply: one {REPLY_TRIALS}-trial clique-fleet chunk reply",
        ["encoding", "bytes", "bytes/trial"],
        reply_rows,
    )
    write_bench_json(BENCH_JSON, publish_records + reply_records)
    print(f"wrote {BENCH_JSON.name}")
    print("gf2pack publishes 8.00x smaller on the wire")
    record = reply_records[0]
    print(
        f"chunk reply: {record['wire_bytes']} bytes "
        f"(bound {record['bound_bytes']}), "
        f"encode {record['encode_us_per_trial']:.0f} us/trial, "
        f"decode {record['decode_us_per_trial']:.0f} us/trial"
    )


def test_publish_compression_is_exact():
    """Pytest entry point: the deterministic compression claim."""
    _rows, records = measure_publish()
    assert records[0]["compression"] == 8.0


def test_reply_bytes_within_format_bound():
    """Pytest entry point: the chunk reply fits the packed-run format."""
    _rows, records = measure_reply()
    assert records[0]["wire_bytes"] <= records[0]["bound_bytes"]


if __name__ == "__main__":
    main()
