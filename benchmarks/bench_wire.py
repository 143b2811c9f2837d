"""E-WIRE — what the wire protocol costs in bytes.

One record, ``wire_reply``, gated on deterministic byte counts only: one
4-trial chunk reply ``("ok", [TrialResult, …])`` of the ``clique-fleet``
workload's protocol.  In ``BCAST(b)`` every broadcast is a ``b``-bit
integer, so the reply is mostly int containers: transcript keys, output
vertex sets, private-coin counts.  Since protocol v3 each one is packed
into a run of one byte per value (all lie in 0..255 here) behind a
10-byte header, where v2 spent 9 bytes per value.  The bound follows
from that format: the reply with every int container emptied, plus 1
header byte and 1 byte per value for each non-empty container.  Encode
and decode times per trial are recorded, not gated.

Packing is arithmetic, not luck, so the gate is exact.
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _util import median_ns, print_table, write_bench_json

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import PlantedClique
from repro.exec.wire import decode_value, encode_value

REPLY_TRIALS = 4     # one clique-fleet chunk: ceil(32 trials / (4 x 2 lanes))

#: Bytes a v2 element-wise container spent per int (tag + 8-byte i64).
ELEMENTWISE_INT_BYTES = 9
#: Extra header bytes of a packed run over an empty container: the run
#: tag ahead of the container tag (both carry the 8-byte count).
RUN_EXTRA_HEADER_BYTES = 1

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_wire.json"


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
    reply_rows, reply_records = measure_reply()
    print_table(
        f"E-WIRE reply: one {REPLY_TRIALS}-trial clique-fleet chunk reply",
        ["encoding", "bytes", "bytes/trial"],
        reply_rows,
    )
    write_bench_json(BENCH_JSON, reply_records)
    print(f"wrote {BENCH_JSON.name}")
    record = reply_records[0]
    print(
        f"chunk reply: {record['wire_bytes']} bytes "
        f"(bound {record['bound_bytes']}), "
        f"encode {record['encode_us_per_trial']:.0f} us/trial, "
        f"decode {record['decode_us_per_trial']:.0f} us/trial"
    )


def test_reply_bytes_within_format_bound():
    """Pytest entry point: the chunk reply fits the packed-run format."""
    _rows, records = measure_reply()
    assert records[0]["wire_bytes"] <= records[0]["bound_bytes"]


if __name__ == "__main__":
    main()
