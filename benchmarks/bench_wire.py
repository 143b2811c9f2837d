"""E-WIRE — what the wire protocol costs in bytes and in sessions.

Two records, each gated on deterministic counts only.

``wire_reply``: one 4-trial chunk reply ``("ok", [TrialResult, …])`` of
the ``clique-fleet`` workload's protocol.  In ``BCAST(b)`` every
broadcast is a ``b``-bit integer, so the reply is mostly int containers:
transcript keys, output vertex sets, private-coin counts.  Since protocol
v3 each one is packed into a run of one byte per value (all lie in
0..255 here) behind a 10-byte header, where v2 spent 9 bytes per value.
The bound follows from that format: the reply with every int container
emptied, plus 1 header byte and 1 byte per value for each non-empty
container.  Encode and decode times per trial are recorded, not gated.
Packing is arithmetic, not luck, so the gate is exact.

``fleet_sessions``: 20 consecutive 32-trial ``clique-fleet``-shaped
batches on two ``python -m repro.exec.worker`` subprocesses, run twice.
Once as is: the executor keeps each worker's session open across map
calls, so the run makes one handshake per worker.  Once with
``close()`` after each batch, which shuts the idle sessions, so every
map dials and handshakes each worker as it did before sessions were
kept.  The gate is the handshake counts, 2 against 40.  Both runs'
median batch times and their ratio are recorded, not gated.
"""

import dataclasses
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _util import median_ns, print_table, write_bench_json

import repro
from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import PlantedClique
from repro.exec import DistributedExecutor
from repro.exec.wire import decode_value, encode_value

REPLY_TRIALS = 4     # one clique-fleet chunk: ceil(32 trials / (4 x 2 lanes))
FLEET_WORKERS = 2    # clique-fleet's two CLI workers
FLEET_BATCHES = 20
FLEET_TRIALS = 32    # one clique-fleet map

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


def _clique_spec(seed: int) -> RunSpec:
    """The clique-fleet workload's protocol and planted side."""
    return RunSpec(
        protocol=PlantedCliqueSubsampleProtocol(12, activation_factor=0.5),
        distribution=PlantedClique(16, 12),
        seed=seed,
    )


def measure_reply() -> tuple[list[list], list[dict]]:
    """Bytes and codec time of one clique-fleet chunk reply."""
    spec = _clique_spec(1)
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


def _start_worker() -> subprocess.Popen:
    """A CLI worker on an OS-assigned port."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.exec.worker", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _endpoint(proc: subprocess.Popen) -> str:
    """The worker's endpoint, read from its one stdout line (readiness)."""
    banner = proc.stdout.readline().strip()
    if "listening on" not in banner:
        raise RuntimeError(f"worker failed to start: {banner!r}")
    return banner.rpartition(" ")[2]


def _stop_workers(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _fleet_run(endpoints: list[str], close_each: bool) -> tuple[int, list, list]:
    """Handshakes, batch seconds and outputs of the consecutive batches."""
    executor = DistributedExecutor(endpoints, local_fallback=False)
    engine = Engine(executor)
    seconds, outputs = [], []
    try:
        for seed in range(FLEET_BATCHES):
            start = time.perf_counter()
            batch = engine.run_batch(_clique_spec(seed), FLEET_TRIALS)
            if close_each:
                executor.close()
            seconds.append(time.perf_counter() - start)
            outputs.append(batch.outputs)
    finally:
        executor.close()
    handshakes = int(executor.registry.total("exec_handshakes_total", outcome="ok"))
    return handshakes, seconds, outputs


def measure_fleet_sessions() -> tuple[list[list], list[dict]]:
    """Kept sessions against a dial per map, on two CLI workers."""
    procs: list[subprocess.Popen] = []
    try:
        procs.extend(_start_worker() for _ in range(FLEET_WORKERS))
        endpoints = [_endpoint(proc) for proc in procs]
        _fleet_run(endpoints, close_each=True)  # warm both worker processes
        kept, kept_s, kept_out = _fleet_run(endpoints, close_each=False)
        redial, redial_s, redial_out = _fleet_run(endpoints, close_each=True)
    finally:
        _stop_workers(procs)
    assert kept_out == redial_out, "the two runs disagree"
    assert kept == FLEET_WORKERS, kept
    assert redial == FLEET_WORKERS * FLEET_BATCHES, redial
    kept_ms = 1e3 * statistics.median(kept_s)
    redial_ms = 1e3 * statistics.median(redial_s)
    rows = [
        ["sessions kept (as is)", kept, kept_ms],
        ["close() after each batch", redial, redial_ms],
    ]
    records = [
        {
            "bench": "fleet_sessions",
            "protocol": "PlantedCliqueSubsampleProtocol(12, activation_factor=0.5)",
            "distribution": "PlantedClique(16, 12)",
            "workers": FLEET_WORKERS,
            "batches": FLEET_BATCHES,
            "trials_per_batch": FLEET_TRIALS,
            "handshakes_kept": kept,
            "handshakes_redial": redial,
            "batch_ms_median_kept": kept_ms,
            "batch_ms_median_redial": redial_ms,
            "redial_over_kept": redial_ms / kept_ms,
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
    session_rows, session_records = measure_fleet_sessions()
    print_table(
        f"E-WIRE sessions: {FLEET_BATCHES} consecutive {FLEET_TRIALS}-trial "
        f"clique-fleet batches on {FLEET_WORKERS} CLI workers",
        ["run", "handshakes", "median batch ms"],
        session_rows,
    )
    write_bench_json(BENCH_JSON, reply_records + session_records)
    print(f"wrote {BENCH_JSON.name}")
    record = reply_records[0]
    print(
        f"chunk reply: {record['wire_bytes']} bytes "
        f"(bound {record['bound_bytes']}), "
        f"encode {record['encode_us_per_trial']:.0f} us/trial, "
        f"decode {record['decode_us_per_trial']:.0f} us/trial"
    )
    record = session_records[0]
    print(
        f"fleet sessions: {record['handshakes_kept']} vs "
        f"{record['handshakes_redial']} handshakes, median batch "
        f"{record['batch_ms_median_kept']:.1f} vs "
        f"{record['batch_ms_median_redial']:.1f} ms "
        f"({record['redial_over_kept']:.2f}x)"
    )


def test_reply_bytes_within_format_bound():
    """Pytest entry point: the chunk reply fits the packed-run format."""
    _rows, records = measure_reply()
    assert records[0]["wire_bytes"] <= records[0]["bound_bytes"]


if __name__ == "__main__":
    main()
