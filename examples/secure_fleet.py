"""Secure fleet walkthrough: TLS + shared-secret workers, end to end.

This is the deployment shape ``docs/robustness.md`` describes — and the
CI smoke step that keeps it honest.  It exercises the *real* operator
surface, not test shortcuts:

1. mint a throwaway self-signed certificate for ``127.0.0.1`` with the
   ``openssl`` CLI (skipped, with a loud note, where openssl is absent:
   the shared-secret handshake still runs — TLS is the optional layer,
   authentication is not);
2. write the shared secret to a file and start a **subprocess** worker
   via ``python -m repro.exec.worker --secret-file ... --tls-cert ...``,
   parsing the stdout announce line for the OS-assigned port;
3. point a :class:`~repro.exec.DistributedExecutor` at it (same secret,
   a client SSL context pinned to the minted certificate) and run an
   engine batch over a fixed input matrix;
4. verify the batch is bit-identical to
   :class:`~repro.core.engine.SerialExecutor` and that a client holding
   the *wrong* secret is rejected at the handshake.

Run it:

    PYTHONPATH=src python examples/secure_fleet.py
"""

import shutil
import ssl
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core import Engine, RunSpec, SerialExecutor
from repro.exec import DistributedExecutor
from repro.lowerbounds import TopSubmatrixRankProtocol

SECRET = b"example-fleet-secret"
TRIALS = 8


def mint_certificate(workdir: Path) -> "tuple[Path, Path] | None":
    """A self-signed cert/key pair for 127.0.0.1, or None without openssl."""
    if shutil.which("openssl") is None:
        return None
    cert, key = workdir / "cert.pem", workdir / "key.pem"
    subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "rsa:2048",
            "-keyout", str(key), "-out", str(cert),
            "-days", "1", "-nodes", "-subj", "/CN=127.0.0.1",
            "-addext", "subjectAltName=IP:127.0.0.1",
        ],
        check=True,
        capture_output=True,
    )
    return cert, key


def start_worker(workdir: Path, cert_pair) -> "tuple[subprocess.Popen, str]":
    """Launch the CLI worker; return (process, endpoint)."""
    secret_file = workdir / "secret"
    secret_file.write_bytes(SECRET + b"\n")
    argv = [
        sys.executable, "-m", "repro.exec.worker",
        "--port", "0",
        "--secret-file", str(secret_file),
    ]
    if cert_pair is not None:
        cert, key = cert_pair
        argv += ["--tls-cert", str(cert), "--tls-key", str(key)]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    banner = proc.stdout.readline().strip()  # the readiness signal
    endpoint = banner.rpartition(" ")[2]
    return proc, endpoint


def client_tls_context(cert_pair) -> "ssl.SSLContext | None":
    if cert_pair is None:
        return None
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.load_verify_locations(str(cert_pair[0]))
    return context


def batch_spec() -> RunSpec:
    rng = np.random.default_rng(3)
    inputs = rng.integers(0, 2, size=(32, 32), dtype=np.uint8)
    return RunSpec(protocol=TopSubmatrixRankProtocol(4), inputs=inputs, seed=11)


def main() -> None:
    golden = Engine(SerialExecutor()).run_batch(batch_spec(), TRIALS)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        cert_pair = mint_certificate(workdir)
        if cert_pair is None:
            print("openssl unavailable: running secret-auth only, no TLS")
        proc, endpoint = start_worker(workdir, cert_pair)
        try:
            with DistributedExecutor(
                [endpoint],
                secret=SECRET,
                ssl_context=client_tls_context(cert_pair),
                local_fallback=False,
            ) as executor:
                batch = Engine(executor).run_batch(batch_spec(), TRIALS)
            assert batch.outputs == golden.outputs, "fleet diverged from serial"
            print(
                f"authenticated batch of {TRIALS} trials bit-identical to "
                f"serial ({'TLS on' if cert_pair else 'TLS off'})"
            )

            # The negative half: a wrong secret must fail closed.
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the degradation warning
                with DistributedExecutor(
                    [endpoint],
                    secret=b"not-the-secret",
                    ssl_context=client_tls_context(cert_pair),
                    local_fallback=True,
                ) as intruder:
                    Engine(intruder).run_batch(batch_spec(), TRIALS)
                    rejected = intruder.telemetry.total("auth")
            assert rejected >= 1, "wrong secret was not rejected"
            print(f"wrong-secret client rejected at the handshake ({rejected} auth failures recorded)")
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
    print("secure fleet smoke: OK")


if __name__ == "__main__":
    main()
