"""Process plumbing: finding the source tree, seeded key material and
configs, and the enclave subprocess (spawn, readiness, CPU, stop).

The enclave runs as ``python -m enclaveflow.cli enclave`` from this
checkout's ``src/`` (or through ``enclave_main.py`` when traced), over
loopback TCP with attestation and client signatures on.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

LISTEN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def use_checkout_source() -> None:
    """Import enclaveflow from this checkout's src/ and nowhere else."""
    if not (SRC / "enclaveflow" / "__init__.py").is_file():
        raise BenchError(f"no enclaveflow source under {SRC}")
    sys.path.insert(0, str(SRC))
    import enclaveflow

    if Path(enclaveflow.__file__).resolve().parent != (SRC / "enclaveflow").resolve():
        raise BenchError(f"enclaveflow imported from {enclaveflow.__file__}, not {SRC}")


# --- keys -------------------------------------------------------------------------------


def _seed_bytes(seed: int, what: str) -> bytes:
    return hashlib.sha256(f"enclaveflow-bench/{seed}/{what}".encode()).digest()


@dataclass
class Keys:
    """The clients' side of the seeded key material."""

    authority: object  # Ed25519PublicKey the quotes are checked against
    signing: dict  # role -> Ed25519PrivateKey
    consumer_private: object = None  # X25519PrivateKey, when there is a consumer


def provision(dir: Path, seed: int, roles: list[str], consumer: str | None, app_config: dict) -> tuple[Keys, Path]:
    """Derive every key from the seed, write the hex files the CLI reads
    and the enclave's config; return the clients' keys and the config path."""
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
    from enclaveflow.attest import private_raw, public_raw, save_key_hex

    dir.mkdir(parents=True, exist_ok=True)

    def save(name: str, raw: bytes) -> str:
        save_key_hex(dir / name, raw)
        return str(dir / name)

    authority = Ed25519PrivateKey.from_private_bytes(_seed_bytes(seed, "authority"))
    signing = {r: Ed25519PrivateKey.from_private_bytes(_seed_bytes(seed, f"signing/{r}")) for r in roles}
    config = {
        "host": "127.0.0.1",
        "authority_private": save("authority_private.hex", private_raw(authority)),
        "authority_public": save("authority_public.hex", public_raw(authority.public_key())),
        "client_keys": {
            r: save(f"{r}_signing_public.hex", public_raw(k.public_key())) for r, k in signing.items()
        },
        **app_config,
    }
    keys = Keys(authority.public_key(), signing)
    if consumer is not None:
        keys.consumer_private = X25519PrivateKey.from_private_bytes(_seed_bytes(seed, f"exchange/{consumer}"))
        config["consumer_public_key"] = save(
            f"{consumer}_exchange_public.hex", public_raw(keys.consumer_private.public_key())
        )
    (dir / "config.json").write_text(json.dumps(config))
    return keys, dir / "config.json"


# --- the enclave process -----------------------------------------------------------------


@dataclass
class Stopped:
    exit_code: int
    peak_rss_mb: float


class Enclave:
    """One enclave subprocess, ready (listening) when the constructor returns."""

    def __init__(self, config: Path, workdir: Path, spans_out: Path | None = None):
        if spans_out is None:
            cmd = [sys.executable, "-m", "enclaveflow.cli"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "enclave_main.py"), str(spans_out)]
        cmd += ["enclave", "--config", str(config), "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.stderr_path = workdir / f"enclave-{time.monotonic_ns()}.err"
        self._stderr = open(self.stderr_path, "wb")
        self.started_s = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=ROOT
        )
        try:
            self.host, self.port, self.measurement = self._await_listening()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started_s
        self._clk = os.sysconf("SC_CLK_TCK")

    def _await_listening(self) -> tuple[str, int, bytes]:
        deadline = time.monotonic() + LISTEN_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                break
            parts = line.split()
            if len(parts) == 5 and parts[:2] == ["ENCLAVE", "LISTENING"]:
                return parts[2], int(parts[3]), bytes.fromhex(parts[4])
        raise BenchError(f"enclave did not announce itself: {self._stderr_tail()}")

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text(errors="replace")[-2000:]

    def cpu_s(self) -> float:
        """User + system CPU seconds the enclave has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / self._clk

    def stop(self) -> Stopped:
        """SIGINT (the CLI exits cleanly on it), then reap with rusage."""
        proc = self.proc
        if proc.returncode is None:
            try:
                proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        status = rusage = None
        while proc.returncode is None:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.01)
        proc.stdout.close()
        self._stderr.close()
        rss = rusage.ru_maxrss / 1024.0 if rusage is not None else 0.0
        return Stopped(proc.returncode, rss)
