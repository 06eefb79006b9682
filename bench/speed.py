"""The machine's speed while a run measures, so that timings can be given
at one nominal speed.

On a shared virtual machine the same code runs at speeds that differ by
half from one second to the next, and for minutes at a time: the host
decides, not the code.  A meter thread times a fixed reference
computation (interpreter work and the kinds of ``cryptography`` call a
handshake and a record make) every INTERVAL_S, in the CPU time of its own
thread, so the clients and the enclave sharing the CPU do not lengthen
it.  It runs once per sample, on caches as the workload leaves them, as
the workload's own calls do: on this kind of host, contention for the
caches moves the workload's speed as much as the CPU's clock does.
``stats.SpeedScale`` turns the samples into the factor that scales a
wall-clock duration to the speed at which the reference takes
REFERENCE_MS.  The reference runs no enclaveflow code; a change to the
program can move it only through what it leaves in the caches, which the
workload between two samples replaces whatever the change.
"""

from __future__ import annotations

import os
import threading
import time

from stats import SpeedScale

REFERENCE_MS = 0.5  # the reference's CPU time at nominal speed
# Between samples.  A sample holds the CPU (and the GIL) for about
# REFERENCE_MS, so a call that waits for it is slowed: at 0.1 s, about
# 1 call in 200 can be.
INTERVAL_S = 0.1


def _crypto():
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    signing = Ed25519PrivateKey.from_private_bytes(bytes(32))
    exchange = X25519PrivateKey.from_private_bytes(bytes(32))
    peer = X25519PrivateKey.from_private_bytes(bytes([1] * 32)).public_key()
    return signing, exchange, peer, ChaCha20Poly1305(bytes(32))


def reference(keys, message: bytes = bytes(1024)) -> int:
    """The fixed computation whose time stands for the machine's speed."""
    table: dict = {}
    total = 0
    for i in range(600):
        table[i & 63] = (i, str(i))
        total += len(table[i & 63][1])
    signing, exchange, peer, aead = keys
    nonce = bytes(12)
    aead.decrypt(nonce, aead.encrypt(nonce, message, None), None)
    signing.sign(message)
    exchange.exchange(peer)
    return total


def steal_s(cpu: int) -> float:
    """Seconds the host has kept ``cpu`` from this machine since boot."""
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise OSError(f"no cpu{cpu} in /proc/stat")


class SpeedMeter:
    """Samples the reference's CPU time, and the steal time of the CPU the
    run is pinned to, from when it is entered to when it is left;
    ``scale()`` then gives the SpeedScale of that stretch."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        # (perf_counter s, reference ms, steal s)
        self.samples: list[tuple[float, float, float]] = []
        self._keys = _crypto()
        self._stop = threading.Event()
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._loop, name="speed-meter", daemon=True)

    def sample(self) -> None:
        start = time.thread_time_ns()
        reference(self._keys)
        ref_ms = (time.thread_time_ns() - start) / 1e6
        self.samples.append((time.perf_counter(), ref_ms, steal_s(self.cpu)))

    def _loop(self) -> None:
        try:
            while not self._stop.wait(INTERVAL_S):
                self.sample()
        except Exception as e:  # raised again on exit: a dead meter must not pass unseen
            self._error = e

    def __enter__(self) -> "SpeedMeter":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if self._error is not None:
            raise self._error
        self.sample()

    def scale(self) -> SpeedScale:
        return SpeedScale(self.samples, REFERENCE_MS)
