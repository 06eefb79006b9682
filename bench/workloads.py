"""The workloads: seeded inputs, the closed-loop clients, and the checks
on every reply.

Every client is a closed loop: it sends its next call only after the
previous reply arrived and was checked.  Failures are counted, reported
on stderr as they happen, and never retried.
"""

from __future__ import annotations

import math
import os
import random
import string
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from harness import Enclave, Keys

ALNUM = string.ascii_letters + string.digits
WARMUP_CALLS = 20  # per client, checked but not timed
THREAD_TIMEOUT_S = 120.0


@dataclass
class Tally:
    """What one client loop saw.  One per thread; merged afterwards."""

    samples_ms: list[float] = field(default_factory=list)  # a failed call is +inf
    done_s: list[float] = field(default_factory=list)  # completion times, perf_counter
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, call: Callable[[], Any], expect: Callable[[Any], bool], timed: bool = True) -> bool:
        """One call: time it, check the reply, count a failure.  A failed
        call misses any latency limit, so its sample is +inf."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            got = call()
            ok = expect(got)
            if not ok:
                self.mismatches += 1
                self.fail(f"wrong reply {got!r:.80}")
        except Exception as e:  # every failure is counted, none retried
            ok = False
            self.fail(f"{type(e).__name__}: {e}")
        t1 = time.perf_counter()
        if timed:
            self.samples_ms.append((t1 - t0) * 1e3 if ok else math.inf)
            self.done_s.append(t1)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        msg = f"call {self.attempted}: {what}"
        if len(self.errors) < 20:
            self.errors.append(msg)
        print(f"[bench] failure at {msg}", file=sys.stderr, flush=True)

    def merge(self, other: "Tally") -> None:
        self.samples_ms += other.samples_ms
        self.done_s += other.done_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.errors += other.errors


@dataclass
class Pass:
    """One measured pass of a workload against one enclave."""

    calls: Tally  # the timed calls behind call_p50/p99 and calls_per_s
    start_s: float  # perf_counter when the timed calls began
    wall_s: float  # until the last timed call ended
    cpu_busy: float  # enclave CPU seconds / wall seconds over the pass
    client_cpu_busy: float  # this process's CPU seconds (clients, speed meter) / wall seconds
    other: Tally = field(default_factory=Tally)  # checked calls outside `calls`
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.calls.attempted + self.other.attempted

    @property
    def failed(self) -> int:
        return self.calls.failed + self.other.failed

    @property
    def mismatches(self) -> int:
        return self.calls.mismatches + self.other.mismatches

    @property
    def calls_per_s(self) -> float:
        return sum(map(math.isfinite, self.calls.samples_ms)) / self.wall_s


def client_app(role: str, enclave: Enclave, keys: Keys, *, per_call: bool):
    """A client App whose gateway does the full attested handshake with
    this role's signature, pinned to the measurement the enclave announced."""
    from enclaveflow import App, connect_channel

    def factory():
        return connect_channel(
            enclave.host,
            enclave.port,
            attested=True,
            client_name=role,
            signing_key=keys.signing[role],
            expected_measurement=enclave.measurement,
            authority_public=keys.authority,
        )

    return App(role, gateway_factory=factory, per_call_channel=per_call)


def call_ids(program) -> dict[str, int]:
    """Stage the program under a role nobody plays: the call table only."""
    from enclaveflow import App

    probe = App("__probe__")
    program(probe)
    probe.freeze()
    return {name: call_id for call_id, name in probe.call_table()}


def _guess(rng: random.Random, password: str) -> str:
    """About a quarter right; the rest 1-64 random bytes."""
    if rng.random() < 0.25:
        return password
    return "".join(rng.choices(ALNUM, k=rng.randint(1, 64)))


# --- password checker -------------------------------------------------------------------


class Login:
    """Password checker: ``checkpwd(guess)`` declassifies one bit."""

    roles = ["user"]
    consumer = None

    def __init__(self, cold: bool):
        self.cold = cold
        self.name = "login-cold" if cold else "login-warm"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{seed}/password")
        return {"seed": seed, "password": "".join(rng.choices(ALNUM, k=rng.randint(8, 32)))}

    def config(self, inputs: dict) -> dict:
        return {"app": "password-checker", "password": inputs["password"]}

    def run(self, enclave: Enclave, keys: Keys, inputs: dict, seconds: float) -> Pass:
        from enclaveflow import SecureRef
        from enclaveflow.cli import build_password_program

        password = inputs["password"]
        check = SecureRef(call_ids(build_password_program(password))["checkpwd"], 1)
        threads = min(2, os.cpu_count() or 1) if self.cold else 1
        tallies = [Tally() for _ in range(threads)]
        ends = [0.0] * threads
        start = threading.Barrier(threads + 1)

        def one(app, rng, tally, timed=True):
            guess = _guess(rng, password)
            ok = tally.check(lambda: app.gateway(check.apply(guess)), lambda r: r is (guess == password), timed)
            if not ok and not self.cold:
                app.close()  # the session may be broken; the next call handshakes anew

        def client(i: int) -> None:
            tally = tallies[i]
            try:
                rng = random.Random(f"{inputs['seed']}/{self.name}/{i}")
                app = client_app("user", enclave, keys, per_call=self.cold)
                for _ in range(WARMUP_CALLS):
                    one(app, rng, tally, timed=False)
                start.wait(THREAD_TIMEOUT_S)
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    one(app, rng, tally)
                app.close()
            except Exception as e:  # a dead client loop is a failure, not a crash
                start.abort()
                tally.fail(f"client loop {i}: {type(e).__name__}: {e}")
            ends[i] = time.perf_counter()

        workers = [threading.Thread(target=client, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        try:
            start.wait(THREAD_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass
        t0, cpu0, own0 = time.perf_counter(), enclave.cpu_s(), time.process_time()
        for w in workers:
            w.join(seconds + THREAD_TIMEOUT_S)
        if any(w.is_alive() for w in workers):
            raise RuntimeError("a client loop did not finish")
        wall = max(ends) - t0
        calls = Tally()
        for t in tallies:
            calls.merge(t)
        return Pass(calls, t0, wall, (enclave.cpu_s() - cpu0) / wall, (time.process_time() - own0) / wall)


# --- clean room --------------------------------------------------------------------------

ROWS_PER_PROVIDER = 500  # 1000 uploads: a p99 with ten samples beyond it
MIN_QUERIES = 21  # a p50 with ten samples beyond it


class CleanroomIngest:
    """P1 then P2 upload seeded rows over one session each; then C1 queries
    the full table, decrypting every result, until the run's seconds are up
    (at least MIN_QUERIES times).  The ingest is fixed work."""

    name = "cleanroom-ingest"
    roles = ["P1", "P2", "C1"]
    consumer = "C1"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{seed}/cleanroom")
        names = rng.sample(range(16**6), 28)
        pool = [f"strain-{n:06x}" for n in names]
        shared, only1, only2 = pool[:12], pool[12:20], pool[20:]
        rows = {
            p: [(rng.choice(shared + own), rng.randint(0, 150)) for _ in range(ROWS_PER_PROVIDER)]
            for p, own in (("P1", only1), ("P2", only2))
        }
        return {"seed": seed, "rows": rows, "expected": expected_table(rows["P1"], rows["P2"])}

    def config(self, inputs: dict) -> dict:
        return {"app": "cleanroom", "providers": ["P1", "P2"], "consumer": "C1"}

    def run(self, enclave: Enclave, keys: Keys, inputs: dict, seconds: float) -> Pass:
        from enclaveflow import SecureRef, decode_value, make_labeled
        from enclaveflow import cleanroom

        ids = call_ids(cleanroom.build_cleanroom_program(cleanroom.CleanRoomConfig()))
        send = SecureRef(ids["datasend"], 1)
        query = SecureRef(ids["runquery"], 0)
        expected = inputs["expected"]

        uploads = Tally()
        t0, cpu0, own0 = time.perf_counter(), enclave.cpu_s(), time.process_time()
        for provider in ("P1", "P2"):
            app = client_app(provider, enclave, keys, per_call=False)
            label = cleanroom.provider_label(provider)
            for strain, age in inputs["rows"][provider]:
                row = cleanroom.row_to_value(cleanroom.Row(strain, age))
                if not uploads.check(lambda: app.gateway(send.apply(make_labeled(label, row))), lambda r: r is None):
                    app.close()
            app.close()
        ingest_s = time.perf_counter() - t0

        queries = Tally()
        app = client_app("C1", enclave, keys, per_call=False)

        def run_query():
            envelope = app.gateway(query)
            return decode_value(cleanroom.decrypt_result(keys.consumer_private, envelope))

        while time.perf_counter() - t0 < seconds or queries.attempted < MIN_QUERIES:
            if not queries.check(run_query, lambda table: tables_match(table, expected)):
                app.close()
        app.close()
        wall = time.perf_counter() - t0
        return Pass(
            uploads,
            t0,
            ingest_s,
            (enclave.cpu_s() - cpu0) / wall,
            (time.process_time() - own0) / wall,
            other=queries,
            extra={"ingest_s": ingest_s, "rows": sum(map(math.isfinite, uploads.samples_ms))},
        )


def expected_table(rows_a: list, rows_b: list) -> list[tuple[str, float]]:
    """The clean room's answer, recomputed here: strains both providers
    have, each with the mean age over every row of that strain."""
    common = {s for s, _ in rows_a} & {s for s, _ in rows_b}
    ages: dict[str, list[int]] = {}
    for strain, age in rows_a + rows_b:
        if strain in common:
            ages.setdefault(strain, []).append(age)
    return [(s, sum(a) / len(a)) for s, a in sorted(ages.items())]


def tables_match(got, expected: list[tuple[str, float]], tol: float = 1e-9) -> bool:
    if not isinstance(got, list) or len(got) != len(expected):
        return False
    for item, (strain, mean) in zip(got, expected):
        if not (isinstance(item, list) and len(item) == 2 and item[0] == strain):
            return False
        if not isinstance(item[1], float) or abs(item[1] - mean) > tol:
            return False
    return True


WORKLOADS = {w.name: w for w in (Login(cold=True), Login(cold=False), CleanroomIngest())}
