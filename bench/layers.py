"""Per-layer metrics from one traced pass: the client's and the enclave's
span snapshots (see spans.py), joined where a metric needs both ends.

A metric whose layer did no work on a workload reads 0; so does a
percentile without ten samples beyond it.  ``samples`` says which.
"""

from __future__ import annotations

from stats import TooFewSamples, join_by_key, percentile, self_times

# name, unit, better.  BENCHMARK.json lists the same set.
PER_LAYER = [
    ("attest.handshake_server.p50_ms", "ms", "lower"),
    ("attest.handshake_client.p50_ms", "ms", "lower"),
    ("attest.handshakes_per_call", "ratio", "lower"),
    ("attest.accept_wait.p50_ms", "ms", "lower"),
    ("attest.accept_wait.p99_ms", "ms", "lower"),
    ("attest.monitor.cpu_busy_ratio", "ratio", "lower"),
    ("client.cpu_busy_ratio", "ratio", "lower"),
    ("cpu.steal_ratio", "ratio", "lower"),
    ("cpu.idle_ratio", "ratio", "higher"),
    ("attest.seal.mean_us", "us", "lower"),
    ("attest.open.mean_us", "us", "lower"),
    ("attest.failures", "count", "lower"),
    ("wire.decode_message.mean_us", "us", "lower"),
    ("wire.encode_result_ok.mean_us", "us", "lower"),
    ("wire.decode_value.bytes_per_upload", "B/upload", "lower"),
    ("wire.encode_value.bytes_per_upload", "B/upload", "lower"),
    ("labels.read_cnf.calls_per_upload", "calls/upload", "lower"),
    ("labels.read_cnf.self_ms_total", "ms", "lower"),
    ("labels.cnf_reduce.calls", "count", "lower"),
    ("labels.join.calls", "count", "lower"),
    ("labels.join.mean_us", "us", "lower"),
    ("labels.downgrade.calls", "count", "lower"),
    ("labels.downgrade.mean_us", "us", "lower"),
    ("labels.can_flow_to.mean_us", "us", "lower"),
    ("ifc.read_ref.mean_us", "us", "lower"),
    ("ifc.write_ref.mean_us", "us", "lower"),
    ("ifc.unlabel_p.calls", "count", "lower"),
    ("ifc.unlabel_p.mean_us", "us", "lower"),
    ("ifc.output_gate.mean_us", "us", "lower"),
    ("ifc.violations", "count", "lower"),
    ("app.dispatch.checkpwd.self_p50_us", "us", "lower"),
    ("app.dispatch.datasend.self_p50_us", "us", "lower"),
    ("app.dispatch.runquery.self_p50_ms", "ms", "lower"),
    ("app.dispatch.ok_ratio", "ratio", "higher"),
    ("app.gateway.p50_ms", "ms", "lower"),
    ("cleanroom.unlabel_row.mean_us", "us", "lower"),
    ("cleanroom.psi_mean_age.ms", "ms", "lower"),
    ("cleanroom.encrypt_result.ms", "ms", "lower"),
    ("cleanroom.decrypt_result.ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.joined_calls_ratio", "ratio", "higher"),
]


def _named(snapshot: dict, name: str) -> list[dict]:
    return [s for s in snapshot["spans"] if s["name"] == name]


def _dur_ms(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e6


def per_layer(
    client: dict,
    enclave: dict,
    *,
    uploads: int,
    cpu: dict,
    untraced_calls_per_s: float,
    traced_calls_per_s: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """(metric -> value, metric -> samples behind it)."""
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def agg(name: str) -> dict:
        out = {"calls": 0, "total_ns": 0, "self_ns": 0, "bytes": 0, "errors": 0, "false": 0}
        for snap in (client, enclave):
            for k, v in snap["agg"].get(name, {}).items():
                out[k] += v
        return out

    def mean(metric: str, name: str, scale: float) -> None:
        a = agg(name)
        values[metric] = a["total_ns"] / a["calls"] / scale if a["calls"] else 0.0
        samples[metric] = a["calls"]

    def pct(metric: str, xs: list[float], p: float) -> None:
        samples[metric] = len(xs)
        try:
            values[metric] = percentile(xs, p)
        except TooFewSamples:
            values[metric] = 0.0

    def count(metric: str, value: float, n: int) -> None:
        values[metric] = value
        samples[metric] = n

    def per_upload(metric: str, total: float) -> None:
        count(metric, total / uploads if uploads else 0.0, uploads)

    # attest
    hs_server = _named(enclave, "attest.handshake_server")
    hs_client = _named(client, "attest.handshake_client")
    gateways = _named(client, "app.gateway")
    pct("attest.handshake_server.p50_ms", [_dur_ms(s) for s in hs_server], 50)
    pct("attest.handshake_client.p50_ms", [_dur_ms(s) for s in hs_client], 50)
    count(
        "attest.handshakes_per_call",
        len(hs_client) / len(gateways) if gateways else 0.0,
        len(gateways),
    )
    # accept wait: the client's handshake begins right after connect()
    # returns; the enclave's serve_connection begins when the monitor takes
    # the connection.  Both carry the session id the handshake derived.
    served_by_id = {s["id"]: s for s in _named(enclave, "attest.serve_connection")}
    served = [
        {"attrs": {"key": [hs["attrs"]["sid"]]}, "start": served_by_id[hs["parent"]]["start"]}
        for hs in hs_server
        if "sid" in hs["attrs"] and hs["parent"] in served_by_id
    ]
    connected = [
        {"attrs": {"key": [hs["attrs"]["sid"]]}, "start": hs["start"]}
        for hs in hs_client
        if "sid" in hs["attrs"]
    ]
    waits = [(e["start"] - c["start"]) / 1e6 for c, e in join_by_key(connected, served)]
    pct("attest.accept_wait.p50_ms", waits, 50)
    pct("attest.accept_wait.p99_ms", waits, 99)
    # the clients and the enclave share one CPU: what neither uses, and the
    # host did not keep (steal), is idle
    count("attest.monitor.cpu_busy_ratio", cpu["enclave_busy"], 1)
    count("client.cpu_busy_ratio", cpu["client_busy"], 1)
    count("cpu.steal_ratio", cpu["steal"], 1)
    count("cpu.idle_ratio", cpu["idle"], 1)
    mean("attest.seal.mean_us", "attest.seal", 1e3)
    mean("attest.open.mean_us", "attest.open", 1e3)
    attest_spans = [s for snap in (client, enclave) for s in snap["spans"] if s["name"].startswith("attest.")]
    count(
        "attest.failures",
        agg("attest.seal")["errors"]
        + agg("attest.open")["errors"]
        + sum("error" in s["attrs"] for s in attest_spans),
        len(attest_spans),
    )

    # wire
    mean("wire.decode_message.mean_us", "wire.decode_message", 1e3)
    mean("wire.encode_result_ok.mean_us", "wire.encode_result_ok", 1e3)
    per_upload("wire.decode_value.bytes_per_upload", enclave["agg"].get("wire.decode_value", {}).get("bytes", 0))
    per_upload("wire.encode_value.bytes_per_upload", enclave["agg"].get("wire.encode_value", {}).get("bytes", 0))

    # labels
    read_cnf = agg("labels.read_cnf")
    per_upload("labels.read_cnf.calls_per_upload", enclave["agg"].get("labels.read_cnf", {}).get("calls", 0))
    count("labels.read_cnf.self_ms_total", read_cnf["self_ns"] / 1e6, read_cnf["calls"])
    for name in ("labels.cnf_reduce", "labels.join", "labels.downgrade", "ifc.unlabel_p"):
        calls = agg(name)["calls"]
        count(f"{name}.calls", calls, calls)
    mean("labels.join.mean_us", "labels.join", 1e3)
    mean("labels.downgrade.mean_us", "labels.downgrade", 1e3)
    mean("labels.can_flow_to.mean_us", "labels.can_flow_to", 1e3)

    # ifc
    mean("ifc.read_ref.mean_us", "ifc.read_ref", 1e3)
    mean("ifc.write_ref.mean_us", "ifc.write_ref", 1e3)
    mean("ifc.unlabel_p.mean_us", "ifc.unlabel_p", 1e3)
    mean("ifc.output_gate.mean_us", "ifc.output_gate", 1e3)
    ifc_names = ("ifc.read_ref", "ifc.write_ref", "ifc.unlabel_p", "ifc.output_gate")
    count(
        "ifc.violations",
        sum(agg(n)["errors"] for n in ifc_names) + agg("ifc.output_gate")["false"],
        sum(agg(n)["calls"] for n in ifc_names),
    )

    # app
    dispatches = _named(enclave, "app.dispatch")
    self_ns = self_times(enclave["spans"])
    for fn, unit_ns in (("checkpwd", 1e3), ("datasend", 1e3), ("runquery", 1e6)):
        metric = f"app.dispatch.{fn}.self_p50_{'ms' if unit_ns == 1e6 else 'us'}"
        pct(metric, [self_ns[s["id"]] / unit_ns for s in dispatches if s["attrs"].get("fn") == fn], 50)
    count(
        "app.dispatch.ok_ratio",
        sum(bool(s["attrs"].get("ok")) for s in dispatches) / len(dispatches) if dispatches else 0.0,
        len(dispatches),
    )
    pct("app.gateway.p50_ms", [_dur_ms(s) for s in gateways], 50)

    # cleanroom
    mean("cleanroom.unlabel_row.mean_us", "cleanroom.unlabel_row", 1e3)
    mean("cleanroom.psi_mean_age.ms", "cleanroom.psi_mean_age", 1e6)
    mean("cleanroom.encrypt_result.ms", "cleanroom.encrypt_result", 1e6)
    mean("cleanroom.decrypt_result.ms", "cleanroom.decrypt_result", 1e6)

    # the trace itself
    count("trace.overhead_ratio", traced_calls_per_s / untraced_calls_per_s, 2)
    joined = join_by_key(gateways, dispatches)
    count("trace.joined_calls_ratio", len(joined) / len(gateways) if gateways else 0.0, len(gateways))
    return values, samples
