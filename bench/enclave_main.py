"""Run the enclave CLI with span recording installed; the traced run's
enclave.

    python3 bench/enclave_main.py SPANS_OUT enclave --config CFG --port 0

Wraps before the CLI stages the program (the monitor keeps the bound
``App.dispatch``), serves until SIGINT, then writes the spans to SPANS_OUT.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from enclaveflow import cli  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer("enclave")
    spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
