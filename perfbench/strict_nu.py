"""Checker helper for the `periods` workload, run as a child process.

    python3 perfbench/strict_nu.py < request.json

The request is {"config": <path of a CLI config>, "xs": <encoded points>,
"max_len": n}. Prints the NuFamily values at xs from a full-depth family of
that max_len, based at the CLI base point of the config's surface, as one
line of encoded JSON. Running it in its own process keeps the deeper family
out of the benchmark process's set-up time and peak memory.
"""
from __future__ import annotations

import json
import sys

import checkout

checkout.pin_blas()
checkout.import_library()

from schottkycalc import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    req = json.load(sys.stdin)
    p = cli.load_config(req["config"]).surface
    vals = workloads.strict_nu_values(
        p, workloads.base_point(p), workloads.decode(req["xs"]), req["max_len"]
    )
    print(json.dumps(workloads.encode(vals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
