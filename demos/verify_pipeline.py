"""Drive the command line pipeline end to end from Python.

Writes a config file and runs `verify` once: it trains through every round,
writes the same trace files as `train`, then runs the verification checks.
Prints the head of the trace and the resulting report. Everything lands in a
temporary directory.
"""

import json
import tempfile
from pathlib import Path

from fedspectra.cli import main

config = {
    "model": {"kind": "deep-linear", "depth": 3, "width": 1000, "d_in": 10, "d_out": 5},
    "data": {"kind": "synthetic", "n": 32},
    "federation": {"n_clients": 4, "local_steps": 3, "rounds": 4, "eta": 2e-05, "seed": 1},
    "verify": {"rounds": [0, 3]},
}

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(config, indent=2))

    out = tmp / "verify"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    print(f"\nverify exit code: {code}, files: {', '.join(sorted(p.name for p in out.iterdir()))}")
    head = (out / "trace.csv").read_text().splitlines()
    print("trace.csv:", head[0])
    for line in head[1:3]:
        print("          ", line[:100])

    report = json.loads((out / "verify.json").read_text())
    print(f"all passed: {report['passed']}")
    print(f"checks run: {len(report['checks'])}")
