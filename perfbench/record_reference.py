#!/usr/bin/env python3
"""Record reference.json: each workload's output for the reference seed.

    python3 perfbench/record_reference.py

Run this only on a commit whose outputs are known to be right; every
benchmark run compares one call per workload against the recorded values.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        g = wl.setup()
        reference[name] = wl.summary(wl.call(g, workloads.REFERENCE_SEED))
    reference["_recorded_at"] = run.git_commit()
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
