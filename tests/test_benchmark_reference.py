"""Each benchmark workload, called once at its reference seed, still gives the recorded outputs.

The workloads live in ``perfbench/`` (not a package), which is put on
``sys.path`` to import them unchanged.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_call_matches_and_certifies(name):
    wl = workloads.WORKLOADS[name]
    g = wl.setup()
    out = wl.call(g, workloads.REFERENCE_SEED)
    assert wl.compare(workloads.load_reference()[name], out) == []
    assert wl.check(g, workloads.REFERENCE_SEED, out, certify=True) == []
