"""Every output bit against the recorded digest: ``output_digest.py`` in a subprocess, line by line."""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RERECORD = "python3 tests/output_digest.py > tests/output_digest.txt"


def by_label(lines):
    """Each digest line's label (all but its last word) and digest."""
    return dict(line.rsplit(" ", 1) for line in lines)


def test_outputs_match_the_recorded_digest():
    # the graph lines hash bytes, which Python salts per process unless PYTHONHASHSEED is set
    run = subprocess.run(
        [sys.executable, str(HERE / "output_digest.py")],
        capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    assert run.returncode == 0, run.stderr
    build, *lines = run.stdout.splitlines()
    recorded_build, *recorded = (HERE / "output_digest.txt").read_text().splitlines()
    assert build == recorded_build, (
        f"the digest was recorded under {recorded_build!r}, and this is {build!r}; "
        f"to record it for this build: {RERECORD}"
    )
    got, want = by_label(lines), by_label(recorded)
    moved = [
        f"{label}: recorded {want.get(label)}, got {got.get(label)}"
        for label in {**want, **got}
        if got.get(label) != want.get(label)
    ]
    assert not moved, f"{len(moved)} digest lines moved (if on purpose: {RERECORD}):\n" + "\n".join(moved)
