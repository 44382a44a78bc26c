#!/usr/bin/env python3
"""Record preset_reference.json: every detector's ROC curve for each preset at seed 7.

    python3 tests/record_preset_reference.py

Run this only on a commit whose outputs are known to be right;
``test_preset_reference.py`` compares every later run of the presets with the
recorded curves. pytest does not collect this file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from graphscan.simulate import PRESET_NAMES, preset_config, run_roc  # noqa: E402

PATH = Path(__file__).resolve().parent / "preset_reference.json"
SEED = 7


def curves(name: str) -> dict[str, list[list[float]]]:
    """Each detector's (threshold, size, power) points for preset ``name`` at ``SEED``."""
    return {kind: curve.points.tolist() for kind, curve in run_roc(preset_config(name, seed=SEED)).items()}


def main() -> int:
    reference = {name: curves(name) for name in PRESET_NAMES}
    # one line per curve keeps the file diffable by detector
    lines = ",\n".join(
        f'  "{name}/{kind}": {json.dumps(points)}' for name, kinds in reference.items() for kind, points in kinds.items()
    )
    PATH.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
