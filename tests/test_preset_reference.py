"""Each preset, run at seed 7, still gives the ROC curves recorded in preset_reference.json.

Sizes and powers must match exactly; thresholds to 1e-12 relative, which
allows the last-digit shifts of a block projection and nothing more. Rewrite
the file with ``tests/record_preset_reference.py`` on a commit whose outputs
are known to be right.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from graphscan.simulate import PRESET_NAMES, preset_config, run_roc

REFERENCE = json.loads((Path(__file__).resolve().parent / "preset_reference.json").read_text())
THRESHOLD_RTOL = 1e-12


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_curves_match_the_reference(name):
    curves = run_roc(preset_config(name, seed=7))
    assert [f"{name}/{kind}" for kind in curves] == [key for key in REFERENCE if key.startswith(f"{name}/")]
    for kind, curve in curves.items():
        expected = np.array(REFERENCE[f"{name}/{kind}"])
        assert curve.points.shape == expected.shape, kind
        assert np.array_equal(curve.points[:, 1:], expected[:, 1:]), kind
        np.testing.assert_allclose(curve.points[:, 0], expected[:, 0], rtol=THRESHOLD_RTOL, atol=0.0, err_msg=kind)
