#!/usr/bin/env python3
"""Print SHA-256 digests of graphscan's outputs; ``tests/output_digest.txt`` records them.

``tests/test_output_digest.py`` runs this script and compares its lines with the recorded file, so
Tier-1 fails naming every line whose output moved. A change that moves output bits on purpose
re-records the file, and its diff shows which lines moved:

    python3 tests/output_digest.py > tests/output_digest.txt

The first line names the build: the Python version, numpy's version and its OpenBLAS
configuration. The test compares the other lines only under the build that recorded them. The
lines cover:

- the CSVs and the SVG that ``graphscan experiment --preset NAME`` writes for every preset;
- at seeds 1-5 and 7, ``run_roc`` on bbt-fig1 with 25 null and 25 alternative replicates
  (``workload roc-bbt``) and on the 64x64 torus with the three baselines, delta 0.1, sigma 1 and
  50 + 50 replicates (``workload roc-torus-baselines``), ``calibrate_threshold`` of each of
  these graphs' detectors (100 replicates, alpha 0.05, the config's sigma and rho), and the SSS
  ``calibrate_threshold`` on the 48x48 torus at rho 4/48 (100 replicates, alpha 0.05, sigma 1;
  ``workload calibrate-torus``);
- ``sss`` on each preset's graph and rho, for a standard normal observation at seeds 1-5 and 7:
  the value, nu*, case, iterations, gap and the witness's bytes;
- ``chi_max`` on the 200 secular inputs of acceptance criterion 4;
- the SSS ``calibrate_threshold`` at those seeds where many replicates are refined: the depth-7
  tree at rho 4/255 with 1000 replicates (alpha 0.05), the 12x12 torus at rho 2 with 200 (alpha
  0.05 and 0.5) and the 48x48 torus at rho 4/48 with 1000 (alpha 0.05);
- every generated graph (grids p 2-39, tori 3-39, balanced binary trees of depth 1-11, Kronecker
  products of two triangles at levels 1-4): n, each array's dtype, shape, flags and bytes, the
  factor and tree records, and the hash;
- the canonical cluster of every graph in ``helpers.CLUSTER_SWEEP`` (bbt depths 2-11, grids p
  2-39, tori 3-39, kron levels 1-4), one line each: its sorted ids;
- ``glr_exact`` with and without ``require_connected`` on 40 seeded ``random_connected_graph``
  draws (n <= 12), an empty class read as None, and on three-row blocks that span many mask
  batches: K16 with seeded weights in [0.5, 1.5] at rho 15 and 16, and the 4x4 grid's connected
  class at rho 2.
- ``sss`` and ``sss_stat`` on the 4x4 grid at rho so small that lambda_max/rho overflows (3e-308,
  and 1e-310 for an observation scaled by 1e100) and where nu* overflows but the value does not
  (1e-250 for a scale of 1e170, 5e-324 for 1e200), ``cut_sparsity`` of five consecutive vertices of a
  10-cycle whose weights (1e308) make their cut overflow, and ``energy_stat`` and
  ``glr_unconstrained`` on standard normal observations of lengths 2, 9 and 255 at the seeds;
  a refusal among these reads as its message, so a tree that refuses them still prints every line.

The hash of a graph hashes bytes, which Python salts per process unless PYTHONHASHSEED is set, so
the script runs itself again with PYTHONHASHSEED=0. It imports the tree it lives in; pytest does
not collect it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import graphscan as gs  # noqa: E402
from graphscan.cli import main as cli_main  # noqa: E402
from helpers import CLUSTER_SWEEP, random_connected_graph, secular_inputs  # noqa: E402

SEEDS = (1, 2, 3, 4, 5, 7)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def graph_digest(g: gs.Graph) -> str:
    arrays = [
        (a.dtype.str, a.shape, a.flags.writeable, a.flags.c_contiguous, a.flags.owndata, a.tobytes())
        for a in (g.eu, g.ev, g.w)
    ]
    return digest(g.n, arrays, [graph_digest(f) for f in g._factors], g._depth, hash(g))


def presets():
    for name in gs.simulate.PRESET_NAMES:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli_main(["experiment", "--preset", name, "--out-dir", out])
            files = sorted(Path(out).iterdir())
            yield from ((f"preset {name} {f.name}", digest(f.read_bytes())) for f in files)


def workloads():
    bbt = replace(gs.preset_config("bbt-fig1"), reps_null=25, reps_alt=25)
    torus = gs.ExperimentConfig(family="lattice", params={"p": 64, "periodic": True}, delta=0.1, sigma=1.0,
                                reps_null=50, reps_alt=50, detectors=("energy", "edge", "glr_unconstrained"))
    for name, config in (("roc-bbt", bbt), ("roc-torus-baselines", torus)):
        runs = [gs.run_roc(replace(config, seed=seed)).items() for seed in SEEDS]
        yield f"workload {name} calls", digest([{kind: [list(p) for p in curve.points] for kind, curve in curves}
                                                for curves in runs])
        g = gs.simulate.build_experiment_graph(config)
        for kind in config.detectors:
            detector = gs.Detector(kind, rho=config.rho if kind in gs.detectors.RHO_KINDS else None)
            thresholds = [gs.calibrate_threshold(detector, g, config.sigma, 0.05, 100, seed) for seed in SEEDS]
            yield f"workload {name} calibrate {kind}", digest(thresholds)
    g, detector = gs.gen_lattice(48, periodic=True), gs.Detector("sss", rho=4.0 / 48)
    yield "workload calibrate-torus calls", digest([gs.calibrate_threshold(detector, g, 1.0, 0.05, 100, seed)
                                                    for seed in SEEDS])


def solves():
    for name in gs.simulate.PRESET_NAMES:
        config = gs.simulate.preset_config(name)
        spectrum = gs.graph_spectrum(gs.simulate.build_experiment_graph(config))
        results = [gs.sss(spectrum, np.random.default_rng(seed).standard_normal(spectrum.n), config.rho)
                   for seed in SEEDS]
        yield f"sss {name}", digest([(r.value, r.nu_star, r.case, r.iterations, r.gap, r.witness.tobytes())
                                     for r in results])
    # criterion 4 draws its secular inputs after 200 graphs and observations from the same generator
    rng = np.random.default_rng(404)
    for _ in range(200):
        rng.standard_normal(random_connected_graph(rng).n)
    yield "chi_max criterion-4", digest([gs.chi_max(c, lambdas, nu) for c, lambdas, nu in secular_inputs(rng, 200, 4)])


def calibrations():
    shapes = [
        ("bbt-7", gs.gen_bbt(7), 4.0 / 255, 1000, (0.05,)),
        ("torus-12", gs.gen_lattice(12, periodic=True), 2.0, 200, (0.05, 0.5)),
        ("torus-48", gs.gen_lattice(48, periodic=True), 4.0 / 48, 1000, (0.05,)),
    ]
    for name, g, rho, reps, alphas in shapes:
        detector = gs.Detector("sss", rho=rho)
        for alpha in alphas:
            thresholds = [gs.calibrate_threshold(detector, g, 1.0, alpha, reps, seed) for seed in SEEDS]
            yield f"calibrate sss {name} rho={rho!r} reps={reps} alpha={alpha}", digest(thresholds)


def graphs():
    families = {
        "grid": (lambda p: gs.gen_lattice(p), range(2, 40)),
        "torus": (lambda p: gs.gen_lattice(p, periodic=True), range(3, 40)),
        "bbt": (gs.gen_bbt, range(1, 12)),
        "kron": (lambda levels: gs.gen_kron_multiscale(gs.two_triangles(), levels), range(1, 5)),
    }
    for name, (make, sizes) in families.items():
        yield f"graphs {name}", digest([graph_digest(make(size)) for size in sizes])


def clusters():
    for family, params in CLUSTER_SWEEP:
        g = gs.simulate.build_experiment_graph(gs.ExperimentConfig(family=family, params=params))
        keys = " ".join(f"{key}={value}" for key, value in params.items())
        yield f"cluster {family} {keys}", digest(sorted(gs.canonical_cluster(g, family, **params).members))


def exact_glr():
    rng = np.random.default_rng(31)
    draws = []
    for _ in range(40):
        g = random_connected_graph(rng)
        draws.append((g, rng.standard_normal(g.n), float(rng.uniform(0.5, 6.0))))
    for connected in (False, True):
        values = []
        for g, y, rho in draws:
            try:
                values.append(gs.glr_exact(g, y, rho, require_connected=connected))
            except gs.EmptyClassError:
                values.append(None)
        yield f"glr_exact require_connected={connected}", digest(values)
    # three-row blocks that take many mask batches: a weighted K16 at two levels, and the 4x4 grid's
    # connected class
    rng = np.random.default_rng(35)
    pairs = list(itertools.combinations(range(16), 2))
    k16 = gs.build_graph(16, [(u, v, w) for (u, v), w in zip(pairs, rng.uniform(0.5, 1.5, len(pairs)))])
    for name, g, rho, connected in (("K16", k16, 15.0, False), ("K16", k16, 16.0, False),
                                    ("grid-4", gs.gen_lattice(4), 2.0, True)):
        detector = gs.Detector("glr_exact", rho=rho, require_connected=connected)
        values = detector.statistics(g, rng.standard_normal((3, g.n)))
        yield f"glr_exact {name} rho={rho} require_connected={connected} rows=3", digest(values.tobytes())


def outcome(call):
    """``call()``, or the message of the ValueError it raises, so that a refusal digests as a line too."""
    try:
        return call()
    except ValueError as error:
        return f"refused: {error}"


def extremes():
    g = gs.gen_lattice(4)
    y = np.random.default_rng(0).standard_normal(g.n)

    def solved(rho, y):
        r = gs.sss(gs.graph_spectrum(g), y, rho)
        return r.value, r.nu_star, r.case, r.iterations, r.gap, r.witness.tobytes(), gs.sss_stat(g, y, rho)

    for rho, scale in ((3e-308, 1.0), (3e-308, 1e100), (1e-310, 1e100), (1e-250, 1e170), (5e-324, 1e200)):
        yield f"sss grid-4 rho={rho!r} scale={scale!r}", digest(outcome(lambda: solved(rho, scale * y)))
    cycle = gs.Graph(10, np.arange(10), (np.arange(10) + 1) % 10, np.full(10, 1e308))
    half = gs.Cluster(frozenset(range(5)))
    yield "cut_sparsity 10-cycle w=1e308", digest(outcome(lambda: gs.cut_sparsity(cycle, half)))
    draws = [np.random.default_rng(seed).standard_normal(n) for seed in SEEDS for n in (2, 9, 255)]
    for function in (gs.energy_stat, gs.glr_unconstrained):
        yield function.__name__, digest([function(y) for y in draws])


def build() -> str:
    """The header line: the versions whose arithmetic the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"build python {platform.python_version()} numpy {np.__version__} blas {blas.get('openblas configuration')}"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    parts = (presets, workloads, solves, calibrations, graphs, clusters, exact_glr, extremes)
    lines = [f"{label} {value}" for part in parts for label, value in part()]
    lines.append(f"all {digest(lines)}")
    print("\n".join([build(), *lines]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
