"""Signal generation, canonical clusters, and Monte Carlo ROC experiments.

Replicate r of an experiment with seed s draws from the stream keyed by
(s, r) (null replicates use r in [0, reps_null), alternative replicates
continue at reps_null + r), so output depends only on the config. Replicates
are scored in blocks of fixed size; see :mod:`graphscan.rng` for the stream
derivation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from ._check import integer, numbers, real, require
from .detectors import RHO_KINDS, Detector, _replicate_statistics
from .graphs import Cluster, Graph, _check_cluster, gen_bbt, gen_lattice, gen_kron_multiscale, two_triangles

__all__ = [
    "SignalSpec",
    "ExperimentConfig",
    "RocCurve",
    "sample_observation",
    "canonical_cluster",
    "snr",
    "run_roc",
    "auc",
    "build_experiment_graph",
    "preset_config",
    "PRESET_NAMES",
    "write_roc_csv",
    "parse_config_file",
]

@dataclass(frozen=True)
class SignalSpec:
    """Piecewise-constant mean: mu everywhere, mu + delta on the cluster.

    ``n`` must be a positive integer (not a float or a bool).
    ``cluster=None`` means the null (constant) signal, whose gap must be 0;
    under the alternative the gap must be nonzero, mu + delta finite and the
    cluster a proper subset of 0..n-1, checked as a graph's operations check it.
    """

    n: int
    mu: float
    delta: float
    cluster: Cluster | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer("n", self.n, 1))
        mu, delta = real("mu", self.mu), real("delta", self.delta)
        if self.cluster is None:
            if self.delta != 0.0:
                raise ValueError(f"the null signal (no cluster) requires delta == 0, got {self.delta}")
        else:
            if self.delta == 0.0:
                raise ValueError("alternative signal requires delta != 0")
            if not math.isfinite(mu + delta):
                raise ValueError(f"mu + delta must be finite, got mu={mu} and delta={delta}")
            _check_cluster(self.n, self.cluster)

    @property
    def is_null(self) -> bool:
        return self.cluster is None

    def beta(self) -> np.ndarray:
        mean = np.full(self.n, float(self.mu))
        if self.cluster is not None:
            mean[sorted(self.cluster.members)] += self.delta
        return mean


def sample_observation(spec: SignalSpec, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """One draw y = beta + sigma * eps with iid standard normal eps, for a nonnegative finite sigma."""
    sigma = real("sigma", sigma, "nonnegative")
    return spec.beta() + sigma * rng.standard_normal(spec.n)


def snr(spec: SignalSpec, sigma: float) -> float:
    """Separation-to-noise ratio sqrt(|C| |C~| / n) * |delta| / sigma.

    sigma must be positive and finite. An SNR beyond the doubles is refused,
    naming delta and sigma.
    """
    if spec.is_null:
        raise ValueError("SNR is undefined for a null signal")
    sigma = real("sigma", sigma, "positive")
    k = spec.cluster.size
    value = math.sqrt(k * (spec.n - k) / spec.n) * abs(spec.delta) / sigma
    if math.isinf(value):
        raise ValueError(f"delta/sigma must be small enough for a finite SNR, got {spec.delta}/{sigma}")
    return value


def _bbt_cluster(g: Graph, params: dict) -> Cluster:
    depth = integer("depth", params["depth"], 2)
    if g.n != 2 ** (depth + 1) - 1:
        raise ValueError(f"graph has n={g.n}, not a depth-{depth} balanced binary tree")
    # the subtree of vertex 3, the leftmost depth-2 node: its descendants d levels down are
    # the 2**d ids from 4 * 2**d - 1
    levels = (range(4 * 2**d - 1, 5 * 2**d - 1) for d in range(depth - 1))
    return Cluster(frozenset(v for level in levels for v in level))


def _lattice_cluster(g: Graph, params: dict) -> Cluster:
    p = integer("p", params["p"])
    if g.n != p * p:
        raise ValueError(f"graph has n={g.n}, not a {p}x{p} lattice")
    half = p // 2
    return Cluster(frozenset(r * p + c for r in range(half) for c in range(half)))


def _kron_cluster(g: Graph, params: dict) -> Cluster:
    levels = integer("levels", params["levels"])
    if g.n != 6**levels:
        raise ValueError(f"graph has n={g.n}, not a {levels}-level product of a 6-vertex base")
    # the ids below n/2 are those whose coarsest-scale coordinate is in the base's first triangle
    return Cluster(frozenset(range(g.n // 2)))


class _Family(NamedTuple):
    build: Callable[..., Graph]  # the graph, called with the keys below as keywords
    cluster: Callable[[Graph, dict], Cluster]  # the canonical cluster
    keys: dict  # config key -> its type, for every key the family reads
    required: tuple[str, ...]


# The graph families of the experiments, one row each. A builder calls its generator
# by name, so a wrapper bound to that name (perfbench's tracer) sees each call.
_FAMILIES = {
    "bbt": _Family(lambda depth: gen_bbt(depth), _bbt_cluster, {"depth": int}, ("depth",)),
    "lattice": _Family(lambda p, periodic=False: gen_lattice(p, periodic), _lattice_cluster,
                       {"p": int, "periodic": bool}, ("p",)),
    "kron": _Family(lambda levels: gen_kron_multiscale(two_triangles(), levels), _kron_cluster,
                    {"levels": int}, ("levels",)),
}


def _family(name: str, params) -> _Family:
    """The table row of a family, once ``params`` holds every key it requires."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {tuple(_FAMILIES)}")
    family = _FAMILIES[name]
    for key in family.required:
        if key not in params:
            raise ValueError(f"family {name!r} requires {key!r}")
    return family


def _family_params(name: str, params: dict) -> _Family:
    """The table row of a family, once ``params`` holds every key it requires, no other, each of its type."""
    family = _family(name, params)
    unknown = sorted(set(params) - set(family.keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown} for family {name!r}")
    for key, value in params.items():
        require(repr(key), value, family.keys[key])
    return family


def canonical_cluster(g: Graph, family: str, **params) -> Cluster:
    """The activated cluster used by the reference experiments for each family.

    bbt:     the subtree rooted at vertex 3, the leftmost depth-2 node; requires
             ``depth`` (at least 2).
    lattice: the (p//2) x (p//2) square in the top-left corner; requires ``p``.
    kron:    the vertices whose coarsest-scale coordinate lies in the first
             triangle of the two-triangle base, the ids below n/2; requires
             ``levels``.

    Takes exactly the family's config keys (lattice ``periodic`` too), checked
    as :class:`ExperimentConfig` checks them: raises on a missing required
    parameter, any other keyword, a parameter not of its type, or a graph of
    another size.
    """
    return _family_params(family, params).cluster(g, params)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one ROC experiment.

    ``params`` holds the family parameters (bbt: depth; lattice: p, periodic;
    kron: levels, with the two-triangle base). Each family parameter must be
    of its type in ``_FAMILIES`` and each scalar field of its annotated type
    (see :mod:`graphscan._check`), the floats finite, sigma positive and the
    replicate counts at least 1; a missing or foreign parameter,
    ``detectors`` other than a nonempty tuple of distinct kinds, and
    ``cluster`` other than None (the family's canonical cluster) or a
    nonempty set of nonnegative integer ids are refused, and so is a cluster
    with delta 0, whose alternative draws are null draws that read no cluster.
    """

    family: str
    params: dict = field(default_factory=dict)
    mu: float = 0.0
    delta: float = 1.0
    sigma: float = 1.0
    rho: float = 1.0
    reps_null: int = 500
    reps_alt: int = 500
    seed: int = 0
    detectors: tuple[str, ...] = ("sss", "energy", "edge", "glr_unconstrained")
    cluster: frozenset | None = None

    def __post_init__(self) -> None:
        _family_params(self.family, self.params)
        for name in _SCALAR_FIELDS:
            require(repr(name), getattr(self, name), _FIELD_TYPES[name])
        for name in ("reps_null", "reps_alt"):
            integer(name, getattr(self, name), 1)
        for name in ("mu", "delta", "rho"):
            real(name, getattr(self, name))
        real("sigma", self.sigma, "positive")
        kinds = self.detectors
        if not (isinstance(kinds, tuple) and kinds and all(kinds.count(kind) == 1 for kind in kinds)):
            raise ValueError(f"'detectors' must be a nonempty tuple of distinct detector kinds, got {kinds!r}")
        for kind in kinds:
            Detector(kind, rho=self.rho if kind in RHO_KINDS else None)
        if self.cluster is not None:
            if not isinstance(self.cluster, (set, frozenset)):
                raise ValueError(f"'cluster' must be None or a set of vertex ids, got {self.cluster!r}")
            if self.delta == 0.0:
                raise ValueError(f"'cluster' is read only when delta != 0, got {self.cluster!r}")
            Cluster(self.cluster)  # nonempty, of nonnegative integer ids


# The type of every field after family and params, from its annotation, and the scalar
# fields among them, whose values the type rule of graphscan._check checks
_FIELD_TYPES = {name: kind for name, kind in get_type_hints(ExperimentConfig).items()
                if name not in ("family", "params")}
_SCALAR_FIELDS = tuple(name for name, kind in _FIELD_TYPES.items() if kind in (bool, int, float))


@dataclass(frozen=True, eq=False, slots=True)
class RocCurve:
    """Ordered (threshold, size, power) triples; rates fall as the threshold rises.

    ``points`` must be a nonempty (k, 3) block of triples, one row each, of
    finite real numbers (read by ``graphscan._check.numbers``), and is stored
    as a read-only float array, which holds a curve in a fraction of the
    memory of Python float tuples.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        points = numbers(self.points, float, "points").copy()
        if points.ndim != 2 or points.shape[1] != 3 or not len(points):
            raise ValueError(f"points must be a nonempty (k, 3) block of triples, got shape {points.shape}")
        thresholds, rates = points[:, 0], points[:, 1:]
        if np.any(np.diff(thresholds) < 0.0):
            raise ValueError("thresholds must be ascending")
        outside = ~((rates >= 0.0) & (rates <= 1.0)).all(axis=1)
        if outside.any():
            raise ValueError(f"rates outside [0,1] at threshold {thresholds[outside.argmax()]}")
        if np.any(np.diff(rates, axis=0) > 0.0):
            raise ValueError("size and power must be non-increasing in the threshold")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __eq__(self, other) -> bool:
        return isinstance(other, RocCurve) and np.array_equal(self.points, other.points)

    def sizes(self) -> np.ndarray:
        return self.points[:, 1].copy()

    def powers(self) -> np.ndarray:
        return self.points[:, 2].copy()


def build_experiment_graph(config: ExperimentConfig) -> Graph:
    """Instantiate the graph a config describes, anew on every call, as the generators do."""
    # Building a graph costs linear passes and one sort, and a cache here would keep every
    # experiment's graph alive and hide that cost from a benchmark that times graph set-up cold.
    return _FAMILIES[config.family].build(**config.params)


def run_roc(config: ExperimentConfig) -> dict[str, RocCurve]:
    """Monte Carlo ROC estimate for every detector in the config.

    Sweeps the thresholds over all distinct null-statistic values; at each
    threshold tau the empirical size (power) is the fraction of null
    (alternative) statistics strictly above tau. Deterministic given the seed.
    """
    g = build_experiment_graph(config)
    detectors = [
        Detector(kind, rho=config.rho if kind in RHO_KINDS else None) for kind in config.detectors
    ]
    null_spec = SignalSpec(n=g.n, mu=config.mu, delta=0.0, cluster=None)
    # with no gap the alternative is the null, which reads no cluster (and the config holds none)
    cluster = (
        None if config.delta == 0.0
        else canonical_cluster(g, config.family, **config.params) if config.cluster is None
        else Cluster(config.cluster)
    )
    alt_spec = SignalSpec(n=g.n, mu=config.mu, delta=config.delta, cluster=cluster)

    runs = ((null_spec.beta(), config.reps_null), (alt_spec.beta(), config.reps_alt))
    stats = _replicate_statistics(detectors, g, runs, config.sigma, config.seed)

    curves: dict[str, RocCurve] = {}
    for j, kind in enumerate(config.detectors):
        null_sorted = np.sort(stats[: config.reps_null, j])
        alt_sorted = np.sort(stats[config.reps_null :, j])
        # the distinct values of a sorted array, without np.unique (which
        # imports numpy.ma on first use)
        thresholds = null_sorted[np.r_[True, null_sorted[1:] != null_sorted[:-1]]]
        sizes = 1.0 - np.searchsorted(null_sorted, thresholds, side="right") / config.reps_null
        powers = 1.0 - np.searchsorted(alt_sorted, thresholds, side="right") / config.reps_alt
        curves[kind] = RocCurve(points=np.column_stack((thresholds, sizes, powers)))
    return curves


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under power versus size.

    The curve is closed with (size 0, power at the largest threshold) on the
    left and (1, 1) on the right before integrating.
    """
    pts = _closed_roc(curve)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += 0.5 * (y0 + y1) * (x1 - x0)
    return area


def _closed_roc(curve: RocCurve) -> list[tuple[float, float]]:
    """The sorted (size, power) pairs between (0, power at the top threshold) and (1, 1)."""
    pts = sorted((size, power) for _, size, power in curve.points)
    return [(0.0, pts[0][1])] + pts + [(1.0, 1.0)]


# The named presets reproducing the reference ROC comparisons: family, family
# parameters and rho. Each puts the gap-to-noise ratio at 0.8 with 500 + 500
# replicates on the family's canonical cluster, with seed 7.
_PRESETS = {
    "bbt-fig1": ("bbt", {"depth": 7}, 4.0 / 255),  # n = 255, rho = 4/n
    "lattice-fig1": ("lattice", {"p": 16}, 4.0 / 16.0),  # 16x16 grid, rho = 4/sqrt(n)
    "kron-fig1": ("kron", {"levels": 2}, 4.0 / 36),  # two-triangle base squared, rho = 4/n
}
_PRESET_SHARED = dict(delta=0.8, sigma=1.0, reps_null=500, reps_alt=500, seed=7)

PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str, seed: int | None = None) -> ExperimentConfig:
    """The experiment named ``name`` (see :data:`PRESET_NAMES`), optionally with another seed."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    family, params, rho = _PRESETS[name]
    config = dict(_PRESET_SHARED, family=family, params=dict(params), rho=rho)
    if seed is not None:
        config["seed"] = integer("seed", seed)
    return ExperimentConfig(**config)


def write_roc_csv(curve: RocCurve, path) -> None:
    """CSV with header ``threshold,size,power``, 17 significant digits per value."""
    lines = ["threshold,size,power"]
    lines.extend(f"{t:.17g},{s:.17g},{p:.17g}" for t, s, p in curve.points)
    Path(path).write_text("\n".join(lines) + "\n")


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# How a config file spells a value of each annotated type: the parser of its text, and
# what a refusal says the value must be
_SPELLINGS = {
    bool: (lambda raw: _BOOL_WORDS[raw.lower()], "true/false, yes/no or 1/0"),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple[str, ...]: (lambda raw: tuple(filter(None, map(str.strip, raw.split(",")))), "a comma list"),
    frozenset | None: (lambda raw: None if raw == "canonical" else frozenset(int(v) for v in raw.split(",")),
                       "'canonical' or vertex ids"),
}


def parse_config_file(path) -> ExperimentConfig:
    """Read a flat ``key = value`` experiment description.

    Recognized keys: family, the family's parameters and every other field of
    :class:`ExperimentConfig`, each read by its one type in ``_FAMILIES`` or
    the annotations: detectors is a comma list, cluster ``canonical`` or a
    comma list of vertex ids, and a bool one of true/false, yes/no or 1/0 in
    any case. A key another family reads is unknown. A value that does not
    read as its key's type is refused, naming the file and the key, and so is
    a key given twice, naming the file and both lines; the values read are
    then checked, and refused with the same messages, as the config does.
    """
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        entries[key], lines[key] = value, lineno

    try:
        family = entries.pop("family")
    except KeyError:
        raise ValueError(f"{path}: missing required key 'family'") from None
    keys = _family(family, entries).keys
    params, fields = {}, {}
    for key, kind in {**keys, **_FIELD_TYPES}.items():
        if key in entries:
            parse, expected = _SPELLINGS[kind]
            raw = entries.pop(key)
            try:
                (params if key in keys else fields)[key] = parse(raw)
            except (KeyError, ValueError):
                raise ValueError(f"{path}: '{key}' must be {expected}, got {raw!r}") from None
    if entries:
        raise ValueError(f"{path}: unknown keys {sorted(entries)}")
    return ExperimentConfig(family=family, params=params, **fields)
