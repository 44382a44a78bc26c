"""Signal sampling, canonical clusters, ROC curves, and experiment plumbing."""
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graphscan import (
    Cluster,
    Detector,
    ExperimentConfig,
    RocCurve,
    SignalSpec,
    auc,
    calibrate_threshold,
    canonical_cluster,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    parse_config_file,
    preset_config,
    replicate_rng,
    run_roc,
    sample_observation,
    snr,
    two_triangles,
    write_roc_csv,
)
from graphscan import detectors, spectral
from graphscan.simulate import PRESET_NAMES, build_experiment_graph
from helpers import CLUSTER_SWEEP, canonical_cluster_reference, induced_connected


class TestSignalSpec:
    def test_beta_vector(self):
        spec = SignalSpec(n=4, mu=1.0, delta=2.0, cluster=Cluster(frozenset({1, 3})))
        np.testing.assert_array_equal(spec.beta(), [1.0, 3.0, 1.0, 3.0])

    def test_alternative_requires_nonzero_delta(self):
        with pytest.raises(ValueError, match="delta"):
            SignalSpec(n=3, mu=0.0, delta=0.0, cluster=Cluster(frozenset({0})))

    @pytest.mark.parametrize("delta", [5.0, -0.5])
    def test_null_refuses_a_nonzero_delta(self, delta):
        # the gap would apply to no vertex, and beta() would drop it
        with pytest.raises(ValueError, match="delta == 0"):
            SignalSpec(n=4, mu=0.0, delta=delta)

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_a_vertex(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            SignalSpec(n=n, mu=0.0, delta=0.0)

    def test_cluster_must_be_proper(self):
        with pytest.raises(ValueError, match="proper"):
            SignalSpec(n=2, mu=0.0, delta=1.0, cluster=Cluster(frozenset({0, 1})))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu", "delta"])
    def test_rejects_non_finite_mean(self, name, bad):
        values = {"mu": 0.0, "delta": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SignalSpec(n=3, cluster=Cluster(frozenset({0})), **values)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentConfig(family="bbt", params={"depth": 2}, **values)

    @pytest.mark.parametrize(
        "mu, delta", [(1e308, 1e308), (-1e308, -1e308), (10**308, 10**308)], ids=["float", "negative", "int"]
    )
    def test_refuses_a_cluster_mean_beyond_the_doubles(self, mu, delta):
        # each is finite alone; their sum, the mean on the cluster, is not
        message = f"^{re.escape(f'mu + delta must be finite, got mu={float(mu)} and delta={float(delta)}')}$"
        with pytest.raises(ValueError, match=message):
            SignalSpec(n=3, mu=mu, delta=delta, cluster=Cluster(frozenset({0})))
        config = ExperimentConfig(family="lattice", params={"p": 3}, mu=mu, delta=delta, reps_null=2, reps_alt=2)
        with pytest.raises(ValueError, match=message):
            run_roc(config)
        assert SignalSpec(n=3, mu=-1e308, delta=1e308, cluster=Cluster(frozenset({0}))).beta()[0] == 0.0


class TestSampleObservation:
    def test_noiseless_null_is_constant(self):
        spec = SignalSpec(n=5, mu=3.0, delta=0.0)
        y = sample_observation(spec, 0.0, replicate_rng(0, 0))
        np.testing.assert_array_equal(y, np.full(5, 3.0))

    def test_noiseless_alternative_is_beta(self):
        spec = SignalSpec(n=4, mu=1.0, delta=-2.0, cluster=Cluster(frozenset({0})))
        y = sample_observation(spec, 0.0, replicate_rng(0, 0))
        np.testing.assert_array_equal(y, spec.beta())

    def test_standard_normal_moments(self):
        spec = SignalSpec(n=1000, mu=0.0, delta=0.0)
        y = sample_observation(spec, 1.0, replicate_rng(12, 0))
        assert abs(y.mean()) <= 0.11
        assert 0.85 <= y.var() <= 1.15

    def test_deterministic_given_stream(self):
        spec = SignalSpec(n=10, mu=0.0, delta=0.0)
        a = sample_observation(spec, 1.0, replicate_rng(5, 3))
        b = sample_observation(spec, 1.0, replicate_rng(5, 3))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            sample_observation(SignalSpec(n=3, mu=0.0, delta=0.0), bad, replicate_rng(0, 0))
        with pytest.raises(ValueError, match="sigma"):
            ExperimentConfig(family="bbt", params={"depth": 2}, sigma=bad)
        with pytest.raises(ValueError, match="sigma"):
            snr(SignalSpec(n=3, mu=0.0, delta=1.0, cluster=Cluster(frozenset({0}))), bad)

    @pytest.mark.parametrize("index", [-1, -(2**70)])
    def test_rejects_negative_replicate_index(self, index):
        with pytest.raises(ValueError, match="replicate index must be nonnegative"):
            replicate_rng(0, index)


class TestFamilyParameters:
    @pytest.mark.parametrize(
        "family, params, match",
        [
            ("lattice", {}, "requires 'p'"),
            ("bbt", {"periodic": True}, "requires 'depth'"),
            ("kron", {"depth": 2}, "requires 'levels'"),
            ("bbt", {"depth": 3, "p": 16}, r"unknown keys \['p'\]"),
            ("lattice", {"p": 4, "levels": 2, "depth": 1}, r"unknown keys \['depth', 'levels'\]"),
            ("ring", {"depth": 3}, "unknown family 'ring'"),
        ],
    )
    def test_config_refuses_missing_and_foreign_keys(self, family, params, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(family=family, params=params)

    @pytest.mark.parametrize(
        "family, params, match",
        [
            ("lattice", {"p": 4, "periodic": "false"}, "'periodic' must be a bool, got 'false'"),
            ("lattice", {"p": 4, "periodic": 1}, "'periodic' must be a bool, got 1"),
            ("lattice", {"p": 4.0}, "'p' must be an integer, got 4.0"),
            ("bbt", {"depth": 2.7}, "'depth' must be an integer, got 2.7"),
            ("bbt", {"depth": True}, "'depth' must be an integer, got True"),
            ("kron", {"levels": "2"}, "'levels' must be an integer, got '2'"),
        ],
    )
    def test_config_refuses_values_of_another_type(self, family, params, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(family=family, params=params)

    def test_config_takes_numpy_integers(self):
        config = ExperimentConfig(family="lattice", params={"p": np.int64(4), "periodic": False})
        assert build_experiment_graph(config) == gen_lattice(4)
        config = ExperimentConfig(family="bbt", params={"depth": 2}, reps_null=np.int32(5), seed=np.uint8(3))
        assert (config.reps_null, config.seed) == (5, 3)

    @pytest.mark.parametrize("reps", [{"reps_null": 0}, {"reps_alt": 0}, {"reps_null": -1}])
    def test_config_needs_replicates(self, reps):
        ((name, value),) = reps.items()
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            ExperimentConfig(family="bbt", params={"depth": 2}, **reps)

    def test_every_family_builds_from_its_keys(self):
        for family, params, n in (("bbt", {"depth": 3}, 15), ("lattice", {"p": 3, "periodic": True}, 9),
                                  ("kron", {"levels": 2}, 36)):
            g = build_experiment_graph(ExperimentConfig(family=family, params=params, delta=0.0))
            assert g.n == n
            assert canonical_cluster(g, family, **params).size < n


class TestCanonicalCluster:
    def test_bbt_depth_seven_subtree(self):
        g = gen_bbt(7)
        c = canonical_cluster(g, "bbt", depth=7)
        assert c.size == 63  # 2**(7-1) - 1, about n/4
        assert induced_connected(g, c.members)
        assert 3 in c.members and 0 not in c.members

    def test_lattice_corner_square(self):
        c = canonical_cluster(gen_lattice(16), "lattice", p=16)
        assert c.size == 64
        assert all(v % 16 < 8 and v // 16 < 8 for v in c.members)

    def test_kron_half_base(self):
        g = gen_kron_multiscale(two_triangles(), 2)
        c = canonical_cluster(g, "kron", levels=2)
        assert c.size == g.n // 2
        assert all(v // 6 in {0, 1, 2} for v in c.members)

    def test_mismatched_family_rejected(self):
        with pytest.raises(ValueError, match="not a"):
            canonical_cluster(gen_lattice(4), "bbt", depth=4)
        with pytest.raises(ValueError, match="not a"):
            canonical_cluster(gen_bbt(3), "lattice", p=4)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            canonical_cluster(gen_bbt(2), "ring")

    def test_default_clusters_as_first_defined(self):
        for family, params in CLUSTER_SWEEP:
            g = build_experiment_graph(ExperimentConfig(family=family, params=params))
            expected = canonical_cluster_reference(family, params)
            assert canonical_cluster(g, family, **params).members == expected, (family, params)

    @pytest.mark.parametrize(
        "g, family, params, match",
        [
            (gen_bbt(3), "bbt", {}, "requires 'depth'"),
            (gen_lattice(4), "lattice", {"periodic": False}, "requires 'p'"),
            (gen_kron_multiscale(two_triangles(), 2), "kron", {"base_n": 6}, "requires 'levels'"),
            (gen_bbt(1), "bbt", {"depth": 1}, "^depth must be >= 2, got 1$"),
            (gen_lattice(4), "kron", {"levels": 2}, "not a 2-level product of a 6-vertex base"),
            (gen_bbt(3), "bbt", {"depth": 3, "node": 3}, r"^unknown keys \['node'\] for family 'bbt'$"),
            (gen_kron_multiscale(two_triangles(), 2), "kron", {"levels": 2, "base_n": 6},
             r"^unknown keys \['base_n'\] for family 'kron'$"),
            (gen_kron_multiscale(two_triangles(), 2), "kron", {"levels": 2, "base_half": (0, 1, 2)},
             r"^unknown keys \['base_half'\] for family 'kron'$"),
            (gen_lattice(4), "lattice", {"p": 4, "bogus": 1}, r"unknown keys \['bogus'\] for family 'lattice'"),
            (gen_bbt(3), "bbt", {"depth": 3, "base_half": (0,)}, r"unknown keys \['base_half'\] for family 'bbt'"),
            (gen_kron_multiscale(two_triangles(), 2), "kron", {"levels": 2, "node": 3, "p": 4},
             r"unknown keys \['node', 'p'\] for family 'kron'"),
            (gen_lattice(16), "lattice", {"p": 16, "periodic": "x"}, "^'periodic' must be a bool, got 'x'$"),
            (gen_lattice(16), "lattice", {"p": 16, "periodic": 2}, "^'periodic' must be a bool, got 2$"),
        ],
        ids=[
            "no_depth", "no_p", "no_levels", "depth1", "kron_size", "node", "base_n", "base_half",
            "unread_key", "other_cluster_option", "other_family_keys", "periodic_text", "periodic_int",
        ],
    )
    def test_bad_parameters_rejected(self, g, family, params, match):
        with pytest.raises(ValueError, match=match):
            canonical_cluster(g, family, **params)


class TestSnr:
    def test_two_vertex_singleton(self):
        spec = SignalSpec(n=2, mu=0.0, delta=1.0, cluster=Cluster(frozenset({0})))
        assert snr(spec, 1.0) == pytest.approx(math.sqrt(0.5))

    def test_half_cluster_maximizes(self):
        n = 16
        sizes = range(1, n)
        values = [
            snr(SignalSpec(n=n, mu=0.0, delta=1.0, cluster=Cluster(frozenset(range(k)))), 1.0)
            for k in sizes
        ]
        assert max(values) == values[n // 2 - 1]

    def test_matches_signal_norm(self):
        # oracle: ||beta - mean(beta)|| / sigma
        spec = SignalSpec(n=256, mu=0.7, delta=0.8, cluster=Cluster(frozenset(range(64))))
        beta = spec.beta()
        expected = np.linalg.norm(beta - beta.mean()) / 1.0
        assert snr(spec, 1.0) == pytest.approx(expected, abs=1e-10)
        assert snr(spec, 1.0) == pytest.approx(0.8 * math.sqrt(48.0), abs=1e-10)

    def test_null_spec_rejected(self):
        with pytest.raises(ValueError, match="null"):
            snr(SignalSpec(n=4, mu=0.0, delta=0.0), 1.0)


class TestRocCurve:
    def test_rejects_rate_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            RocCurve(points=((0.0, 1.2, 0.5),))

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RocCurve(points=((0.0, 0.5, 0.5), (1.0, 0.8, 0.4)))

    def test_rejects_unordered_thresholds(self):
        with pytest.raises(ValueError, match="ascending"):
            RocCurve(points=((1.0, 0.5, 0.5), (0.0, 0.9, 0.9)))

    @pytest.mark.parametrize(
        "points",
        [((1.0, 0.5, 0.5), (math.nan, 0.4, 0.4), (0.5, 0.3, 0.3)), ((0.0, 0.5, 0.5), (math.inf, 0.0, 0.0))],
    )
    def test_rejects_non_finite_threshold(self, points):
        with pytest.raises(ValueError, match="finite"):
            RocCurve(points=points)

    @pytest.mark.parametrize("points", [[("1", "0.5", "0.5")], [(0.0, True, 1.0)], [(0.0, 0.5, 0.5j)]])
    def test_rejects_points_that_are_not_numbers(self, points):
        with pytest.raises(ValueError, match="^points must hold only numbers, got "):
            RocCurve(points=points)

    @pytest.mark.parametrize(
        "points",
        [
            np.zeros((3, 4)),  # four columns, which read as four triples
            np.zeros((2, 2, 3)),  # a stack of blocks, which read as four triples
            [0.0, 1.0, 1.0, 0.5, 0.0, 1.0],  # a flat list, which read as two triples
            [1.0, 2.0],  # which numpy could not reshape
            [],  # which read as a curve, with an AUC of 1
            np.zeros((0, 3)),
        ],
        ids=["3x4", "2x2x3", "flat-6", "flat-2", "empty", "no-rows"],
    )
    def test_rejects_anything_but_a_nonempty_block_of_triples(self, points):
        with pytest.raises(ValueError, match=r"^points must be a nonempty \(k, 3\) block of triples, got shape "):
            RocCurve(points=points)

    def test_points_are_a_read_only_array(self):
        triples = ((0.0, 1.0, 1.0), (0.5, 0.0, 1.0))
        curve = RocCurve(points=triples)
        assert curve.points.shape == (2, 3)
        assert not curve.points.flags.writeable
        np.testing.assert_array_equal(curve.sizes(), [1.0, 0.0])
        assert curve == RocCurve(points=np.array(triples))
        assert curve != RocCurve(points=((0.0, 1.0, 1.0), (0.5, 0.0, 0.5)))

    @pytest.mark.parametrize("column, accessor", [(1, "sizes"), (2, "powers")])
    def test_rate_accessors_return_writable_copies(self, column, accessor):
        curve = RocCurve(points=((0.0, 1.0, 1.0), (0.5, 0.25, 0.75)))
        rates = getattr(curve, accessor)()
        np.testing.assert_array_equal(rates, curve.points[:, column])
        rates[0] = -1.0
        assert curve.points[0, column] == 1.0


class TestRunRoc:
    def small_config(self, **overrides):
        base = dict(
            family="lattice",
            params={"p": 3},
            delta=1.5,
            sigma=1.0,
            rho=2.0,
            reps_null=80,
            reps_alt=80,
            seed=17,
            detectors=("sss", "energy", "edge", "glr_unconstrained"),
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_curves_have_roc_invariants(self):
        curves = run_roc(self.small_config())
        assert set(curves) == {"sss", "energy", "edge", "glr_unconstrained"}
        for curve in curves.values():
            assert len(curve.points) >= 1  # construction already validates monotonicity

    def test_vanishing_noise_separates_perfectly(self):
        curves = run_roc(self.small_config(sigma=1e-9, reps_null=40, reps_alt=40))
        for curve in curves.values():
            assert any(size == 0.0 and power == 1.0 for _, size, power in curve.points)

    def test_identical_specs_power_tracks_size(self):
        curves = run_roc(self.small_config(delta=0.0, reps_null=1000, reps_alt=1000, seed=8))
        for curve in curves.values():
            deviations = [abs(power - size) for _, size, power in curve.points]
            assert max(deviations) <= 0.05

    def test_explicit_cluster(self):
        config = self.small_config(params={"p": 4}, reps_null=40, reps_alt=40)
        g = build_experiment_graph(config)
        canonical = canonical_cluster(g, "lattice", p=4).members
        assert run_roc(replace(config, cluster=canonical)) == run_roc(config)
        # a vanishing signal on another cluster changes only the alternative draws
        other = run_roc(replace(config, cluster=frozenset({15}), delta=1e-12))
        assert not np.array_equal(other["energy"].powers(), run_roc(config)["energy"].powers())
        np.testing.assert_array_equal(other["energy"].sizes(), run_roc(config)["energy"].sizes())

    def test_same_seed_byte_identical_csv(self, tmp_path):
        config = self.small_config()
        for run in ("a", "b"):
            curves = run_roc(config)
            write_roc_csv(curves["sss"], tmp_path / f"{run}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("rows", [1, 7])
    def test_block_size_changes_only_sss_rounding(self, tmp_path, monkeypatch, rows):
        # the baselines score each row alone; the SSS projects the whole block
        # with one matrix product, whose rounding depends on the block shape
        config = self.small_config(params={"p": 6}, reps_null=100, reps_alt=100)
        default = run_roc(config)
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", rows * build_experiment_graph(config).n)
        blocked = run_roc(config)
        for kind in ("energy", "edge", "glr_unconstrained"):
            write_roc_csv(default[kind], tmp_path / "a.csv")
            write_roc_csv(blocked[kind], tmp_path / "b.csv")
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a, b = default["sss"].points, blocked["sss"].points
        assert np.array_equal(a[:, 1:], b[:, 1:])
        np.testing.assert_allclose(b[:, 0], a[:, 0], rtol=1e-12, atol=0.0)

    def test_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use, about 1 MB of resident memory
        code = (
            "import sys; from dataclasses import replace; import graphscan as gs; "
            "gs.run_roc(replace(gs.preset_config('kron-fig1'), reps_null=5, reps_alt=5)); "
            "print('numpy.ma' in sys.modules)"
        )
        src = str(Path(detectors.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_rebuilt_graph_hits_the_cached_spectrum(self):
        config = replace(preset_config("bbt-fig1"), reps_null=20, reps_alt=20)
        run_roc(config)
        misses = detectors.graph_spectrum.cache_info().misses
        for _ in range(3):
            run_roc(config)
        assert detectors.graph_spectrum.cache_info().misses == misses

    def test_csv_format(self, tmp_path):
        curves = run_roc(self.small_config(reps_null=40, reps_alt=40))
        path = tmp_path / "roc.csv"
        write_roc_csv(curves["energy"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,size,power"
        first = lines[1].split(",")
        assert len(first) == 3 and float(first[1]) <= 1.0

    def test_calibration_consistency(self):
        # empirical size at the calibrated threshold stays near alpha
        alpha, reps = 0.1, 1000
        config = self.small_config(reps_null=reps, reps_alt=50, seed=21)
        g = build_experiment_graph(config)
        threshold = calibrate_threshold(
            Detector("energy"), g, config.sigma, alpha, reps=4000, seed=777
        )
        curves = run_roc(config)
        null_sizes = [
            (t, size) for t, size, _ in curves["energy"].points
        ]
        below = [size for t, size in null_sizes if t <= threshold]
        empirical = min(below) if below else 1.0
        assert abs(empirical - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / reps)


class TestAuc:
    def test_perfect_separation(self):
        curve = RocCurve(points=((0.0, 1.0, 1.0), (0.5, 0.0, 1.0)))
        assert auc(curve) == pytest.approx(1.0)

    def test_diagonal_is_half(self):
        points = tuple((float(t), 1.0 - t / 10.0, 1.0 - t / 10.0) for t in range(11))
        assert auc(RocCurve(points=points)) == pytest.approx(0.5)

    def test_two_point_trapezoid(self):
        # trapezoid arithmetic: ((0.5+1)/2)*1 = 0.75
        curve = RocCurve(points=((0.0, 1.0, 1.0), (1.0, 0.0, 0.5)))
        assert auc(curve) == pytest.approx(0.75)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_resolve(self, name):
        config = preset_config(name)
        g = build_experiment_graph(config)
        assert config.reps_null == config.reps_alt == 500
        assert config.delta / config.sigma == pytest.approx(0.8)
        if name == "bbt-fig1":
            assert g.n == 255 and config.rho == pytest.approx(4.0 / 255)
        elif name == "lattice-fig1":
            assert g.n == 256 and config.rho == pytest.approx(4.0 / 16.0)
        else:
            assert g.n == 36 and config.rho == pytest.approx(4.0 / 36)

    def test_seed_override(self):
        assert preset_config("bbt-fig1", seed=123).seed == 123

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            preset_config("grid-fig2")


class TestConfigFile:
    def test_parse_full_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "family = lattice\n"
            "p = 4\n"
            "periodic = false\n"
            "mu = 0.5\n"
            "delta = 1.25\n"
            "sigma = 2.0\n"
            "rho = 1.5\n"
            "reps_null = 120\n"
            "reps_alt = 150\n"
            "seed = 9\n"
            "detectors = energy, sss\n"
            "cluster = canonical\n"
        )
        config = parse_config_file(path)
        assert config.family == "lattice" and config.params == {"p": 4, "periodic": False}
        assert (config.mu, config.delta, config.sigma, config.rho) == (0.5, 1.25, 2.0, 1.5)
        assert (config.reps_null, config.reps_alt, config.seed) == (120, 150, 9)
        assert config.detectors == ("energy", "sss")
        assert config.cluster is None

    def test_explicit_cluster(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("family = lattice\np = 3\ncluster = 0,1,3\ndelta = 1.0\n")
        assert parse_config_file(path).cluster == frozenset({0, 1, 3})

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# a tree\n\nfamily = bbt\n   \n  # depth below\ndepth = 2\n")
        assert parse_config_file(path) == ExperimentConfig(family="bbt", params={"depth": 2})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("family = bbt\ndepth = 2\nwidth = 4\n")
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config_file(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("family = bbt\ndepth = 2\ndelta = nan\n")
        with pytest.raises(ValueError, match="delta must be finite"):
            parse_config_file(path)

    def test_missing_family_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("depth = 2\n")
        with pytest.raises(ValueError, match="family"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("family = bbt\ndepth 2\n", ":2: expected 'key = value'"),
            ("family = bbt\ndelta = 0.5\n", "family 'bbt' requires 'depth'"),
            ("family = kron\n", "family 'kron' requires 'levels'"),
            ("family = bbt\ndepth = 3\np = 16\n", r"unknown keys \['p'\]"),
            ("family = lattice\np = 4\nlevels = 2\n", r"unknown keys \['levels'\]"),
            ("family = torus\np = 4\n", "unknown family 'torus'"),
            ("family = lattice\np = 4\nperiodic = ture\n",
             r"exp\.cfg: 'periodic' must be true/false, yes/no or 1/0, got 'ture'"),
            ("family = lattice\np = 4.5\n", r"exp\.cfg: 'p' must be an integer, got '4\.5'"),
            ("family = lattice\np = 4\ncluster = 1, 2,\n",
             r"exp\.cfg: 'cluster' must be 'canonical' or vertex ids, got '1, 2,'"),
        ],
        ids=["no_equals", "no_depth", "no_levels", "foreign_p", "foreign_levels", "unknown_family",
             "misspelt_bool", "fractional_int", "trailing_comma_cluster"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "field, value, line, match",
        [
            ("reps_null", 2.5, "reps_null = 2.5", "'reps_null' must be an integer"),
            ("reps_alt", True, "reps_alt = true", "'reps_alt' must be an integer"),
            ("seed", 1.5, "seed = 1.5", "'seed' must be an integer"),
            ("mu", math.nan, "mu = nan", "mu must be finite, got nan"),
            ("mu", True, "mu = true", "'mu' must be a number"),
            ("rho", math.inf, "rho = inf\ndetectors = energy", "rho must be finite, got inf"),
            ("detectors", ("energy", "energy"), "detectors = energy, energy",
             r"'detectors' must be a nonempty tuple of distinct detector kinds, got \('energy', 'energy'\)"),
            ("detectors", (), "detectors =", r"'detectors' must be a nonempty tuple of distinct detector kinds, got \(\)"),
            ("detectors", "sss", None, "'detectors' must be a nonempty tuple of distinct detector kinds, got 'sss'"),
            ("cluster", frozenset(), None, "cluster must be nonempty"),
            ("cluster", [0], None, r"'cluster' must be None or a set of vertex ids, got \[0\]"),
        ],
        ids=["fractional_reps", "bool_reps", "fractional_seed", "nan_mu", "bool_mu", "inf_rho", "repeated_detectors",
             "no_detectors", "string_detectors", "empty_cluster", "list_cluster"],
    )
    def test_config_and_file_refuse_alike(self, tmp_path, field, value, line, match):
        # a file cannot spell a detectors string or an empty or listed cluster
        base = {"detectors": ("energy",)} if field == "rho" else {}
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(family="bbt", params={"depth": 2}, **{**base, field: value})
        if line is not None:
            path = tmp_path / "exp.cfg"
            path.write_text(f"family = bbt\ndepth = 2\n{line}\n")
            with pytest.raises(ValueError, match=match):
                parse_config_file(path)

    def test_config_and_file_refuse_a_cluster_nothing_reads(self, tmp_path):
        # with no gap the alternative draws are null draws, which read no cluster
        match = r"'cluster' is read only when delta != 0, got frozenset\(\{999\}\)"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(family="bbt", params={"depth": 3}, delta=0.0, cluster=frozenset({999}))
        path = tmp_path / "exp.cfg"
        path.write_text("family = bbt\ndepth = 3\ndelta = 0\ncluster = 999\n")
        with pytest.raises(ValueError, match=match):
            parse_config_file(path)
        assert ExperimentConfig(family="bbt", params={"depth": 3}, delta=0.0).cluster is None

    def test_repeated_key_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("family = lattice\np = 4\n# p raised below\np = 6\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:4: key 'p' repeats line 2"):
            parse_config_file(path)

    def test_family_keys_of_each_family(self, tmp_path):
        path = tmp_path / "exp.cfg"
        for text, params in (("family = bbt\ndepth = 3\n", {"depth": 3}),
                             ("family = lattice\np = 5\nperiodic = yes\n", {"p": 5, "periodic": True}),
                             ("family = lattice\np = 5\nperiodic = TRUE\n", {"p": 5, "periodic": True}),
                             ("family = lattice\np = 5\nperiodic = No\n", {"p": 5, "periodic": False}),
                             ("family = lattice\np = 5\nperiodic = 0\n", {"p": 5, "periodic": False}),
                             ("family = kron\nlevels = 2\n", {"levels": 2})):
            path.write_text(text)
            assert parse_config_file(path).params == params
