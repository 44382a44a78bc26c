"""End-to-end command-line behavior: files in, files out, exit codes."""
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from graphscan import energy_stat, gen_bbt, read_edge_list, replicate_rng
from graphscan import simulate
from graphscan.cli import main
from helpers import order_index


def run_cli(*argv):
    return main(list(argv))


def write_signal(path, values):
    path.write_text("".join(f"{v!r}\n" for v in values))


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.tsv"
    path.write_text("n=2\n0\t1\t1.0\n")
    return path


class TestGenGraph:
    def test_bbt_depth_two_file(self, tmp_path):
        out = tmp_path / "t.tsv"
        assert run_cli("gen-graph", "--family", "bbt", "--depth", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n=7"
        assert len(lines) == 1 + 6
        # matches the level-order construction: parent of v is (v-1)//2
        g = read_edge_list(out)
        assert sorted(g.edges) == sorted(gen_bbt(2).edges)

    def test_missing_family_parameter_is_domain_error(self, tmp_path, capsys):
        code = run_cli("gen-graph", "--family", "bbt", "--out", str(tmp_path / "x.tsv"))
        assert code == 1
        assert "--depth" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("gen-graph", "--family", "bbt", "--depth", "2", "--frobnicate", "1")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--family", "bbt", "--depth", "3", "--side", "5", "--levels", "9", "--periodic"), "--levels"),
            (("--family", "bbt", "--depth", "3", "--periodic"), "--periodic"),
            (("--family", "lattice", "--side", "3", "--depth", "0"), "--depth"),
            (("--family", "kron", "--levels", "2", "--side", "4"), "--side"),
            (("--family", "two-k3", "--levels", "2"), "--levels"),
        ],
        ids=["bbt-three", "bbt-periodic", "lattice-depth-zero", "kron-side", "two-k3-levels"],
    )
    def test_refuses_a_flag_its_family_does_not_read(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "g.tsv"
        assert run_cli("gen-graph", *argv, "--out", str(out)) == 1
        assert f"error: --family {argv[1]} does not read {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--family", "lattice", "--side", "2", "--periodic"), "--side must be >= 3, got 2"),
            (("--family", "lattice", "--side", "1"), "--side must be >= 2, got 1"),
            (("--family", "bbt", "--depth", "0"), "--depth must be >= 1, got 0"),
            (("--family", "kron", "--levels", "0"), "--levels must be >= 1, got 0"),
        ],
        ids=["torus-side", "grid-side", "bbt-depth", "kron-levels"],
    )
    def test_out_of_range_value_names_its_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g.tsv"
        assert run_cli("gen-graph", *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not out.exists()

    def test_echoes_config_to_stderr(self, tmp_path, capsys):
        run_cli("gen-graph", "--family", "lattice", "--side", "3", "--out", str(tmp_path / "l.tsv"))
        err = capsys.readouterr().err
        assert "config:" in err and "family=lattice" in err

    def test_kron_family(self, tmp_path):
        out = tmp_path / "k.tsv"
        assert run_cli("gen-graph", "--family", "kron", "--levels", "2", "--out", str(out)) == 0
        assert read_edge_list(out).n == 36

    def test_two_k3_family(self, tmp_path):
        out = tmp_path / "h.tsv"
        assert run_cli("gen-graph", "--family", "two-k3", "--out", str(out)) == 0
        g = read_edge_list(out)
        assert (g.n, g.num_edges()) == (6, 7)


class TestSpectrum:
    def test_eigenvalue_csv(self, tmp_path, p2_file):
        out = tmp_path / "eigs.csv"
        assert run_cli("spectrum", "--graph", str(p2_file), "--out", str(out)) == 0
        values = [float(line) for line in out.read_text().splitlines()]
        np.testing.assert_allclose(values, [0.0, 2.0], atol=1e-12)

    def test_missing_graph_file(self, tmp_path, capsys):
        code = run_cli("spectrum", "--graph", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "nope.tsv" in capsys.readouterr().err

    def test_bad_number_names_file_and_line(self, tmp_path, capsys):
        graph = tmp_path / "bad.tsv"
        graph.write_text("n=3\n0\t1\t1.0\n1\tx\t1.0\n")
        code = run_cli("spectrum", "--graph", str(graph), "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"error: {graph}:3: " in capsys.readouterr().err

    def test_invalid_edge_names_file_and_line(self, tmp_path, capsys):
        graph = tmp_path / "dup.tsv"
        graph.write_text("n=3\n0\t1\t1.0\n1\t0\t1.0\n")
        code = run_cli("spectrum", "--graph", str(graph), "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"error: {graph}:3: duplicate edge (1,0)" in capsys.readouterr().err


class TestScan:
    def test_energy_on_p2(self, tmp_path, p2_file, capsys):
        sig = tmp_path / "y.csv"
        write_signal(sig, [1.0, -1.0])
        assert run_cli("scan", "--graph", str(p2_file), "--signal", str(sig), "--stat", "energy") == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(2.0)

    def test_sss_requires_rho(self, tmp_path, p2_file, capsys):
        sig = tmp_path / "y.csv"
        write_signal(sig, [1.0, -1.0])
        for stat in ("sss", "glr_exact"):
            code = run_cli("scan", "--graph", str(p2_file), "--signal", str(sig), "--stat", stat)
            assert code == 1
            assert "--rho" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--stat", "energy", "--rho", "0.5"), "takes no rho"),
            (("--stat", "sss", "--rho", "0.5", "--require-connected"), "require_connected applies only to glr_exact"),
        ],
        ids=["energy-rho", "sss-require-connected"],
    )
    def test_refuses_an_argument_the_statistic_does_not_read(self, tmp_path, p2_file, capsys, flags, message):
        sig = tmp_path / "y.csv"
        write_signal(sig, [1.0, -1.0])
        assert run_cli("scan", "--graph", str(p2_file), "--signal", str(sig), *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err and message in captured.err

    def test_non_finite_signal_is_domain_error(self, tmp_path, p2_file, capsys):
        sig = tmp_path / "y.csv"
        sig.write_text("1.0\nnan\n")
        assert run_cli("scan", "--graph", str(p2_file), "--signal", str(sig), "--stat", "energy") == 1
        assert "y.csv" in capsys.readouterr().err

    def test_infeasible_class_is_domain_error(self, tmp_path, p2_file, capsys):
        sig = tmp_path / "y.csv"
        write_signal(sig, [1.0, -1.0])
        code = run_cli(
            "scan", "--graph", str(p2_file), "--signal", str(sig),
            "--stat", "glr_exact", "--rho", "1.0",
        )
        assert code == 1
        assert "sparsity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [(None, "No such file"), ("1.0\nheavy\n", "non-numeric entry")],
        ids=["missing", "word"],
    )
    def test_unreadable_signal_is_domain_error(self, tmp_path, p2_file, capsys, content, message):
        sig = tmp_path / "y.csv"
        if content is not None:
            sig.write_text(content)
        assert run_cli("scan", "--graph", str(p2_file), "--signal", str(sig), "--stat", "energy") == 1
        assert f"error: --signal {sig}: {message}" in capsys.readouterr().err

    def test_length_mismatch_names_the_file(self, tmp_path, p2_file, capsys):
        sig = tmp_path / "y.csv"
        write_signal(sig, [1.0, -1.0, 3.0])
        assert run_cli("scan", "--graph", str(p2_file), "--signal", str(sig), "--stat", "energy") == 1
        assert "y.csv" in capsys.readouterr().err


class TestCalibrate:
    def test_prints_threshold(self, tmp_path, p2_file, capsys):
        code = run_cli(
            "calibrate", "--graph", str(p2_file), "--stat", "energy",
            "--sigma", "1.0", "--alpha", "0.5", "--reps", "200", "--seed", "11",
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 0.0

    def test_prints_the_exact_order_statistic(self, p2_file, capsys):
        # the 55th of 100: in floats, (1 - 0.45) * 100 rounds up to just above 55
        run_cli(
            "calibrate", "--graph", str(p2_file), "--stat", "energy",
            "--sigma", "1.0", "--alpha", "0.45", "--reps", "100", "--seed", "11",
        )
        stats = np.sort([energy_stat(replicate_rng(11, r).standard_normal(2)) for r in range(100)])
        assert capsys.readouterr().out == f"{stats[order_index(0.45, 100) - 1]:.17g}\n"

    def test_seed_reported(self, tmp_path, p2_file, capsys):
        run_cli(
            "calibrate", "--graph", str(p2_file), "--stat", "energy",
            "--sigma", "1.0", "--alpha", "0.5", "--reps", "200", "--seed", "11",
        )
        assert "seed=11" in capsys.readouterr().err


class TestExperiment:
    def config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "family = lattice\np = 3\ndelta = 1.5\nsigma = 1.0\nrho = 2.0\n"
            "reps_null = 30\nreps_alt = 30\nseed = 4\ndetectors = energy,edge\n"
        )
        return path

    def test_writes_csv_and_svg(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "experiment", "--config", str(self.config_file(tmp_path)), "--out-dir", str(out)
        )
        assert code == 0
        assert (out / "roc_energy.csv").exists() and (out / "roc_edge.csv").exists()
        svg = out / "roc.svg"
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
        assert "auc energy" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.config_file(tmp_path)
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run_cli("experiment", "--config", str(cfg), "--out-dir", str(out))
            blobs.append((out / "roc_energy.csv").read_bytes() + (out / "roc_edge.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.config_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("experiment", "--config", str(cfg), "--out-dir", str(out1))
        run_cli("experiment", "--config", str(cfg), "--out-dir", str(out2), "--seed", "5")
        assert (out1 / "roc_energy.csv").read_bytes() != (out2 / "roc_energy.csv").read_bytes()

    @pytest.mark.parametrize("line, echoed", [("cluster = 7,8,3\n", "cluster=3,7,8"), ("", "cluster=canonical")])
    def test_echo_names_the_cluster(self, tmp_path, capsys, line, echoed):
        cfg = self.config_file(tmp_path)
        cfg.write_text(cfg.read_text() + line)
        assert run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 0
        (echo,) = [row for row in capsys.readouterr().err.splitlines() if row.startswith("config:")]
        assert echo.split()[-1] == echoed

    def test_preset_flag_accepted(self, tmp_path, capsys):
        # smallest preset, kept quick
        out = tmp_path / "kron"
        code = run_cli("experiment", "--preset", "kron-fig1", "--out-dir", str(out))
        assert code == 0
        assert (out / "roc_sss.csv").exists()
        assert capsys.readouterr().err.splitlines() == [
            "config: subcommand=experiment preset=kron-fig1 config=None family=kron params={'levels': 2} "
            "mu=0.0 delta=0.8 sigma=1.0 rho=0.1111111111111111 reps_null=500 reps_alt=500 seed=7 "
            "detectors=sss,energy,edge,glr_unconstrained cluster=canonical"
        ]

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli("experiment", "--config", str(tmp_path / "ghost.cfg"), "--out-dir", str(tmp_path))
        assert code == 1
        assert "ghost.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("family = bbt\ndelta = 1.0\n", "error: family 'bbt' requires 'depth'"),
            ("family = bbt\ndepth = 3\np = 16\n", "unknown keys ['p']"),
        ],
        ids=["missing_depth", "foreign_p"],
    )
    def test_bad_family_parameters_are_one_error_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_cluster_without_a_gap_is_one_error_line(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        cfg.write_text(cfg.read_text().replace("delta = 1.5", "delta = 0") + "cluster = 0,1\n")
        code = run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: 'cluster' is read only when delta != 0, got frozenset({0, 1})"
        ]
        assert not (tmp_path / "out").exists()


class TestHelp:
    def test_help_documents_config_format(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--help")
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "key = value" in out and "detectors" in out

    @pytest.mark.parametrize("argv", [("--help",), ("experiment", "--help")], ids=["graphscan", "experiment"])
    def test_help_names_every_config_key(self, capsys, argv):
        with pytest.raises(SystemExit):
            run_cli(*argv)
        words = set(re.findall(r"\w+", capsys.readouterr().out.partition("experiment config files")[2]))
        family_keys = {key for family in simulate._FAMILIES.values() for key in family.keys}
        assert {"family", *family_keys, *simulate._FIELD_TYPES} <= words


class TestBounds:
    def test_report_lines(self, tmp_path, p2_file, capsys):
        code = run_cli(
            "bounds", "--graph", str(p2_file), "--rho", "2.0", "--sigma", "1.0", "--conf", "0.1"
        )
        assert code == 0
        out = capsys.readouterr().out
        entries = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(entries["null_threshold"]) == pytest.approx(14.9147, abs=5e-4)
        assert entries["n"] == "2"

    def test_sigma_beyond_a_finite_threshold_is_domain_error(self, tmp_path, capsys):
        graph_file = tmp_path / "torus.tsv"
        assert run_cli("gen-graph", "--family", "lattice", "--side", "3", "--periodic", "--out", str(graph_file)) == 0
        capsys.readouterr()
        code = run_cli("bounds", "--graph", str(graph_file), "--rho", "1", "--sigma", "1e200", "--conf", "0.1")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines()[-1] == "error: sigma must be small enough for a finite threshold, got 1e+200"

    @pytest.mark.parametrize("flag", ["--rho", "--sigma"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_parameter_is_domain_error(self, p2_file, capsys, flag, bad):
        values = {"--rho": "2.0", "--sigma": "1.0", flag: bad}
        argv = [arg for pair in values.items() for arg in pair]
        code = run_cli("bounds", "--graph", str(p2_file), "--conf", "0.1", *argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"error: {flag[2:]} must be positive and finite, got {bad}" in captured.err

    def test_echoes_every_option(self, p2_file, capsys):
        run_cli("bounds", "--graph", str(p2_file), "--rho", "2.0", "--sigma", "1.0", "--conf", "0.1")
        assert capsys.readouterr().err == (
            f"config: subcommand=bounds graph={p2_file} rho=2.0 sigma=1.0 conf=0.1 "
            "max_cluster=None\n"
        )

    def test_round_trip_through_generated_file(self, tmp_path, capsys):
        graph_file = tmp_path / "bbt.tsv"
        run_cli("gen-graph", "--family", "bbt", "--depth", "3", "--out", str(graph_file))
        code = run_cli(
            "bounds", "--graph", str(graph_file), "--rho", "0.5", "--sigma", "1.0", "--conf", "0.05"
        )
        assert code == 0
        assert "spectral_sum_bound" in capsys.readouterr().out
