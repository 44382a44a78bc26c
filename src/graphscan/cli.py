"""Command-line front end: graph generation, scanning, calibration, experiments, bounds.

Exit codes: 0 on success, 2 on usage errors (bad flags), 1 on domain errors
(missing or malformed files, infeasible constraints). Every run echoes its
resolved configuration, including the seed where one applies, to stderr.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import simulate
from ._check import numbers
from .detectors import DETECTOR_KINDS, RHO_KINDS, Detector, calibrate_threshold, graph_spectrum
from .graphs import read_edge_list, two_triangles, write_edge_list
from .spectral import write_spectrum_csv

_CONFIG_HELP = f"""\
experiment config files are flat `key = value` lines with keys:
  family      bbt | lattice | kron (kron uses the two-triangle base)
  depth       bbt depth            p         lattice side length
  periodic    lattice wrap flag    levels    kron product depth
  mu delta sigma rho               signal and detector parameters
  reps_null reps_alt seed          Monte Carlo controls
  detectors   comma list from: {", ".join(DETECTOR_KINDS)}
  cluster     `canonical` (default) or a comma list of vertex ids
"""

# gen-graph writes the experiment families and, alone, their kron base
_GEN_FAMILIES = {**simulate._FAMILIES, "two-k3": simulate._Family(two_triangles, None, {}, ())}
# the gen-graph flag of each family key it does not spell the same way
_FLAG_NAMES = {"p": "side"}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _echo_config(**kwargs) -> None:
    pairs = " ".join(f"{key}={value}" for key, value in kwargs.items())
    print(f"config: {pairs}", file=sys.stderr)


def _echo_args(args) -> None:
    """Echo the parsed command line, subcommand first and then each option in parser order."""
    _echo_config(**{key: value for key, value in vars(args).items() if key != "func"})


def _read_signal(path, n: int) -> np.ndarray:
    try:
        values = [float(line) for line in Path(path).read_text().split()]
    except OSError as exc:
        raise ValueError(f"--signal {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"--signal {path}: non-numeric entry") from exc
    if len(values) != n:
        raise ValueError(f"--signal {path}: has {len(values)} values, graph has {n} vertices")
    return numbers(values, float, f"--signal {path}")


def _load_graph(path):
    try:
        return read_edge_list(path)
    except OSError as exc:
        raise ValueError(f"--graph {path}: {exc.strerror or exc}") from exc


def _cmd_gen_graph(args) -> int:
    _echo_args(args)
    family = _GEN_FAMILIES[args.family]
    flags = {key: _FLAG_NAMES.get(key, key) for key in family.keys}
    unread = {_FLAG_NAMES.get(key, key) for other in _GEN_FAMILIES.values() for key in other.keys} - set(flags.values())
    for flag in sorted(unread):
        if getattr(args, flag) is not None and getattr(args, flag) is not False:  # --periodic is False when absent
            raise ValueError(f"--family {args.family} does not read --{flag}")
    for key in family.required:
        if getattr(args, flags[key]) is None:
            raise ValueError(f"--family {args.family} requires --{flags[key]}")
    try:
        g = family.build(**{key: getattr(args, flag) for key, flag in flags.items()})
    except ValueError as exc:
        # a generator's refusal names its keyword ("p must be >= 3, got 2"); name the flag typed instead
        key, _, rule = str(exc).partition(" ")
        if key not in flags:
            raise
        raise ValueError(f"--{flags[key]} {rule}") from exc
    write_edge_list(g, args.out)
    return 0


def _cmd_spectrum(args) -> int:
    _echo_args(args)
    g = _load_graph(args.graph)
    write_spectrum_csv(graph_spectrum(g), args.out, vectors_path=args.vectors)
    return 0


def _make_detector(stat: str, rho, require_connected: bool = False) -> Detector:
    if stat in RHO_KINDS and rho is None:
        raise ValueError(f"--stat {stat} requires --rho")
    return Detector(stat, rho=rho, require_connected=require_connected)


def _cmd_scan(args) -> int:
    _echo_args(args)
    g = _load_graph(args.graph)
    y = _read_signal(args.signal, g.n)
    detector = _make_detector(args.stat, args.rho, args.require_connected)
    print(f"{detector.statistic(g, y):.17g}")
    return 0


def _cmd_calibrate(args) -> int:
    _echo_args(args)
    g = _load_graph(args.graph)
    detector = _make_detector(args.stat, args.rho)
    threshold = calibrate_threshold(detector, g, args.sigma, args.alpha, args.reps, args.seed)
    print(f"{threshold:.17g}")
    return 0


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write_roc_svg(curves: dict[str, simulate.RocCurve], path) -> None:
    """Hand-emitted 640x480 overlay of power-vs-size polylines with a legend."""
    width, height = 640, 480
    mx, my = int(width * 0.1), int(height * 0.1)

    def px(size: float, power: float) -> tuple[float, float]:
        return mx + size * (width - 2 * mx), height - my - power * (height - 2 * my)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{mx}" y="{my}" width="{width - 2 * mx}" height="{height - 2 * my}" '
        'fill="white" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, y = px(frac, frac)
        parts.append(
            f'<text x="{x:.1f}" y="{height - my + 16}" font-size="11" '
            f'text-anchor="middle">{frac:g}</text>'
        )
        parts.append(
            f'<text x="{mx - 6}" y="{y:.1f}" font-size="11" text-anchor="end">{frac:g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 8}" font-size="13" '
        'text-anchor="middle">false alarm rate (size)</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">detection rate (power)</text>'
    )
    for i, (name, curve) in enumerate(curves.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (px(s, p) for s, p in simulate._closed_roc(curve)))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = my + 18 + 16 * i
        parts.append(f'<line x1="{mx + 10}" y1="{ly - 4}" x2="{mx + 34}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{mx + 40}" y="{ly}" font-size="12">{_svg_escape(name)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _cmd_experiment(args) -> int:
    if args.preset is not None:
        config = simulate.preset_config(args.preset, seed=args.seed)
    else:
        try:
            config = simulate.parse_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"--config {args.config}: {exc.strerror or exc}") from exc
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    shown = {f.name: getattr(config, f.name) for f in fields(config)}
    shown.update(detectors=",".join(config.detectors),
                 cluster="canonical" if config.cluster is None else ",".join(map(str, sorted(config.cluster))))
    _echo_config(subcommand="experiment", preset=args.preset, config=args.config, **shown)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = simulate.run_roc(config)
    for kind, curve in curves.items():
        simulate.write_roc_csv(curve, out_dir / f"roc_{kind}.csv")
    _write_roc_svg(curves, out_dir / "roc.svg")
    for kind, curve in curves.items():
        print(f"auc {kind} = {simulate.auc(curve):.17g}")
    return 0


def _cmd_bounds(args) -> int:
    _echo_args(args)
    g = _load_graph(args.graph)
    report = bounds_mod.bounds_report(graph_spectrum(g), args.rho, args.sigma, args.conf, max_cluster=args.max_cluster)
    print(bounds_mod.format_report(report), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphscan",
        description="Change-point detection on graphs: scan statistics, "
        "calibration, ROC experiments, and detectability bounds.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-graph", help="generate a graph and write its edge list")
    p.add_argument("--family", required=True, choices=tuple(_GEN_FAMILIES))
    p.add_argument("--depth", type=int, help="bbt depth")
    p.add_argument("--side", type=int, help="lattice side length")
    p.add_argument("--periodic", action="store_true", help="lattice wrap-around")
    p.add_argument("--levels", type=int, help="kron product depth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("spectrum", help="write Laplacian eigenvalues as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vectors", help="also write the eigenvector basis, column-major")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scan", help="evaluate one statistic on a signal file")
    p.add_argument("--graph", required=True)
    p.add_argument("--signal", required=True, help="one decimal per line, length n")
    p.add_argument("--stat", required=True,
                   choices=DETECTOR_KINDS)
    p.add_argument("--rho", type=float)
    p.add_argument("--require-connected", action="store_true",
                   help="glr_exact: count only bipartitions into two connected induced subgraphs")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("calibrate", help="Monte Carlo null threshold for a statistic")
    p.add_argument("--graph", required=True)
    p.add_argument("--stat", required=True,
                   choices=DETECTOR_KINDS)
    p.add_argument("--rho", type=float)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("experiment", help="run a seeded ROC experiment", epilog=_CONFIG_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=simulate.PRESET_NAMES)
    group.add_argument("--config", help="key = value experiment file (see below)")
    p.add_argument("--seed", type=int, help="override the config/preset seed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bounds", help="print the detectability bound report")
    p.add_argument("--graph", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--conf", type=float, required=True)
    p.add_argument("--max-cluster", type=int)
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
