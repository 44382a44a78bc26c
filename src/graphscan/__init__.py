"""Change-point detection on graphs via spectral scan statistics.

Subpackages by concern: :mod:`graphscan.graphs` (topologies, Laplacians, cut
sparsity), :mod:`graphscan.spectral` (eigendecomposition and the scan
statistic), :mod:`graphscan.detectors` (all test statistics and threshold
calibration), :mod:`graphscan.simulate` (seeded Monte Carlo ROC experiments),
:mod:`graphscan.bounds` (closed-form detectability quantities), and
:mod:`graphscan.cli` (the ``graphscan`` command).
"""
from .bounds import (
    BoundsReport,
    bbt_lambda2_bound,
    bounds_report,
    naive_bounds,
    noncentrality,
    null_threshold,
    spectral_snr_bound,
    truncated_bound,
)
from .detectors import (
    Detector,
    EmptyClassError,
    calibrate_threshold,
    edge_stat,
    energy_stat,
    glr_exact,
    glr_unconstrained,
    graph_spectrum,
    sss_stat,
)
from .graphs import (
    Cluster,
    Graph,
    build_graph,
    boundary_weight,
    cut_sparsity,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    is_connected,
    kronecker_product,
    laplacian,
    read_edge_list,
    scale_weights,
    two_triangles,
    write_edge_list,
)
from .rng import replicate_rng
from .simulate import (
    ExperimentConfig,
    RocCurve,
    SignalSpec,
    auc,
    canonical_cluster,
    parse_config_file,
    preset_config,
    run_roc,
    sample_observation,
    snr,
    write_roc_csv,
)
from .spectral import (
    Spectrum,
    SssResult,
    center,
    chi_max,
    eig_sym,
    sss,
    write_spectrum_csv,
)

__version__ = "0.1.0"
