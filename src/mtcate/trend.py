"""The calibrated trend workload: MTRNet against TARNet with deletion on a
synthetic benchmark built to open a missing-domain gap.

Both treatment assignment and treatment observedness load on a common
covariate factor, the response surfaces share a large step deep inside the
poorly observed region, and the true effect lives on balanced contrast
directions. Deletion-based training picks the step up asymmetrically across
arms and extrapolates it into the missing-treatment domain; the balanced
representation does not.
"""

from __future__ import annotations

import numpy as np

from .data import MissingnessSpec, OutcomeSpec, SyntheticDGPSpec
from .harness import ExperimentConfig, MethodSpec
from .mtrnet import MTRNetConfig


def trend_dgp(n: int = 2000) -> SyntheticDGPSpec:
    d = 10
    rho = 0.15
    mixing = (1.0 - rho) * np.eye(d) + rho * np.ones((d, d)) / np.sqrt(d)
    base = np.array([0.6, -0.6, 0.6, -0.6, 0.6, -0.6, 0.6, -0.6, 0.6, -0.6])
    effect = np.array([0.8, -0.8, 0.5, -0.5, 0.3, -0.3, 0.0, 0.0, 0.0, 0.0])
    ones = tuple([1.0] * d)
    return SyntheticDGPSpec(
        n=n, d=d, propensity=tuple([0.4] * d),
        outcome0=OutcomeSpec(kind="piecewise", intercept=0.0, linear=tuple(base),
                             jump=4.0, jump_direction=ones, jump_threshold=2.5),
        outcome1=OutcomeSpec(kind="piecewise", intercept=1.0, linear=tuple(base + effect),
                             jump=4.0, jump_direction=ones, jump_threshold=2.5),
        noise_sd=0.3, mixing=tuple(tuple(row) for row in mixing), seed=0,
    )


def trend_config(m: float, num_runs: int = 10, master_seed: int = 20260810) -> ExperimentConfig:
    """The experiment at missing fraction m, with strong observedness shift (q=0.9)."""
    net = MTRNetConfig(rep_layer_size=32, hyp_layer_size=32, iterations=600,
                       batch_size=150, learning_rate=1e-3, dropout_rate=0.1,
                       l2_lambda=1e-4)
    return ExperimentConfig(
        dgp=trend_dgp(), csv_path=None,
        missingness=MissingnessSpec(m=m, q=0.9),
        methods=(
            MethodSpec("mtrnet",
                       grid=({"alpha": 1.0, "beta": 8.0}, {"alpha": 1.0, "beta": 15.0}),
                       base_config=net),
            MethodSpec("tarnet_del",
                       grid=({"learning_rate": 1e-3}, {"learning_rate": 3e-3}),
                       base_config=net),
        ),
        num_runs=num_runs, master_seed=master_seed, metrics=("sqrt_pehe",),
    )
