"""Multilinear factor model X ~ D^(1) ... D^(Q) K B summed over M kernels.

Factors are stored per kernel block (never as materialized supermatrices):
for each m, D_m^(q) has shape d_{q-1} x d_q with d_0 = I0 and d_Q = N_l,
K_m is N_l x N_l and B_m is N_l x I_N.  The block-diagonal supermatrix
product equals the per-m sum implemented here; keeping blocks is what makes
the parameter count M * (sum_q d_{q-1} d_q + I_N N_l) instead of the dense
M * (I0 + I_N) * N_l.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .errors import InputError


def require_count(name, value, low):
    """Raise InputError, naming the field, unless value is an integer (not a
    bool) of at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InputError(f"{name} must be an integer of at least {low}, got {value!r}")


@dataclass(frozen=True)
class ModelDims:
    n_rows: int  # I0
    n_cols: int  # I_N
    n_landmarks: int  # N_l
    n_kernels: int = 1  # M
    depth: int = 1  # Q
    inner: tuple[int, ...] = ()  # d_1 .. d_{Q-1}

    def __post_init__(self):
        for name in ("n_rows", "n_cols", "n_landmarks", "n_kernels", "depth"):
            require_count(name, getattr(self, name), 1)
        if len(self.inner) != self.depth - 1:
            raise InputError(
                f"depth {self.depth} needs {self.depth - 1} inner dims, got {self.inner}"
            )
        for d in self.inner:
            require_count("inner dimension", d, 1)

    @property
    def d_list(self) -> tuple[int, ...]:
        """(d_0, d_1, ..., d_Q) = (I0, inner..., N_l)."""
        return (self.n_rows, *self.inner, self.n_landmarks)


@dataclass
class SolverConfig:
    """All weights, proximal constants and schedule knobs of the solver."""

    lambda1: float = 0.0  # l1 weight on the coefficient supermatrix
    lambda2: float = 0.0  # Tikhonov weight on factor supermatrices (graph problem)
    lambda3: float = 0.0  # l1 weight on the temporal spectrum Z (k-space problem)
    lambda4: float = 0.0  # Tikhonov weight on factors (k-space problem)
    lambda_L: float = 0.0  # spatio-temporal smoothness weight
    tau_X: float = 1.0
    tau_D: float = 1.0
    tau_B: float = 1.0
    tau_Z: float = 1.0
    gamma0: float = 1.0  # in (0, 1]
    zeta: float = 0.5  # in (0, 1)
    outer_iters: int = 300
    tol_objective: float = 1e-6
    cg_tol: float = 1e-9  # X update on CG only, which runs where the free-entry band
    #                       exceeds solver.BAND_BYTE_CAP (the band path has no
    #                       tolerance): bound on the CG relative residual, measured
    #                       in the fast-diagonalization preconditioner's norm
    cg_max: int | None = None  # X update on CG only: defaults to the CG bound from a
    #                            conditioning estimate, at least 10 * sqrt(free-entry
    #                            count) + 10
    inner_tol: float = 1e-8  # B update: bound on its proximal-gradient residual
    inner_max: int = 500  # B update: cap on its Newton steps
    z_rule: str = "ratio"  # "ratio": Soft[F_t(X) + (tau_Z/l2) Z, l3/l2]
    #                        "prox":  Soft[(l2 F_t(X) + tau_Z Z)/(l2+tau_Z), l3/(l2+tau_Z)]
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # the sign checks below let NaN and inf through
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.gamma0 <= 1.0:
            raise InputError(f"gamma0 must lie in (0, 1], got {self.gamma0}")
        if not 0.0 < self.zeta < 1.0:
            raise InputError(f"zeta must lie in (0, 1), got {self.zeta}")
        for name in ("tau_X", "tau_D", "tau_B", "tau_Z", "cg_tol", "inner_tol"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda_L"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be non-negative")
        for name in ("outer_iters", "inner_max", "cg_max", "seed"):
            value = getattr(self, name)
            if value is not None:
                require_count(name, value, 0 if name == "seed" else 1)
        if not self.tol_objective >= 0:
            raise InputError("tol_objective must be non-negative")
        if self.z_rule not in ("ratio", "prox"):
            raise InputError(f"unknown z_rule {self.z_rule!r}")


@dataclass
class FactorModel:
    """Per-block factors; ``mmf`` marks the reduction that skips the kernel,
    affine-constraint and l1 machinery."""

    dims: ModelDims
    factors: list[list[np.ndarray]]  # factors[m][q-1] = D_m^(q)
    kernels: list[np.ndarray]  # K_m
    coeffs: list[np.ndarray]  # B_m
    mmf: bool = False


def predict(model: FactorModel, out=None) -> np.ndarray:
    """Evaluate the factorization: sum over m of D_m^(1)...D_m^(Q) K_m B_m,
    written to ``out`` (an I0 x I_N array of the model's field; a new array
    by default).

    Each block is evaluated as D^(1) ((D^(2)...D^(Q) K) B): the one product
    with I0 rows comes last and runs over the inner dimension d_1."""
    dims = model.dims
    shape = (dims.n_rows, dims.n_cols)
    for m in range(dims.n_kernels):
        first, *rest = model.factors[m]
        tail = reduce(np.matmul, [*rest, model.kernels[m], model.coeffs[m]])
        if (len(first), tail.shape[1]) != shape:
            raise InputError(f"block {m} product has shape {(len(first), tail.shape[1])}, "
                             f"expected {shape}")
        # the first block's product is the sum so far: no zeroed array to add it to
        total = (np.matmul(first, tail, out=out) if m == 0
                 else np.add(total, first @ tail, out=out))
    return total


def count_unknowns(dims: ModelDims) -> int:
    """Exact number of free parameters: M * (sum_q d_{q-1} d_q + I_N N_l)."""
    d = dims.d_list
    pairs = sum(d[q - 1] * d[q] for q in range(1, dims.depth + 1))
    return dims.n_kernels * (pairs + dims.n_cols * dims.n_landmarks)


def gaussian_draw(rng, shape, std, dtype):
    """Normal draws of standard deviation ``std``; a complex dtype splits the
    variance evenly between the real and imaginary parts."""
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return (std / np.sqrt(2.0)) * z
    return std * rng.standard_normal(shape)


def init_factors(
    dims: ModelDims,
    seed: int,
    dtype=np.complex128,
    kernels: list[np.ndarray] | None = None,
) -> FactorModel:
    """Random Gaussian factors scaled by 1/sqrt(fan-in); coefficient columns
    are shifted so each block satisfies 1^H B_m = 1^H at initialization.

    Kernels default to identity matrices and are normally replaced with the
    actual kernel matrices by the caller.
    """
    rng = np.random.default_rng(seed)
    d = dims.d_list
    m_count = dims.n_kernels
    factors = []
    coeffs = []
    for _ in range(m_count):
        row = [
            gaussian_draw(rng, (d[q - 1], d[q]), 1.0 / np.sqrt(d[q] * m_count), dtype)
            for q in range(1, dims.depth + 1)
        ]
        factors.append(row)
        b = gaussian_draw(rng, (dims.n_landmarks, dims.n_cols),
                          1.0 / np.sqrt(dims.n_landmarks * m_count), dtype)
        b += (1.0 - b.sum(axis=0)) / dims.n_landmarks  # affine feasibility
        coeffs.append(b)
    if kernels is None:
        eye = np.eye(dims.n_landmarks, dtype=dtype)
        kernels = [eye.copy() for _ in range(m_count)]
    else:
        if len(kernels) != m_count:
            raise InputError(f"expected {m_count} kernel matrices, got {len(kernels)}")
        kernels = [np.asarray(k) for k in kernels]
    return FactorModel(dims=dims, factors=factors, kernels=kernels, coeffs=coeffs)
