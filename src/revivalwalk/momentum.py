"""Momentum-space propagator, spectrum checks, and a lattice oracle.

At quasi-momentum k the walk is governed by an n x n matrix: the coin
with each row j multiplied by the plane-wave factor exp(-i sum_r a_{r,j}
k_r). For cyclic coins with zero-sum shifts the product of the nonzero
entries is 1 regardless of k, so the characteristic polynomial is
lambda^n - 1 and the spectrum is the n-th roots of unity at every k. That
flatness is the fingerprint of exact revivals, and this module verifies
it two independent ways (closed form and one batched eigensolve).

The lattice oracle cross-checks the sparse engine: it assembles the
one-step operator on a truncated window entrywise, keeps its nonzero
(row, col, value) triplets, and applies them literally. It refuses
windows the evolution could outrun (a boundary would drop amplitude or
fake revivals) and windows whose triplets exceed ORACLE_BUDGET_BYTES.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from .coins import CoinKind, CoinMatrix, TAU
from .engine import WalkInstance
from .errors import (ConstraintError, DimensionMismatchError, OracleTooLargeError,
                     OrderMismatchError, WindowTooSmallError)
from .linalg import matrix_order
from .shifts import ShiftTable
from .states import WalkState
from .tolerances import TOL_MAT

#: Largest triplet store (row and col as intp, value as complex128) that
#: dense_oracle_evolve builds, and largest (S, n, n) complex128 propagator
#: stack that spectrum_sweep diagonalizes; larger requests raise
#: OracleTooLargeError before anything is allocated.
ORACLE_BUDGET_BYTES = 2**25
_TRIPLET_BYTES = 2 * np.dtype(np.intp).itemsize + np.dtype(np.complex128).itemsize


@dataclass(frozen=True, eq=False)
class MomentumPropagator:
    """Coin plus shift table, evaluated as an n x n matrix at momentum k.

    Any unitary coin is accepted; the flat roots-of-unity spectrum is only
    guaranteed for cyclic (and partial-cycle) constructions, which is
    precisely what the sweep functions below test.
    """

    coin: CoinMatrix
    shifts: ShiftTable

    def __post_init__(self) -> None:
        if self.coin.n != self.shifts.n:
            raise DimensionMismatchError(
                f"coin n={self.coin.n} does not match shift table n={self.shifts.n}"
            )

    @property
    def d(self) -> int:
        return self.shifts.d

    @property
    def n(self) -> int:
        return self.coin.n


def wrap_momentum(k: float) -> float:
    """Reduce a momentum component into [-pi, pi)."""
    r = math.remainder(float(k), TAU)
    if r >= math.pi:
        r -= TAU
    return r


def _as_momenta(prop: MomentumPropagator, k) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    if arr.ndim > 2 or arr.shape[-1] != prop.d:
        raise DimensionMismatchError(
            f"momentum must have {prop.d} component(s), got shape {arr.shape}"
        )
    return np.vectorize(wrap_momentum, otypes=[np.float64])(arr)


def evaluate_propagator(prop: MomentumPropagator, k) -> np.ndarray:
    """The step matrix at momentum k (components wrapped into [-pi, pi)).

    Row j of the coin picks up exp(-i * sum_r a_{r,j} k_r), i.e. the
    matrix is the diagonal of plane-wave factors times the coin. A k of
    shape (d,) gives one n x n matrix; a k of shape (S, d) gives the
    (S, n, n) stack of the matrices at its S rows.
    """
    kk = _as_momenta(prop, k)
    a = np.asarray(prop.shifts.displacements, dtype=np.float64)  # d x n
    factors = np.exp(-1j * (kk @ a))  # (..., n): sum_r a[r, j] * k_r
    return factors[..., :, None] * prop.coin.matrix


def momentum_samples(d: int, n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic edge points (0 and -pi on each axis) plus random draws, one per row."""
    edges = np.diag([-math.pi] * d)
    return np.vstack([np.zeros(d), edges, rng.uniform(-math.pi, math.pi, size=(n_random, d))])


def propagator_order(
    prop: MomentumPropagator,
    k_samples: int,
    max_order: int,
    seed: int = 0,
    tol: float = TOL_MAT,
) -> int | None:
    """The matrix order of the propagator, required to agree at every sample.

    Samples are ``k_samples`` uniform draws plus the deterministic edge
    set. Returns None when no sampled point has an order within
    ``max_order``. A disagreement between samples means the construction
    is not a revival walk (impossible for valid cyclic coins with zero-sum
    shifts) and raises OrderMismatchError.
    """
    if k_samples < 1:
        raise ValueError(f"k_samples must be >= 1, got {k_samples}")
    rng = np.random.default_rng(seed)
    samples = momentum_samples(prop.d, k_samples, rng)
    orders = [matrix_order(v, max_order, tol) for v in evaluate_propagator(prop, samples)]
    for k, order in zip(samples, orders):
        if order != orders[0]:
            raise OrderMismatchError(
                f"propagator order differs across momenta: {orders[0]} at "
                f"{tuple(samples[0].tolist())} vs {order} at {tuple(k.tolist())}"
            )
    return orders[0]


def canonical_order(values) -> np.ndarray:
    """Sort along the last axis by principal argument, with -1 always last.

    An argument within TOL_MAT of -pi counts as +pi, so an eigenvalue on
    the cut sorts to the same end whichever side rounding puts it on.
    """
    values = np.asarray(values, dtype=np.complex128)
    args = np.angle(values)
    args = np.where(args <= -math.pi + TOL_MAT, math.pi, args)
    return np.take_along_axis(values, np.argsort(args, axis=-1, kind="stable"), axis=-1)


def roots_of_unity(n: int) -> np.ndarray:
    """The n-th roots of unity in canonical order."""
    return canonical_order(np.exp(2j * math.pi * np.arange(n) / n))


def _aligned_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-abs distance at the best cyclic alignment, broadcast over leading axes."""
    n = b.shape[-1]
    rolls = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # row s: np.roll by s
    return np.abs(a[..., None, :] - b[..., rolls]).max(axis=-1).min(axis=-1)


def spectrum_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two same-size unit-circle spectra.

    Both inputs are put in canonical order; the cut at +/-pi can still
    rotate one sequence relative to the other, so the distance is taken
    at the best cyclic alignment of the two.
    """
    a, b = canonical_order(a), canonical_order(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"spectra differ in size: {a.shape} vs {b.shape}")
    return float(_aligned_distance(a, b))


def characteristic_eigenvalues(prop: MomentumPropagator, k) -> np.ndarray:
    """Closed-form eigenvalues of a cyclic propagator at momentum k.

    The determinant of (V - lambda*I) reduces to lambda^n minus the
    product p of the n nonzero entries, so the eigenvalues are the n-th
    roots of p. Returned in canonical order; a k of shape (S, d) gives
    one row per momentum.
    """
    if prop.coin.kind is not CoinKind.CYCLIC:
        raise ConstraintError(
            f"characteristic roots require a cyclic coin, got {prop.coin.kind.value}"
        )
    v = evaluate_propagator(prop, k)
    n = prop.n
    p = np.prod(v[..., np.arange(n), np.arange(n) - 1], axis=-1)  # entries (j, j-1 mod n)
    magnitude, base = np.abs(p)[..., None] ** (1.0 / n), np.angle(p)[..., None] / n
    return canonical_order(magnitude * np.exp(1j * (base + TAU * np.arange(n) / n)))


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues of the propagator across momentum samples.

    ``k_independent`` records whether the canonically ordered spectra
    agree across all samples; ``matches_roots_of_unity`` whether each one
    equals the n-th roots of unity. Both at the dense-matrix tolerance.
    """

    k_samples: tuple[tuple[float, ...], ...]
    eigenvalue_sets: tuple[tuple[complex, ...], ...]
    k_independent: bool
    matches_roots_of_unity: bool


def spectrum_sweep(
    prop: MomentumPropagator,
    samples: int,
    seed: int = 0,
    tol: float = TOL_MAT,
) -> SpectrumReport:
    """Numerically diagonalize the propagator across momentum samples.

    Uses a dense eigensolver, making it an oracle that is independent of
    the closed-form route, and valid for any coin kind (dispersive coins
    report k_independent=False). A sweep whose propagator stack exceeds
    ORACLE_BUDGET_BYTES is refused up front.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    requested = samples * prop.n**2 * np.dtype(np.complex128).itemsize
    if requested > ORACLE_BUDGET_BYTES:
        raise OracleTooLargeError(
            ORACLE_BUDGET_BYTES, requested, f"a spectrum sweep of {samples} samples"
        )
    rng = np.random.default_rng(seed)
    points = momentum_samples(prop.d, max(0, samples - (prop.d + 1)), rng)[:samples]
    spectra = canonical_order(np.linalg.eigvals(evaluate_propagator(prop, points)))
    k_independent = bool(np.all(_aligned_distance(spectra[0], spectra[1:]) <= tol))
    matches = bool(np.all(_aligned_distance(roots_of_unity(prop.n), spectra) <= tol))
    return SpectrumReport(
        k_samples=tuple(map(tuple, points.tolist())),
        eigenvalue_sets=tuple(map(tuple, spectra.tolist())),
        k_independent=k_independent,
        matches_roots_of_unity=matches,
    )


def _required_half_widths(instance: WalkInstance, t: int) -> tuple[int, ...]:
    widest = np.abs(instance.initial.coords).max(axis=0, initial=0).tolist()
    return tuple(w + max(map(abs, row)) * t
                 for w, row in zip(widest, instance.shifts.displacements))


def dense_oracle_evolve(
    instance: WalkInstance,
    t: int,
    window: Sequence[int],
) -> WalkState:
    """Brute-force evolution via one explicit step operator.

    The lattice is truncated to the box |x_r| <= window[r]; the one-step
    operator on the n * prod(2*window[r] + 1) dimensional truncated space
    is assembled entrywise as (row, col, value) triplets and applied t
    times to the embedded initial state. The window must be wide enough
    that no amplitude can touch the boundary within t steps, otherwise the
    call refuses and reports the minimum usable half-widths; a window
    whose triplets would exceed ORACLE_BUDGET_BYTES is refused up front.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    d, n = instance.shifts.d, instance.coin.n
    half = tuple(int(w) for w in window)
    if len(half) != d or any(w < 0 for w in half):
        raise DimensionMismatchError(
            f"window must give {d} non-negative half-width(s), got {window}"
        )
    required = _required_half_widths(instance, t)
    if any(w < need for w, need in zip(half, required)):
        raise WindowTooSmallError(half, required)
    coin = instance.coin.matrix
    hops = [[(j, coin[i, j]) for j in range(n) if coin[i, j] != 0] for i in range(n)]
    requested = math.prod(2 * w + 1 for w in half) * sum(map(len, hops)) * _TRIPLET_BYTES
    if requested > ORACLE_BUDGET_BYTES:
        raise OracleTooLargeError(ORACLE_BUDGET_BYTES, requested, "oracle triplet store")

    index = {pos: i for i, pos in enumerate(product(*(range(-w, w + 1) for w in half)))}
    size = n * len(index)
    moves = list(zip(*instance.shifts.displacements))  # per coin slot, a d-vector
    rows, sources, values = [], [], []
    for pos, ip in index.items():
        for i in range(n):
            iy = index.get(tuple(x + a for x, a in zip(pos, moves[i])))
            if iy is None:
                continue  # unreachable under the window precondition
            for j, value in hops[i]:
                rows.append(iy * n + i)
                sources.append(ip * n + j)
                values.append(value)
    rows, sources, values = np.array(rows), np.array(sources), np.array(values, dtype=complex)

    vec = np.zeros(size, dtype=np.complex128)
    vec.reshape(-1, n)[[index[pos] for pos in instance.initial.positions()]] = instance.initial.amps
    for _ in range(t):
        terms = values * vec[sources]
        vec = np.bincount(rows, terms.real, size) + 1j * np.bincount(rows, terms.imag, size)
    # The window is enumerated in lexicographic order, so its sites are already sorted.
    blocks = vec.reshape(-1, n)
    keep = blocks.any(axis=1)
    return WalkState(np.array(list(index), dtype=np.int64).reshape(-1, d)[keep], blocks[keep])
