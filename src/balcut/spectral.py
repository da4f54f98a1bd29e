"""Deterministic spectral certificates.

``lambda2_normalized`` computes the second-smallest eigenvalue of the
normalized Laplacian L = I - S, S = D^{-1/2} A D^{-1/2}, with the Lanczos
three-term recurrence on S from a fixed start vector, so runs are
reproducible.  S is the scaled incidence CSR: its matvec sums parallel
slots and counts a loop twice.  A step is one sparse matvec, one new vector
and in-place level-1 BLAS updates that also deflate it against the kernel
vector v1 = D^{1/2} 1; a call keeps q, prev, w, v1 and S: O(n + m) memory,
O(m) time per step.  No reorthogonalization is needed: lost orthogonality
only adds copies of Ritz values that have converged, and the extreme Ritz
value still converges to working accuracy (Paige, 1980).  By Cheeger's
inequality ``Phi(G) >= lambda2 / 2``, and since ``Psi_G(U) >= Phi_G(U)``
for every cut U, the same value lower-bounds graph sparsity.

``cheeger_floor`` is the one rounding policy: lambda2/2 rounded down to a
multiple of 2^-30, as a ``Fraction``.  ``certified_floor`` is the one
certificate helper: exact brute force up to the oracle limit, the Cheeger
floor above it.  A gate that only asks whether that floor reaches some phi
stops Lanczos once a Ritz value shows it cannot (``_floor_reaching``).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .graph import (
    ORACLE_LIMIT,
    MultiGraph,
    brute_force_extremum,
    incidence_csr,
    is_connected,
)


def adjacency_matrix(g: MultiGraph) -> sp.csr_matrix:
    """Sparse adjacency with parallel-edge multiplicities; loops count twice."""
    a = incidence_csr(g)
    a.sum_duplicates()
    return a


def _start_vector(n: int) -> np.ndarray:
    # Fixed, seedless, full-support start vector.
    idx = np.arange(n, dtype=np.float64)
    return np.cos(0.7 * idx + 0.3) + 1e-3 * (idx % 7)


LANCZOS_TOL = 1e-10  # residual bound that accepts the smallest Ritz value
LANCZOS_MAX_STEPS = 400  # step cap, further capped at n - 1


def lambda2_normalized(g: MultiGraph) -> float:
    """Second-smallest eigenvalue of I - D^{-1/2} A D^{-1/2}.

    Every 8 steps, the smallest Ritz value is returned once its residual
    bound beta * |s_k| is below ``LANCZOS_TOL``; also at breakdown or the
    step cap ``LANCZOS_MAX_STEPS``.

    Returns 0.0 for disconnected graphs (lambda2 is genuinely 0 there) and
    for graphs with fewer than two vertices.
    """
    return _lanczos(g, -math.inf)


def _lanczos(g: MultiGraph, quit_below: float) -> float:
    """``lambda2_normalized(g)``, or the first checked Ritz value that falls
    below ``quit_below``."""
    n = g.n
    if n < 2 or g.m == 0 or not is_connected(g):
        return 0.0
    # scipy's BLAS only: numpy links a second OpenBLAS, and two thread pools thrash.
    from scipy.linalg.blas import daxpy, ddot, dscal

    v1 = np.sqrt(g.deg)
    dinv = 1.0 / v1
    s = incidence_csr(g)
    s.data = np.repeat(dinv, g.deg)
    s.data *= dinv[s.indices]
    v1 /= np.linalg.norm(v1)
    q = _start_vector(n)
    q -= v1 * (v1 @ q)
    q /= np.linalg.norm(q)

    steps = min(LANCZOS_MAX_STEPS, n - 1)
    prev, beta = np.zeros(n), 0.0
    alphas: list[float] = []
    betas: list[float] = []
    for k in range(steps):
        w = s @ q
        w = daxpy(prev, w, a=-beta)
        alphas.append(ddot(q, w))
        w = daxpy(q, w, a=-alphas[-1])
        w = daxpy(v1, w, a=-ddot(v1, w))
        beta = math.sqrt(ddot(w, w))
        last = beta < 1e-14 or k == steps - 1
        if last or k % 8 == 7:
            theta, s_k = _smallest_ritz(1.0 - np.array(alphas), np.array(betas))
            if last or theta < quit_below or beta * abs(s_k) < LANCZOS_TOL:
                return max(theta, 0.0)
        betas.append(beta)
        prev, q = q, dscal(1.0 / beta, w)


def _smallest_ritz(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """The smallest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, and the last entry of its unit
    eigenvector.  The LAPACK calls, 1 x 1 shortcut and error checks of
    ``eigh_tridiagonal(d, e, select="i", select_range=(0, 0))``, without
    its argument validation, so the same bits."""
    if len(d) == 1:
        return float(d[0]), 1.0
    from scipy.linalg.lapack import dstebz, dstein

    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        z, info = dstein(d, e, w[:m], iblock, isplit)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK's tridiagonal solver")
    if info > 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver did not converge (info={info})")
    return float(w[0]), float(z[-1, 0])


def _half_floor(lam: float) -> Fraction:
    """lam/2 rounded down to a multiple of 2^-30."""
    return Fraction(max(int(lam / 2.0 * (1 << 30)), 0), 1 << 30)


def cheeger_floor(g: MultiGraph) -> Fraction:
    """lambda2/2 rounded down to a multiple of 2^-30.

    A conductance (hence sparsity) lower bound for every cut of g.
    """
    return _half_floor(lambda2_normalized(g))


def _floor_reaching(g: MultiGraph, phi: Fraction) -> Fraction | None:
    """``certified_floor(g, "conductance")`` if it is at least phi, else None.

    Above the oracle limit, Lanczos quits at the first check whose smallest
    Ritz value theta has theta/2 < phi - 2^-30.  That Ritz value never grows
    with the step count (Cauchy interlacing), so the converged lambda2 is at
    most theta and the floor falls short of phi; the margin of one rounding
    step covers the eigensolver's error.
    """
    if g.n <= ORACLE_LIMIT:
        cert = certified_floor(g, "conductance")
    else:
        cert = _half_floor(_lanczos(g, 2.0 * (float(phi) - 2.0 ** -30)))
    return cert if cert >= phi else None


def certified_floor(g: MultiGraph, objective: str) -> Fraction:
    """Certified Phi(G) or Psi(G) floor, per ``objective``.

    1 below two vertices, the exact brute-force value up to the oracle
    limit, the Cheeger bound above it.
    """
    if g.n < 2:
        return Fraction(1)
    if g.n <= ORACLE_LIMIT:
        return brute_force_extremum(g, objective)[1]
    return cheeger_floor(g)
