import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from balcut.expanders import construct_expander, gabber_galil
from balcut import spectral
from balcut.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    planted_expander_union,
    random_connected_graph,
    star_graph,
)
from balcut.graph import MultiGraph, brute_force_extremum
from balcut.spectral import (
    LANCZOS_MAX_STEPS,
    LANCZOS_TOL,
    _floor_reaching,
    _smallest_ritz,
    _start_vector,
    adjacency_matrix,
    certified_floor,
    cheeger_floor,
    lambda2_normalized,
)


def dense_lambda2(g):
    deg = np.array(g.degrees(), dtype=float)
    a = adjacency_matrix(g).toarray()
    dinv = 1.0 / np.sqrt(deg)
    lap = np.eye(g.n) - (dinv[:, None] * a) * dinv[None, :]
    return float(np.sort(np.linalg.eigvalsh(lap))[1])


@pytest.mark.parametrize("g", [
    cycle_graph(8),
    complete_graph(6),
    barbell_graph(5),
    gabber_galil(5),
    gabber_galil(8),
])
def test_lanczos_matches_dense_solver(g):
    assert lambda2_normalized(g) == pytest.approx(dense_lambda2(g), abs=1e-8)


def test_lanczos_on_random_graphs():
    for seed in range(10):
        g = random_connected_graph(20, 0.25, seed)
        assert lambda2_normalized(g) == pytest.approx(dense_lambda2(g), abs=1e-8)


def _loopy_multigraph(n, seed):
    """A random tree, whose leaves have degree 1, plus parallel copies of
    some edges and self-loops on some vertices that have a child."""
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += rng.sample(edges, n // 3) * rng.choice((1, 2))
    inner = sorted({u for _, u in edges[: n - 1]})
    edges += [(v, v) for v in rng.sample(inner, max(1, len(inner) // 3))]
    rng.shuffle(edges)
    return MultiGraph(n, edges)


@pytest.mark.parametrize("seed", range(10))
def test_lanczos_sums_parallel_slots_and_loops(seed):
    g = _loopy_multigraph(20 + 4 * seed, seed)
    assert 1 in g.degrees()
    assert len(set(g.edges)) < g.m
    assert g.has_self_loops
    assert lambda2_normalized(g) == pytest.approx(dense_lambda2(g), abs=1e-8)


def test_disconnected_gives_zero():
    assert lambda2_normalized(MultiGraph(4, [(0, 1), (2, 3)])) == 0.0


def test_cheeger_lower_bounds_brute_force_conductance():
    for seed in range(15):
        g = random_connected_graph(9, 0.35, seed)
        _, phi = brute_force_extremum(g, "conductance")
        assert lambda2_normalized(g) / 2 <= float(phi) + 1e-9


def test_deterministic_across_calls():
    g = gabber_galil(6)
    assert lambda2_normalized(g) == lambda2_normalized(g)


def test_cheeger_floor_rounds_down_to_dyadic_fraction():
    for g in (cycle_graph(30), gabber_galil(6), barbell_graph(9)):
        floor = cheeger_floor(g)
        assert isinstance(floor, Fraction)
        assert (1 << 30) % floor.denominator == 0
        half = lambda2_normalized(g) / 2
        assert floor <= half < floor + Fraction(1, 1 << 30)


def test_certified_floor_picks_oracle_or_cheeger():
    assert certified_floor(MultiGraph(1, []), "sparsity") == 1
    g = barbell_graph(5)
    for objective in ("conductance", "sparsity"):
        assert certified_floor(g, objective) == brute_force_extremum(g, objective)[1]
    big = gabber_galil(6)
    assert certified_floor(big, "conductance") == cheeger_floor(big)


def reference_lambda2(g):
    """Lanczos with full reorthogonalization against the whole
    (steps + 1) x n basis: the reference for the three-term recurrence."""
    n = g.n
    deg = np.array(g.degrees(), dtype=np.float64)
    a = adjacency_matrix(g)
    dinv = 1.0 / np.sqrt(deg)
    v1 = np.sqrt(deg)
    v1 /= np.linalg.norm(v1)
    q = _start_vector(n)
    q -= v1 * (v1 @ q)
    q /= np.linalg.norm(q)
    steps = min(LANCZOS_MAX_STEPS, n - 1)
    basis = np.empty((steps + 1, n))
    basis[0] = q
    alphas, betas = [], []
    for k in range(steps):
        w = basis[k] - dinv * (a @ (dinv * basis[k]))
        alphas.append(float(basis[k] @ w))
        w -= alphas[-1] * basis[k]
        if k > 0:
            w -= betas[-1] * basis[k - 1]
        w -= v1 * (v1 @ w)
        w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta = float(np.linalg.norm(w))
        last = beta < 1e-14 or k == steps - 1
        if last or k % 8 == 7:
            evals, evecs = eigh_tridiagonal(
                np.array(alphas), np.array(betas),
                select="i", select_range=(0, 0),
            )
            if last or beta * abs(float(evecs[-1, 0])) < LANCZOS_TOL:
                return max(float(evals[0]), 0.0)
        betas.append(beta)
        basis[k + 1] = w / beta


def _random_tree(n, seed):
    rng = random.Random(seed)
    return MultiGraph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _hypercube(d):
    return MultiGraph(1 << d, [(v, v | 1 << b) for v in range(1 << d)
                               for b in range(d) if not v >> b & 1])


def _grid(rows, cols):
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return MultiGraph(rows * cols, edges)


def _differential_corpus():
    for n in range(2, 40):
        yield f"path{n}", path_graph(n)
    for n in range(1, 40):
        yield f"star{n}", star_graph(n)
    for seed in range(30):
        yield f"tree{seed}", _random_tree(5 + 7 * seed, seed)
    for d in range(1, 10):
        yield f"cube{d}", _hypercube(d)
    for rows, cols in ((2, 2), (3, 5), (5, 5), (4, 13), (8, 12), (10, 30)):
        yield f"grid{rows}x{cols}", _grid(rows, cols)
    for k in range(2, 16):
        yield f"barbell{k}", barbell_graph(k)
    for n in range(17, 201):
        yield f"expander{n}", construct_expander(n)
    for seed in range(30):
        yield f"random{seed}", random_connected_graph(10 + 6 * seed, 0.15, seed)


# lambda2 * 2^29 within 1e-6 of an integer: the Cheeger floor rounds an exact
# dyadic lambda2 / 2, so a last-bit difference may move it by one step.
# Stars have lambda2 = 1, hypercubes 2/d, and construct_expander(17) 1/2.
DYADIC = {f"star{n}" for n in range(1, 40)} | {
    "path2", "path3", "path4", "cube1", "cube2", "cube4", "cube8",
    "grid2x2", "barbell2", "expander17",
}


def test_recurrence_matches_full_reorthogonalization():
    scale = 1 << 29
    near = set()
    for name, g in _differential_corpus():
        lam, ref = lambda2_normalized(g), reference_lambda2(g)
        assert abs(lam - ref) <= 1e-12, name
        if g.n <= 200:
            assert abs(lam - dense_lambda2(g)) <= 1e-8, name
        ref_floor = Fraction(max(int(ref / 2 * (1 << 30)), 0), 1 << 30)
        if abs(lam * scale - round(lam * scale)) <= 1e-6:
            near.add(name)
            assert abs(cheeger_floor(g) - ref_floor) <= Fraction(1, 1 << 30), name
        else:
            assert cheeger_floor(g) == ref_floor, name
    assert near == DYADIC


def test_memory_is_linear_in_n():
    """No Krylov basis: the peak stays a small multiple of n floats, where
    the reorthogonalized solver stored about 190 basis vectors."""
    lambda2_normalized(construct_expander(50))  # first-use imports
    g = construct_expander(20000)
    tracemalloc.start()
    try:
        lambda2_normalized(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * g.n * 8


def _gate_corpus():
    for blocks, degree, bridges, seed in (
        ([60] * 3, 6, [(0, 1), (1, 2)], 1),
        ([100] * 2, 8, [(0, 1)], 3),
        ([40, 80, 120], 4, [(0, 1), (1, 2), (0, 2)], 5),
    ):
        yield planted_expander_union(blocks, degree, bridges, seed)[0]
    for n in (8, 50, 400):
        yield cycle_graph(n)
    yield _grid(3, 5)
    yield _grid(10, 30)
    for k in (5, 12):
        yield barbell_graph(k)
    yield construct_expander(17)  # lambda2 = 1/2: the floor sits on phi = 1/4
    yield construct_expander(300)


def test_gate_decides_as_the_full_floor():
    step = Fraction(1, 1 << 30)
    for g in _gate_corpus():
        floor = certified_floor(g, "conductance")
        near = {floor - step, floor, floor + step, floor * 2, floor / 2}
        for phi in near | {Fraction(1, 240), Fraction(1, 4), Fraction(1)}:
            if 0 < phi <= 1:
                assert _floor_reaching(g, phi) == (floor if floor >= phi else None), (g, phi)


def test_gate_quits_after_two_checks_on_decompose_planted(monkeypatch):
    g, _ = planted_expander_union([1000] * 4, 8, [(0, 1), (1, 2), (2, 3)], 1)
    sizes = []

    def spy(d, e):
        sizes.append(len(d))
        return _smallest_ritz(d, e)

    monkeypatch.setattr(spectral, "_smallest_ritz", spy)
    assert _floor_reaching(g, Fraction(1, 240)) is None
    assert sizes == [8, 16]
    sizes.clear()
    assert certified_floor(g, "conductance") < Fraction(1, 240)
    assert sizes[-1] > 16


def _assert_same_bits(d, e):
    evals, evecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    theta, s = _smallest_ritz(d, e)
    assert np.float64(theta).tobytes() == evals[0].tobytes(), len(d)
    assert np.float64(s).tobytes() == evecs[-1, 0].tobytes(), len(d)


def test_lapack_ritz_matches_eigh_tridiagonal_on_random_tridiagonals():
    rng = np.random.default_rng(5)
    for n in [*range(1, 41), 63, 128, 257, 400]:
        _assert_same_bits(rng.normal(size=n), rng.normal(size=n - 1))
        # Lanczos-like: diagonal near 1, small off-diagonal, close eigenvalues
        _assert_same_bits(1.0 - rng.uniform(-1, 1, n), rng.uniform(0, 0.5, n - 1))
    _assert_same_bits(np.ones(6), np.zeros(5))  # fully split
    _assert_same_bits(np.full(5, 2.0), np.ones(4))


def test_lapack_ritz_matches_eigh_tridiagonal_on_lanczos_tridiagonals(monkeypatch):
    captured = []

    def spy(d, e):
        captured.append((d.copy(), e.copy()))
        return _smallest_ritz(d, e)

    monkeypatch.setattr(spectral, "_smallest_ritz", spy)
    for g in (construct_expander(300), _grid(20, 25), barbell_graph(12), cycle_graph(801)):
        lambda2_normalized(g)
    assert max(len(d) for d, _ in captured) == 400
    for d, e in captured:
        _assert_same_bits(d, e)
