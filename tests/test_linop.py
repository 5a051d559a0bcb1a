"""Tests for the dense operator algebra primitives."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bscount.linop import (
    DEFAULT_SEED,
    SYMMETRY_RTOL,
    SymOperator,
    _COMPRESSION_RANK,
    _DENSE_COUNT_ROWS,
    _Kernel,
    _Tridiagonal,
    _checked_eigenvalues,
    _collides,
    _compressed_count,
    _count,
    _count_evs,
    _dense_products,
    _guarded_count,
    _kernel_products,
    _kernel_top_eigenvalue,
    _legendre_rule,
    _spectral_decompose,
    _symmetrized,
    _tridiagonal_count,
    _tridiagonal_factor,
    ThresholdCollisionError,
    count_evs,
    hs_norm,
    sym,
)
from bscount import bsengine, cli, efimov, iterbs, radial
from bscount.radial import PotentialSpec, RadialGrid, bs_kernel_radial, reduced_hamiltonian
from oracles import checked_eigenvalues, legendre_rules_computed, op_function, spectral_decompose
from test_acceptance import TWENTY_CASES


def random_symmetric(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim))
    return sym(scale * 0.5 * (g + g.T))


def random_orthogonal(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


def tridiagonal_operator(m):
    """The operator of the tridiagonal matrix ``m`` that records its
    structure, as the reduced Hamiltonian's builder does; its entries, when
    read, are a copy of ``m``."""
    return SymOperator._structured(_Tridiagonal(m.diagonal().copy(), m.diagonal(-1).copy()),
                                   m.copy)


def random_tridiagonal(rng, dim, diagonal_only=False):
    """A random tridiagonal operator that records its structure."""
    d = rng.standard_normal(dim)
    e = np.zeros(dim - 1) if diagonal_only else rng.standard_normal(dim - 1)
    return tridiagonal_operator(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def dense_compressed_count(m, relation, threshold):
    """``_compressed_count`` of the matrix ``m`` from its entries, as
    ``count_evs`` makes it of a matrix that records no structure."""
    return _compressed_count(_dense_products(m), relation, threshold)


# the solvers as imported, kept as oracles while tests spy on the routes
DENSE_EIGVALSH = np.linalg.eigvalsh
TRIDIAGONAL_EIGVALSH = scipy.linalg.eigvalsh_tridiagonal


def dense_count(lam, eta, relation, threshold):
    """The count the dense route makes from eigenvalues ``lam``."""
    return {">": int(np.sum(lam > threshold + eta)),
            "<": int(np.sum(lam < threshold - eta))}[relation]


def assert_matches_dense(a, rtol=1e-13):
    """Checked eigenvalues agree with dense ``eigvalsh`` within ``rtol``
    times the spectral radius, and every count equals the dense one."""
    lam, eta = checked_eigenvalues(a)
    ref = DENSE_EIGVALSH(a.entries)
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(lam - ref), initial=0.0) <= rtol * np.max(np.abs(ref), initial=0.0)
    for threshold in (-1.0, 0.0, 0.5, 1.0):
        for relation in (">", "<"):
            assert count_evs(a, relation, threshold) == dense_count(ref, eta, relation, threshold)


@pytest.fixture
def solver_dims(monkeypatch):
    """Dimension of every matrix each eigenvalue route hands to LAPACK."""
    dims = {"dense": [], "tridiagonal": []}
    tridiagonal = scipy.linalg.eigvalsh_tridiagonal

    def spy_dense(m):
        dims["dense"].append(m.shape[0])
        return DENSE_EIGVALSH(m)

    def spy_tridiagonal(d, e, **kwargs):
        dims["tridiagonal"].append(d.size)
        return tridiagonal(d, e, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy_dense)
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", spy_tridiagonal)
    return dims


# ---------------------------------------------------------------------------
# SymOperator construction


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError, match=r"not symmetric: max \|A - A\^T\| entry = 1\.000e\+00, "
                                         r"\|A - A\^T\|_F / \(1\+\|A\|_F\) = 7\.071e-01 exceeds 1e-12$"):
        sym([[0.0, 1.0], [0.0, 0.0]])


def test_rejects_asymmetry_whose_norm_overflows_where_the_matrix_norm_does_not():
    # |A|_F^2 = 2 a^2 is finite, |A - A^T|_F^2 = 8 a^2 is not
    a = 9e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not symmetric: max \|A - A\^T\| entry = 1\.800e\+154"):
            sym([[0.0, a], [-a, 0.0]])


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        sym(np.zeros((2, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match=r"non-finite entries, the first A\[0, 0\]"):
        sym([[value, 0.0], [0.0, 1.0]])


def test_rejects_finite_entries_whose_norm_overflows():
    # every entry is finite, but |A|_F overflows, so no count has a finite
    # guard band; no numpy warning reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="entries are finite, its norm overflows"):
            sym(np.diag([1e200, 1e200]))


@pytest.mark.parametrize("entries", [
    [[1e200, 1e308], [-1e308, 1.0]],
    [[1e300, 1e308], [1e308 * (1.0 + 1e-10), 1.0]],
])
def test_rejects_asymmetry_when_the_norm_overflows(entries):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no finite Frobenius norm"):
            sym(entries)


@pytest.mark.parametrize("built", [False, True], ids=["checked", "built"])
@pytest.mark.parametrize("run", [
    spectral_decompose, checked_eigenvalues, lambda a: count_evs(a, ">", 0.0),
], ids=["spectral_decompose", "checked_eigenvalues", "count_evs"])
def test_an_overflowing_norm_never_reaches_a_solver(monkeypatch, run, built):
    # with |A|_F = inf the guard band is inf, and every residual check would
    # pass an eigensolver that doubles each eigenvalue; a checked build
    # rejects the matrix, and the solvers reject an unchecked ``_built`` one
    g = np.random.default_rng(DEFAULT_SEED).standard_normal((4, 4))
    true_eigh, true_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def doubled_eigh(m):
        lam, vec = true_eigh(m)
        return 2.0 * lam, vec

    monkeypatch.setattr(np.linalg, "eigh", doubled_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: 2.0 * true_eigvalsh(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="its norm overflows"):
            run(SymOperator._built(1e200 * (g + g.T)) if built else 1e200 * (g + g.T))


@settings(max_examples=60, deadline=None)
@given(g=arrays(np.float64, (4, 4), elements=st.floats(-1e153, 1e153)))
def test_symmetrized_bits_match_the_plain_mean_wherever_it_is_finite(g):
    # entries below 1e153 keep |A|_F finite, and so the mean
    g = np.triu(g) + np.nextafter(np.triu(g, 1).T, 0.0)  # asymmetric by one ulp
    a = sym(g).entries
    assert np.array_equal(bits(a), bits(0.5 * (g + g.T)))
    assert np.array_equal(a, a.T)


@settings(max_examples=60, deadline=None)
@given(g=arrays(np.float64, (5, 5), elements=st.floats(-1e153, 1e153)))
def test_exactly_symmetric_entries_are_stored_unchanged(g):
    g = np.triu(g) + np.triu(g, 1).T
    assert np.array_equal(bits(sym(g).entries), bits(g))


def test_entries_are_frozen():
    a = sym(np.eye(2))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 3.0


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def one_ulp_pair(x):
    """A 2x2 matrix whose off-diagonal entries differ by one ulp."""
    return np.array([[1.0, x], [np.nextafter(x, 0.0), 1.0]])


def test_one_ulp_asymmetry_is_averaged_where_the_asymmetry_norm_underflows():
    g = one_ulp_pair(1e-170)  # |A - A^T|_F^2 ~ 1e-372 underflows to 0
    assert np.linalg.norm(g - g.T) == 0.0
    a = sym(g).entries
    assert np.array_equal(bits(a), bits(0.5 * (g + g.T)))
    assert bits(a)[0, 1] == bits(a)[1, 0]


@pytest.mark.parametrize("dim", [4, 100])
def test_bit_symmetric_averaged_and_asymmetric_input_at_every_size(dim):
    g = np.random.default_rng(DEFAULT_SEED + dim).standard_normal((dim, dim))
    exact = g + g.T
    exact[0, 0] = -0.0
    assert np.array_equal(bits(sym(exact).entries), bits(exact))
    ulp = exact.copy()
    ulp[dim - 1, 0] = np.nextafter(ulp[dim - 1, 0], np.inf)
    assert np.array_equal(bits(sym(ulp).entries), bits(0.5 * (ulp + ulp.T)))
    far = exact.copy()
    far[dim - 1, 0] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        sym(far)


@pytest.mark.parametrize("norm", [0.0, 1e6])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_symmetry_tolerance_is_relative_to_one_plus_the_norm(norm, factor):
    # |A - A^T|_F = factor * SYMMETRY_RTOL * (1 + |A|_F), up to rounding
    d = factor * SYMMETRY_RTOL * (1.0 + norm) / np.sqrt(2.0)
    g = np.diag([norm, norm]) / np.sqrt(2.0)
    g[1, 0] = d
    if factor < 1.0:
        assert sym(g).entries[0, 1] == 0.5 * d
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            sym(g)


def test_signed_zero_pair_is_stored_as_positive_zero():
    a = sym([[1.0, -0.0], [0.0, 1.0]]).entries  # equal by value, not by bits
    assert bits(a)[0, 1] == bits(a)[1, 0] == bits(0.0)


def test_exactly_symmetric_entries_are_stored_bit_for_bit():
    g = np.array([[-0.0, 5e-324, -1e-170],
                  [5e-324, 1e154, -0.0],
                  [-1e-170, -0.0, np.pi]])
    assert np.array_equal(bits(sym(g).entries), bits(g))


def test_stored_entries_do_not_alias_the_callers_array():
    for g in (np.eye(3), one_ulp_pair(0.5)):  # stored as a copy, and averaged
        op = sym(g)
        assert g.flags.writeable
        assert not np.shares_memory(op.entries, g)
        g[0, 0] = 7.0
        assert op.entries[0, 0] == 1.0


def spectral_stage():
    k = sym(np.diag([2.0, 0.5, 0.3, 0.1]))
    step = iterbs.random_spectral_step(k, np.random.default_rng(DEFAULT_SEED))
    return step, iterbs.iterate(k, [step])[0]


# each package value that holds arrays, built afresh by each call
ARRAY_VALUES = {
    "SymOperator": lambda: sym(np.eye(3)),
    "BsProblem": lambda: bsengine.BsProblem(sym(np.eye(2)), sym(-0.5 * np.eye(2)), 0.25),
    "_Stack": lambda: ARRAY_VALUES["BsProblem"]()._stack,
    "ProjectionStep": lambda: spectral_stage()[0],
    "_Steps": lambda: spectral_stage()[0]._steps,
    "StageResult": lambda: spectral_stage()[1],
}


@pytest.mark.parametrize("name", ARRAY_VALUES)
def test_values_holding_arrays_compare_and_hash_by_identity(name):
    # a dataclass's own __eq__ would compare its arrays, whose truth value is
    # ambiguous, and its own __hash__ would hash them, which fails
    first, second = ARRAY_VALUES[name](), ARRAY_VALUES[name]()
    assert type(first).__name__ == name
    assert first == first and first != second
    assert len({first, first, second}) == 2


# ---------------------------------------------------------------------------
# spectral_decompose


def test_decompose_identity():
    lam, vec = spectral_decompose(sym(np.eye(3)))
    np.testing.assert_allclose(lam, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(vec.T @ vec, np.eye(3), atol=1e-12)


def test_decompose_diagonal_orders_ascending():
    lam, _ = spectral_decompose(sym(np.diag([5.0, -2.0, 0.0])))
    np.testing.assert_allclose(lam, [-2.0, 0.0, 5.0])


def test_decompose_residual_invariants_random():
    a = random_symmetric(np.random.default_rng(DEFAULT_SEED), 8)
    lam, vec = spectral_decompose(a)
    scale = 1.0 + np.linalg.norm(a.entries)
    residual = np.linalg.norm(a.entries @ vec - vec * lam)
    assert residual <= 1e-10 * scale
    assert np.linalg.norm(vec.T @ vec - np.eye(8)) <= 1e-10
    assert np.all(np.diff(lam) >= 0)


# ---------------------------------------------------------------------------
# op_function


def test_op_function_identity_map():
    a = random_symmetric(np.random.default_rng(1), 6)
    out = op_function(a, lambda x: x)
    np.testing.assert_allclose(out.entries, a.entries, atol=1e-10)


def test_op_function_diagonal_inverse_sqrt():
    out = op_function(sym(np.diag([4.0, 9.0])), lambda x: x**-0.5)
    np.testing.assert_allclose(out.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_op_function_inverse_sqrt_squares_back():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((7, 7))
    a = sym(g @ g.T + 0.5 * np.eye(7))  # positive definite
    root = op_function(a, lambda x: x**-0.5)
    prod = root.entries @ root.entries @ a.entries
    np.testing.assert_allclose(prod, np.eye(7), atol=1e-9)


def test_op_function_domain_error_names_eigenvalue():
    a = sym(np.diag([1.0, -4.0]))
    with pytest.raises(ValueError, match="-4"):
        op_function(a, lambda x: x**-0.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_op_function_composition(seed):
    # f(g(A)) == (f o g)(A) within 1e-8
    a = random_symmetric(np.random.default_rng(seed), 5)
    f = np.cos
    g = lambda x: 0.5 * x**2
    via_two = op_function(op_function(a, g), f)
    via_one = op_function(a, lambda x: f(g(x)))
    assert np.linalg.norm(via_two.entries - via_one.entries) <= 1e-8


# ---------------------------------------------------------------------------
# count_evs


def test_count_diagonal_strict():
    assert count_evs(sym(np.diag([-1.0, 0.0, 2.0])), ">", 1.0) == 1


def test_count_identity_boundary_excluded():
    assert count_evs(sym(np.eye(5)), ">", 1.0) == 0
    assert count_evs(sym(np.eye(5)), "<", 1.0) == 0


def test_count_unicode_relations():
    # only the strict ASCII forms are relations, on the dense and the
    # tridiagonal route
    for a in (sym(np.diag([-1.0, 0.0, 2.0])),
              random_tridiagonal(np.random.default_rng(DEFAULT_SEED), 3)):
        for relation in ("≥", "≤", ">=", "<="):
            with pytest.raises(ValueError, match="unknown relation"):
                count_evs(a, relation, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), threshold=st.floats(-3, 3))
def test_count_matches_brute_force_scan(seed, threshold):
    # separated random diagonal spectra: gaps far exceed the guard band
    rng = np.random.default_rng(seed)
    diag = np.round(rng.uniform(-5, 5, size=9), 2)
    a = sym(np.diag(diag))
    eta = checked_eigenvalues(a)[1]
    lam = np.sort(diag)
    assert count_evs(a, ">", threshold) == int(np.sum(lam > threshold + eta))
    assert count_evs(a, "<", threshold) == int(np.sum(lam < threshold - eta))


def guard_band_edges(threshold, eta):
    """Eigenvalues on both edges of the band around ``threshold`` and one ulp
    to either side of each edge, with ``threshold`` itself."""
    lo, hi = threshold - eta, threshold + eta
    return np.array([np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf), threshold,
                     np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)])


# where each of ``guard_band_edges`` lies: counted by ``">"`` or by ``"<"``, or
# in the band (t - eta, t + eta], linop's private relation "=", where neither
# relation counts it and it collides
EDGE_SIDES = ["<", "<", "=", "=", "=", "=", ">"]
EDGE_COUNTS = {relation: EDGE_SIDES.count(relation) for relation in (">", "<")}
# the three half-open intervals of linop._interval, which partition the line
INTERVALS = (">", "<", "=")


def own_band_edge(threshold, j):
    """The ``j``-th of ``guard_band_edges(threshold, eta)`` for the guard band
    ``eta`` of the 1 x 1 tridiagonal matrix it makes, as linop computes that
    band, found by fixed-point iteration: the point sits on the edge of its
    own Sturm count's band."""
    x = threshold
    for _ in range(4):
        eta = 1e-10 * (1.0 + abs(x))  # |T|_F = sqrt(x^2), which rounds to |x| exactly
        x = guard_band_edges(threshold, eta)[j]
    assert 1e-10 * (1.0 + abs(x)) == eta
    return x


@pytest.mark.parametrize("relation", EDGE_COUNTS)
def test_count_applies_the_guard_band_rule_at_its_edges(relation):
    threshold, eta = 0.7, 1e-10 * 4.0
    assert _count(guard_band_edges(threshold, eta), eta, relation, threshold) == \
        EDGE_COUNTS[relation]
    # a stack, each member with its own threshold and band
    thresholds, etas = np.array([0.7, -2.0, 5.0]), np.array([4e-10, 1e-10, 3e-9])
    lam = np.array([guard_band_edges(t, e) for t, e in zip(thresholds, etas)])
    assert _count(lam, etas, relation, thresholds).tolist() == [EDGE_COUNTS[relation]] * 3
    # with one threshold for all, the members off it count by where they lie
    assert _count(lam, etas, relation, 0.7).tolist() == \
        [EDGE_COUNTS[relation], 0 if relation[0] == ">" else 7, 7 if relation[0] == ">" else 0]


def test_collision_is_an_eigenvalue_that_neither_relation_counts():
    threshold, eta = -1.5, 1e-10 * 4.0
    edges = guard_band_edges(threshold, eta)
    # t - eta is counted by "<"; t + eta by neither, so it collides
    for j, (lam, side) in enumerate(zip(edges, EDGE_SIDES)):
        lam = np.array([lam])
        assert bool(_collides(lam, eta, threshold)) is (side == "=")
        # exactly one of the three intervals holds each point, on the dense
        # and on the Sturm count
        assert [_count(lam, eta, r, threshold) for r in INTERVALS] == \
            [int(side == r) for r in INTERVALS]
        own = np.array([own_band_edge(threshold, j)])
        assert [_tridiagonal_count(own, np.zeros(0), r, threshold) for r in INTERVALS] == \
            [int(side == r) for r in INTERVALS], j
    assert _collides(np.array([edges[[0, 3]], edges[[0, 6]], edges[[1, 5]]]), np.full(3, eta),
                     np.full(3, threshold)).tolist() == [True, False, True]


def test_count_rejects_unknown_relation():
    # "=", the guard band, is a relation private to linop
    for a in (sym(np.eye(2)), random_tridiagonal(np.random.default_rng(DEFAULT_SEED), 2)):
        for relation in ("!=", ">=", "<=", "="):
            with pytest.raises(ValueError, match="unknown relation"):
                count_evs(a, relation, 0.0)


def test_count_random_symmetric_vs_sorted_list():
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(30):
        a = random_symmetric(rng, int(rng.integers(2, 12)), scale=2.0)
        threshold = float(rng.uniform(-2, 2))
        lam = np.sort(np.linalg.eigvalsh(a.entries))
        eta = checked_eigenvalues(a)[1]
        assert count_evs(a, ">", threshold) == int(np.sum(lam > threshold + eta))
        assert count_evs(a, "<", threshold) == int(np.sum(lam < threshold - eta))


def _eigh_count(a, relation, threshold, lam=None):
    """Oracle: the count from the full ``eigh`` eigenvalues ``lam`` of ``a``
    (computed when not given), same guard band."""
    lam = np.linalg.eigh(a.entries)[0] if lam is None else lam
    eta = 1e-10 * (1.0 + hs_norm(a))
    return dense_count(lam, eta, relation, threshold)


RADIAL_GRID = {"r_max": 25.0, "n": 700}


@pytest.fixture(scope="module")
def radial_cases():
    """The 40 matrices of acceptance criterion 5: for each case, the
    Birman-Schwinger kernel on the support of v_- (counted above 1) and the
    tridiagonal reduced Hamiltonian (counted below -eps), built once for
    the module."""
    cases = []
    for kind, lam, ell, eps in TWENTY_CASES:
        pot = PotentialSpec(kind=kind, strength=lam, range=1.0)
        grid = RadialGrid(ell=ell, **RADIAL_GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            label = (kind, lam, ell, eps)
            cases.append((label, bs_kernel_radial(pot, grid, eps), ">", 1.0))
            cases.append((label, reduced_hamiltonian(pot, grid), "<", -eps))
    return cases


def kernel_support(label):
    """The grid nodes of criterion 5's case ``label`` where v_- > 0."""
    kind, lam, ell, _ = label
    grid = RadialGrid(ell=ell, **RADIAL_GRID)
    return np.flatnonzero(PotentialSpec(kind=kind, strength=lam).v_minus(grid.nodes) > 0)


def on_the_grid(label, a, relation):
    """The bytes of case ``a`` on the whole grid: the Hamiltonian's own, and
    the kernel's support block zero-padded to n x n."""
    if relation == "<":
        return np.array(a.entries)
    supp = kernel_support(label)
    m = np.zeros((RADIAL_GRID["n"],) * 2)
    m[np.ix_(supp, supp)] = a.entries
    return m


def padded_spectrum(lam, n):
    """Ascending eigenvalues ``lam`` with zeros added up to ``n``: the
    spectrum of a support block zero-padded to ``n x n``."""
    return np.sort(np.concatenate([lam, np.zeros(n - lam.size)]))


@pytest.fixture(scope="module")
def radial_oracles(radial_cases):
    """Per case of ``radial_cases``, its dense oracles on the whole grid,
    each computed once: the eigenvalues of ``on_the_grid`` by scipy's
    ``eigh`` with ``eigvals_only``, a LAPACK route of its own that computes
    no eigenvectors, and the checked eigenvalues and guard band of a
    ``SymOperator`` of those bytes, which records no structure, so its
    spectrum is one numpy ``eigvalsh`` of the whole n x n matrix."""
    plains = [SymOperator(on_the_grid(label, a, relation))
              for label, a, relation, _ in radial_cases]
    # all of scipy's solves first: calls that alternate between the OpenBLAS
    # builds of scipy and numpy are slow
    lams = [scipy.linalg.eigh(plain.entries, eigvals_only=True) for plain in plains]
    return [(lam, plain, checked_eigenvalues(plain)) for lam, plain in zip(lams, plains)]


def test_count_matches_eigh_count_on_radial_cases(radial_cases, radial_oracles):
    for (label, a, relation, threshold), (eigh_lam, _, _) in zip(radial_cases, radial_oracles):
        assert count_evs(a, relation, threshold) == \
            _eigh_count(a, relation, threshold, eigh_lam), label


def test_compressed_count_proves_every_criterion_5_kernel_count(radial_cases, radial_oracles):
    for (label, a, relation, threshold), (_, _, (ref, eta)) in zip(radial_cases, radial_oracles):
        count = dense_compressed_count(a.entries, relation, threshold)
        # the 20 kernels, above 1, never fall back to the full spectrum; a
        # Hamiltonian, counted by Sturm sequences, may
        assert count is not None or relation == "<", label
        if count is not None:
            assert count == int(_count_evs(a.entries, relation, threshold)) == \
                dense_count(ref, eta, relation, threshold), label


def test_no_criterion_5_matrix_has_an_eigenvalue_in_the_guard_band(radial_cases, radial_oracles):
    # criterion 5 compares count_evs of each pair, and a count leaves an
    # eigenvalue in the guard band out; the held spectra show none is there
    for (label, _, _, threshold), (_, _, (ref, eta)) in zip(radial_cases, radial_oracles):
        assert not _collides(ref, eta, threshold), label


def planted(lam, n=40):
    """An exactly symmetric ``n x n`` matrix whose nonzero eigenvalues are
    ``lam``, in a random orthonormal basis."""
    q = random_orthogonal(np.random.default_rng(DEFAULT_SEED), n)[:, :len(lam)]
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def rounding_allowance(n, fro):
    """``e``, the allowance ``_compressed_count`` gives each eigenvalue of its
    compression, for an ``n x n`` matrix of Frobenius norm ``fro``."""
    k = _COMPRESSION_RANK
    return k * (4e-12 + 2.0 * (n + k) * 2.0**-53) * (1.0 + fro)


# an eigenvalue planted at tau + offset * e, with tau = 1 + eta: (offset,
# count above 1, or None where it lies in the window [tau - w - e, tau + e])
PLANTED_OFFSETS = [(-3.0, 1), (-1.05, 1), (-0.95, None), (0.0, None), (0.95, None),
                   (1.05, 2), (3.0, 2)]


@pytest.mark.parametrize("offset,expected", PLANTED_OFFSETS)
def test_compressed_count_excludes_exactly_its_window_on_a_planted_spectrum(offset, expected):
    # the rank-3 matrix lies in the compression, so c and the window's
    # Schur part w = (c + e)^2 / (tau - d) are at rounding level, and the
    # window is [tau - e, tau + e] to within 1e-20
    x = 1.0
    for _ in range(2):  # eta and e of |A|_F with x planted, settled to 1e-20
        fro = np.linalg.norm([3.0, x, 0.5])
        eta, e = 1e-10 * (1.0 + fro), rounding_allowance(40, fro)
        x = 1.0 + eta + offset * e
    m = planted([3.0, x, 0.5])
    assert abs(np.linalg.norm(m) - fro) <= 1e-3 * e
    # "<" makes the same test on -A, against -(threshold - eta)
    assert dense_compressed_count(m, ">", 1.0) == dense_compressed_count(-m, "<", -1.0) == expected
    if expected is not None:  # inside the window the two dense counts may differ
        assert count_evs(sym(m), ">", 1.0) == count_evs(sym(-m), "<", -1.0) == \
            int(_count_evs(m, ">", 1.0)) == int(_count_evs(-m, "<", -1.0)) == expected


def test_compressed_count_window_covers_a_ritz_value_below_an_eigenvalue_above_tau():
    # with a slowly falling tail the compression's top eigenvalue lies about
    # 8.5e-6 below A's, so at 1 + 1e-6 it sits in the Schur part w = 2e-3 of
    # the window, below tau; 0.01 above 1 it is proved
    tail = 0.9 * 0.8 ** np.arange(39)
    m = planted(np.concatenate([[1.0 + 1e-6], tail]))
    assert dense_compressed_count(m, ">", 1.0) is None
    assert count_evs(sym(m), ">", 1.0) == 1
    assert dense_compressed_count(planted(np.concatenate([[1.01], tail])), ">", 1.0) == 1


def test_compressed_count_takes_a_norm_near_the_largest_accepted():
    # |A|_F = 1.3e154: |A|_F^2 = 1.6e308 is finite, twice it is not
    m = 4e153 * planted([3.0, 0.9, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dense_compressed_count(m, ">", 4e153) == dense_compressed_count(-m, "<", -4e153) == 1
        assert dense_compressed_count(m, ">", 3e153) == count_evs(sym(m), ">", 3e153) == 2


def test_compressed_count_is_the_dense_count_or_none_on_spectra_with_tails():
    rng = np.random.default_rng(DEFAULT_SEED + 11)
    proved = 0
    for _ in range(60):
        n = int(rng.integers(9, 60))
        top = rng.uniform(-4.0, 4.0, size=int(rng.integers(1, 6)))
        tail = rng.choice([-1.0, 1.0], n - top.size) * 0.3 * rng.uniform(0.2, 0.8) ** np.arange(
            n - top.size)
        m = planted(np.concatenate([top, tail]), n)
        for threshold in rng.uniform(-2.0, 2.0, size=3):
            for relation in (">", "<"):
                count = dense_compressed_count(m, relation, threshold)
                if count is not None:
                    proved += 1
                    assert count == int(_count_evs(m, relation, threshold)), (n, relation)
    assert proved >= 120  # a third of the 360 counts


@pytest.mark.parametrize("m,relation,threshold", [
    (2.0 * np.eye(20), ">", 1.0),  # the complement's norm 2 sqrt(12) exceeds tau
    (planted([3.0, 0.5]), ">", 0.0),  # d, zero but for rounding, cannot prove tau = eta
    (planted([3.0, 0.5]), ">", 1e-6),  # tau / (1 + |A|_F) lies below the allowance on d
    (planted([3.0, 0.5]), ">", -1.0),
    (planted([-3.0, -0.5]), "<", 0.0),
], ids=["2I", "threshold-0", "threshold-1e-6", "threshold-negative", "less-than-0"])
def test_compressed_count_falls_back_to_the_full_spectrum(solver_dims, m, relation, threshold):
    assert dense_compressed_count(m, relation, threshold) is None
    solver_dims["dense"].clear()
    dense = int(_count_evs(m, relation, threshold))
    assert count_evs(sym(m), relation, threshold) == dense
    assert solver_dims["dense"] == [len(m), len(m)]  # count_evs solved the whole matrix


@pytest.mark.parametrize("scale,fails", [(1.0 + 1e-13, False), (1.0 + 1e-11, True)])
def test_compressed_count_checks_its_basis_is_orthonormal(monkeypatch, scale, fails):
    # |Q^T Q - I|_F = (scale^2 - 1) sqrt(k): 5.7e-13 and 5.7e-11 against 1e-12
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: (scale * qr(a)[0], qr(a)[1]))
    m = planted([3.0, 0.9, 0.5], n=2 * _DENSE_COUNT_ROWS)  # count_evs tries the compression
    if fails:
        with pytest.raises(RuntimeError, match="orthonormality defect .* exceeds 1e-12"):
            count_evs(sym(m), ">", 1.0)
    else:
        assert dense_compressed_count(m, ">", 1.0) == count_evs(sym(m), ">", 1.0) == 1


@pytest.mark.parametrize("n,dims", [(_DENSE_COUNT_ROWS, [_DENSE_COUNT_ROWS]),
                                    (_DENSE_COUNT_ROWS + 1, [_COMPRESSION_RANK])])
def test_count_evs_tries_the_compression_only_above_its_row_floor(solver_dims, n, dims):
    assert count_evs(sym(planted([3.0, 0.9, 0.5], n)), ">", 1.0) == 1
    assert solver_dims["dense"] == dims


def test_radial_cases_take_the_structured_routes_and_match_dense(radial_cases, radial_oracles,
                                                                solver_dims):
    for (label, a, relation, threshold), (_, _, (ref, _)) in zip(radial_cases, radial_oracles):
        solver_dims["dense"].clear()
        solver_dims["tridiagonal"].clear()
        lam, eta = checked_eigenvalues(a)
        assert np.max(np.abs(padded_spectrum(lam, ref.size) - ref)) <= \
            1e-13 * np.max(np.abs(ref)), label
        assert dense_count(lam, eta, relation, threshold) == \
            dense_count(ref, eta, relation, threshold), label
        # the tridiagonal Hamiltonian's spectrum is solved dense, and the
        # kernel, which lives on the support of v_-, is solved whole
        rows = RADIAL_GRID["n"] if relation == "<" else kernel_support(label).size
        assert a.dim == rows, label
        assert solver_dims == {"dense": [a.dim], "tridiagonal": []}, label


def test_recorded_structure_gives_the_counts_and_spectra_of_the_bytes(radial_cases,
                                                                       radial_oracles):
    for (label, a, relation, threshold), (_, plain, (lam_plain, eta_plain)) in zip(
            radial_cases, radial_oracles):
        assert plain._structure is None
        # count_evs of the plain operator is _count of its checked eigenvalues
        assert count_evs(a, relation, threshold) == \
            _count(lam_plain, eta_plain, relation, threshold), label
        lam, eta = checked_eigenvalues(a)
        assert np.max(np.abs(padded_spectrum(lam, plain.dim) - lam_plain)) <= \
            min(eta, eta_plain), label


def test_recorded_structure_is_read_from_the_frozen_entries(radial_cases):
    for label, a, relation, _ in radial_cases:
        assert type(a._structure) is (_Tridiagonal if relation == "<" else _Kernel), label
        with pytest.raises(ValueError, match="read-only"):
            a.entries[0, 0] = 1.0


def fresh_kernel(pot, eps, grid=None):
    """A structured kernel whose entries no one has read yet."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return bs_kernel_radial(pot, grid or RadialGrid(ell=0, **RADIAL_GRID), eps)


def case_kernel(label):
    """A fresh structured kernel of criterion 5's case ``label``."""
    kind, lam, ell, eps = label
    return fresh_kernel(PotentialSpec(kind=kind, strength=lam), eps,
                        RadialGrid(ell=ell, **RADIAL_GRID))


def structured_count(k, relation, threshold):
    """``_compressed_count`` of the recorded kernel ``k`` from its factors."""
    return _compressed_count(_kernel_products(k._structure), relation, threshold)


def test_structured_count_proves_every_criterion_5_kernel_count(radial_cases, radial_oracles,
                                                                solver_dims):
    for (label, a, relation, threshold), (_, _, (ref, eta)) in zip(radial_cases, radial_oracles):
        if relation == "<":
            continue
        k = case_kernel(label)
        solver_dims["dense"].clear()
        assert structured_count(k, relation, threshold) == dense_count(ref, eta, relation,
                                                                       threshold), label
        # count_evs proves a kernel of more than 64 rows the same way, from
        # the 8 x 8 compression alone, and never builds the dense kernel
        assert count_evs(k, relation, threshold) == dense_count(ref, eta, relation, threshold)
        if k.dim > _DENSE_COUNT_ROWS:
            assert solver_dims["dense"] == [_COMPRESSION_RANK] * 2, label
            assert "entries" not in vars(k), label


def test_kernel_frobenius_recurrence_is_the_dense_norm_within_its_allowance(radial_cases):
    # |K|_F^2 from the recurrences differs from that of the built entries by
    # less than _compressed_count's allowance on d^2: (N^2 u + 2 k e) scale^2
    u, k = 2.0**-53, _COMPRESSION_RANK
    for label, a, relation, _ in radial_cases:
        if relation == "<":
            continue
        _, fro, columns, terms, error = _kernel_products(a._structure)
        dense = hs_norm(a)
        e = k * (4e-12 + 2.0 * (terms + k) * u + error)
        assert abs(fro**2 - dense**2) <= (terms * terms * u + 2.0 * k * e) * (1.0 + dense) ** 2
        assert abs(fro - dense) <= 1e-13 * dense, label  # 4.5e-15 measured
        np.testing.assert_allclose(columns, np.einsum("ij,ij->j", a.entries, a.entries),
                                   rtol=1e-12, err_msg=str(label))


@pytest.mark.parametrize("relation", [">", "<"])
def test_structured_count_at_the_guard_band_edges_is_the_dense_count_or_none(
        radial_cases, radial_oracles, relation):
    # thresholds that put a kernel eigenvalue just inside and just outside
    # either edge of the band, and 1e4 bands away: the proof gives the dense
    # count or falls back (to the dense count, as the fallback test shows)
    proved = 0
    for (label, a, kind, _), (_, _, (ref, eta)) in zip(radial_cases, radial_oracles):
        # a kernel of full support, where the oracle spectrum is K's own
        if kind == "<" or a.dim != RADIAL_GRID["n"]:
            continue
        for x in ref[-3:]:
            for edge in (-1.0, 1.0):
                for shift in (1.0 - 1e-3, 1.0 + 1e-3, 1e4):
                    threshold = x + edge * shift * eta
                    expected = dense_count(ref, eta, relation, threshold)
                    count = structured_count(a, relation, threshold)
                    assert count in (None, expected), (label, edge, shift)
                    proved += count is not None
    assert proved or relation == "<"  # the top of K is proved 1e4 bands below it


def test_structured_count_on_a_table_potential_with_a_gap_in_its_support():
    # v_- vanishes on (2.5, 4): the support is two runs of nodes, 126 rows
    pot = PotentialSpec(kind="table", strength=2.0, table_r=np.array([0, 2, 2.5, 4, 4.5, 6.0]),
                        table_v=np.array([1, 1, 0, 0, 1, 1.0]))
    for eps, expected in ((0.05, 2), (0.2, 2), (1.0, 1)):
        k = fresh_kernel(pot, eps)
        assert k.dim == 126 and np.count_nonzero(np.diff(k._structure.support) > 1) == 1
        assert structured_count(k, ">", 1.0) == count_evs(k, ">", 1.0) == expected
        assert "entries" not in vars(k)
        assert int(_count_evs(k.entries, ">", 1.0)) == expected


def test_fallback_of_a_structured_count_makes_one_dense_solve_of_the_built_entries(
        monkeypatch, solver_dims):
    # eigenvalues 0.92 and 3.5 at strength 4: the proof fails, and count_evs
    # builds the kernel once and solves it once
    builds = []
    block = radial._bs_block
    monkeypatch.setattr(radial, "_bs_block", lambda *args: builds.append(args) or block(*args))
    pot = PotentialSpec(kind="table", strength=4.0, table_r=np.array([0, 2, 2.5, 4, 4.5, 6.0]),
                        table_v=np.array([1, 1, 0, 0, 1, 1.0]))
    k = fresh_kernel(pot, 0.2)
    assert structured_count(k, ">", 1.0) is None
    solver_dims["dense"].clear()
    assert count_evs(k, ">", 1.0) == 2
    assert [n for n in solver_dims["dense"] if n != _COMPRESSION_RANK] == [k.dim]
    assert len(builds) == 1
    assert k.entries is k.entries and len(builds) == 1


def test_structured_entries_are_the_bytes_of_the_dense_builders(radial_cases):
    for label, a, relation, _ in radial_cases:
        kind, lam, ell, eps = label
        pot, grid = PotentialSpec(kind=kind, strength=lam), RadialGrid(ell=ell, **RADIAL_GRID)
        if relation == ">":
            expected = radial._bs_block(pot, grid, eps)
        else:
            diag, off = radial._fd_diagonals(pot, grid)
            expected = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert a.entries.tobytes() == expected.tobytes(), label
        assert a.dim == len(expected), label


def test_threads_sharing_a_structured_kernel_read_one_build(monkeypatch):
    # four threads read the entries of one kernel and count it at once; they
    # see the bytes and counts of a single thread, from one build
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    pot = PotentialSpec(kind="exponential", strength=18.0)
    alone = fresh_kernel(pot, 0.1)
    expected = (alone.entries.tobytes(), count_evs(alone, ">", 1.0), count_evs(alone, "<", 0.5))
    builds = []
    block = radial._bs_block
    monkeypatch.setattr(radial, "_bs_block", lambda *args: builds.append(args) or block(*args))
    shared, start = fresh_kernel(pot, 0.1), Barrier(4, timeout=60)

    def read(_):
        start.wait()
        return shared.entries.tobytes(), count_evs(shared, ">", 1.0), count_evs(shared, "<", 0.5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(read, range(4), timeout=120)) == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1


def test_count_matches_eigh_count_on_random_corpus():
    rng = np.random.default_rng(DEFAULT_SEED + 5)
    for _ in range(200):
        a = random_symmetric(rng, int(rng.integers(2, 40)), scale=2.0)
        threshold = float(rng.uniform(-2, 2))
        for relation in (">", "<"):
            assert count_evs(a, relation, threshold) == _eigh_count(a, relation, threshold)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["dense", "tridiagonal"])
def test_count_rejects_a_non_finite_threshold(threshold, route):
    rng = np.random.default_rng(DEFAULT_SEED)
    a = random_symmetric(rng, 5) if route == "dense" else random_tridiagonal(rng, 5)
    for relation in (">", "<"):
        with pytest.raises(ValueError, match="threshold"):
            count_evs(a, relation, threshold)


def test_kernel_whose_norm_overflows_is_rejected_before_its_solver():
    # bs_kernel_radial hands its finite kernel to SymOperator._built, which
    # checks nothing; every route that solves it rejects |K|_F = inf
    well = PotentialSpec(kind="square_well", strength=1e300, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=200)
    k = bs_kernel_radial(well, grid, 1.0)
    assert np.isfinite(k.entries).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (checked_eigenvalues, spectral_decompose, lambda k: count_evs(k, ">", 1.0),
                    lambda k: radial.bs_count_and_top(well, grid, 1.0),
                    lambda k: _checked_eigenvalues(np.stack([np.eye(k.dim), k.entries])),
                    lambda k: _spectral_decompose(np.stack([np.eye(k.dim), k.entries]))):
            with pytest.raises(ValueError, match="its norm overflows"):
                run(k)
    with pytest.raises(ValueError, match=r"\(stack member 1\)$"):
        _checked_eigenvalues(np.stack([np.eye(k.dim), k.entries]))


def test_tridiagonal_count_rejects_a_norm_that_overflows():
    # the builders check nothing, so finite diagonals whose |T|_F overflows
    # reach the Sturm count, which has no finite guard band for them
    well = PotentialSpec(kind="square_well", strength=1e300, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            radial._negative_count_off_threshold(well, grid, 0.0)
        h = reduced_hamiltonian(well, grid)
        for relation in (">", "<"):
            with pytest.raises(ValueError, match="not finite"):
                count_evs(h, relation, 0.0)


def sterf_count(diag, off, relation, threshold):
    """Oracle: the count from the full ``sterf`` spectrum, same guard band."""
    lam = TRIDIAGONAL_EIGVALSH(diag, off, lapack_driver="sterf")
    eta = 1e-10 * (1.0 + np.sqrt(diag @ diag + 2.0 * (off @ off)))
    return int(np.sum({">": lam > threshold + eta, "<": lam < threshold - eta}[relation]))


def test_sturm_count_matches_the_sterf_count_across_the_guard_band(monkeypatch):
    # thresholds 2 eta, 0.8 eta and eta/2 on either side of an eigenvalue:
    # each relation counts it only when it lies outside the band
    selections = []
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", lambda d, e, **kw: (
        selections.append(kw["select"]) or TRIDIAGONAL_EIGVALSH(d, e, **kw)))
    rng = np.random.default_rng(DEFAULT_SEED + 9)
    for _ in range(60):
        dim = int(rng.integers(3, 60))
        a = random_tridiagonal(rng, dim, diagonal_only=rng.random() < 0.2)
        m = a.entries * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.3:  # split into unreduced blocks
            k = int(rng.integers(1, dim))
            m[k, k - 1] = m[k - 1, k] = 0.0
        a = tridiagonal_operator(m)
        diag, off = m.diagonal().copy(), m.diagonal(-1).copy()
        lam = TRIDIAGONAL_EIGVALSH(diag, off, lapack_driver="sterf")
        eta = 1e-10 * (1.0 + hs_norm(a))
        for x in rng.choice(lam, size=min(dim, 4), replace=False):
            for shift in (-2.0, -0.8, -0.5, 0.5, 0.8, 2.0):
                threshold = x + shift * eta
                for relation in (">", "<"):
                    expected = sterf_count(diag, off, relation, threshold)
                    assert count_evs(a, relation, threshold) == expected, (dim, relation, shift)
    assert set(selections) == {"v"}  # every count took the Sturm selection


def test_sturm_collision_matches_the_sterf_spectrum_across_the_guard_band():
    # thresholds 2 eta, 0.8 eta and eta/2 on either side of an eigenvalue:
    # it collides only when it lies inside the band
    rng = np.random.default_rng(DEFAULT_SEED + 10)
    for _ in range(40):
        dim = int(rng.integers(3, 60))
        m = random_tridiagonal(rng, dim, diagonal_only=rng.random() < 0.2).entries
        m = m * 10.0 ** rng.uniform(-3, 3)
        diag, off = m.diagonal().copy(), m.diagonal(-1).copy()
        lam = TRIDIAGONAL_EIGVALSH(diag, off, lapack_driver="sterf")
        eta = 1e-10 * (1.0 + hs_norm(sym(m)))
        for x in rng.choice(lam, size=min(dim, 4), replace=False):
            for shift in (-2.0, -0.8, -0.5, 0.5, 0.8, 2.0):
                threshold = x + shift * eta
                collides = _tridiagonal_count(diag, off, "=", threshold) > 0
                assert collides is (abs(shift) < 1.0), (dim, shift)
                assert collides == bool(_collides(lam, eta, threshold))


def test_sturm_collision_takes_the_half_open_band_to_the_ulp():
    # a diagonal T has its entries for eigenvalues, exact to the bit, and the
    # Sturm count over (t - eta, t + eta] holds them to _collides' edges: a
    # threshold walked one ulp at a time across the band's two edges
    diag, off = np.array([-3.0, 0.25, 2.0]), np.zeros(2)
    eta = 1e-10 * (1.0 + np.sqrt(diag @ diag))
    seen = set()
    for edge in (0.25 - eta, 0.25 + eta):
        threshold = edge
        for _ in range(4):
            threshold = np.nextafter(threshold, -np.inf)
        for _ in range(9):
            collides = bool(_collides(diag, eta, threshold))
            assert (_tridiagonal_count(diag, off, "=", threshold) > 0) is collides, threshold
            seen.add(collides)
            # exactly one of the three intervals holds each eigenvalue, on the
            # dense and on the Sturm count
            for lam in diag:
                assert sum(_count(np.array([lam]), eta, r, threshold) for r in INTERVALS) == 1
            assert [_tridiagonal_count(diag, off, r, threshold) for r in INTERVALS] == \
                [_count(diag, eta, r, threshold) for r in INTERVALS], threshold
            threshold = np.nextafter(threshold, np.inf)
    assert seen == {True, False}


@pytest.mark.parametrize("relation", [">", "<"])
def test_guarded_count_counts_off_the_guard_band_and_refuses_in_it(relation):
    # eigenvalue 4 of a spectrum, of member 1 of a stack and of a tridiagonal
    # matrix walked across both edges of its guard band: 2 eta off the
    # threshold it is counted as _count and count_evs count it, on its side,
    # and 0.8 eta off it is refused, in a stack naming the member
    rng = np.random.default_rng(DEFAULT_SEED + 11)
    a, t = random_symmetric(rng, 9), random_tridiagonal(rng, 9)
    stack = np.stack([random_symmetric(rng, 9).entries for _ in range(3)])
    tri = _Tridiagonal(t.entries.diagonal().copy(), t.entries.diagonal(-1).copy())
    lam, eta = _checked_eigenvalues(a.entries)
    lams, etas = _checked_eigenvalues(stack)
    tri_lam, tri_eta = TRIDIAGONAL_EIGVALSH(*tri), 1e-10 * (1.0 + hs_norm(t))
    member_1 = np.arange(3) == 1
    for shift in (-2.0, -0.8, 0.8, 2.0):
        cases = {  # route, operand, threshold and the count_evs oracle
            "spectrum": (_count, (lam, eta), lam[4] + shift * eta, count_evs, a),
            "stack": (_count, (lams, etas), np.where(member_1, lams[:, 4] + shift * etas,
                                                       lams[:, 0] - 1.0), _count_evs, stack),
            "tridiagonal": (_tridiagonal_count, tri, tri_lam[4] + shift * tri_eta, count_evs, t),
        }
        for name, (route, operand, threshold, oracle, matrix) in cases.items():
            message = "collision in the {} at t = {:.17g}"
            if abs(shift) < 1.0:
                named = threshold[1] if name == "stack" else threshold
                member = " (stack member 1)" if name == "stack" else ""
                with pytest.raises(ThresholdCollisionError, match="^" + re.escape(
                        f"collision in the {name} at t = {named:.17g}{member}") + "$"):
                    _guarded_count(route, operand, relation, threshold, message, name, threshold)
                continue
            got = _guarded_count(route, operand, relation, threshold, message, name, threshold)
            below = 4 + (shift > 0)  # eigenvalue 4 is counted on its side of the threshold
            want = below if relation == "<" else 9 - below
            if name == "stack":
                want = np.where(member_1, want, 9 if relation == ">" else 0)
            assert np.array_equal(got, want), (name, shift)
            assert np.array_equal(got, route(*operand, relation, threshold)), (name, shift)
            assert np.array_equal(got, oracle(matrix, relation, threshold)), (name, shift)


def test_threshold_collision_error_is_one_class_re_exported():
    import bscount
    assert bsengine.ThresholdCollisionError is bscount.ThresholdCollisionError is \
        ThresholdCollisionError
    assert issubclass(ThresholdCollisionError, RuntimeError)


def test_checked_eigenvalues_match_eigh_and_return_guard():
    a = random_symmetric(np.random.default_rng(7), 30)
    lam, eta = checked_eigenvalues(a)
    np.testing.assert_allclose(lam, np.linalg.eigh(a.entries)[0], atol=1e-12)
    assert np.all(np.diff(lam) >= 0)
    assert eta == 1e-10 * (1.0 + hs_norm(a))


def test_routes_follow_the_recorded_structure(solver_dims):
    rng = np.random.default_rng(DEFAULT_SEED + 6)
    checked_eigenvalues(random_symmetric(rng, 9))
    checked_eigenvalues(random_tridiagonal(rng, 9))
    # with nothing recorded, zeros and bands are not looked for
    checked_eigenvalues(SymOperator(random_tridiagonal(rng, 9).entries))
    zero_row = random_symmetric(rng, 9).entries.copy()
    zero_row[2, :] = zero_row[:, 2] = 0.0
    checked_eigenvalues(SymOperator(zero_row))
    # a recorded tridiagonal operator is solved dense: its flag serves counts only
    assert solver_dims == {"dense": [9, 9, 9, 9], "tridiagonal": []}


def test_spectrum_of_a_tridiagonal_operator_is_one_dense_solve(solver_dims):
    a = random_tridiagonal(np.random.default_rng(DEFAULT_SEED), 12)
    lam, _ = checked_eigenvalues(a)
    assert solver_dims == {"dense": [12], "tridiagonal": []}
    assert lam.tobytes() == DENSE_EIGVALSH(a.entries).tobytes()


def test_tridiagonal_route_matches_dense():
    rng = np.random.default_rng(DEFAULT_SEED + 8)
    for _ in range(100):
        dim = int(rng.integers(3, 60))
        a = random_tridiagonal(rng, dim, diagonal_only=rng.random() < 0.3)
        if rng.random() < 0.3:  # split into unreduced blocks
            m = a.entries.copy()
            k = int(rng.integers(1, dim))
            m[k, k - 1] = m[k - 1, k] = 0.0
            a = tridiagonal_operator(m)
        assert_matches_dense(a)


# each eigenvalue route: a matrix that takes it and the solver it ends in
ROUTES = {
    "dense": (lambda rng: random_symmetric(rng, 12), np.linalg, "eigvalsh"),
    "tridiagonal": (lambda rng: random_tridiagonal(rng, 12),
                    scipy.linalg, "eigvalsh_tridiagonal"),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("invariant,perturb", [
    ("trace", lambda lam: lam + 1e-6),
    # shifts two eigenvalues in opposite directions: the sum is unchanged
    ("square sum", lambda lam: lam + 1e-4 * np.eye(lam.size)[0] - 1e-4 * np.eye(lam.size)[-1]),
])
def test_count_raises_on_eigenvalues_breaking_an_invariant(monkeypatch, invariant, perturb, route):
    make, module, name = ROUTES[route]
    a = make(np.random.default_rng(DEFAULT_SEED))
    # a tridiagonal count is a Sturm count with no spectrum to check; the
    # spectrum of a tridiagonal operator is checked where _checked_eigenvalues
    # computes it, by dense eigvalsh
    if route == "tridiagonal":
        module, name = np.linalg, "eigvalsh"
    run = checked_eigenvalues if route == "tridiagonal" else lambda a: count_evs(a, ">", 0.0)
    solver = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: perturb(solver(*args, **kw)))
    with pytest.raises(RuntimeError, match=invariant):
        run(a)


@pytest.mark.parametrize("route", ROUTES)
def test_count_turns_lapack_failure_into_runtime_error(monkeypatch, route):
    make, module, name = ROUTES[route]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    a = make(np.random.default_rng(DEFAULT_SEED))
    monkeypatch.setattr(module, name, fail)
    with pytest.raises(RuntimeError, match="did not converge"):
        count_evs(a, ">", 0.0)


# ---------------------------------------------------------------------------
# stacks: one LAPACK call, every check per matrix


def random_stack(rng, dims=6, scales=(1.0, 100.0, 1.0)):
    """Symmetric matrices of one dimension and different norms, stacked."""
    return np.array([random_symmetric(rng, dims, scale).entries for scale in scales])


def test_stack_spectra_equal_each_matrix_alone_bit_for_bit():
    m = random_stack(np.random.default_rng(DEFAULT_SEED))
    lam, eta = _checked_eigenvalues(m)
    vals, vecs = _spectral_decompose(m)
    for i, one in enumerate(m):
        lam_1, eta_1 = _checked_eigenvalues(one)
        vals_1, vecs_1 = _spectral_decompose(one)
        assert lam[i].tobytes() == lam_1.tobytes() and eta[i] == eta_1
        assert vals[i].tobytes() == vals_1.tobytes() and vecs[i].tobytes() == vecs_1.tobytes()


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_stack_trace_check_holds_each_member_to_its_own_band(monkeypatch, factor):
    # member 1 has the widest band: a shift inside it passes though it would
    # break the bands of members 0 and 2, and a shift beyond it raises
    m = random_stack(np.random.default_rng(3))
    eta = 1e-10 * (1.0 + np.linalg.norm(m[1]))
    true_eigvalsh = np.linalg.eigvalsh

    def shifted(a):
        lam = true_eigvalsh(a)
        lam[1, -1] += factor * eta
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    if factor < 1.0:
        _checked_eigenvalues(m)
    else:
        with pytest.raises(RuntimeError, match=r"trace.*\(stack member 1\)"):
            _checked_eigenvalues(m)


@pytest.mark.parametrize("invariant,perturb", [
    ("residual", lambda lam, vec: (lam + 1e-6, vec)),
    ("orthonormality", lambda lam, vec: (lam, vec * (1.0 + 1e-8))),
])
def test_stack_decomposition_checks_each_member(monkeypatch, invariant, perturb):
    m = random_stack(np.random.default_rng(5))
    true_eigh = np.linalg.eigh

    def broken_member_two(a):
        lam, vec = true_eigh(a)
        lam[2], vec[2] = perturb(lam[2], vec[2])
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", broken_member_two)
    with pytest.raises(RuntimeError, match=rf"{invariant}.*\(stack member 2\)"):
        _spectral_decompose(m)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_stack_positivity_check_uses_the_guard_band(factor):
    a = np.array([np.eye(3), np.diag([0.0, 1.0, 2.0]), np.eye(3)])
    eta = 1e-10 * (1.0 + np.sqrt(5.0))
    a[1, 0, 0] = -factor * eta
    if factor < 1.0:
        _spectral_decompose(a, psd=True)
    else:
        with pytest.raises(ValueError, match=r"semidefinite.*\(stack member 1\)"):
            _spectral_decompose(a, psd=True)


def test_symmetrized_stack_equals_sym_operator_entries_bit_for_bit():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 5, 5))
    m = g.swapaxes(1, 2) @ g  # symmetric up to rounding
    m[0] = 0.5 * (m[0] + m[0].T)  # and one symmetric bit for bit
    out = _symmetrized(m)
    for i, one in enumerate(m):
        assert out[i].tobytes() == SymOperator(one).entries.tobytes()
    assert not out.flags.writeable


@pytest.mark.parametrize("bad,message", [
    (lambda m: m[1].__setitem__((0, 1), m[1, 0, 1] + 1e-6), "not symmetric"),
    (lambda m: m[1].__setitem__((2, 2), np.nan), "Frobenius norm"),
    (lambda m: m[1].__imul__(1e200), "Frobenius norm"),  # finite entries, norm overflows
])
def test_symmetrized_stack_rejects_a_bad_member(bad, message):
    m = np.array([np.eye(3)] * 3)
    bad(m)
    with pytest.raises(ValueError, match=rf"{message}.*\(stack member 1\)"):
        _symmetrized(m)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("bad,cause", [
    (lambda a: a.__setitem__((2, 1), -np.inf), r"1 non-finite entries, the first A\[2, 1\] = -inf"),
    (lambda a: a.__setitem__(([1, 2], [0, 2]), [np.nan, np.inf]),
     r"2 non-finite entries, the first A\[1, 0\] = nan"),
    (lambda a: a.__setitem__((1, 1), 2e154), "its entries are finite, its norm overflows"),
], ids=["inf", "nan", "overflow"])
def test_one_check_names_the_cause_of_a_norm_that_is_not_finite(bad, cause, stacked):
    a = np.eye(3)
    bad(a)
    m = np.array([np.eye(3), a]) if stacked else a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"no finite Frobenius norm: {cause}"
                                             + (r" \(stack member 1\)$" if stacked else "$")):
            _symmetrized(m)


# the four checks on a stack of one below, each with its offending value last
ONE_PROBLEM_REJECTIONS = {
    "BsProblem": (lambda: bsengine.BsProblem(sym(np.eye(2)), sym(-np.eye(2)), np.nan),
                  "got nan"),
    "ProjectionStep": (lambda: iterbs.ProjectionStep(
        sym(np.diag([1.0, 0.0])), 1.5, sym(np.diag([1.5, 0.0])), sym(np.zeros((2, 2)))),
        "got 1.5"),
    "hs_count_bound_check": (lambda: bsengine.hs_count_bound_check(
        sym(np.eye(2)), -1.0, np.eye(2)), "got -1.0"),
    "rank_one_domination": (lambda: bsengine.rank_one_domination(
        np.ones(2), sym(np.eye(2)), 0.5, -1.0), "got -1.0"),
}


@pytest.mark.parametrize("check", ONE_PROBLEM_REJECTIONS)
def test_a_single_problem_error_names_no_stack_member(check):
    run, ending = ONE_PROBLEM_REJECTIONS[check]
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value).endswith(ending)


def test_a_stack_of_two_error_names_its_member():
    with pytest.raises(ValueError, match=r"got nan \(stack member 1\)$"):
        bsengine._shifts([1.0, np.nan])


# ---------------------------------------------------------------------------
# linop runs every eigensolve

EIGENSOLVER_NAMES = {"eigh", "eigvalsh", "eigvalsh_tridiagonal", "eigvals_banded", "lapack"}


def nodes_outside_linop():
    """Every AST node of every package module but linop, with its file name."""
    package = Path(bsengine.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "linop.py":
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                yield path.name, node


def test_no_module_but_linop_names_an_eigensolver():
    found = []
    for file, node in nodes_outside_linop():
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
        if name in EIGENSOLVER_NAMES:
            found.append(f"{file}:{node.lineno} {name}")
    assert not found


def test_no_module_but_linop_compares_with_a_guard_band():
    # linop's _count and _collides hold the guard-band rule
    found = [f"{file}:{node.lineno}" for file, node in nodes_outside_linop()
             if isinstance(node, ast.Compare) and any(
                 isinstance(name, ast.Name) and name.id == "eta"
                 for operand in (node.left, *node.comparators) for name in ast.walk(operand))]
    assert not found


def test_no_module_but_linop_counts_a_comparison():
    # linop's _count holds the counting rule and linop._interval its edges;
    # np.sum or np.count_nonzero of a comparison elsewhere would be a second
    # rule, without its guard band, and a threshold plus or minus eta a second
    # edge of the band
    found = [f"{file}:{node.lineno}" for file, node in nodes_outside_linop()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
             and node.func.attr in ("sum", "count_nonzero")
             and any(isinstance(arg, ast.Compare) for arg in node.args)]
    found += [f"{file}:{node.lineno} +/- eta" for file, node in nodes_outside_linop()
              if isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, (ast.Add, ast.Sub)) and any(
                  isinstance(name, ast.Name) and name.id == "eta"
                  for operand in ((node.left, node.right) if isinstance(node, ast.BinOp)
                                  else (node.target, node.value))
                  for name in ast.walk(operand))]
    assert not found


def test_no_module_but_linop_refuses_a_threshold_collision():
    # linop's _guarded_count makes every refusal; bsengine and bscount only
    # re-export the error class, by import
    def names_error(node):
        return (isinstance(node, ast.Name) and node.id == "ThresholdCollisionError"
                or isinstance(node, ast.Attribute) and node.attr == "ThresholdCollisionError")

    found = [f"{file}:{node.lineno}" for file, node in nodes_outside_linop()
             if isinstance(node, ast.Call) and (names_error(node.func) or any(
                 keyword.arg == "error" and names_error(keyword.value)
                 for keyword in node.keywords))
             or isinstance(node, ast.Raise) and node.exc is not None and names_error(node.exc)]
    assert not found


def trimer_ladder():
    model = efimov.SeparableModel(beta=1.0, lam=efimov.lambda_unitary(1.0), p_max=40.0,
                                  n_p=64, grid_c=300.0)
    efimov.trimer_spectrum(model, -1.0)


def critical_square_well():
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    grid = RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre")
    return well.with_strength(radial.kernel_critical_strength(well, grid)), grid


def rank_one_problem():
    a = random_symmetric(np.random.default_rng(DEFAULT_SEED), 6)
    a = sym(a.entries @ a.entries)
    bsengine.rank_one_domination(np.arange(1.0, 7.0), a, epsilon0=0.5, c=0.5)


# (run, eigvalsh calls left unshifted) per full-spectrum route that called
# LAPACK outside linop; kernel_critical_strength and mu_scan take the top
# kernel eigenvalue instead, whose checks are tested below
FULL_SPECTRUM_ROUTES = {
    "trimer_spectrum": (trimer_ladder, 0),
    "rank_one_domination": (rank_one_problem, 0),
}


@pytest.mark.parametrize("route", FULL_SPECTRUM_ROUTES)
def test_eigenvalue_check_fires_on_every_full_spectrum_route(monkeypatch, route):
    run, skip = FULL_SPECTRUM_ROUTES[route]
    solves = 0

    def shifted(m):
        nonlocal solves
        solves += 1
        return DENSE_EIGVALSH(m) + (1e-6 if solves > skip else 0.0)

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    with pytest.raises(RuntimeError, match="trace"):
        run()


def test_top_kernel_eigenvalue_routes_make_no_dense_solve(solver_dims):
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    for grid in (RadialGrid(ell=0, r_max=1.0, n=64, scheme="gauss_legendre"),
                 RadialGrid(ell=1, r_max=40.0, n=400)):
        pot = well.with_strength(radial.kernel_critical_strength(well, grid))
        radial.mu_scan(pot, grid, np.geomspace(1e-6, 1e-4, 5))
    assert solver_dims == {"dense": [], "tridiagonal": []}
    # bs_count_and_top and twobody, which read the top eigenvalue too, keep
    # the dense route; count_evs solves a block of at most _DENSE_COUNT_ROWS
    # rows whole, the cheaper route there, and proves the count of a larger
    # one on the k x k compression
    grid, fine = (RadialGrid(ell=0, r_max=25.0, n=n) for n in (300, 1800))
    pot = well.with_strength(10.0)
    radial.bs_count_and_top(pot, grid, 0.5)
    count_evs(bs_kernel_radial(pot, grid, 0.5), ">", 1.0)
    count_evs(bs_kernel_radial(pot, fine, 0.5), ">", 1.0)
    text = 'command = "twobody"\ngrid.n = 600\nscan.epsilons = [0.05, 0.5]\n'
    cli._PIPELINES["twobody"](cli.validate_config(*cli.parse_config_text(text), "twobody"), 1)
    support, fine_support = (int(np.count_nonzero(pot.v_minus(g.nodes) > 0))
                             for g in (grid, fine))
    assert _COMPRESSION_RANK < support <= _DENSE_COUNT_ROWS < fine_support
    # one support block each for bs_count_and_top and count_evs, the
    # compression of the finer block, one support block per eps for twobody
    assert solver_dims["dense"][:3] == [support, support, _COMPRESSION_RANK] and \
        len(solver_dims["dense"]) == 5


def pencil(n=6):
    """A positive definite tridiagonal ``T``, its dense form, weights
    ``S^2`` and ``K = S T^-1 S``'s ascending eigenvalues and eigenvectors."""
    rng = np.random.default_rng(DEFAULT_SEED)
    diag = np.array([1.0, 1.5, 10.0, 20.0, 40.0, 80.0])[:n]
    off = rng.uniform(-0.3, -0.1, n - 1)
    weight = rng.uniform(0.5, 2.0, n)
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    root = np.sqrt(weight)
    lam, vec = np.linalg.eigh(root[:, None] * np.linalg.inv(t) * root[None, :])
    return diag, off, weight, t, lam, vec


def test_top_kernel_eigenvalue_matches_dense():
    diag, off, weight, t, lam, _ = pencil()
    mu, _ = _kernel_top_eigenvalue(diag, off, weight, lambda u: np.linalg.solve(t, u))
    assert mu == pytest.approx(lam[-1], rel=1e-13, abs=0)
    # zero weights in a leading, an interior and a trailing run, as where
    # the weight is a potential's attractive part on a whole grid
    weight = weight * np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    root = np.sqrt(weight)
    top = np.linalg.eigvalsh(root[:, None] * np.linalg.inv(t) * root[None, :])[-1]
    mu, _ = _kernel_top_eigenvalue(diag, off, weight, lambda u: np.linalg.solve(t, u))
    assert mu == pytest.approx(top, rel=1e-13, abs=0)


# (orthogonal residual, downward scale of K), in units of 1e-10 (1 + mu),
# and the check that fails, if any
KERNEL_DEFECTS = [(0.0, 0.0, None), (0.5, 0.0, None), (1.5, 0.0, "residual"),
                  (0.0, 0.5, None), (0.0, 0.9, None), (0.0, 1.5, "above"), (0.9, 1.5, None)]


@pytest.mark.parametrize("orthogonal,scale,fails", KERNEL_DEFECTS)
def test_top_kernel_eigenvalue_checks_hold_their_bounds(orthogonal, scale, fails):
    # K' = (1 - s) K + d (x v^T + v x^T), with x the top eigenvector and v
    # the next: x is still an eigenvector of K' up to the residual d, and
    # (1 - s) mu sits s mu below the top eigenvalue T certifies
    diag, off, weight, t, lam, vec = pencil()
    unit = 1e-10 * (1.0 + lam[-1])
    d, s = orthogonal * unit, scale * unit / lam[-1]
    x, v = vec[:, -1], vec[:, -2]
    root = np.sqrt(weight)
    extra = d * (np.outer(x, v) + np.outer(v, x)) / np.outer(root, root)

    def green(u):
        return (1.0 - s) * np.linalg.solve(t, u) + extra @ u

    if fails is None:
        assert _kernel_top_eigenvalue(diag, off, weight, green)[0] == pytest.approx(
            (1.0 - s) * lam[-1], rel=1e-14, abs=0)
    else:
        with pytest.raises(RuntimeError, match=fails):
            _kernel_top_eigenvalue(diag, off, weight, green)


def test_top_kernel_eigenvalue_certificate_catches_a_wrong_selection(monkeypatch):
    # every solve loses its component along the top eigenvector, so the
    # iteration settles on the second: a true eigenpair with a small residual
    diag, off, weight, t, lam, vec = pencil()
    top = vec[:, -1] / np.sqrt(weight)  # T y = (1/mu) S^2 y
    solve = scipy.linalg.lapack.dpttrs

    def deflated(d, e, b):
        y, info = solve(d, e, b)
        return y - (top @ (weight * y)) / (top @ (weight * top)) * top, info

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", deflated)
    with pytest.raises(RuntimeError, match="above the selected mu") as info:
        _kernel_top_eigenvalue(diag, off, weight, lambda u: np.linalg.solve(t, u))
    assert float(str(info.value).rpartition("= ")[2]) == pytest.approx(lam[-2], rel=1e-12)


def test_top_kernel_eigenvalue_needs_a_positive_definite_inverse():
    with pytest.raises(ValueError, match="not positive definite"):
        _kernel_top_eigenvalue(np.array([1.0, -1.0]), np.array([0.5]), np.ones(2),
                               lambda u: u)


@pytest.mark.parametrize("run", [
    lambda: radial._negative_count_off_threshold(PotentialSpec(kind="square_well", strength=26.0),
                                                 RadialGrid(ell=0, r_max=25.0, n=200), 0.0),
], ids=["negative_count"])
def test_tridiagonal_selections_turn_lapack_failure_into_runtime_error(monkeypatch, run):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", fail)
    with pytest.raises(RuntimeError, match="did not converge"):
        run()


# ---------------------------------------------------------------------------
# the tridiagonal binding test


@pytest.mark.parametrize("seed", range(8))
def test_positive_definite_matches_the_lowest_dense_eigenvalue(seed):
    rng = np.random.default_rng(seed)
    diag, off = rng.uniform(0.5, 3.0, 9), rng.normal(size=8)
    lowest = DENSE_EIGVALSH(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
    assert (_tridiagonal_factor(diag, off) is not None) == (lowest > 0.0)


@pytest.mark.parametrize("diag,off,expected", [
    ([2.0, 2.0, 2.0], [-1.0, -1.0], True),
    ([1.0, 1.0, 1.0], [0.0, 1.0], False),  # singular: the last pivot is 0
    ([1.0, -1.0, 1.0], [0.0, 0.0], False),  # a negative pivot in the middle
    ([1.0, 1.0], [1.0 - 2.0**-52], True),  # the last pivot is 2^-51
    ([1.0, 1.0], [1.0], False),
    ([3.0], [], True),  # one pivot, no off-diagonal
    ([0.0], [], False),
    ([-3.0], [], False),
])
def test_positive_definite_on_small_matrices(diag, off, expected):
    assert (_tridiagonal_factor(np.array(diag), np.array(off)) is not None) is expected


@pytest.mark.parametrize("dim", [1, 2])
def test_positive_definite_matches_dense_eigvalsh_below_dimension_three(dim):
    rng = np.random.default_rng(DEFAULT_SEED + dim)
    for _ in range(50):
        diag, off = rng.normal(size=dim), rng.normal(size=dim - 1)
        lowest = DENSE_EIGVALSH(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
        assert (_tridiagonal_factor(diag, off) is not None) == (lowest > 0.0)


@pytest.mark.parametrize("diag,off", [
    ([np.nan, 2.0, 2.0], [-1.0, -1.0]),  # pttrf alone calls this positive definite
    ([2.0, np.inf, 2.0], [-1.0, -1.0]),
    ([2.0, 2.0, 2.0], [-1.0, np.nan]),
    ([2.0, 2.0, 2.0], [-np.inf, -1.0]),
])
def test_positive_definite_rejects_non_finite_entries(diag, off):
    with pytest.raises(ValueError, match="non-finite"):
        _tridiagonal_factor(np.array(diag), np.array(off))


@pytest.mark.parametrize("info", [-1, -2])
def test_positive_definite_turns_an_illegal_argument_into_runtime_error(monkeypatch, info):
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", lambda d, e: (d, e, info))
    with pytest.raises(RuntimeError, match=f"rejected argument {-info}"):
        _tridiagonal_factor(np.full(3, 2.0), np.full(2, -1.0))


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule


@pytest.mark.parametrize("orders", [range(1, 101), range(101, 201), range(201, 301), [1001]],
                         ids=["1-100", "101-200", "201-300", "1001"])
def test_legendre_rule_is_scipys_bit_for_bit(orders):
    # odd orders are scipy's own; even ones are ported bit for bit
    from scipy.special import roots_legendre

    for n in orders:
        x, w = _legendre_rule(n)
        expected_x, expected_w = roots_legendre(n)
        assert np.array_equal(x, expected_x) and np.array_equal(w, expected_w), n


def test_legendre_rule_is_frozen_and_computed_once_per_order(monkeypatch):
    rules = []

    def run():
        rules.extend(_legendre_rule(n) for n in (7, 8, 7, 8, 7))

    assert legendre_rules_computed(monkeypatch, run) == [7, 8]
    assert rules[2] is rules[0] and rules[3] is rules[1]
    for array in rules[0] + rules[1]:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# ---------------------------------------------------------------------------
# hs_norm


def test_hs_norm_zero():
    assert hs_norm(sym(np.zeros((3, 3)))) == 0.0


def test_hs_norm_three_four_five():
    assert hs_norm(sym(np.diag([3.0, 4.0]))) == pytest.approx(5.0, abs=1e-12)


def test_hs_norm_matches_eigenvalue_formula():
    a = random_symmetric(np.random.default_rng(3), 10)
    lam, _ = spectral_decompose(a)
    assert hs_norm(a) == pytest.approx(np.sqrt(np.sum(lam**2)), rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hs_norm_orthogonal_invariance(seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, 6)
    u = random_orthogonal(rng, 6)
    rotated = sym(u @ a.entries @ u.T)
    assert hs_norm(rotated) == pytest.approx(hs_norm(a), rel=1e-9)
