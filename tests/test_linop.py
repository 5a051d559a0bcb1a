"""Tests for the dense operator algebra primitives."""

import ast
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
    _checked_eigenvalues,
    _spectral_decompose,
    _symmetrized,
    _tridiagonal_positive_definite,
    checked_eigenvalues,
    count_evs,
    hs_norm,
    rank_one_projection,
    spectral_decompose,
    sym,
)
from bscount import bsengine, efimov, radial
from bscount.radial import PotentialSpec, RadialGrid, bs_kernel_radial, reduced_hamiltonian
from oracles import op_function
from test_acceptance import TWENTY_CASES


def random_symmetric(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim))
    return sym(scale * 0.5 * (g + g.T))


def random_orthogonal(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)))[0]


def random_tridiagonal(rng, dim, diagonal_only=False):
    """A random tridiagonal operator that records its structure, as the
    reduced Hamiltonian's builder does."""
    d = rng.standard_normal(dim)
    e = np.zeros(dim - 1) if diagonal_only else rng.standard_normal(dim - 1)
    return SymOperator._built(np.diag(d) + np.diag(e, 1) + np.diag(e, -1), tridiagonal=True)


def with_zero_rows(a, rows):
    """``a`` with the given rows and columns set to exactly zero, recording
    the support of the others, as the radial kernel's builder does."""
    m = a.entries.copy()
    m[rows, :] = 0.0
    m[:, rows] = 0.0
    return SymOperator._built(m, support=np.setdiff1d(np.arange(len(m)), rows))


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
    assert count_evs(sym(np.eye(5)), ">=", 1.0) == 5


def test_count_unicode_relations():
    a = sym(np.diag([-1.0, 0.0, 2.0]))
    for relation in ("≥", "≤"):  # only the ASCII forms are relations
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
    assert count_evs(a, ">=", threshold) == int(np.sum(lam >= threshold - eta))
    assert count_evs(a, "<=", threshold) == int(np.sum(lam <= threshold + eta))


def test_count_rejects_unknown_relation():
    with pytest.raises(ValueError, match="relation"):
        count_evs(sym(np.eye(2)), "!=", 0.0)


def test_count_random_symmetric_vs_sorted_list():
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(30):
        a = random_symmetric(rng, int(rng.integers(2, 12)), scale=2.0)
        threshold = float(rng.uniform(-2, 2))
        lam = np.sort(np.linalg.eigvalsh(a.entries))
        eta = checked_eigenvalues(a)[1]
        assert count_evs(a, ">", threshold) == int(np.sum(lam > threshold + eta))
        assert count_evs(a, "<=", threshold) == int(np.sum(lam <= threshold + eta))


def _eigh_count(a, relation, threshold):
    """Oracle: the count from the full ``eigh`` eigenvalues, same guard band."""
    lam = np.linalg.eigh(a.entries)[0]
    eta = 1e-10 * (1.0 + hs_norm(a))
    return dense_count(lam, eta, relation, threshold)


@pytest.fixture(scope="module")
def radial_cases():
    """The 40 matrices of acceptance criterion 5: for each case, the embedded
    Birman-Schwinger kernel (counted above 1) and the tridiagonal reduced
    Hamiltonian (counted below -eps), built once for the module."""
    cases = []
    for kind, lam, ell, eps in TWENTY_CASES:
        pot = PotentialSpec(kind=kind, strength=lam, range=1.0)
        grid = RadialGrid(ell=ell, r_max=25.0, n=700)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            label = (kind, lam, ell, eps)
            cases.append((label, bs_kernel_radial(pot, grid, eps), ">", 1.0))
            cases.append((label, reduced_hamiltonian(pot, grid), "<", -eps))
    return cases


def test_count_matches_eigh_count_on_radial_cases(radial_cases):
    for label, a, relation, threshold in radial_cases:
        assert count_evs(a, relation, threshold) == _eigh_count(a, relation, threshold), label


def test_radial_cases_take_the_structured_routes_and_match_dense(radial_cases, solver_dims):
    for label, a, relation, threshold in radial_cases:
        solver_dims["dense"].clear()
        solver_dims["tridiagonal"].clear()
        lam, eta = checked_eigenvalues(a)
        ref = DENSE_EIGVALSH(a.entries)
        assert np.max(np.abs(lam - ref)) <= 1e-13 * np.max(np.abs(ref)), label
        assert dense_count(lam, eta, relation, threshold) == \
            dense_count(ref, eta, relation, threshold), label
        support = int(np.count_nonzero(a.entries.any(axis=0)))
        if relation == "<":  # the Hamiltonian is tridiagonal
            assert solver_dims == {"dense": [], "tridiagonal": [700]}, label
        else:  # the kernel is solved on the support of v_-
            assert solver_dims == {"dense": [support], "tridiagonal": []}, label


def test_recorded_structure_gives_the_counts_and_spectra_of_the_bytes(radial_cases):
    for label, a, relation, threshold in radial_cases:
        plain = SymOperator(np.array(a.entries))
        assert a._structure is not None and plain._structure is None
        assert count_evs(a, relation, threshold) == count_evs(plain, relation, threshold), label
        lam, eta = checked_eigenvalues(a)
        lam_plain, eta_plain = checked_eigenvalues(plain)
        assert np.max(np.abs(lam - lam_plain)) <= min(eta, eta_plain), label


def test_recorded_structure_is_read_from_the_frozen_entries(radial_cases):
    for label, a, relation, _ in radial_cases:
        kind, *parts = a._structure
        if relation == "<":
            assert kind == "tridiagonal", label
            for part in parts:  # the diagonals are views of the entries
                assert np.shares_memory(part, a.entries) and not part.flags.writeable
            assert np.array_equal(parts[0], np.diag(a.entries))
            assert np.array_equal(parts[1], np.diag(a.entries, -1))
        else:
            assert kind == "support", label
            live = np.flatnonzero(a.entries.any(axis=0))
            assert np.array_equal(parts[0], live), label
        with pytest.raises(ValueError, match="read-only"):
            a.entries[0, 0] = 1.0


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
    for relation in (">", ">=", "<", "<="):
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
                    lambda k: _checked_eigenvalues(np.stack([np.eye(200), k.entries])),
                    lambda k: _spectral_decompose(np.stack([np.eye(200), k.entries]))):
            with pytest.raises(ValueError, match="its norm overflows"):
                run(k)
    with pytest.raises(ValueError, match=r"\(stack member 1\)$"):
        _checked_eigenvalues(np.stack([np.eye(200), k.entries]))


def test_tridiagonal_count_rejects_a_norm_that_overflows():
    # the builders check nothing, so finite diagonals whose |T|_F overflows
    # reach the Sturm count, which has no finite guard band for them
    well = PotentialSpec(kind="square_well", strength=1e300, range=1.0)
    grid = RadialGrid(ell=0, r_max=25.0, n=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            radial.negative_count(well, grid)
        h = reduced_hamiltonian(well, grid)
        for relation in (">", ">=", "<", "<="):
            with pytest.raises(ValueError, match="not finite"):
                count_evs(h, relation, 0.0)


def sterf_count(diag, off, relation, threshold):
    """Oracle: the count from the full ``sterf`` spectrum, same guard band."""
    lam = TRIDIAGONAL_EIGVALSH(diag, off, lapack_driver="sterf")
    eta = 1e-10 * (1.0 + np.sqrt(diag @ diag + 2.0 * (off @ off)))
    return int(np.sum({">": lam > threshold + eta, ">=": lam >= threshold - eta,
                       "<": lam < threshold - eta, "<=": lam <= threshold + eta}[relation]))


def test_sturm_count_matches_the_sterf_count_across_the_guard_band(monkeypatch):
    # thresholds 2 eta, 0.8 eta and eta/2 on either side of an eigenvalue: the
    # strict relations count it only when it lies outside the band, the
    # others whenever it lies inside the band or beyond it
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
        a = SymOperator._built(m, tridiagonal=True)
        diag, off = m.diagonal().copy(), m.diagonal(-1).copy()
        lam = TRIDIAGONAL_EIGVALSH(diag, off, lapack_driver="sterf")
        eta = 1e-10 * (1.0 + hs_norm(a))
        for x in rng.choice(lam, size=min(dim, 4), replace=False):
            for shift in (-2.0, -0.8, -0.5, 0.5, 0.8, 2.0):
                threshold = x + shift * eta
                for relation in (">", ">=", "<", "<="):
                    expected = sterf_count(diag, off, relation, threshold)
                    assert count_evs(a, relation, threshold) == expected, (dim, relation, shift)
    assert set(selections) == {"v"}  # every count took the Sturm selection


def test_checked_eigenvalues_match_eigh_and_return_guard():
    a = random_symmetric(np.random.default_rng(7), 30)
    lam, eta = checked_eigenvalues(a)
    np.testing.assert_allclose(lam, np.linalg.eigh(a.entries)[0], atol=1e-12)
    assert np.all(np.diff(lam) >= 0)
    assert eta == 1e-10 * (1.0 + hs_norm(a))


def test_zero_matrix_has_exact_zero_eigenvalues(solver_dims):
    a = SymOperator._built(np.zeros((6, 6)), support=np.array([], dtype=int))
    lam, eta = checked_eigenvalues(a)
    assert np.array_equal(lam, np.zeros(6)) and eta == 1e-10
    assert count_evs(a, ">", 0.0) == 0 and count_evs(a, ">=", 0.0) == 6
    assert not any(sum(solver_dims.values(), []))  # only empty blocks reach LAPACK


@pytest.mark.parametrize("tiny", [1e-300, 5e-324])
@pytest.mark.parametrize("where", [(2, 2), (0, 2)])
def test_row_with_one_tiny_entry_is_not_deflated(solver_dims, tiny, where):
    m = np.diag([2.0, 3.0, 0.0, 5.0])
    m[where] = m[where[::-1]] = tiny
    lam, _ = checked_eigenvalues(SymOperator._built(m, support=np.flatnonzero(m.any(axis=0))))
    np.testing.assert_array_equal(lam, DENSE_EIGVALSH(m))
    assert sum(solver_dims.values(), []) == [4]
    if where == (2, 2):
        assert lam[0] == tiny


def test_routes_follow_the_recorded_structure(solver_dims):
    rng = np.random.default_rng(DEFAULT_SEED + 6)
    checked_eigenvalues(random_symmetric(rng, 9))
    checked_eigenvalues(with_zero_rows(random_symmetric(rng, 9), [0, 4, 8]))
    checked_eigenvalues(random_tridiagonal(rng, 9))
    checked_eigenvalues(with_zero_rows(random_tridiagonal(rng, 9), [3]))
    checked_eigenvalues(with_zero_rows(random_symmetric(rng, 9), []))  # full support
    # with nothing recorded, zeros and bands are not looked for
    checked_eigenvalues(SymOperator(random_tridiagonal(rng, 9).entries))
    checked_eigenvalues(SymOperator(with_zero_rows(random_symmetric(rng, 9), [2]).entries))
    assert solver_dims == {"dense": [9, 6, 8, 9, 9, 9], "tridiagonal": [9]}


def test_deflation_matches_dense_on_planted_zero_rows():
    rng = np.random.default_rng(DEFAULT_SEED + 7)
    for _ in range(150):
        dim = int(rng.integers(1, 40))
        rows = rng.choice(dim, size=int(rng.integers(0, dim + 1)), replace=False)
        base = random_tridiagonal(rng, dim) if rng.random() < 0.3 else \
            random_symmetric(rng, dim, scale=2.0)
        assert_matches_dense(with_zero_rows(base, rows))


def test_tridiagonal_route_matches_dense():
    rng = np.random.default_rng(DEFAULT_SEED + 8)
    for _ in range(100):
        dim = int(rng.integers(3, 60))
        a = random_tridiagonal(rng, dim, diagonal_only=rng.random() < 0.3)
        if rng.random() < 0.3:  # split into unreduced blocks
            m = a.entries.copy()
            k = int(rng.integers(1, dim))
            m[k, k - 1] = m[k - 1, k] = 0.0
            a = SymOperator._built(m, tridiagonal=True)
        assert_matches_dense(a)


# each eigenvalue route: a matrix that takes it and the solver it ends in
ROUTES = {
    "dense": (lambda rng: random_symmetric(rng, 12), np.linalg, "eigvalsh"),
    "deflated": (lambda rng: with_zero_rows(random_symmetric(rng, 12), [3, 7]),
                 np.linalg, "eigvalsh"),
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
    solver = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: perturb(solver(*args, **kw)))
    # a tridiagonal count is a Sturm count with no spectrum to check; the
    # full tridiagonal spectrum is checked where checked_eigenvalues computes it
    run = checked_eigenvalues if route == "tridiagonal" else lambda a: count_evs(a, ">", 0.0)
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


# ---------------------------------------------------------------------------
# linop runs every eigensolve

EIGENSOLVER_NAMES = {"eigh", "eigvalsh", "eigvalsh_tridiagonal", "lapack"}


def test_no_module_but_linop_names_an_eigensolver():
    package = Path(bsengine.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linop.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
            if name in EIGENSOLVER_NAMES:
                found.append(f"{path.name}:{node.lineno} {name}")
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
# LAPACK outside linop; in the mu_scan case the first two solves find the
# critical strength, in the test and again in mu_scan, so the scan is shifted
FULL_SPECTRUM_ROUTES = {
    "trimer_spectrum": (trimer_ladder, 0),
    "kernel_critical_strength": (critical_square_well, 0),
    "mu_scan": (lambda: radial.mu_scan(*critical_square_well(),
                                       np.geomspace(1e-6, 1e-4, 5)), 2),
    "critical_coupling": (lambda: bsengine.critical_coupling(
        sym(np.diag([1.0, 2.0])), sym(-np.ones((2, 2))), tol=1e-6), 0),
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


@pytest.mark.parametrize("run", [
    lambda: radial.negative_count(PotentialSpec(kind="square_well", strength=26.0),
                                  RadialGrid(ell=0, r_max=25.0, n=200)),
    lambda: radial.find_critical_coupling_radial(
        PotentialSpec(kind="square_well", strength=1.0), RadialGrid(ell=0, r_max=30.0, n=300),
        tol=0.1),
], ids=["negative_count", "find_critical_coupling_radial"])
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
    assert _tridiagonal_positive_definite(diag, off) == (lowest > 0.0)


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
    assert _tridiagonal_positive_definite(np.array(diag), np.array(off)) is expected


@pytest.mark.parametrize("dim", [1, 2])
def test_positive_definite_matches_dense_eigvalsh_below_dimension_three(dim):
    rng = np.random.default_rng(DEFAULT_SEED + dim)
    for _ in range(50):
        diag, off = rng.normal(size=dim), rng.normal(size=dim - 1)
        lowest = DENSE_EIGVALSH(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
        assert _tridiagonal_positive_definite(diag, off) == (lowest > 0.0)


@pytest.mark.parametrize("diag,off", [
    ([np.nan, 2.0, 2.0], [-1.0, -1.0]),  # pttrf alone calls this positive definite
    ([2.0, np.inf, 2.0], [-1.0, -1.0]),
    ([2.0, 2.0, 2.0], [-1.0, np.nan]),
    ([2.0, 2.0, 2.0], [-np.inf, -1.0]),
])
def test_positive_definite_rejects_non_finite_entries(diag, off):
    with pytest.raises(ValueError, match="non-finite"):
        _tridiagonal_positive_definite(np.array(diag), np.array(off))


@pytest.mark.parametrize("info", [-1, -2])
def test_positive_definite_turns_an_illegal_argument_into_runtime_error(monkeypatch, info):
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", lambda d, e: (d, e, info))
    with pytest.raises(RuntimeError, match=f"rejected argument {-info}"):
        _tridiagonal_positive_definite(np.full(3, 2.0), np.full(2, -1.0))


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


# ---------------------------------------------------------------------------
# rank_one_projection


def test_projection_onto_first_basis_vector():
    p = rank_one_projection(np.array([1.0, 0.0]))
    np.testing.assert_allclose(p.entries, [[1.0, 0.0], [0.0, 0.0]])


def test_projection_onto_diagonal_vector():
    p = rank_one_projection(np.array([1.0, 1.0]) / np.sqrt(2.0))
    np.testing.assert_allclose(p.entries, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_projection_idempotent_and_fixes_vector():
    rng = np.random.default_rng(4)
    f = rng.standard_normal(9)
    f /= np.linalg.norm(f)
    p = rank_one_projection(f)
    np.testing.assert_allclose(p.entries @ p.entries, p.entries, atol=1e-12)
    np.testing.assert_allclose(p.entries @ f, f, atol=1e-12)
    assert np.trace(p.entries) == pytest.approx(1.0, abs=1e-12)


def test_projection_rejects_tiny_vector():
    with pytest.raises(ValueError, match="norm"):
        rank_one_projection(np.array([1e-9, 0.0]))


def test_projection_normalizes_internally():
    p = rank_one_projection(np.array([2.0, 0.0]))
    np.testing.assert_allclose(p.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
