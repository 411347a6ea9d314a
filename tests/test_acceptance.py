"""Acceptance suite: seven criteria, one test each (criterion 6 split in
two by model-block size), budgets pinned, plus bounded-time checks at scale.

Each test is self-contained: it builds its own oracle (bitmask up-set
enumeration, closed-form inequality re-derivation, recursion replay) rather
than trusting the library's internals, then checks the library against it.
Run with -v to get the one-line pass/fail verdict per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from gieseker import (
    Cocharacter,
    abelian_localization_holds,
    block_structure,
    count_ideals,
    diagnose,
    enumerate_ideals,
    enumerate_multipartitions,
    fixed_point_weight,
    has_finite_global_dimension,
    hooks,
    intersect,
    is_generic,
    poincare_polynomial,
    product,
    same_chamber,
    singular_set,
    support_dimension,
    support_dimension_recursive,
    support_recursion_values,
    to_intersection_form,
    to_sum_form,
    verify_model_properties,
)
import all_paths_search as search
from test_partitions import dp_multipartition_counts


def _in_window_by_scan(n, lam, floor=None):
    """Whether lam = s/m for some modulus 1 <= m <= n with s < 0 and, when
    ``floor`` is given, floor * m < s: the window scanned modulus by modulus."""
    for m in range(1, n + 1):
        s = lam * m
        if s.denominator == 1 and s < 0 and (floor is None or floor * m < s):
            return True
    return False


def test_criterion_1_diagnostics_window():
    started = time.monotonic()
    for n in range(1, 7):
        for r in range(1, 4):
            for lam in singular_set(n, r):
                assert not has_finite_global_dimension(n, r, lam)
                assert not abelian_localization_holds(n, r, lam)
                # second route: the windows scanned over the moduli 1..n
                assert _in_window_by_scan(n, lam, -r)
                assert _in_window_by_scan(n, lam)
    # 500 seeded random rationals clear of both windows: re-derive both
    # decisions straight from the defining inequalities
    rng = random.Random(1729)
    seen = 0
    while seen < 500:
        n = rng.randint(1, 6)
        r = rng.randint(1, 3)
        lam = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
        in_gldim_window = lam.denominator <= n and -r < lam < 0
        in_loc_window = lam.denominator <= n and lam < 0
        if in_gldim_window or in_loc_window:
            continue
        seen += 1
        assert has_finite_global_dimension(n, r, lam)
        assert abelian_localization_holds(n, r, lam)
        assert not _in_window_by_scan(n, lam, -r)
        assert not _in_window_by_scan(n, lam)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 budget blown: {elapsed:.2f}s"


def test_criterion_2_ideal_lattice_oracle():
    started = time.monotonic()

    # independent oracle: subsets of {1..k} as bitmasks; a family (bitmask over
    # the 2^k subsets) is up-closed iff it contains every superset of each member
    def brute_count(k):
        n_subsets = 1 << k
        supersets = []
        for s in range(n_subsets):
            mask = 0
            for t in range(n_subsets):
                if t & s == s:
                    mask |= 1 << t
            supersets.append(mask)
        count = 0
        for fam in range(1 << n_subsets):
            if all(
                supersets[s] & ~fam == 0
                for s in range(n_subsets)
                if fam >> s & 1
            ):
                count += 1
        return count

    expected = [3, 6, 20, 168]
    for k in (1, 2, 3, 4):
        b = brute_count(k)
        assert b == expected[k - 1]
        assert count_ideals(k) == b
    for k in (1, 2, 3, 4):
        ideals = enumerate_ideals(k)
        for a in ideals:
            assert to_intersection_form(to_sum_form(a)) == a
        for a, b in itertools.product(ideals, repeat=2):
            assert product(a, b) == intersect(a, b)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 2 budget blown: {elapsed:.2f}s"


def _criterion_3_cases():
    for m in (2, 3):
        lam = Fraction(1, m)
        for n in range(1, 9):
            for r in range(1, 4):
                for sig in enumerate_multipartitions(n, r):
                    yield n, r, m, lam, sig


def test_criterion_3_support_formula_vs_recursion():
    started = time.monotonic()
    cases = 0
    for n, r, m, lam, sig in _criterion_3_cases():
        closed = support_dimension(n, r, lam, sig).support_dim
        values = search.support_recursion_values(n, r, m, sig)
        # corner-choice independence: the search over every order of legal
        # removals lands on a single value, the one the package returns
        assert len(values) == 1, (n, r, m, sig)
        assert values == frozenset({closed}), (n, r, m, sig)
        assert support_recursion_values(n, r, m, sig) == values, (n, r, m, sig)
        assert support_dimension_recursive(n, r, m, sig) == closed
        cases += 1
    assert cases > 2000  # "thousands of cases"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 3 budget blown: {elapsed:.2f}s"


def test_criterion_4_holonomicity_consistency():
    for n, r, m, lam, sig in _criterion_3_cases():
        rep = support_dimension(n, r, lam, sig)
        assert 2 * rep.support_dim == 2 * r * n - rep.quotient_size * (2 * r * m - 2)


def test_criterion_5_poincare_polynomial():
    started = time.monotonic()
    assert poincare_polynomial(2, 1) == (1, 1)
    assert poincare_polynomial(1, 2) == (1, 1)
    assert poincare_polynomial(2, 2) == (1, 1, 2, 1)
    for n in range(1, 8):
        for r in range(1, 4):
            coeffs = poincare_polynomial(n, r)
            mps = enumerate_multipartitions(n, r)
            assert coeffs[0] == 1
            assert sum(coeffs) == len(mps)
            assert len(coeffs) == r * n and coeffs[-1] == 1
            top = [s for s in mps if fixed_point_weight(s, r) == r * n - 1]
            assert top == [((n,),) + ((),) * (r - 1)]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 5 budget blown: {elapsed:.2f}s"


def _check_criterion_6(n_vertices):
    out = verify_model_properties(n_vertices)
    checks = out["checks"]
    assert checks["dimension"], n_vertices  # dim = 4N-3
    assert checks["associative"], n_vertices
    assert checks["relations"], n_vertices
    assert checks["i_linear_order"], n_vertices
    assert checks["ii_universal_extensions"], n_vertices
    assert checks["iii_tiltings"], n_vertices
    assert checks["v_unique_summand_with_higher_ext"], n_vertices
    assert checks["ext1_no_self_extensions"], n_vertices
    assert checks["k0_classes"], n_vertices
    # concentration in a single degree is asserted; WHICH degree is only
    # reported (the two comparison flags must disagree, never both hold)
    assert checks["iv_single_degree"], n_vertices
    rep = out["report"]
    if n_vertices >= 2:
        assert rep["iv_degree_matches_vertex_count"] != (
            rep["iv_degree_matches_vertex_count_minus_one"]
        )
    assert out["all_pass"], (n_vertices, checks)


def test_criterion_6_model_block():
    started = time.monotonic()
    for n_vertices in range(1, 9):
        _check_criterion_6(n_vertices)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 6 budget blown: {elapsed:.2f}s"


def test_criterion_6_model_block_large():
    started = time.monotonic()
    for n_vertices in [*range(9, 17), 24]:
        _check_criterion_6(n_vertices)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 6 budget blown: {elapsed:.2f}s"


def test_criterion_7_hooks_block():
    dominant = {r: Cocharacter(tuple(1000 ** (r - i) for i in range(r)), 1) for r in (1, 2, 3)}
    for n in range(2, 6):
        lam = Fraction(1, n)
        for r in range(1, 4):
            block = block_structure(n, r, lam, dominant[r])
            assert block.kind == "hooks_block"
            expected = tuple(h.multipartition() for h in hooks(n, r))
            assert block.labels == expected
            assert len(block.labels) == r * n
            supports = {
                label: support_dimension(n, r, lam, label).support_dim
                for label in block.labels
            }
            assert min(supports.values()) == 1
            minimizers = [lab for lab, s in supports.items() if s == 1]
            assert minimizers == [((n,),) + ((),) * (r - 1)]


# ------------------------------------------------ bounded time at scale


def _timed(call):
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def test_diagnose_bounded_at_scale():
    for n, r, lam in ((2 * 10**7, 2, Fraction(1, 3)), (10**12, 3, Fraction(-1, 7))):
        report, elapsed = _timed(lambda: diagnose(n, r, lam))
        assert elapsed < 0.1, f"diagnose({n}, {r}, {lam}) took {elapsed:.3f}s"
        assert report.finite_global_dim == (not -r < lam < 0)
        assert report.abelian_localization_det == (lam > 0)
        assert report.abelian_localization_det_inv == (-lam - r > 0)
        assert report.ideal_count == (n // 3 if lam > 0 else "simple")


def test_chamber_tests_bounded_at_scale():
    n = 10**9
    far = Cocharacter((3 * n, 0), 1)  # (d1 - d2) / k = 3n: off every wall
    farther = Cocharacter((5 * n, 7), 2)
    near = Cocharacter((n - 1, 0), 1)  # on d1-d2=(n-1)k
    flat = Cocharacter((5, 5), 0)  # k = 0 with repeated weights: on k=0
    checks = [
        (lambda: is_generic(far, n), True),
        (lambda: is_generic(near, n), False),
        (lambda: is_generic(flat, n), False),
        (lambda: same_chamber(far, farther, n), True),
        (lambda: same_chamber(far, Cocharacter((-3 * n, 0), 1), n), False),
    ]
    for call, expected in checks:
        result, elapsed = _timed(call)
        assert result is expected
        assert elapsed < 0.1, f"chamber test at n = 10^9 took {elapsed:.3f}s"


def test_poincare_polynomial_bounded_at_scale():
    coeffs, elapsed = _timed(lambda: poincare_polynomial(60, 4))
    assert elapsed < 2.0, f"poincare_polynomial(60, 4) took {elapsed:.2f}s"
    assert sum(coeffs) == dp_multipartition_counts(60, 4)[60]
    assert len(coeffs) == 4 * 60 and coeffs[0] == 1 and coeffs[-1] == 1
