"""Highest weight category invariants: Betti generating functions, supports,
annihilators, semisimplicity, block structure.

The closed support formula is replayed against an independent recursion: peel
one legal remainder box at a time until the components divide exactly, adding
r per box.  The recursion never consults the closed formula, so agreement on
the full enumeration is a real check, not a tautology.  Which box the
recursion removes does not matter, by the proof in ``support_recursion_values``;
the search over every order of removals, ``all_paths_search``, checks it.  The
one path, walked a component at a time, is checked removal by removal against
a copy of the former walk over the whole multipartition, ``whole_sigma_walk``.

The Poincare polynomial comes from the Nakajima-Yoshioka product; it is
replayed against the former route, the histogram of fixed-point weights over
every enumerated multipartition.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import all_paths_search as search
import gieseker
from gieseker import (
    IRRATIONAL,
    Cocharacter,
    RegimeError,
    annihilator_index,
    block_structure,
    diagnose,
    divide_with_remainder,
    enumerate_multipartitions,
    findim_dimension_rank_one,
    fixed_point_weight,
    hooks,
    legal_removals,
    multipartition_size,
    poincare_polynomial,
    polynomial_string,
    remove_corner,
    same_chamber,
    semisimplicity,
    support_dimension,
    support_dimension_recursive,
    support_recursion_values,
    top_cohomology_check,
    violated_walls,
)
import gieseker.category_o as co
from gieseker.category_o import _end_value, _walk
from gieseker.errors import InvariantError


# ------------------------------------------------------------ poincare


def test_poincare_small():
    assert poincare_polynomial(2, 1) == (1, 1)
    assert poincare_polynomial(1, 2) == (1, 1)
    assert poincare_polynomial(2, 2) == (1, 1, 2, 1)
    assert poincare_polynomial(1, 1) == (1,)


def test_polynomial_string():
    assert polynomial_string((1, 1, 2, 1)) == "1 + t + 2t^2 + t^3"
    assert polynomial_string((1,)) == "1"
    assert polynomial_string((0, 3)) == "3t"


def test_poincare_structure():
    for n in range(1, 8):
        for r in range(1, 4):
            coeffs = poincare_polynomial(n, r)
            assert coeffs[0] == 1
            assert len(coeffs) == r * n  # degree rn - 1
            assert coeffs[-1] == 1
            assert sum(coeffs) == len(enumerate_multipartitions(n, r))
            assert all(c >= 0 for c in coeffs)


def test_top_weight_has_unique_maximizer():
    for n in range(1, 6):
        for r in range(1, 4):
            assert top_cohomology_check(n, r)
            top = [
                sig
                for sig in enumerate_multipartitions(n, r)
                if fixed_point_weight(sig, r) == r * n - 1
            ]
            assert top == [((n,),) + ((),) * (r - 1)]


def test_fixed_point_weights_are_degrees():
    # the generating function is literally the histogram of the weights
    n, r = 3, 2
    coeffs = poincare_polynomial(n, r)
    hist = [0] * (r * n)
    for sig in enumerate_multipartitions(n, r):
        hist[fixed_point_weight(sig, r)] += 1
    assert tuple(hist) == coeffs


def weight_histogram(n, r):
    """The former route: enumerate every fixed point, histogram the weights."""
    weights = [fixed_point_weight(s, r) for s in enumerate_multipartitions(n, r)]
    coeffs = [0] * (max(weights) + 1)
    for w in weights:
        coeffs[w] += 1
    return tuple(coeffs)


def test_poincare_product_against_weight_histogram():
    for n in range(1, 11):
        for r in range(1, 5):
            assert poincare_polynomial(n, r) == weight_histogram(n, r), (n, r)


def test_top_cohomology_check_against_maximizers():
    for n in range(1, 9):
        for r in range(1, 5):
            top = r * n - 1
            maximizers = [
                s for s in enumerate_multipartitions(n, r) if fixed_point_weight(s, r) == top
            ]
            by_enumeration = (
                len(weight_histogram(n, r)) == r * n
                and maximizers == [((n,),) + ((),) * (r - 1)]
            )
            assert top_cohomology_check(n, r) == by_enumeration, (n, r)


# ------------------------------------------------------------ semisimplicity


@pytest.mark.parametrize(
    "n,r,lam,verdict",
    [
        (3, 2, Fraction(1, 5), "semisimple"),
        (3, 2, Fraction(1, 3), "not_semisimple"),
        (4, 1, Fraction(1, 2), "not_semisimple"),
        (3, 2, IRRATIONAL, "semisimple"),
        (2, 2, Fraction(1, 1), "unknown"),
        (4, 2, Fraction(-1, 3), "unknown"),
    ],
)
def test_semisimplicity(n, r, lam, verdict):
    assert semisimplicity(n, r, lam) == verdict


# ------------------------------------------------------------ supports


def test_support_examples():
    rep = support_dimension(2, 1, Fraction(1, 2), ((2,),))
    assert (rep.support_dim, rep.quotient_size) == (1, 1)
    rep = support_dimension(2, 1, Fraction(1, 2), ((1, 1),))
    assert (rep.support_dim, rep.quotient_size) == (2, 0)
    rep = support_dimension(3, 2, Fraction(1, 2), ((2,), (1,)))
    assert rep.support_dim == 3  # 6 - 1*(2*2*2-... ) = 6 - 1*3


def test_support_irrational_is_full():
    rep = support_dimension(3, 2, IRRATIONAL, ((2,), (1,)))
    assert rep.support_dim == 6 and rep.quotient_size == 0


def test_support_regime_errors():
    with pytest.raises(RegimeError):
        support_dimension(2, 1, Fraction(3, 1), ((2,),))  # integral parameter
    with pytest.raises(RegimeError):
        support_dimension(2, 1, Fraction(-1, 2), ((2,),))  # negative side
    with pytest.raises(ValueError):
        support_dimension(2, 1, Fraction(1, 2), ((1,),))  # wrong total


NON_INT_NR_CALLS = {
    "diagnose-float-n": lambda: diagnose(2.0, 1, Fraction(1, 2)),
    "has_finite_global_dimension-True-r": lambda: gieseker.has_finite_global_dimension(
        2, True, Fraction(1, 2)),
    "support_dimension-float-n": lambda: support_dimension(
        1.0, 2, Fraction(1, 3), ((1,), ())),
    "support_dimension-True-r": lambda: support_dimension(1, True, Fraction(1, 2), ((1,),)),
    "annihilator_index-float-n": lambda: annihilator_index(4.0, 1, Fraction(1, 2), ((4,),)),
    "recursive-True-n": lambda: support_dimension_recursive(True, 1, 2, ((1,),)),
    "recursive-float-r": lambda: support_dimension_recursive(1, 1.0, 2, ((1,),)),
    "recursion_values-True-r": lambda: support_recursion_values(1, True, 2, ((1,),)),
    "poincare-float-n": lambda: poincare_polynomial(2.0, 1),
    "semisimplicity-True-n": lambda: semisimplicity(True, 1, Fraction(1, 2)),
    "block_structure-float-n": lambda: block_structure(
        2.0, 1, Fraction(1, 2), Cocharacter((5,), 1)),
}


@pytest.mark.parametrize("name", NON_INT_NR_CALLS)
def test_n_and_r_must_be_ints(name):
    # formerly a float n or r gave float answers (support_dim 2.0, ideal_count
    # 1.0) or a TypeError, and True answered as 1
    with pytest.raises(ValueError, match="must be ints"):
        NON_INT_NR_CALLS[name]()


def test_annihilator_examples():
    assert annihilator_index(4, 1, Fraction(1, 2), ((4,),)) == 2
    assert annihilator_index(4, 1, Fraction(1, 2), ((1, 1, 1, 1),)) == 0
    assert annihilator_index(3, 2, Fraction(1, 2), ((2,), (1,))) == 1


def test_legal_removals_keep_quotients():
    # (2,1) mod 2: removing row 0 gives (1,1) (quotient stays empty, legal);
    # removing row 1 gives (2) (quotient jumps to (1), illegal)
    assert legal_removals(((2, 1),), 2) == [(0, 0)]
    # exactly divisible components offer nothing to remove
    assert legal_removals(((2,),), 2) == []
    assert legal_removals(((4, 2),), 2) == []
    for m in (2, 3):
        for sig in enumerate_multipartitions(5, 2):
            for slot, row in legal_removals(sig, m):
                before = divide_with_remainder(sig[slot], m)[0]
                after = divide_with_remainder(remove_corner(sig[slot], row), m)[0]
                assert before == after


def former_legal_removals(sigma, m):
    """The former rule: remove each corner of a component with a nonempty
    remainder, divide again, and keep the corner if the quotient is unchanged."""
    from gieseker import removable_corners

    out = []
    for ci, comp in enumerate(sigma):
        if not comp:
            continue
        quotient, remainder = divide_with_remainder(comp, m)
        if not remainder:
            continue
        for row in removable_corners(comp):
            smaller = remove_corner(comp, row)
            if (divide_with_remainder(smaller, m)[0] if smaller else ()) == quotient:
                out.append((ci, row))
    return out


def test_legal_removals_against_former_rule():
    for m in (2, 3, 4, 5, 7):
        for r in range(1, 4):
            for n in range(11):
                for sig in enumerate_multipartitions(n, r):
                    assert legal_removals(sig, m) == former_legal_removals(sig, m), (sig, m)


def test_legal_removals_validate_inputs():
    assert legal_removals([[2, 1], []], 2) == [(0, 0)]
    with pytest.raises(ValueError, match="not a partition"):
        legal_removals(((1, 2),), 2)
    with pytest.raises(ValueError, match="modulus m must be >= 2"):
        legal_removals(((2, 1),), 1)
    with pytest.raises(ValueError, match="modulus m must be an int, not 2.0"):
        legal_removals(((2, 1),), 2.0)


def test_recursions_reject_non_partitions_below_m():
    # below n = m the recursions still check sigma before answering rn
    with pytest.raises(ValueError, match=r"not a partition: \(1, 0\)"):
        support_dimension_recursive(1, 1, 2, ((1, 0),))
    with pytest.raises(ValueError, match=r"not a partition: \(0, 1\)"):
        support_recursion_values(1, 1, 2, ((0, 1),))
    # m is checked by the one modulus rule of legal_removals
    for bad_m, message in ((1, "modulus m must be >= 2"), (2.0, "modulus m must be an int")):
        with pytest.raises(ValueError, match=message):
            support_recursion_values(1, 1, bad_m, ((1,),))
    with pytest.raises(ValueError, match="expected 2 components"):
        support_recursion_values(1, 2, 2, ((1,),))
    with pytest.raises(ValueError, match="must equal n"):
        support_recursion_values(2, 1, 2, ((1,),))
    # n and r are checked as in the closed formula (n = 0 formerly gave 0)
    with pytest.raises(ValueError, match="need n >= 1 and r >= 1"):
        support_dimension_recursive(0, 1, 2, ((),))
    with pytest.raises(ValueError, match="need n >= 1 and r >= 1"):
        support_recursion_values(0, 0, 2, ())
    # list components are read as their tuples
    assert support_recursion_values(3, 1, 2, [[2, 1]]) == frozenset({3})
    assert support_dimension_recursive(3, 1, 2, [[2, 1]]) == 3


def test_recursion_base_cases():
    assert support_dimension_recursive(2, 1, 2, ((2,),)) == 1
    assert support_dimension_recursive(2, 2, 2, ((), (2,))) == 4
    assert support_dimension_recursive(3, 1, 2, ((2, 1),)) == 3
    assert support_dimension_recursive(1, 2, 3, ((1,), ())) == 2  # n < m: full rn


def test_recursion_corner_independence_spot():
    vals = support_recursion_values(3, 1, 2, ((2, 1),))
    assert vals == frozenset({3})
    assert search.support_recursion_values(3, 1, 2, ((2, 1),)) == vals


def _former_first_removal(sigma, m):
    # the former scan: the whole multipartition from component 0, every step
    for ci, comp in enumerate(sigma):
        for row, part in enumerate(comp):
            below = comp[row + 1] if row + 1 < len(comp) else 0
            if (part - below) % m and (row == 0 or (comp[row - 1] - part + 1) % m):
                return ci, row


def whole_sigma_walk(n, r, m, sigma):
    """The former one-path walk, kept as the path oracle: rescan the whole
    multipartition for its first legal removal and rebuild it without that
    box until an end state.  Returns the removals, the end state and the
    value."""
    path = []
    while (value := _end_value(n - len(path), r, m, sigma)) is None:
        ci, row = _former_first_removal(sigma, m)
        comp = sigma[ci]
        kept = (comp[row] - 1,) if comp[row] > 1 else ()
        sigma = sigma[:ci] + (comp[:row] + kept + comp[row + 1 :],) + sigma[ci + 1 :]
        path.append((ci, row))
    return path, sigma, r * len(path) + value


def _component_walk(n, r, m, sigma):
    comps = [list(comp) for comp in sigma]
    path = list(_walk(comps, m, n))
    state = tuple(map(tuple, comps))
    return path, state, r * len(path) + _end_value(n - len(path), r, m, state)


def test_closed_formula_equals_recursion_exhaustive():
    # corner independence through the oracle: every order of legal removals
    # reaches one value, the one path's and the closed formula's
    cases = 0
    for m in (2, 3, 4, 5):
        for n in range(1, 11):
            for r in range(1, 4):
                lam = Fraction(1, m)
                for sig in enumerate_multipartitions(n, r):
                    closed = support_dimension(n, r, lam, sig).support_dim
                    rec = support_dimension_recursive(n, r, m, sig)
                    assert closed == rec, (n, r, m, sig)
                    values = search.support_recursion_values(n, r, m, sig)
                    assert values == support_recursion_values(n, r, m, sig), (n, r, m, sig)
                    assert values == frozenset({closed}), (n, r, m, sig)
                    # the component walk's path is the former whole-sigma one
                    want = whole_sigma_walk(n, r, m, sig)
                    assert _component_walk(n, r, m, sig) == want, (n, r, m, sig)
                    cases += 1
    assert cases == 28496


def _proof_witness(sigma, m):
    # the removal the proof in support_recursion_values names: in the first
    # component with a part not divisible by m, the first row i with
    # (lam_i - lam_{i+1}) mod m != 0
    for ci, comp in enumerate(sigma):
        for i, part in enumerate(comp):
            if (part - (comp[i + 1] if i + 1 < len(comp) else 0)) % m:
                return ci, i
    return None


def test_every_non_end_state_has_a_legal_removal():
    states = 0
    for r in range(1, 4):
        for n in range(1, 13):
            for sig in enumerate_multipartitions(n, r):
                for m in range(2, 7):
                    if _end_value(n, r, m, sig) is None:
                        assert _proof_witness(sig, m) in legal_removals(sig, m), (sig, m)
                        states += 1
    assert states == 106888  # pairs (sigma, m) off an end state


@st.composite
def multipartitions_and_moduli(draw):
    # r <= 4 components holding 1..30 boxes, and a modulus m <= 7
    r, m = draw(st.integers(1, 4)), draw(st.integers(2, 7))
    comps, total = [[] for _ in range(r)], 0
    parts = st.tuples(st.integers(0, r - 1), st.integers(1, 30))
    for ci, part in draw(st.lists(parts, min_size=1, max_size=15)):
        part = min(part, 30 - total)
        if part:
            comps[ci].append(part)
            total += part
    return tuple(tuple(sorted(c, reverse=True)) for c in comps), m


@given(multipartitions_and_moduli(), st.data())
@settings(max_examples=300, deadline=None)
def test_a_random_path_of_legal_removals_ends_at_the_closed_form(case, data):
    sigma, m = case
    n, r = multipartition_size(sigma), len(sigma)
    state, removed = sigma, 0
    while (value := _end_value(n - removed, r, m, state)) is None:
        choices = legal_removals(state, m)
        assert choices, (state, m)
        ci, row = data.draw(st.sampled_from(choices))
        state = state[:ci] + (remove_corner(state[ci], row),) + state[ci + 1 :]
        removed += 1
    closed = support_dimension(n, r, Fraction(1, m), sigma).support_dim
    assert r * removed + value == closed == support_dimension_recursive(n, r, m, sigma)


@given(multipartitions_and_moduli())
@settings(max_examples=300, deadline=None)
def test_component_walk_takes_the_whole_sigma_path_up_to_30_boxes(case):
    sigma, m = case
    n, r = multipartition_size(sigma), len(sigma)
    want = whole_sigma_walk(n, r, m, sigma)
    assert _component_walk(n, r, m, sigma) == want
    assert support_dimension_recursive(n, r, m, sigma) == want[2]


def test_walk_and_legal_removals_read_one_rule(monkeypatch):
    # with no row ever legal, legal_removals offers nothing and the walk
    # stops off an end state, where the recursion raises
    monkeypatch.setattr(co, "_legal_rows", lambda comp, m: [])
    assert legal_removals(((2, 1),), 2) == []
    with pytest.raises(InvariantError, match=r"^no legal box removal from \(\(2, 1\),\) at m = 2$"):
        support_dimension_recursive(3, 1, 2, ((2, 1),))
    assert support_dimension_recursive(2, 1, 2, ((2,),)) == 1  # an end state needs no rule


BOOL_PART_CALLS = {
    "support_dimension": lambda: support_dimension(2, 1, Fraction(1, 2), ((True, True),)),
    "annihilator_index": lambda: annihilator_index(2, 1, Fraction(1, 2), ((True, True),)),
    "legal_removals": lambda: legal_removals(((2, True),), 2),
    "recursive": lambda: support_dimension_recursive(3, 1, 2, ((2, True),)),
    "recursion_values": lambda: support_recursion_values(1, 2, 2, ((), (True,))),
}


@pytest.mark.parametrize("name", BOOL_PART_CALLS)
def test_bool_parts_are_not_partitions(name):
    # True passed for the part 1 and the report came back
    with pytest.raises(ValueError, match="not a partition"):
        BOOL_PART_CALLS[name]()


def test_holonomicity_bound():
    # twice the support dimension matches the unreduced variety dimension
    for m in (2, 3):
        for n in range(1, 9):
            for r in range(1, 4):
                lam = Fraction(1, m)
                for sig in enumerate_multipartitions(n, r):
                    rep = support_dimension(n, r, lam, sig)
                    assert 2 * rep.support_dim == 2 * r * n - rep.quotient_size * (
                        2 * r * m - 2
                    )


# ------------------------------------------------------------ blocks


DOM = Cocharacter((100, 10, 1), 1)


def test_block_hooks_rank_one():
    b = block_structure(2, 1, Fraction(1, 2), Cocharacter((5,), 1))
    assert b.kind == "hooks_block"
    assert b.labels_ordered is True
    assert b.labels == (((1, 1),), ((2,),))
    assert b.finite_dim_label == ((2,),)


def test_block_hooks_3_2_order():
    b = block_structure(3, 2, Fraction(1, 3), Cocharacter((100, 10), 1))
    assert b.kind == "hooks_block"
    assert len(b.labels) == 6
    assert b.labels == tuple(h.multipartition() for h in hooks(3, 2))
    assert b.finite_dim_label == ((3,), ())


def test_block_semisimple():
    b = block_structure(3, 2, Fraction(1, 5), Cocharacter((100, 10), 1))
    assert b.kind == "semisimple"
    assert b.labels is None
    b = block_structure(3, 2, IRRATIONAL, Cocharacter((100, 10), 1))
    assert b.kind == "semisimple"


def test_block_partial_unknown():
    b = block_structure(4, 2, Fraction(1, 2), Cocharacter((100, 10), 1))
    assert b.kind == "partial_unknown"


def test_block_non_dominant_candidates():
    nu = Cocharacter((1, 10), -1)  # generic but not dominant
    b = block_structure(2, 2, Fraction(1, 2), nu)
    assert b.kind == "hooks_block"
    assert b.labels_ordered is False
    assert set(b.labels) == {h.multipartition() for h in hooks(2, 2)}
    assert b.finite_dim_label is None
    assert b.finite_dim_candidates == ((2,), (1, 1))


def test_block_regime_errors():
    with pytest.raises(RegimeError):
        block_structure(2, 1, Fraction(3, 1), Cocharacter((5,), 1))  # m = 1
    with pytest.raises(RegimeError):
        block_structure(2, 1, Fraction(1, 2), Cocharacter((0,), 0))  # zero cochar
    with pytest.raises(RegimeError):
        block_structure(2, 2, Fraction(1, 2), Cocharacter((1, 0), 1))  # on a wall


def test_findim_label_gated_on_findim():
    # at lambda = -1/2 the hooks block would sit at a singular parameter; the
    # support machinery refuses long before labels are assigned
    with pytest.raises(RegimeError):
        support_dimension(2, 1, Fraction(-1, 2), ((2,),))


# ------------------------------------------------------------ python -O


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    return json.loads(json.dumps(value, default=str))


def classification_mix():
    """A fixed mix of classification calls, as JSON-ready data."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    dominant = Cocharacter((100, 10, 0), 1)
    out = {
        "diagnose": [
            diagnose(n, r, lam).to_dict()
            for n, r, lam in [
                (2, 1, half), (2, 1, -half), (6, 2, third), (6, 3, Fraction(-7, 3)),
                (5, 2, IRRATIONAL), (10**9, 3, Fraction(-1, 7)),
            ]
        ],
        "findim_dimension_rank_one": [findim_dimension_rank_one(n, s) for n, s in [(3, 2), (5, 7)]],
        "divide_with_remainder": [divide_with_remainder(lam, 3) for lam in [(8, 6, 1), (9, 3, 3)]],
        "support_dimension": [
            support_dimension(n, 3, lam, sig)
            for n, lam, sig in [
                (6, third, ((4, 2), (), ())), (6, half, ((2, 2), (1,), (1,))),
                (4, IRRATIONAL, ((1,), (3,), ())),
            ]
        ],
        "annihilator_index": annihilator_index(4, 1, half, ((4,),)),
        "support_dimension_recursive": [
            support_dimension_recursive(6, 2, m, sig)
            for m, sig in [(2, ((3, 1), (2,))), (3, ((6,), ())), (3, ((2, 1), (2, 1)))]
        ],
        "block_structure": [
            block_structure(3, 3, third, dominant),
            block_structure(3, 3, third, Cocharacter((0, 100, 10), 1)),
            block_structure(4, 3, half, dominant),
            block_structure(3, 3, Fraction(1, 5), dominant),
        ],
        "violated_walls": [
            [str(w) for w in violated_walls(nu, 3)]
            for nu in [Cocharacter((2, 0, 4), 1), Cocharacter((1, 1, 0), 0), Cocharacter((9, 0, 5), -2)]
        ],
        "same_chamber": [
            same_chamber(dominant, Cocharacter((200, 20, 0), 2), 3),
            same_chamber(dominant, Cocharacter((100, 0, 10), 1), 3),
        ],
        "poincare_polynomial": [poincare_polynomial(n, r) for n, r in [(4, 2), (6, 3)]],
        "top_cohomology_check": [top_cohomology_check(n, r) for n, r in [(4, 2), (6, 3)]],
    }
    return _jsonable(out)


def test_classification_same_under_python_O():
    # no result may depend on an assert statement
    src = os.path.dirname(os.path.dirname(os.path.abspath(gieseker.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import json, sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still enabled')\n"
        f"sys.path.insert(0, {here!r})\n"
        "from test_category_o import classification_mix\n"
        "print(json.dumps(classification_mix(), sort_keys=True))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == json.dumps(classification_mix(), sort_keys=True)
