"""Wall-and-chamber combinatorics for one-parameter subgroups.

``violated_walls``, ``is_generic`` and ``same_chamber`` decide pair by pair
without building the arrangement; they are replayed against the former
routes, which evaluate every form of ``walls(n, r)``.  ``walls`` itself is
replayed against the per-wall generator it replaced, and ``wall_labels``
against the labels of its walls.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import gieseker.partitions as partitions
import gieseker.torus_chambers as tc
from gieseker import (
    Cocharacter,
    RegimeError,
    count_multipartitions,
    fixed_components_k0,
    format_cocharacter,
    is_dominant,
    is_generic,
    parse_cocharacter,
    same_chamber,
    violated_walls,
    wall_labels,
    walls,
)
from gieseker.torus_chambers import Wall


def test_wall_sets():
    assert {str(w) for w in walls(1, 2).walls} == {"k=0", "d1-d2=0"}
    assert {str(w) for w in walls(2, 2).walls} == {"k=0", "d1-d2=-k", "d1-d2=0", "d1-d2=k"}
    assert {str(w) for w in walls(4, 1).walls} == {"k=0"}


def test_wall_count_formula():
    for n in range(1, 7):
        for r in range(1, 5):
            ws = walls(n, r)
            assert ws.count_with_multiplicity == 1 + r * (r - 1) // 2 * (2 * n - 1)
            # forms are pairwise distinct here, so dedup is a no-op
            assert len(ws.walls) == ws.count_with_multiplicity


def per_wall_arrangement(n, r):
    # the per-wall generator that the bulk construction replaced
    return (Wall("k_zero"),) + tuple(
        Wall("pair", i, j, s)
        for i in range(1, r + 1)
        for j in range(i + 1, r + 1)
        for s in range(-(n - 1), n)
    )


def test_bulk_walls_equal_the_per_wall_generator():
    for n in range(1, 9):
        for r in range(1, 7):
            built = walls(n, r).walls
            assert built == per_wall_arrangement(n, r)
            assert all(type(w) is Wall for w in built)


def no_wall(*args):
    raise AssertionError("a wall was built")


def test_wall_labels_are_the_printed_walls(monkeypatch):
    cases = [*itertools.product(range(1, 9), range(1, 7)), (304, 20)]
    want = {(n, r): [str(w) for w in walls(n, r).walls] for n, r in cases}
    monkeypatch.setattr(tc, "Wall", no_wall)
    for n, r in cases:
        assert wall_labels(n, r) == want[n, r], (n, r)


def _form(wall, r):
    """Coefficient vector of the wall's linear form on (d_1, ..., d_r, k)."""
    coeffs = [0] * (r + 1)
    if wall.kind == "k_zero":
        coeffs[r] = 1
    else:
        coeffs[wall.i - 1], coeffs[wall.j - 1], coeffs[r] = 1, -1, -wall.s
    return tuple(coeffs)


def test_wall_forms_pairwise_distinct():
    for n in range(1, 7):
        for r in range(1, 6):
            forms = [_form(w, r) for w in walls(n, r).walls]
            # each form has a coefficient +-1, so proportional means equal
            # up to sign
            normalized = {max(f, tuple(-c for c in f)) for f in forms}
            assert len(normalized) == len(forms), (n, r)


def _on_walls_by_scan(nu, n):
    return [w for w in walls(n, nu.r).walls if w.evaluate(nu) == 0]


def _sign(x):
    return (x > 0) - (x < 0)


def _same_chamber_by_scan(nu, nu2, n):
    return all(
        _sign(w.evaluate(nu)) == _sign(w.evaluate(nu2)) for w in walls(n, nu.r).walls
    )


def test_violated_walls_against_wall_scan():
    # k = 0, negative k, d_i = d_j and differences on both sides of +-(n-1)k
    for n in range(1, 5):
        for r in range(1, 4):
            for d in itertools.product(range(-4, 5), repeat=r):
                for k in range(-3, 4):
                    nu = Cocharacter(d, k)
                    expected = _on_walls_by_scan(nu, n)
                    assert violated_walls(nu, n) == expected, (nu, n)
                    if not nu.is_zero():
                        assert is_generic(nu, n) == (not expected), (nu, n)


def test_same_chamber_against_sign_scan():
    rng = random.Random(3141)
    for n in range(1, 5):
        for r in (2, 3):
            generic = [
                nu
                for d in itertools.product(range(-7, 8, 2), repeat=r)
                for k in (-3, -2, -1, 1, 2, 3)
                if not _on_walls_by_scan(nu := Cocharacter(d, k), n)
            ]
            pairs = [tuple(rng.sample(generic, 2)) for _ in range(1000)]
            for nu in rng.sample(generic, 200):
                # itself, k of opposite sign, and a rescaled copy
                pairs.append((nu, nu))
                pairs.append((nu, Cocharacter(nu.d, -nu.k)))
                pairs.append((nu, Cocharacter(tuple(3 * x for x in nu.d), 3 * nu.k)))
            for a, b in pairs:
                if _on_walls_by_scan(b, n):
                    continue
                assert same_chamber(a, b, n) == _same_chamber_by_scan(a, b, n), (a, b, n)


def test_same_chamber_error_names_the_first_wall():
    for n in (1, 2, 3):
        for nu in (Cocharacter((0, 0), 0), Cocharacter((2, 0, 2), 1), Cocharacter((3, 1), -1)):
            first = _on_walls_by_scan(nu, n)
            if not first:
                continue
            generic = Cocharacter((100, 0, -100)[: nu.r], 1)
            for args in ((nu, generic), (generic, nu)):
                with pytest.raises(RegimeError) as err:
                    same_chamber(*args, n)
                assert str(err.value) == (
                    f"cocharacter {format_cocharacter(nu)} is not generic "
                    f"(lies on wall {first[0]})"
                )


def test_chamber_tests_reject_nonpositive_n():
    nu = Cocharacter((3, 0), 1)
    for call in (violated_walls, is_generic):
        with pytest.raises(ValueError):
            call(nu, 0)
    with pytest.raises(ValueError):
        same_chamber(nu, nu, 0)


def test_genericity_examples():
    assert is_generic(Cocharacter((3, 0), 1), n=2)
    assert not is_generic(Cocharacter((1, 0), 1), n=2)  # lies on d1-d2=k
    assert not is_generic(Cocharacter((5,), 0), n=2)  # k=0 wall
    with pytest.raises(RegimeError):
        is_generic(Cocharacter((0, 0), 0), n=2)


def test_violated_walls_name_the_offenders():
    vio = violated_walls(Cocharacter((1, 0), 1), n=2)
    assert {str(w) for w in vio} == {"d1-d2=k"}
    assert violated_walls(Cocharacter((3, 0), 1), n=2) == []


def test_each_list_is_checked_by_its_own_length(monkeypatch):
    # the count checked before building is the list's length: a limit equal
    # to it passes, one below it refuses
    cases = [
        listed
        for n in range(1, 5)
        for r in range(1, 5)
        for listed in (lambda n=n, r=r: walls(n, r).walls, lambda n=n, r=r: wall_labels(n, r))
    ]
    cases += [
        (lambda n=n, nu=Cocharacter(d, k): violated_walls(nu, n))
        for n in range(1, 4)
        for d in itertools.product(range(-2, 3), repeat=3)
        for k in range(-2, 3)
    ]
    for listed, want in [(listed, list(listed())) for listed in cases]:
        monkeypatch.setattr(tc, "MAX_LISTED_WALLS", len(want))
        assert list(listed()) == want
        monkeypatch.setattr(tc, "MAX_LISTED_WALLS", len(want) - 1)
        with pytest.raises(ValueError, match=f"has {len(want)} walls, above MAX_LISTED_WALLS"):
            listed()


def test_lists_above_the_named_limit_are_refused_before_a_wall_is_built(monkeypatch):
    assert len(walls(304, 20).walls) == 115_331 <= tc.MAX_LISTED_WALLS
    # the decisions list nothing and answer at every n
    assert not is_generic(Cocharacter((5, 5), 0), 10**9)
    assert same_chamber(Cocharacter((10**10, 0), 1), Cocharacter((3 * 10**10, 7), 3), 10**9)
    monkeypatch.setattr(tc, "Wall", no_wall)
    for listed, count in (
        (lambda: walls(2000, 40), 3_119_221),
        (lambda: wall_labels(2000, 40), 3_119_221),
        (lambda: violated_walls(Cocharacter((5, 5), 0), 100_000), 200_000),
        (lambda: violated_walls(Cocharacter((0,) * 600, 1), 2), 179_700),
    ):
        with pytest.raises(ValueError, match=f"has {count} walls, above MAX_LISTED_WALLS = "):
            listed()


def test_dominance_examples():
    assert is_dominant(Cocharacter((10, 5, 0), 1), n=3)
    assert not is_dominant(Cocharacter((3, 0), 1), n=3)  # gap 3 not > 3
    assert is_dominant(Cocharacter((20, 10, 0), 2), n=3)
    assert not is_dominant(Cocharacter((10, 5, 0), 0), n=3)  # needs k >= 1
    assert not is_dominant(Cocharacter((5, 10), 1), n=3)


def test_dominant_implies_generic_grid():
    # exhaustive on a thinned grid; dominance demands big gaps so spread the d values
    for n in (1, 2, 3, 5):
        for k in (1, 2, 3):
            for d1 in range(0, 51, 5):
                for d0 in range(d1, 51, 5):
                    nu = Cocharacter((d0, d1), k)
                    if is_dominant(nu, n):
                        assert is_generic(nu, n)
    for n in (2, 4):
        for k in (1, 2):
            for d in itertools.product(range(0, 45, 11), repeat=3):
                nu = Cocharacter(tuple(sorted(d, reverse=True)), k)
                if is_dominant(nu, n):
                    assert is_generic(nu, n)


def test_same_chamber_examples():
    assert same_chamber(Cocharacter((10, 5, 0), 1), Cocharacter((100, 50, 0), 1), n=3)
    assert not same_chamber(Cocharacter((3, 0), 1), Cocharacter((0, 3), 1), n=2)
    nu = Cocharacter((7, 2), 1)
    assert same_chamber(nu, nu, n=2)


def test_same_chamber_rejects_walls():
    with pytest.raises(RegimeError):
        same_chamber(Cocharacter((1, 0), 1), Cocharacter((3, 0), 1), n=2)


def test_same_chamber_is_an_equivalence():
    generic = []
    for d1 in range(-7, 8, 3):
        for d2 in range(-7, 8, 2):
            for k in (-2, -1, 1, 2):
                nu = Cocharacter((d1, d2), k)
                if is_generic(nu, 2):
                    generic.append(nu)
    for a in generic:
        assert same_chamber(a, a, 2)
    for a, b in itertools.combinations(generic, 2):
        assert same_chamber(a, b, 2) == same_chamber(b, a, 2)
    # transitivity on a sample triple
    for a, b, c in itertools.islice(itertools.combinations(generic, 3), 400):
        if same_chamber(a, b, 2) and same_chamber(b, c, 2):
            assert same_chamber(a, c, 2)


def test_fixed_components_2_2():
    comps = fixed_components_k0(Cocharacter((1, 0), 0), n=2)
    assert [c.composition for c in comps] == [(2, 0), (1, 1), (0, 2)]
    assert [c.fixed_point_count for c in comps] == [2, 1, 2]
    assert all(c.dimension == 4 for c in comps)


def test_fixed_components_edges():
    single = fixed_components_k0(Cocharacter((3, 1, 0), 0), n=0)
    assert len(single) == 1
    assert single[0].fixed_point_count == 1 and single[0].dimension == 0
    comps = fixed_components_k0(Cocharacter((2, 1, 0), 0), n=1)
    assert len(comps) == 3
    assert all(c.fixed_point_count == 1 for c in comps)


def test_fixed_components_regime_checks():
    with pytest.raises(RegimeError):
        fixed_components_k0(Cocharacter((1, 0), 1), n=2)
    with pytest.raises(RegimeError):
        fixed_components_k0(Cocharacter((1, 1), 0), n=2)


def test_fixed_components_build_no_partition(monkeypatch):
    # the counts come from p(n)'s generating function: at n = 55 the
    # enumeration route took 4.0 s and 915 MB, and n = 200 is out of its reach
    def refuse(n):
        raise AssertionError("a partition was enumerated")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    comps = fixed_components_k0(Cocharacter((1, 0), 0), n=200)
    assert [c.composition for c in comps] == [(200 - a, a) for a in range(201)]
    p200 = 3_972_999_029_388
    assert comps[0].fixed_point_count == comps[-1].fixed_point_count == p200
    assert comps[100].fixed_point_count == 190_569_292**2  # p(100)^2
    assert all(c.dimension == 400 for c in comps)


def test_fixed_point_grand_total():
    for n in range(0, 9):
        for r in range(1, 5):
            nu = Cocharacter(tuple(range(r, 0, -1)), 0)
            comps = fixed_components_k0(nu, n)
            assert sum(c.fixed_point_count for c in comps) == count_multipartitions(n, r)


@given(st.builds(Cocharacter, st.lists(st.integers(), min_size=1, max_size=6).map(tuple), st.integers()))
def test_cocharacter_text_round_trip(drawn):
    assert parse_cocharacter(format_cocharacter(drawn)) == drawn
    nu = parse_cocharacter("10,5,0;1")
    assert nu == Cocharacter((10, 5, 0), 1)
    assert format_cocharacter(nu) == "10,5,0;1"
    assert parse_cocharacter("-3,0;1") == Cocharacter((-3, 0), 1)
    for bad in ("", "1,2", "1;2;3", "a,b;1", "1.5;2"):
        with pytest.raises(ValueError):
            parse_cocharacter(bad)
