"""Exact bound-quiver engine for the model block algebra.

Everything homological is computed two independent ways where possible:
Ext groups come from the Hom complex of a minimal resolution AND from
counting projective multiplicities in resolution terms (valid for simple
targets); standard multiplicities are replayed against the Cartan matrix,
and their dimension certificate against the former grid-scan isomorphism test;
resolutions built from shared steps are replayed on the per-step loop,
translation-keyed steps on the content-keyed memo, resolutions that place
no last kernel on the loop that steps every term in full, standards placed
by the class of P_i on their quotients, the pruned tilting test on every
standard-tilting pair, one-pass spans on the breadth-first closure under the
arrows, and interval modules (an offset plus data on the support) on the
N-length route they replaced, kept in ``n_length_engine``: same report,
modules and resolutions, and the memo shared by every report of a process
on that route's cold memo of one algebra; every stored class result
(resolution step, standard quotient, module check, standard multiplicities,
Hom-complex Ext) on the same computation run afresh, and at every placement
of its class; the keys a resolution walks on the keys of the modules built
from the same data; the three algebra checks on their N-length copies
over single-entry corruptions of the multiplication rule; ``product`` on the
label-level rule over every index pair; and the report's algebra checks,
read once per window class, on the full scans of ``ModelAlgebra(N)``.
"""

import ast
import functools
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations_with_replacement
from itertools import product as iproduct
from pathlib import Path

import pytest

import gieseker
import gieseker.exact_linalg as el
import gieseker.quiver_engine as qe
import n_length_engine as nl
from gieseker import (
    ProjectiveSum,
    QuiverModule,
    build_model_algebra,
    cartan_matrix,
    costandard,
    delta_multiplicities,
    dual_module,
    ext_groups,
    ext_to_simple,
    k0_class_check,
    minimal_projective_resolution,
    projective,
    quotient,
    simple,
    standard,
    submodule,
    tilting,
    verify_model_properties,
)
from gieseker.errors import InvariantError
from gieseker.exact_linalg import Matrix, Vector
from gieseker.quiver_engine import (
    ModelAlgebra,
    _hom_complex_ext,
    _restrict,
    _solve,
    cover_map,
    top_generators,
)


@pytest.fixture(scope="module")
def alg3():
    return build_model_algebra(3)


def _mm(a: Matrix, b: Matrix, cols: int) -> Matrix:
    # a row list keeps its row count but loses its column count when it has
    # no rows, so an empty inner dimension needs the column count of b
    return el.mat_mul(a, b) if b else el.zeros(len(a), cols)


def _arrow_matrices(m: QuiverModule) -> dict[int, Matrix]:
    """Every arrow's matrix: the stored ones of the live arrows and, read
    through ``m.action``, the empty one of each dead arrow's shape."""
    return {g: m.action(g) for g in m.algebra.arrows()}


def _module(alg, dims, act) -> QuiverModule:
    # the module with N dims and arrows keyed by basis index, the form the
    # ``dims`` and ``act`` views give back: placed at lo = 1, where the key
    # of a(i, j) relative to lo is its basis index minus N
    return QuiverModule(alg, 1, dims, {g - alg.N: mat for g, mat in act.items()})


def _n_length(ambient: QuiverModule, cols, lo=None) -> list[Matrix]:
    """Basis columns given per vertex from ``lo`` (by default the ambient
    module's lo) in the N-length route's form: at each of the N vertices the
    matrix with those columns, which has the ambient module's dim as its
    row count, and [] where that dim is 0."""
    lo = ambient.lo if lo is None else lo
    return [
        el.transpose(cols[v - lo]) if 0 <= v - lo < len(cols) and cols[v - lo]
        else [[] for _ in range(ambient.dim_at(v))]
        for v in range(1, ambient.algebra.N + 1)
    ]


def _live_arrows(alg, dims) -> set[int]:
    return {g for g in alg.arrows() if dims[alg.src[g] - 1] and dims[alg.tgt[g] - 1]}


def _module_from_arrows(alg, dims, full: dict[int, Matrix]) -> QuiverModule:
    # the module acting by ``full`` on every arrow: the live matrices are
    # stored, and each dead one must be the matrix the module derives
    live = _live_arrows(alg, dims)
    m = _module(alg, dims, {g: mat for g, mat in full.items() if g in live})
    assert _arrow_matrices(m) == full, dims
    return m


# The library's former Hom-space basis and grid-scan isomorphism test, kept
# as the oracle of the dimension certificate in ``delta_multiplicities``.
def hom_space(module: QuiverModule, target: QuiverModule) -> list[list[Matrix]]:
    """Basis of Hom(module, target) as per-vertex matrix tuples."""
    a = module.algebra
    mM, mX = module.dims, target.dims
    sizes = [mX[v] * mM[v] for v in range(a.N)]
    offsets = [sum(sizes[:v]) for v in range(a.N)]
    total = sum(sizes)
    # phi_t·M_g = X_g·phi_s for each arrow g: s -> t, an mX[t] x mM[s] block
    rows: list[Vector] = []
    for s, ms in enumerate(mM):
        for g, t in a._out[s] if ms else ():
            for p in range(mX[t]):
                for q in range(ms):
                    row: Vector = [0] * total
                    for c in range(mM[t]):
                        row[offsets[t] + p * mM[t] + c] += module.act[g][c][q]
                    for c in range(mX[s]):
                        row[offsets[s] + c * ms + q] -= target.act[g][p][c]
                    rows.append(row)
    kernel = el.nullspace(rows) if rows else el.identity(total)
    blocks = list(zip(offsets, mM, mX))
    return [
        [[vec[o + p * m : o + p * m + m] for p in range(x)] for o, m, x in blocks]
        for vec in kernel
    ]


def is_isomorphic(module: QuiverModule, target: QuiverModule) -> bool:
    """Exact isomorphism test: equal dimension vectors plus an invertible
    element of Hom, found by scanning a grid large enough for a nonzero
    determinant polynomial to show itself."""
    if module.dims != target.dims:
        return False
    if module.total_dim == 0:
        return True
    homs = hom_space(module, target)
    if not homs:
        return False
    if len(homs) > 6:  # the grid scan is exponential in the Hom dimension
        raise ValueError(f"Hom dimension {len(homs)} exceeds the grid-scan limit of 6")
    degree = module.total_dim
    grid = range(degree + 2)
    for coeffs in iproduct(grid, repeat=len(homs)):
        if not any(coeffs):
            continue
        ok = True
        for v in range(module.algebra.N):
            d = module.dims[v]
            if d == 0:
                continue
            mat = el.zeros(d, d)
            for c, h in zip(coeffs, homs):
                if c:
                    for p in range(d):
                        for q in range(d):
                            mat[p][q] += c * h[v][p][q]
            if el.rank(mat) != d:
                ok = False
                break
        if ok:
            return True
    return False


# The algebra's former construction: every one of the (4N - 3)^2 label pairs
# of the N-length copy tested for composability, with its label-level rule
# ``_mult_labels`` on each; the composable pairs in the order the engine once
# stored them, by vertex; and an N x N grid of the paths between vertices.
def _label_pair_scan(alg):
    return _label_pair_scan_at(alg.N)


@functools.cache
def _label_pair_scan_at(n):
    alg = nl.build_model_algebra(n)
    composable, table = [], {}
    for x, xl in enumerate(alg.labels):
        for y, yl in enumerate(alg.labels):
            if alg.src[x] != alg.tgt[y]:
                continue
            composable.append((x, y))
            z = alg._mult_labels(xl, yl)
            if z is not None:
                table[(x, y)] = alg.index[z]
    composable.sort(key=lambda pair: (alg.src[pair[0]], *pair))
    return tuple(composable), table


def _corrupt(alg, pair, z):
    # an instance-patched ``product`` of alg whose one entry at pair is z (None:
    # zero); ``del alg.product`` restores the rule
    prod = alg.product
    alg.product = lambda x, y: z if (x, y) == pair else prod(x, y)


def _path_grid(alg):
    # grid[i-1][v-1]: basis indices of the paths from vertex i to vertex v
    grid = [[[] for _ in range(alg.N)] for _ in range(alg.N)]
    for b in range(alg.dim):
        grid[alg.src[b] - 1][alg.tgt[b] - 1].append(b)
    return grid


@pytest.mark.parametrize("n", range(1, 13))
def test_per_vertex_algebra_matches_label_pair_scan_and_path_grid(n):
    alg = build_model_algebra(n)
    composable, table = _label_pair_scan(alg)
    assert alg.labels == nl.build_model_algebra(n).labels
    # the pairs the checks walk, and the rule on every pair of basis indices
    assert tuple(alg._pairs()) == composable
    assert {
        (x, y): z for x in range(alg.dim) for y in range(alg.dim)
        if (z := alg.product(x, y)) is not None
    } == table
    if n >= 2:
        assert len(composable) == 16 * n - 19 and len(table) == 9 * n - 9
    grid = _path_grid(alg)
    for i in range(1, n + 1):
        paths = alg.path_basis(i)
        assert paths == sorted(paths) and len(paths) == sum(map(len, grid[i - 1]))
        for v in range(1, n + 1):
            assert [b for b in paths if alg.tgt[b] == v] == grid[i - 1][v - 1], (i, v)
    assert alg._out == [
        [(g, alg.tgt[g] - 1) for g in alg.arrows() if alg.src[g] == v] for v in range(1, n + 1)
    ]


def test_algebra_checks_run_at_ten_thousand_vertices():
    n = 10_000
    alg = build_model_algebra(n)
    pairs = list(alg._pairs())
    assert len(pairs) == 16 * n - 19
    assert sum(alg.product(x, y) is not None for x, y in pairs) == 9 * n - 9
    assert alg.is_associative()
    assert alg.relations_hold()
    assert alg.opposite_swap_is_antiautomorphism()


def test_relations_hold_detects_corrupted_algebra(monkeypatch):
    ix = build_model_algebra(4).index
    l2, l3, a21 = ix[("loop", 2)], ix[("loop", 3)], ix[("a", 2, 1)]
    # a loop that fails to annihilate an arrow or a loop
    for pair, value in (((l2, a21), a21), ((l3, l3), l3)):
        alg = build_model_algebra(4)
        _corrupt(alg, pair, value)
        assert not alg.relations_hold(), pair
    # a path from vertex 1 to vertex 3 breaks the Hom dimensions
    alg = build_model_algebra(4)
    paths = {1: alg.path_basis(1) + [ix[("a", 3, 2)]]}
    monkeypatch.setattr(alg, "path_basis", lambda i: paths.get(i) or alg._starting[i - 1])
    assert not alg.relations_hold()


def test_dimension_and_associativity_sweep():
    # structure constants are all 0/1; check the whole multiplication table
    for n in range(1, 13):
        alg = build_model_algebra(n)
        assert alg.dim == 4 * n - 3
        assert alg.is_associative()
        assert alg.relations_hold()
        assert alg.opposite_swap_is_antiautomorphism()


def test_basis_labels_n2():
    alg = build_model_algebra(2)
    assert alg.labels == (("e", 1), ("e", 2), ("a", 1, 2), ("a", 2, 1), ("loop", 2))


def test_module_constructors_satisfy_axioms(alg3):
    for i in (1, 2, 3):
        for make in (projective, simple, standard, costandard, tilting):
            mod = make(alg3, i)
            assert mod.verify(), (make.__name__, i)


def test_projective_dimension_vectors(alg3):
    assert [projective(alg3, i).dims for i in (1, 2, 3)] == [
        (1, 1, 0),
        (1, 2, 1),
        (0, 1, 2),
    ]


def test_standard_dimension_vectors(alg3):
    assert [standard(alg3, i).dims for i in (1, 2, 3)] == [
        (1, 1, 0),
        (0, 1, 1),
        (0, 0, 1),
    ]
    # costandards are the arrow-swap duals, same dimension vectors
    for i in (1, 2, 3):
        assert costandard(alg3, i).dims == standard(alg3, i).dims


def test_simple_dimension_vectors(alg3):
    assert [simple(alg3, i).dims for i in (1, 2, 3)] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_cartan_matrix_small():
    assert cartan_matrix(build_model_algebra(2)) == [[1, 1], [1, 2]]
    assert cartan_matrix(build_model_algebra(3)) == [[1, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_cartan_is_gram_matrix_of_standards():
    # C = D^T D with D the standard-dimension matrix: reciprocity in rank form
    for n in (2, 3, 4, 5):
        alg = build_model_algebra(n)
        d = [standard(alg, j).dims for j in range(1, n + 1)]
        gram = [
            [sum(d[j][i] * d[j][l] for j in range(n)) for l in range(n)]
            for i in range(n)
        ]
        assert cartan_matrix(alg) == gram


def test_delta_multiplicities_of_projectives():
    # [P_i : Delta_j] = dim of Delta_j at vertex i (reciprocity, dual dims equal)
    for n in (2, 3, 4):
        alg = build_model_algebra(n)
        d = [standard(alg, j).dims for j in range(1, n + 1)]
        for i in range(1, n + 1):
            mults = delta_multiplicities(alg, projective(alg, i))
            assert mults == [d[j][i - 1] for j in range(n)], (n, i)


def test_first_standard_is_projective(alg3):
    assert is_isomorphic(standard(alg3, 1), projective(alg3, 1))
    assert not is_isomorphic(standard(alg3, 2), projective(alg3, 2))


def test_tiltings():
    for n in (2, 3, 4):
        alg = build_model_algebra(n)
        for i in range(1, n):
            assert is_isomorphic(tilting(alg, i), projective(alg, i + 1))
        assert is_isomorphic(tilting(alg, n), standard(alg, n))


def test_minimal_resolution_of_standards_marches_left():
    for n in (2, 3, 5):
        alg = build_model_algebra(n)
        for j in range(1, n + 1):
            res = minimal_projective_resolution(alg, standard(alg, j), max_terms=n + 2)
            assert res.terminated
            assert list(res.gens) == [(j - k,) for k in range(j)]
            for k in range(j):
                assert res.multiplicity(k, j - k) == 1


def test_ext_standard_to_bottom_simple_n2():
    alg = build_model_algebra(2)
    e = ext_groups(alg, standard(alg, 2), simple(alg, 1), max_degree=3)
    assert e.dims == (0, 1, 0, 0)
    assert not e.truncated


def test_ext_simples_give_double_path_quiver():
    for n in (2, 3, 4):
        alg = build_model_algebra(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                e = ext_groups(alg, simple(alg, i), simple(alg, j), max_degree=1)
                assert e.dims[0] == (1 if i == j else 0)
                assert e.dims[1] == (1 if abs(i - j) == 1 else 0), (n, i, j)


def test_ext_two_routes_agree():
    # Hom-complex computation vs counting P_j multiplicities in the resolution
    alg = build_model_algebra(4)
    mods = [standard(alg, j) for j in range(1, 5)] + [
        simple(alg, j) for j in range(1, 5)
    ]
    for mod in mods:
        for j in range(1, 5):
            via_hom = ext_groups(alg, mod, simple(alg, j), max_degree=5)
            via_mult = ext_to_simple(alg, mod, j, max_degree=5)
            assert via_hom.dims == via_mult.dims


def test_hom_space_shapes(alg3):
    # Hom(P_1, P_2) is 1-dimensional (the arrow), Hom(P_1, L_3) vanishes
    maps = hom_space(projective(alg3, 1), projective(alg3, 2))
    assert len(maps) == 1
    assert hom_space(projective(alg3, 1), simple(alg3, 3)) == []


def test_submodule_quotient_round_trip(alg3):
    p2 = projective(alg3, 2)
    # span of the radical, the arrows' images: the simple top survives the quotient
    seeds = [(alg3.tgt[g], list(col)) for g, mat in p2.act.items() for col in zip(*mat)]
    rad, incl = submodule(p2, seeds)
    top, _ = quotient(p2, incl)
    assert top.dims == (0, 1, 0)
    assert rad.verify() and top.verify()


def test_dual_module_is_involutive_on_dims(alg3):
    for i in (1, 2, 3):
        m = standard(alg3, i)
        dd = dual_module(dual_module(m))
        assert dd.dims == m.dims
        assert dd.verify()
        assert is_isomorphic(dd, m)


def test_k0_classes():
    for n in (1, 2, 3, 4, 5, 6):
        assert k0_class_check(build_model_algebra(n))


def test_verify_model_properties_all_pass():
    for n in (1, 2, 3, 4, 5, 6):
        out = verify_model_properties(n)
        assert out["all_pass"], (n, out["checks"])
        assert out["report"]["algebra_dim"] == 4 * n - 3


def test_verify_reports_concentration_degree():
    for n in (2, 3, 5):
        out = verify_model_properties(n)
        rep = out["report"]
        assert out["checks"]["iv_single_degree"]
        # computed degree is reported, and both comparison flags are exposed
        # without the engine taking sides
        assert rep["iv_degree"] == n - 1
        assert rep["iv_degree_matches_vertex_count_minus_one"] is True
        assert rep["iv_degree_matches_vertex_count"] is False
        assert (
            sum(1 for d in rep["iv_ext_dims"] if d) == 1
        )


def test_verify_ringel_side_of_property_v():
    out = verify_model_properties(3)
    rep = out["report"]
    assert rep["v_summands_with_higher_ext"] == [3]
    # the naive per-simple count genuinely differs; reported, not asserted
    assert rep["v_simples_with_higher_ext"] == [1, 2]
    assert rep["v_unique_simple_with_higher_ext"] is False
    assert out["checks"]["v_unique_summand_with_higher_ext"]


def test_verify_n1_vacuous():
    out = verify_model_properties(1)
    assert out["all_pass"]
    assert out["report"]["v_summands_with_higher_ext"] == []


def test_standard_multiplicity_table_is_unitriangular():
    out = verify_model_properties(4)
    table = out["report"]["standard_multiplicities"]
    for i, row in enumerate(table):
        assert row[i] == 1
        for j in range(i + 1, len(row)):
            assert row[j] == 0


@pytest.mark.parametrize("n", range(1, 17))
def test_standards_by_translation_match_quotients(n):
    # Delta_i is the quotient computed once per class of P_i, placed at P_i's
    # lo; built in either order, every standard equals the quotient of P_i by
    # the trace of the smaller vertices entry for entry
    down, up = build_model_algebra(n), build_model_algebra(n)
    got_down = {i: standard(down, i) for i in range(n, 0, -1)}
    for i in range(1, n + 1):
        p = projective(up, i)
        want = quotient(p, qe._trace_span(p, i - 1))[0] if i > 1 else p
        got = standard(up, i)
        assert _same_module(got, want) and got.verify(), i
        assert _content(got_down[i]) == _content(got), i


def test_report_makes_one_quotient_per_standard_class(monkeypatch):
    # one per class of P_i, i >= 2: P_2, the generic P_i, P_{N-1} and P_N,
    # once per process, so the reports past the first make none; formerly
    # three per report (Delta_2, Delta_3 and Delta_N)
    calls = Counter()
    quot = qe.quotient

    def counting_quotient(module, incl):
        calls[module.algebra.N] += 1
        return quot(module, incl)

    monkeypatch.setattr(qe, "quotient", counting_quotient)
    for n in (8, 16, 32, 64):
        assert verify_model_properties(n)["all_pass"]
    assert calls == {8: 4}


def test_repeated_calls_return_equal_modules():
    # the algebra keeps no module: each call builds one, equal to the last,
    # and the report's lists hold the modules the public calls build
    alg = build_model_algebra(4)
    for make in (projective, standard, costandard, tilting, simple):
        for i in range(1, 5):
            first, again = make(alg, i), make(alg, i)
            assert first is not again and _same_module(first, again), (make.__name__, i)
    for i in range(1, 5):
        assert _same_module(costandard(alg, i), dual_module(standard(alg, i)))
    assert _same_module(tilting(alg, 2), projective(alg, 3))
    assert _same_module(tilting(alg, 4), standard(alg, 4))
    for make, family in zip((projective, standard, costandard, tilting), qe.model_families(alg)):
        assert len(family) == 4, make.__name__
        assert all(_same_module(m, make(alg, i)) for i, m in enumerate(family, 1)), make.__name__


def test_an_algebra_and_its_modules_need_no_cycle_collection():
    # the algebra holds no module, so reference counting alone frees it and
    # every module built on it; when it kept its sums, standards and
    # costandards, the collector found 319 objects here
    gc.collect()
    gc.disable()
    try:
        alg = ModelAlgebra(8)
        mods = [make(alg, i) for make in (standard, costandard, tilting) for i in range(1, 9)]
        assert k0_class_check(alg) and len(cartan_matrix(alg)) == 8
        del alg, mods
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 of json.dumps(verify_model_properties(n), sort_keys=True); n <= 8
# recorded before the engine shared its modules and resolutions across
# checks, n = 12 and 16 before a module was stored as its arrow matrices only,
# n = 20 and 48 before the engine computed in int instead of Fraction, n = 24
# and 32 before each module's work was confined to its support, n = 96 before
# a module stored its live arrows only, n = 128 before spans were taken in one
# pass over the path basis, n = 256 before steps were keyed by translation class
PINNED_REPORTS = {
    1: "8b4a2b26a7eec3150f756f565332636bcf33e367fc5ac2a6167ac2ba630934e8",
    2: "86416e9b9d067ad7cd54816bf47e7582fda739907544b8db151e7b64d51e1a4a",
    3: "29acdbc721420aa4ce49de6897a7e8277898a37c220c7ac200672ba1b7b6a753",
    5: "a02ee5a2e0009d74e6cb677ea74bc2d05a6de8023af2e58b1643615d4ea017fa",
    8: "7957ac3f8848d933b0336379a9703afb120238e089f6b1d81ebcb795d98d5d75",
    12: "5f1508c3aac8b9aeb94f210af1e683a8e1167d6c7ee8fe0eba03e557a7cea889",
    16: "aa904ca484f6f400f8ca5d4f5ac3419d1eb8190266a3cc26e95bf09b0c0e5c7e",
    20: "1784f5dfdc4868b81eb4647a901977555df8162cb1cea58414ac21a2ca248eea",
    24: "3e2c62f096d12725b433893567f707726de8878f421748514c6953e8e17ec282",
    32: "a33ea47d5490bd32172df2a91ba3e9865113fdeda4292bd868b8786ff9812bff",
    48: "58843a355804ad5da1425754eccbbbe3d3b6b6c2408522662247d494e05b847d",
    96: "224294c239a62a88fbb02e5d98e700d1fe5ff11a4f0494b3237e231e32354a2d",
    128: "a4486a8ee5cf3a4b408b7955c8c5014b20d4b37d63b89c9829cb3bd096bb9650",
    256: "91a0b42b150f3ce4159b13418a0f549ac779d43b596f301ec3c0675d08bf6a36",
}


@pytest.mark.parametrize("n", sorted(PINNED_REPORTS))
def test_verify_report_bytes_pinned(n):
    blob = json.dumps(verify_model_properties(n), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_shared_resolutions_match_per_call_route(n):
    # every value the report reads off a shared resolution, recomputed with
    # one fresh ext_to_simple / ext_groups call per value
    rep = verify_model_properties(n)["report"]
    alg = build_model_algebra(n)
    max_deg = n + 1
    simples = [simple(alg, j) for j in range(1, n + 1)]
    standards = [standard(alg, j) for j in range(1, n + 1)]
    tiltings = [tilting(alg, j) for j in range(1, n + 1)]

    assert rep["ext1_simples"] == [
        [ext_to_simple(alg, s, j, 1).dims[1] for j in range(1, n + 1)] for s in simples
    ]

    iv = [0] * (max_deg + 1)
    for t in tiltings:
        for k, d in enumerate(ext_to_simple(alg, t, 1, max_deg).dims):
            iv[k] += d
    assert rep["iv_ext_dims"] == iv

    summands, hit_all = [], set()
    for p, t in enumerate(tiltings, start=1):
        hit = {
            j
            for j in range(1, n + 1)
            if any(ext_to_simple(alg, t, j, max_deg).dims[1:])
        }
        if hit:
            summands.append(p)
            hit_all |= hit
    assert rep["v_summands_with_higher_ext"] == summands
    assert rep["v_simples_with_higher_ext"] == sorted(hit_all)

    # (ii) and (iii): Ext^1 from each standard, read off one shared
    # three-term resolution and off a fresh resolution per target
    targets = standards + tiltings
    for m in standards:
        shared = minimal_projective_resolution(alg, m, 3)
        for x in targets:
            assert _hom_complex_ext(shared, x, 1) == ext_groups(alg, m, x, 1)


def _unpruned_nabla_filtered(alg):
    # (iii) before it was pruned: every standard against every tilting of
    # the report's lists
    n = alg.N
    tiltings = qe.model_families(alg)[3]
    return all(
        _hom_complex_ext(res, t, 1).dims[1] == 0
        for i in range(1, n + 1)
        for res in [minimal_projective_resolution(alg, standard(alg, i), 3)]
        for t in tiltings
    )


@pytest.mark.parametrize("n", range(1, 17))
def test_pruned_tilting_pairs_match_all_pairs(n, monkeypatch):
    calls = []
    ext = qe._hom_complex_ext

    def recording_ext(res, target, max_degree):
        calls.append((res.target.dims, target.dims, max_degree))
        return ext(res, target, max_degree)

    monkeypatch.setattr(qe, "_hom_complex_ext", recording_ext)
    checks = verify_model_properties(n)["checks"]
    monkeypatch.undo()
    alg = build_model_algebra(n)
    assert checks["iii_tiltings"] == _unpruned_nabla_filtered(alg)
    # (ii) pairs each standard with the one below it and (iii) with the
    # tiltings nonzero at a generator of P_1; a tilting left out has
    # Hom(P_1, T) = 0, so its Ext^1 is 0
    want = Counter()
    for i in range(1, n + 1):
        res = minimal_projective_resolution(alg, standard(alg, i), 3)
        if i >= 2:
            want[(res.target.dims, standard(alg, i - 1).dims, 1)] += 1
        for j in range(1, n + 1):
            t = tilting(alg, j)
            if any(t.dims[v - 1] for v in (res.gens[1] if len(res.gens) > 1 else ())):
                want[(res.target.dims, t.dims, 1)] += 1
            else:
                assert _hom_complex_ext(res, t, 1).dims[1] == 0
    assert Counter(c for c in calls if c[2] == 1) == want
    assert len(calls) <= 5 * n  # O(n) pairs, not n^2
    # with the standards in place of the tiltings, Ext^1(Delta_i, Delta_{i-1})
    # = 1 fails (iii) on both routes
    families = qe.model_families
    monkeypatch.setattr(qe, "model_families", lambda alg: (*families(alg)[:3], families(alg)[1]))
    checks = verify_model_properties(n)["checks"]
    assert checks["iii_tiltings"] == _unpruned_nabla_filtered(build_model_algebra(n)) == (n == 1)


def test_sum_basis_is_the_projective_sums_layout():
    # the one (summand, path) order that ProjectiveSum and the Hom complex
    # read: at each vertex w, the paths to w of each summand in turn
    for n in range(1, 6):
        alg = build_model_algebra(n)
        for gens in (g for k in range(4) for g in iproduct(range(1, n + 1), repeat=k)):
            ps = ProjectiveSum(alg, gens)
            lo, pos = qe._sum_basis(alg, gens)
            assert (lo, pos) == (ps.module.lo, ps._pos), (n, gens)
            assert pos == [[(s, b) for s, v in enumerate(gens) for b in alg.path_basis(v)
                            if alg.tgt[b] == w] for w in range(lo, lo + len(pos))], (n, gens)


def test_hom_complex_reads_the_signs_of_the_images():
    # a hand-built image list: d: P_2^2 -> P_2^2 sends the generators to
    # e + e' and e - e', the tops of the two summands.  Over Q, d is
    # invertible, so Hom(d, L_2) is too and both Ext groups vanish; read
    # with every coefficient +1, its matrix would have rank 1.
    alg = build_model_algebra(3)
    ps = ProjectiveSum(alg, (2, 2))
    e2, l2 = alg.index[("e", 2)], alg.index[("loop", 2)]
    assert ps._pos[2 - ps.module.lo] == [(0, e2), (0, l2), (1, e2), (1, l2)]
    zero = QuiverModule(alg, 1, (0, 0, 0), {})

    def ext(images):
        # the Hom complex itself, not its memo; the two image lists share
        # gens, so each gets a key of its own images
        key = tuple((w, tuple(v)) for w, v in images)
        res = qe.Resolution(alg, zero, [(2, 2), (2, 2)], [[], images], True, key)
        return qe._hom_complex_dims(res, simple(alg, 2), 1)[0]

    assert ext([(2, [1, 0, 1, 0]), (2, [1, 0, -1, 0])]) == (0, 0)
    assert ext([(2, [1, 0, 1, 0]), (2, [1, 0, 1, 0])]) == (1, 1)


def test_verify_model_properties_same_under_python_O():
    # no result may depend on an assert statement
    src = os.path.dirname(os.path.dirname(os.path.abspath(gieseker.__file__)))
    code = (
        "import json, sys\n"
        "from gieseker import verify_model_properties\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still enabled')\n"
        "print(json.dumps(verify_model_properties(4), sort_keys=True))\n"
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
    assert proc.stdout.strip() == json.dumps(verify_model_properties(4), sort_keys=True)


@pytest.mark.parametrize("flags", ([], ["-O"]))
def test_verify_cli_in_fresh_processes_matches_pinned_reports(flags):
    # the algebra checks are computed in a process's first report, so each
    # ``gieseker model-block N --verify`` runs in its own interpreter: its
    # report less ``hypothesis`` hashes, compact and sorted, as pinned
    src = os.path.dirname(os.path.dirname(os.path.abspath(gieseker.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for n in (1, 5, 8, 24):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "gieseker.cli", "model-block", str(n), "--verify"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report.pop("hypothesis").startswith("bound-quiver model")
        blob = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[n], (flags, n)


def test_solve_matrix_raises_instead_of_asserting():
    one, zero = [[1]], [[0]]
    assert _solve(one, [[5]]) == [[5]]
    with pytest.raises(InvariantError):
        _solve(zero, one)
    # one row, an empty column space, a nonzero right-hand side
    with pytest.raises(InvariantError):
        _solve([[]], one)


def test_no_assert_statements_in_src():
    # every check must survive python -O
    src = Path(gieseker.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not found, (path.name, found)


def test_is_isomorphic_rejects_large_hom_space():
    m = ProjectiveSum(build_model_algebra(3), (2, 2, 2)).module
    assert len(hom_space(m, m)) == 18
    with pytest.raises(ValueError, match="18"):
        is_isomorphic(m, m)


def test_certificate_reads_module_past_the_grid_scan_limit():
    # the module whose Hom space the grid scan refuses: three copies of P_2
    m = ProjectiveSum(build_model_algebra(3), (2, 2, 2)).module
    assert delta_multiplicities(m.algebra, m) == [3, 3, 0]


def test_public_names_resolve():
    names = gieseker.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gieseker, name), name
    namespace: dict = {}
    exec("from gieseker import *", namespace)
    assert set(names) <= set(namespace)


def _paths_to(alg, i, v):
    # the paths from vertex i to vertex v, in basis order
    return [p for p in alg.path_basis(i) if alg.tgt[p] == v]


def _path_action(alg, i, b):
    # 0/1 matrix of basis element b on the path basis of the i-th projective,
    # read straight off the multiplication table
    cols, rows = _paths_to(alg, i, alg.src[b]), _paths_to(alg, i, alg.tgt[b])
    mat = [[0] * len(cols) for _ in rows]
    for col, p in enumerate(cols):
        z = alg.product(b, p)
        if z is not None:
            mat[rows.index(z)][col] = 1
    return mat


def _block_diag(blocks, rows, cols):
    out = [[0] * sum(cols) for _ in range(sum(rows))]
    r0 = c0 = 0
    for block, r, c in zip(blocks, rows, cols):
        for i, row in enumerate(block):
            out[r0 + i][c0 : c0 + c] = row
        r0, c0 = r0 + r, c0 + c
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_derived_action_matches_full_action_oracle(n):
    alg = build_model_algebra(n)
    arrows = set(alg.arrows())
    for i in range(1, n + 1):
        p = projective(alg, i)
        assert set(p.act) == _live_arrows(alg, p.dims)
        assert set(_arrow_matrices(p)) == arrows
        for b in range(alg.dim):
            assert p.action(b) == _path_action(alg, i, b), (i, alg.labels[b])
        for make in (standard, costandard, simple):
            m = make(alg, i)
            assert set(m.act) == _live_arrows(alg, m.dims)
            full = _arrow_matrices(m)
            assert set(full) == arrows
            for b, lab in enumerate(alg.labels):
                d = m.dims[lab[1] - 1]
                if lab[0] == "e":
                    want = [[int(r == c) for c in range(d)] for r in range(d)]
                elif lab[0] == "loop":
                    down = full[alg.index[("a", lab[1], lab[1] - 1)]]
                    up = full[alg.index[("a", lab[1] - 1, lab[1])]]
                    lower = m.dims[lab[1] - 2]
                    want = [
                        [sum(down[r][k] * up[k][c] for k in range(lower)) for c in range(d)]
                        for r in range(d)
                    ]
                else:
                    want = full[b]
                assert m.action(b) == want, (make.__name__, i, lab)
    # a sum of projectives is the block-diagonal sum of the path actions
    for gens in [(1,), (2, 2, 3), (n, 1, n), tuple(range(1, n + 1))]:
        if max(gens) > n:
            continue
        ps = ProjectiveSum(alg, gens)
        assert set(ps.module.act) == _live_arrows(alg, ps.module.dims)
        full = _arrow_matrices(ps.module)
        assert set(full) == arrows
        for g in alg.arrows():
            s, t = alg.src[g], alg.tgt[g]
            want = _block_diag(
                [_path_action(alg, v, g) for v in gens],
                [len(_paths_to(alg, v, t)) for v in gens],
                [len(_paths_to(alg, v, s)) for v in gens],
            )
            assert full[g] == want, (gens, alg.labels[g])


def _module_n3(dims, **arrows):
    # arrows named like a23 for a(2,3); unnamed arrows act by zero
    alg = build_model_algebra(3)
    act = {}
    for g in alg.arrows():
        _, i, j = alg.labels[g]
        act[g] = arrows.get(f"a{i}{j}", [[0] * dims[j - 1] for _ in range(dims[i - 1])])
    return _module_from_arrows(alg, dims, act)


@pytest.mark.parametrize(
    "broken",
    [
        # a(1,2) a(2,1) acts on vertex 1 by 1, not 0
        dict(dims=(1, 1, 0), a12=[[1]], a21=[[1]]),
        # a(2,3) a(3,2) acts on vertex 2 by 1, but a(2,1) a(1,2) = l_2 by 0
        dict(dims=(0, 1, 1), a23=[[1]], a32=[[1]]),
        # the monotone path a(3,2) a(2,1) acts by 1
        dict(dims=(1, 1, 1), a32=[[1]], a21=[[1]]),
        # a(1,2) given as a 1x2 matrix on a one-dimensional vertex 2
        dict(dims=(1, 1, 0), a12=[[0, 0]]),
    ],
    ids=["upper_back_and_forth_at_1", "upper_vs_lower_loop", "monotone_path", "shape"],
)
def test_verify_detects_broken_module(broken):
    dims = broken.pop("dims")
    assert not _module_n3(dims, **broken).verify()


def test_verify_accepts_module_built_by_hand():
    # the projective P(p_1) = (1, 1, 0) with a(2,1) its only nonzero arrow
    assert _module_n3((1, 1, 0), a21=[[1]]).verify()


def test_is_associative_detects_corrupted_table():
    ix = build_model_algebra(3).index
    e2, l2 = ix[("e", 2)], ix[("loop", 2)]
    # l_2 e_2 = 0 breaks (a(2,1) a(1,2)) e_2 = a(2,1) (a(1,2) e_2)
    alg = build_model_algebra(3)
    _corrupt(alg, (l2, e2), None)
    assert not alg.is_associative()
    # a product leaving its endpoints: e_2 e_2 = a(3,2), caught through the
    # idempotents
    alg = build_model_algebra(3)
    _corrupt(alg, (e2, e2), ix[("a", 3, 2)])
    assert not alg.is_associative()


ALGEBRA_CHECKS = ("is_associative", "relations_hold", "opposite_swap_is_antiautomorphism")


def _table_corruptions(alg, rng):
    # single-entry changes of the multiplication table: each entry deleted,
    # and redirected to its swap and to two seeded other basis elements; and
    # each composable pair without an entry given one
    composable, table = _label_pair_scan(alg)
    for pair, z in sorted(table.items()):
        yield pair, None
        for other in sorted({alg.swap(z), *rng.choices(range(alg.dim), k=2)} - {z}):
            yield pair, other
    for pair in composable:
        if pair not in table:
            yield pair, rng.randrange(alg.dim)


@pytest.mark.parametrize("n", range(1, 13))
def test_algebra_checks_match_the_n_length_copies_on_corrupted_tables(n):
    # the three checks read every product through ``product``, the rows of
    # associativity once per pair; on every corruption, applied to the
    # engine's ``product`` and to the table of the unchanged copies in
    # n_length_engine, which read it pair by pair, they give the same booleans
    rng = random.Random(n)
    got_alg, want_alg = build_model_algebra(n), nl.build_model_algebra(n)
    table = _label_pair_scan(got_alg)[1]
    assert want_alg.table == table
    rejected = Counter()
    for pair, z in _table_corruptions(got_alg, rng):
        _corrupt(got_alg, pair, z)
        if z is None:
            del want_alg.table[pair]
        else:
            want_alg.table[pair] = z
        got = [getattr(got_alg, name)() for name in ALGEBRA_CHECKS]
        assert got == [getattr(want_alg, name)() for name in ALGEBRA_CHECKS], (pair, z)
        rejected.update(name for name, ok in zip(ALGEBRA_CHECKS, got) if not ok)
        del got_alg.product
        if pair in table:
            want_alg.table[pair] = table[pair]
        else:
            del want_alg.table[pair]
    assert want_alg.table == table and "product" not in vars(got_alg)
    # every check rejects some corruption, wherever the table has entries
    assert n == 1 or set(rejected) == set(ALGEBRA_CHECKS), rejected


def test_opposite_swap_check_detects_corrupted_table():
    ix = build_model_algebra(3).index
    e2, a12, a21 = ix[("e", 2)], ix[("a", 1, 2)], ix[("a", 2, 1)]
    # e_2 a(2,1) = a(1,2), while its mirror a(1,2) e_2 = a(1,2) is not its swap
    alg = build_model_algebra(3)
    _corrupt(alg, (e2, a21), a12)
    assert not alg.opposite_swap_is_antiautomorphism()
    # e_2 a(2,1) = 0, while its mirror stays nonzero
    alg = build_model_algebra(3)
    _corrupt(alg, (e2, a21), None)
    assert not alg.opposite_swap_is_antiautomorphism()


@pytest.mark.parametrize("n", (1, 2, 7))
def test_product_is_zero_off_the_basis(n):
    # an index outside 0..dim - 1 names no basis element, so its products are
    # None, as the stored table's lookup gave; a negative index must not read
    # from the end of the basis: product(-dim, 0) is not e_1 e_1 = e_1
    alg = build_model_algebra(n)
    table = _label_pair_scan(alg)[1]
    span = [*range(-2 * alg.dim, 2 * alg.dim), -(10**12), 10**12]
    for x in span:
        for y in span:
            assert alg.product(x, y) == table.get((x, y)), (x, y)
    assert alg.product(-alg.dim, 0) is alg.product(0, -alg.dim) is None


def _report_algebra_checks(report):
    names = ("associative", "relations", "opposite_antiautomorphism")
    return tuple(report["checks"][name] for name in names)


def test_report_algebra_checks_equal_the_full_scans(monkeypatch):
    # on a cold memo the report reads the three checks off the window
    # algebra of min(N, 6) vertices; at every N <= 64 they equal the full
    # scans of ModelAlgebra(N)
    built = []
    init = ModelAlgebra.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self.N)

    monkeypatch.setattr(ModelAlgebra, "__init__", recording_init)
    for n in range(1, 65):
        monkeypatch.setattr(qe, "_RESULTS", {})
        built.clear()
        got = _report_algebra_checks(verify_model_properties(n))
        assert built == [n, min(n, 6)], n
        alg = build_model_algebra(n)
        assert got == tuple(getattr(alg, name)() for name in ALGEBRA_CHECKS) == (True,) * 3, n


def _window_corruption(where, rule):
    # the multiplication rule changed alike in every window of one class:
    # a(1,2) a(2,1) = e_1 at vertex 1; l_i l_i = l_i at every i whose
    # neighbours 2 <= i - 1 and i + 1 <= N - 1 touch neither end; a(N,N-1)
    # a(N-1,N) = 0 at vertex N
    def product(alg, x, y):
        n, ix = alg.N, alg.index
        if where == "vertex 1" and (x, y) == (ix.get(("a", 1, 2)), ix.get(("a", 2, 1))):
            return ix[("e", 1)]
        if where == "interior" and x == y >= 3 * n - 2 and 3 <= alg.tgt[x] <= n - 2:
            return x
        if where == "vertex N" and (x, y) == (ix.get(("a", n, n - 1)), ix.get(("a", n - 1, n))):
            return None
        return rule(alg, x, y)

    return product


@pytest.mark.parametrize("where, sizes", [("vertex 1", (3, 9)), ("interior", (5, 9)), ("vertex N", (3, 9))])
def test_report_algebra_checks_see_every_window_class(where, sizes, monkeypatch):
    # a corruption of one window class turns the report's checks False below
    # N0 = 6 and above it, where they are read off the window algebra; the
    # report's modules come from the memo, warmed by a clean report first,
    # so only the algebra checks read the corrupted rule
    _counting_memo(monkeypatch)
    rule = ModelAlgebra.product
    for n in sizes:
        assert verify_model_properties(n)["all_pass"]
        _forget_algebra_checks()
        monkeypatch.setattr(ModelAlgebra, "product", _window_corruption(where, rule))
        report = verify_model_properties(n)
        got = _report_algebra_checks(report)
        alg = build_model_algebra(n)
        assert got == tuple(getattr(alg, name)() for name in ALGEBRA_CHECKS), (where, n)
        assert not all(got) and not report["all_pass"], (where, n)
        monkeypatch.setattr(ModelAlgebra, "product", rule)
        _forget_algebra_checks()


def test_algebra_is_built_without_a_table():
    # the rule is computed from basis indices: building ModelAlgebra(10**4)
    # peaks at 12.6 MiB on CPython 3.11, and at 33.2 MiB when it stored the
    # 9N - 9 products and the 16N - 19 composable pairs
    tracemalloc.start()
    try:
        alg = build_model_algebra(10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.dim == 4 * 10**4 - 3 and peak <= 16 * 2**20, peak
    assert not {"table", "composable", "_mult_labels"} & {*vars(alg), *vars(ModelAlgebra)}


def test_cover_map_rejects_image_at_wrong_vertex(alg3):
    ps = ProjectiveSum(alg3, (2,))
    with pytest.raises(ValueError):
        cover_map(ps, projective(alg3, 1), [(1, [1])])


def _verify_all_composable_pairs(m):
    # the former QuiverModule.verify: every composable pair of basis elements,
    # idempotents and loops included, against the multiplication table
    a = m.algebra
    for g, mat in _arrow_matrices(m).items():
        rows, cols = m.dim_at(a.tgt[g]), m.dim_at(a.src[g])
        if len(mat) != rows or any(len(r) != cols for r in mat):
            return False
    acts = [m.action(b) for b in range(a.dim)]
    for x, y in _label_pair_scan(a)[0]:
        lhs = _mm(acts[x], acts[y], m.dim_at(a.src[y]))
        z = a.product(x, y)
        if z is None:
            rhs = [[0] * m.dim_at(a.src[y]) for _ in range(m.dim_at(a.tgt[x]))]
        else:
            rhs = acts[z]
        if lhs != rhs:
            return False
    return True


def _report_families(monkeypatch):
    # every projective, standard, costandard, tilting and simple the report
    # holds: the lists of ``model_families`` and each simple, in call order
    made = []
    families, make_simple = qe.model_families, qe.simple

    def recording_families(alg):
        lists = families(alg)
        made.extend(m for family in lists for m in family)
        return lists

    def recording_simple(alg, i):
        made.append(make_simple(alg, i))
        return made[-1]

    monkeypatch.setattr(qe, "model_families", recording_families)
    monkeypatch.setattr(qe, "simple", recording_simple)
    return made


def _all_recorded(made, built, n):
    # the report's 4N - 1 distinct family modules (the tiltings are
    # projectives or the last standard, and Delta_1 is P_1), each built
    # while the constructor was recorded
    ids = {id(m) for m in made}
    return len(ids) == 4 * n - 1 and ids <= {id(m) for m in built}


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_arrow_pairs_matches_all_pairs_on_report_modules(n, monkeypatch):
    # every module verify_model_properties builds: projectives, standards,
    # costandards, simples, trace submodules, quotients, and the modules of
    # the steps and Ext groups it computes rather than reads
    built = []
    init = QuiverModule.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    made = _report_families(monkeypatch)
    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    assert verify_model_properties(n)["all_pass"]
    assert _all_recorded(made, built, n)
    for m in built:
        assert m.verify() and _verify_all_composable_pairs(m), m.dims


@pytest.mark.parametrize("n", range(1, 6))
def test_report_verifies_each_module_once(n, monkeypatch):
    # tiltings are projectives or the last standard, and the first standard
    # is the first projective: N projectives, N - 1 further standards, N
    # costandards and N simples are checked; a module met again costs a
    # lookup, as the axioms are checked once per class
    verified, checked = [], []
    verify, check = QuiverModule.verify, QuiverModule._verify

    def recording_verify(self):
        verified.append(self)
        return verify(self)

    def recording_check(self):
        checked.append(self.key)
        return check(self)

    monkeypatch.setattr(QuiverModule, "verify", recording_verify)
    monkeypatch.setattr(QuiverModule, "_verify", recording_check)
    assert verify_model_properties(n)["checks"]["module_axioms"]
    assert len({id(m) for m in verified}) == 4 * n - 1 and len(verified) == 5 * n
    assert len(set(checked)) == len(checked) == len({m.key for m in verified})


@pytest.mark.parametrize("n", range(1, 5))
def test_verify_arrow_pairs_matches_all_pairs_on_corruptions(n):
    # every single-entry +1 corruption of an arrow matrix of each projective
    # and standard: both routes must give the same answer
    alg = build_model_algebra(n)
    rejected = 0
    for make in (projective, standard):
        for i in range(1, n + 1):
            m = make(alg, i)
            full = _arrow_matrices(m)
            for g in alg.arrows():
                for r, row in enumerate(full[g]):
                    for c in range(len(row)):
                        act = dict(m.act)
                        act[g] = [list(x) for x in m.act[g]]
                        act[g][r][c] += 1
                        bad = _module(alg, m.dims, act)
                        ok = bad.verify()
                        assert ok == _verify_all_composable_pairs(bad), (
                            make.__name__, i, alg.labels[g], r, c
                        )
                        rejected += not ok
    assert n == 1 or rejected > 0


@pytest.mark.parametrize("n", range(1, 9))
def test_ii_reads_trace_filtration_like_the_direct_route(n):
    # the former (ii): trace sub and quotient of each P_i (i >= 2) tested
    # against the adjacent standards, plus P_1 against Delta_1, simple tops
    # and a one-dimensional Ext^1 between the adjacent standards
    alg = build_model_algebra(n)
    ok = is_isomorphic(standard(alg, 1), projective(alg, 1))
    for i in range(2, n + 1):
        p = projective(alg, i)
        sub, incl = trace_submodule(p, i - 1)
        quot, _ = quotient(p, incl)
        layers_ok = is_isomorphic(sub, standard(alg, i - 1)) and is_isomorphic(
            quot, standard(alg, i)
        )
        # the layers are exactly what the trace filtration of (i) compares
        row = [1 if j in (i - 1, i) else 0 for j in range(1, n + 1)]
        assert layers_ok == (delta_multiplicities(alg, p) == row), i
        tops = top_generators(p)
        ext1 = ext_groups(alg, standard(alg, i), standard(alg, i - 1), 1).dims[1]
        ok = ok and layers_ok and [v for v, _ in tops] == [i] and ext1 == 1
    assert ok
    assert verify_model_properties(n)["checks"]["ii_universal_extensions"] == ok


def _delta_multiplicities_by_grid_scan(alg, module):
    # the former route: quotient consecutive traces, grid-scan each layer
    # against the standard; accepts single copies only
    n = alg.N
    prev_incl, prev_dim, mults = None, 0, []
    for j in range(1, n + 1):
        if prev_dim == module.total_dim:
            mults.append(0)
            continue
        sub_j, cols_j = trace_submodule(module, j)
        incl_j = _n_length(module, cols_j)
        if sub_j.total_dim == prev_dim:
            mults.append(0)
            continue
        if prev_incl is None:
            layer = sub_j
        else:
            # the previous trace's basis in coordinates of this one, as the
            # columns quotient takes at the vertices of sub_j
            inner = [_solve(incl_j[v], prev_incl[v]) for v in range(n)]
            cols = [el.transpose(inner[v - 1]) for v in range(sub_j.lo, sub_j.hi + 1)]
            layer, _ = quotient(sub_j, cols)
        d = standard(alg, j)
        if not (layer.dims == d.dims and is_isomorphic(layer, d)):
            return None
        mults.append(1)
        prev_incl, prev_dim = incl_j, sub_j.total_dim
    return mults


@pytest.mark.parametrize("n", range(1, 9))
def test_layer_certificate_matches_grid_scan_route(n):
    alg = build_model_algebra(n)
    accepted = 0
    for make in (projective, standard, costandard, tilting, simple):
        for i in range(1, n + 1):
            m = make(alg, i)
            got = delta_multiplicities(alg, m)
            assert got == _delta_multiplicities_by_grid_scan(alg, m), (make.__name__, i)
            accepted += got is not None
    # every projective, standard and tilting has a standard filtration
    assert accepted >= 3 * n


@pytest.mark.parametrize("n", range(1, 7))
def test_delta_multiplicities_add_over_projective_sums(n):
    alg = build_model_algebra(n)
    rows = {i: delta_multiplicities(alg, projective(alg, i)) for i in range(1, n + 1)}
    for k in (1, 2, 3):
        for gens in combinations_with_replacement(range(1, n + 1), k):
            got = delta_multiplicities(alg, ProjectiveSum(alg, gens).module)
            assert got == [sum(rows[i][j] for i in gens) for j in range(n)], gens


def test_quotient_rejects_dependent_inclusion_columns(alg3):
    p2 = projective(alg3, 2)
    _, incl = trace_submodule(p2, 1)
    # repeat the one column at vertex 2: the span is the same, the columns
    # are not independent
    assert p2.lo == 1 and len(incl[1]) == 1
    doubled = list(incl)
    doubled[1] = incl[1] + incl[1]
    with pytest.raises(ValueError, match="vertex 2"):
        quotient(p2, doubled)


def test_non_integral_module_map_raises():
    # P(2) at N = 2 with the vertex-1 basis vector a(1,2) replaced by twice
    # itself: the arrow a(1,2) then sends e_2 to half the new basis vector
    alg = build_model_algebra(2)
    p2 = projective(alg, 2)
    assert p2.dims == (1, 2)
    whole = _restrict(p2, [[[1]], [[1, 0], [0, 1]]])
    assert whole.act == p2.act
    with pytest.raises(InvariantError, match="non-integral"):
        _restrict(p2, [[[2]], [[1, 0], [0, 1]]])
    with pytest.raises(InvariantError, match="non-integral"):
        _solve([[2]], [[1]])


def test_solve_checks_only_the_rows_it_returns():
    # [[2, 0], [1, 1]]^-1 = [[1/2, 0], [-1/2, 1]]: the first row is dropped
    basis = [[2, 0], [1, 1]]
    with pytest.raises(InvariantError, match="non-integral"):
        _solve(basis, el.identity(2))
    with pytest.raises(InvariantError, match="non-integral"):
        _solve(basis, el.identity(2), 1)  # -1/2 stays
    assert _solve([[2, 0], [0, 1]], el.identity(2), 1) == [[0, 1]]
    with pytest.raises(InvariantError, match="column space"):
        _solve([[0, 0], [0, 0]], el.identity(2), 1)
    assert _solve([[1], [2]], [[], []], 1) == []


def test_quotient_by_a_sublattice_with_fractional_coordinates():
    # [sub | units] has determinant +-2 at vertex 3, so its inverse is
    # fractional in the submodule rows; the projection row is integral
    m = ProjectiveSum(build_model_algebra(3), (3, 3)).module
    sub, incl = submodule(m, [(2, [-1, 1]), (3, [1, 0, 1, 0])])
    q, proj = quotient(m, incl)
    assert q.dims == (0, 0, 1)
    assert m.lo == 2 and proj[1] == [[1, 0, -1, 0]]  # at vertex 3
    assert q.verify() and sub.verify()


def test_quotients_of_seeded_submodules_of_two_projectives():
    # sums of two projectives at N = 3, each cut by two random seeds with
    # entries in -1..1; the parent route raised "non-integral" on some pairs
    alg = build_model_algebra(3)
    rng = random.Random(0)
    for _ in range(200):
        m = ProjectiveSum(alg, tuple(rng.choices((1, 2, 3), k=2))).module
        support = [v for v, d in enumerate(m.dims, start=1) if d]
        seeds = [
            (v, [rng.randint(-1, 1) for _ in range(m.dims[v - 1])])
            for v in rng.choices(support, k=2)
        ]
        sub, incl = submodule(m, seeds)
        q, proj = quotient(m, incl)
        assert q.verify() and sub.verify()
        assert all(a + b == c for a, b, c in zip(sub.dims, q.dims, m.dims))
        assert len(proj) == len(incl) == len(m._dims)
        for v, d, p, cols in zip(range(m.lo, m.hi + 1), m._dims, proj, incl):
            # the projection kills the submodule and is onto the quotient
            assert len(p) == q.dim_at(v) and len(cols) == sub.dim_at(v)
            if d and p and cols:
                assert el.mat_mul(p, el.transpose(cols)) == el.zeros(q.dim_at(v), len(cols))
            if p:
                assert el.rank(p) == q.dim_at(v)


@pytest.mark.parametrize("n", range(1, 9))
def test_report_modules_have_int_arrow_matrices(n, monkeypatch):
    built = []
    init = QuiverModule.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    made = _report_families(monkeypatch)
    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    assert verify_model_properties(n)["all_pass"]
    assert _all_recorded(made, built, n)
    for m in built:
        for mat in m.act.values():
            assert all(type(x) is int for row in mat for x in row), m.dims


def test_action_cache_holds_no_reference_to_its_module():
    # reference counting alone frees a module whose actions were read: an
    # action is computed per call and kept by no one
    alg = build_model_algebra(3)
    m = dual_module(dual_module(projective(alg, 3)))
    assert m.verify() and m.action(alg.index[("loop", 3)]) == [[0, 0], [1, 0]]
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


NON_INT_CALLS = {
    "projective-True": lambda a: projective(a, True),
    "projective-float": lambda a: projective(a, 2.0),
    "standard-True": lambda a: standard(a, True),
    "costandard-True": lambda a: costandard(a, True),
    "tilting-True": lambda a: tilting(a, True),
    "simple-True": lambda a: simple(a, True),
    "ext_to_simple-True": lambda a: ext_to_simple(a, projective(a, 2), True, 1),
    "multiplicity-True": lambda a: minimal_projective_resolution(
        a, projective(a, 2), 2).multiplicity(0, True),
    "ProjectiveSum-True": lambda a: ProjectiveSum(a, (2, True)),
    "submodule-True": lambda a: submodule(projective(a, 3), [(True, 0)]),
    "algebra-True": lambda a: build_model_algebra(True),
    "algebra-float": lambda a: build_model_algebra(3.0),
    "report-True": lambda a: verify_model_properties(True),
    "resolution-float": lambda a: minimal_projective_resolution(a, standard(a, 3), 2.5),
    "resolution-True": lambda a: minimal_projective_resolution(a, standard(a, 3), True),
    "ext_groups-float": lambda a: ext_groups(a, standard(a, 3), simple(a, 3), 1.0),
    "ext_groups-True": lambda a: ext_groups(a, standard(a, 3), simple(a, 3), True),
    "ext_to_simple-degree-True": lambda a: ext_to_simple(a, projective(a, 2), 2, True),
    "multiplicity-degree-True": lambda a: minimal_projective_resolution(
        a, projective(a, 2), 2).multiplicity(True, 2),
}


@pytest.mark.parametrize("name", NON_INT_CALLS)
def test_vertices_and_vertex_counts_must_be_ints(name):
    # formerly True passed for 1: projective gave P_1, tilting P_2, standard
    # found the stored Delta_1, ext_to_simple read vertex 1 and the report
    # printed "n_vertices": true; a float vertex raised TypeError.  Term and
    # degree counts likewise: 2.5 terms gave 3, True degrees answered as 1
    # and a float degree raised TypeError
    alg = build_model_algebra(3)
    assert [standard(alg, i).lo for i in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValueError, match="not an int"):
        NON_INT_CALLS[name](alg)


def test_vertex_out_of_range_raises():
    alg = build_model_algebra(3)
    for make in (simple, projective, standard, costandard, tilting):
        for i in (0, 4, -1):
            with pytest.raises(ValueError, match="vertex out of range"):
                make(alg, i)
    p2 = projective(alg, 2)
    res = minimal_projective_resolution(alg, p2, 3)
    for vertex in (0, 4, 9):
        with pytest.raises(ValueError, match="vertex out of range"):
            ext_to_simple(alg, p2, vertex, 2)
        with pytest.raises(ValueError, match="vertex out of range"):
            res.multiplicity(0, vertex)
    # a generator or a seed at vertex 0 would read the last vertex's paths
    for gens in ((0,), (4,), (2, 0), (1, 4)):
        with pytest.raises(ValueError, match="vertex out of range"):
            ProjectiveSum(alg, gens)
    for vertex in (0, 4):
        with pytest.raises(ValueError, match="vertex out of range"):
            submodule(projective(alg, 3), [(3, [1, 0]), (vertex, [1, 0])])
    # the top of P_2 is L_2, and the vertices in range still answer
    assert ext_to_simple(alg, p2, 2, 2).dims == (1, 0, 0)
    assert res.multiplicity(0, 2) == 1 and res.multiplicity(0, 3) == 0
    assert ProjectiveSum(alg, (3, 1)).module.dims == (1, 2, 2)
    assert submodule(projective(alg, 3), [(3, [0, 1])])[0].dims == (0, 0, 1)


def test_submodule_rejects_int_seeds_outside_the_dim():
    # formerly (2, -1) read the last column, giving the (2, 1) submodule;
    # (2, 5) raised a bare IndexError and (2, True) a TypeError
    alg = build_model_algebra(3)
    p2 = projective(alg, 2)  # dims (1, 2, 1), the coordinates 0 and 1 at vertex 2
    for c in (-1, 5, 2, True, False):
        with pytest.raises(ValueError, match="at vertex 2 "):
            submodule(p2, [(1, 0), (2, c)])
    with pytest.raises(ValueError, match="at vertex 3 "):
        submodule(p2, [(3, 1)])
    sub, incl = submodule(p2, [(2, 1)])
    assert sub.dims == (0, 1, 0) and incl == [[], [[0, 1]], []]
    assert submodule(p2, [(2, 0)])[0].dims == p2.dims


ALGEBRA_MISMATCHES = {
    "ext_groups_target": lambda a3, a4: ext_groups(a3, standard(a3, 2), simple(a4, 1), 2),
    "ext_groups_module": lambda a3, a4: ext_groups(a4, standard(a3, 2), simple(a4, 1), 2),
    "ext_to_simple": lambda a3, a4: ext_to_simple(a4, standard(a3, 2), 1, 2),
    "delta_multiplicities": lambda a3, a4: delta_multiplicities(a4, projective(a3, 2)),
    "resolution": lambda a3, a4: minimal_projective_resolution(a4, standard(a3, 2), 3),
}


@pytest.mark.parametrize("case", sorted(ALGEBRA_MISMATCHES))
def test_module_of_another_algebra_raises(case):
    # formerly an answer about the wrong algebra, None or a bare IndexError
    a3, a4 = build_model_algebra(3), build_model_algebra(4)
    with pytest.raises(ValueError, match="another algebra"):
        ALGEBRA_MISMATCHES[case](a3, a4)
    # an equal algebra that is a different object is another algebra too
    with pytest.raises(ValueError, match="another algebra"):
        ALGEBRA_MISMATCHES[case](a3, build_model_algebra(3))


@pytest.mark.parametrize("route", ["ext_groups", "ext_to_simple"])
def test_negative_max_degree_raises(route):
    # formerly ExtResult(dims=(), truncated=True)
    alg = build_model_algebra(3)
    m = standard(alg, 2)
    call = {
        "ext_groups": lambda k: ext_groups(alg, m, simple(alg, 1), k),
        "ext_to_simple": lambda k: ext_to_simple(alg, m, 1, k),
    }[route]
    for k in (-1, -5):
        with pytest.raises(ValueError, match="max_degree"):
            call(k)
    assert call(0).dims == (0,) and call(1).dims == (0, 1)


def test_negative_max_terms_raises():
    # formerly a resolution with no terms that had not terminated
    alg = build_model_algebra(3)
    m = standard(alg, 2)
    for k in (-1, -5):
        with pytest.raises(ValueError, match="max_terms must be non-negative"):
            minimal_projective_resolution(alg, m, k)
    res = minimal_projective_resolution(alg, m, 0)
    assert (res.gens, res.images, res.terminated) == ([], [], False)


def test_negative_multiplicity_degree_raises():
    # formerly a bare IndexError
    alg = build_model_algebra(3)
    res = minimal_projective_resolution(alg, standard(alg, 2), 3)
    for k in (-1, -5):
        with pytest.raises(ValueError, match="non-negative"):
            res.multiplicity(k, 1)
    assert [res.multiplicity(k, 1) for k in range(4)] == [0, 1, 0, 0]


# The dense route the engine took before it confined each module's work to its
# support: every arrow is solved or multiplied, and verify tries every
# composable pair, whatever the dimensions at its ends.


def _dense_solve(a, b):
    x = el.solve_matrix(a, b)
    if x is None:
        raise InvariantError("image does not lie in the column space it should")
    if any(type(v) is not int for row in x for v in row):
        raise InvariantError("a module map came out non-integral")
    return x


def _dense_restrict(module, incl):
    a = module.algebra
    dims = tuple(len(m[0]) if m else 0 for m in incl)
    full = _arrow_matrices(module)
    act = {}
    for g in a.arrows():
        s, t = a.src[g] - 1, a.tgt[g] - 1
        act[g] = _dense_solve(incl[t], _mm(full[g], incl[s], dims[s]))
    return _module_from_arrows(a, dims, act)


def _dense_quotient(module, incl):
    a = module.algebra
    projections, sections, dims = [], [], []
    for v in range(a.N):
        d = module.dims[v]
        sub_cols = el.transpose(incl[v])
        comp = el.column_space_completion(sub_cols, d)
        if len(sub_cols) + len(comp) != d:
            raise ValueError(f"inclusion columns at vertex {v + 1} are not independent")
        dims.append(len(comp))
        cols = sub_cols + [[int(t == c) for t in range(d)] for c in comp]
        inv = _dense_solve(el.transpose(cols), el.identity(d))
        projections.append(inv[len(sub_cols) :])
        sections.append(el.transpose(cols[len(sub_cols) :]))
    full = _arrow_matrices(module)
    act = {}
    for g in a.arrows():
        s, t = a.src[g], a.tgt[g]
        mid = _mm(full[g], sections[s - 1], dims[s - 1])
        act[g] = _mm(projections[t - 1], mid, dims[s - 1])
    return _module_from_arrows(a, tuple(dims), act), projections


def _dense_verify(m):
    a = m.algebra
    full = _arrow_matrices(m)
    for g in a.arrows():
        rows, cols = m.dim_at(a.tgt[g]), m.dim_at(a.src[g])
        if len(full[g]) != rows or any(len(r) != cols for r in full[g]):
            return False
    for x, y in _label_pair_scan(a)[0]:
        if x not in full or y not in full:
            continue
        lhs = _mm(full[x], full[y], m.dim_at(a.src[y]))
        z = a.product(x, y)
        if z is None:
            rhs = el.zeros(m.dim_at(a.tgt[x]), m.dim_at(a.src[y]))
        else:
            rhs = m.action(z)
        if lhs != rhs:
            return False
    return True


def trace_submodule(module, max_vertex):
    # the submodule generated by everything at vertices <= max_vertex, with
    # its basis columns at the module's vertices lo..hi; the engine reads
    # only their number
    incl = qe._trace_span(module, max_vertex)
    return _restrict(module, incl), incl


def _content(module):
    # what determines a module: its dims and every arrow matrix
    return module.dims, tuple(
        (g, tuple(map(tuple, mat))) for g, mat in sorted(module.act.items())
    )


def _translation_class(module):
    # the content moved to start at vertex 1, and whether the support starts
    # at vertex 1 and ends at N
    dims = module.dims
    support = [v for v, d in enumerate(dims) if d]
    lo, hi = support[0], support[-1]
    moved = tuple((g - 2 * lo, mat) for g, mat in _content(module)[1])
    return lo == 0, hi == len(dims) - 1, dims[lo : hi + 1], moved


_MODULE_INIT = QuiverModule.__init__  # the constructor no test has wrapped


def _step_module(args):
    # the module whose step ``_once`` reads, from its arguments (algebra, lo,
    # dims, act), built without any recording constructor
    module = QuiverModule.__new__(QuiverModule)
    _MODULE_INIT(module, *args)
    return module


def _all_int(module):
    return all(type(x) is int for mat in module.act.values() for row in mat for x in row)


def _same_module(got, want):
    # entry for entry: dims, the key set and every arrow matrix
    return (
        got.dims == want.dims
        and got.act == want.act
        and _arrow_matrices(got) == _arrow_matrices(want)
        and _all_int(got)
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_sparse_route_matches_dense_route_on_report_modules(n, monkeypatch):
    # every _restrict and quotient call of the report, replayed on the dense
    # route; every module the report builds, verified both ways
    restrict, quot = qe._restrict, qe.quotient
    calls = {"restrict": 0, "quotient": 0}

    def checked_restrict(module, incl):
        got = restrict(module, incl)
        assert _same_module(got, _dense_restrict(module, _n_length(module, incl))), got.dims
        calls["restrict"] += 1
        return got

    def checked_quotient(module, incl):
        got, proj = quot(module, incl)
        want, want_proj = _dense_quotient(module, _n_length(module, incl))
        # the projections at the module's vertices lo..hi, and none off them
        lo, hi = module.lo, module.hi
        assert want_proj[: lo - 1] + want_proj[hi:] == [[]] * (len(want_proj) - len(proj))
        assert _same_module(got, want) and proj == want_proj[lo - 1 : hi], got.dims
        assert all(type(x) is int for mat in proj for row in mat for x in row)
        calls["quotient"] += 1
        return got, proj

    built = []
    init = QuiverModule.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    # the translation class of each module the report computes a step of
    stepped = []
    step = qe._syzygy_step

    def recording_step(*args):
        stepped.append(_translation_class(_step_module(args)))
        return step(*args)

    monkeypatch.setattr(qe, "_restrict", checked_restrict)
    monkeypatch.setattr(qe, "quotient", checked_quotient)
    monkeypatch.setattr(qe, "_syzygy_step", recording_step)
    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    assert verify_model_properties(n)["all_pass"]
    # one _restrict, the kernel's, per translation class stepped, each once;
    # one quotient per class of P_i, i >= 2: P_2, P_{N-1}, P_N and the generic
    assert calls["restrict"] == len(stepped) == len(set(stepped))
    assert calls["quotient"] == min(n - 1, 4)
    # most modules leave some vertex empty, so the sparse paths are exercised
    assert sum(0 in m.dims for m in built) > len(built) // 2 or n < 3
    for m in built:
        assert m.verify() and _dense_verify(m), m.dims
        assert _all_int(m), m.dims


# corruptions the constructor rejects: a matrix stored for an arrow with a
# zero-dimensional end, of a wrong shape or of its own empty one, and a
# live arrow left out
REJECTED_KINDS = ("shape", "dead", "missing")


def _corruptions(m):
    """Arrow dicts of copies of m with one arrow matrix changed: each entry
    of a live arrow raised by 1, each live arrow zeroed or given an extra
    column, each live arrow dropped, and each arrow with a zero-dimensional
    end given a matrix of a wrong shape or its empty one."""
    a = m.algebra
    full = _arrow_matrices(m)

    def with_arrow(g, mat):
        act = {h: [list(r) for r in x] for h, x in m.act.items()}
        act[g] = mat
        return act

    for g in a.arrows():
        rows, cols = m.dims[a.tgt[g] - 1], m.dims[a.src[g] - 1]
        if rows and cols:
            for r in range(rows):
                for c in range(cols):
                    bumped = [list(x) for x in full[g]]
                    bumped[r][c] += 1
                    yield "entry", with_arrow(g, bumped)
            yield "zeroed", with_arrow(g, [[0] * cols for _ in range(rows)])
            yield "widened", with_arrow(g, [list(x) + [0] for x in full[g]])
            yield "missing", {h: x for h, x in m.act.items() if h != g}
        else:
            yield "shape", with_arrow(g, [[0] * (cols + 1) for _ in range(rows + 1)])
            if rows:
                yield "shape", with_arrow(g, [[0] for _ in range(rows)])
                yield "shape", with_arrow(g, [[] for _ in range(rows + 1)])
            yield "dead", with_arrow(g, full[g])


@pytest.mark.parametrize("n", range(2, 5))
def test_sparse_verify_matches_dense_verify_on_corruptions(n):
    alg = build_model_algebra(n)
    seen = {kind: 0 for kind in ("entry", "zeroed", "widened", *REJECTED_KINDS)}
    rejected = 0
    for make in (projective, standard, costandard, simple):
        for i in range(1, n + 1):
            m = make(alg, i)
            for kind, act in _corruptions(m):
                if kind in REJECTED_KINDS:
                    with pytest.raises(InvariantError, match="live arrow"):
                        _module(alg, m.dims, act)
                    ok = False
                else:
                    bad = _module(alg, m.dims, act)
                    ok = bad.verify()
                    assert ok == _dense_verify(bad), (make.__name__, i, kind, bad.dims)
                if kind == "widened":
                    assert not ok, (make.__name__, i, act)
                seen[kind] += 1
                rejected += not ok
    # every wrong shape and some wrong entries are caught
    assert min(seen.values()) > 0
    assert rejected > sum(seen[kind] for kind in ("widened", *REJECTED_KINDS))


def test_verify_checks_relation_through_empty_vertex():
    # dims (1, 2, 0): a(1,2) a(2,1) = 0 at vertex 1 as it must be, but l_2 =
    # a(2,1) a(1,2) is nonzero while a(2,3) a(3,2), which must equal it,
    # passes through the empty vertex 3 and is zero
    alg = build_model_algebra(3)
    bad = _module_n3((1, 2, 0), a12=[[1, 0]], a21=[[0], [1]])
    l2 = bad.action(alg.index[("loop", 2)])
    assert l2 == [[0, 0], [1, 0]]
    assert not bad.verify() and not _dense_verify(bad)
    # with a(2,1) = 0, l_2 = 0 and the same shapes make a module
    assert _module_n3((1, 2, 0), a12=[[1, 0]]).verify()


def test_no_empty_operand_reaches_linear_algebra(monkeypatch):
    # the sparse route never hands exact_linalg a matrix with no rows or no
    # columns; an all-arrows loop would do so at once
    empty_calls = []
    counts = {}

    def empty(mat):
        return not mat or not mat[0]

    def guarded(name, fn, operands):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            if any(empty(args[i]) for i in operands) or (
                name == "column_space_completion" and not args[1]
            ):
                empty_calls.append((name, args))
            return fn(*args)

        return wrapper

    for name, operands in (
        ("solve_matrix", (0, 1)),
        ("mat_mul", (0, 1)),
        ("nullspace", (0,)),
        ("column_space_completion", (0,)),
        ("rank", (0,)),
    ):
        monkeypatch.setattr(el, name, guarded(name, getattr(el, name), operands))
    assert verify_model_properties(8)["all_pass"]
    assert set(counts) == {
        "solve_matrix", "mat_mul", "nullspace", "column_space_completion", "rank"
    }
    assert empty_calls == []


# The resolution loop before the engine shared its steps: every term is
# covered, and its kernel restricted, afresh, on the N-length route.


def _plain_resolution(algebra, module, max_terms):
    gens_list, terms, diffs = [], [], []
    cur = module
    incl_prev = None  # cur inside the previous term
    for _ in range(max_terms):
        if cur.total_dim == 0:
            break
        gens = nl.top_generators(cur)
        ps = nl.ProjectiveSum(algebra, tuple(v for v, _ in gens))
        images = [(v, [int(x == t) for x in range(cur.dims[v - 1])]) for v, t in gens]
        cov = nl.cover_map(ps, cur, images)
        diffs.append(cov if incl_prev is None else [
            el.mat_mul(p, c) if d else el.zeros(len(p), e)
            for p, c, d, e in zip(incl_prev, cov, cur.dims, ps.dims)
        ])
        gens_list.append(ps.gen_vertices)
        terms.append(ps)
        incl = []
        for v, d in enumerate(ps.dims):
            kernel = el.nullspace(cov[v]) if cur.dims[v] else el.identity(d)
            incl.append(el.transpose(kernel) if kernel else el.zeros(d, 0))
        cur = nl._restrict(ps.module, incl)
        incl_prev = incl
    return gens_list, [ps.dims for ps in terms], diffs, cur.total_dim == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_shared_steps_match_plain_resolution(n, monkeypatch):
    # standards first: projectives, tiltings and the later standards' and
    # costandards' syzygies then meet steps resolved before
    alg = build_model_algebra(n)
    steps, covered = [], 0
    step = qe._syzygy_step

    def counting_step(*args):
        steps.append(_step_module(args).key)
        return step(*args)

    monkeypatch.setattr(qe, "_syzygy_step", counting_step)
    for make in (standard, tilting, projective, costandard, simple):
        for i in range(1, n + 1):
            m = make(alg, i)
            res = minimal_projective_resolution(alg, m, n + 2)
            # each d_t is the module map its generator images determine
            terms = [ProjectiveSum(alg, g).module for g in res.gens]
            diffs = [
                nl.cover_map(nl.ProjectiveSum(alg, g), target, images)
                for g, target, images in zip(res.gens, [m] + terms, res.images)
            ]
            got = (res.gens, [p.dims for p in terms], diffs, res.terminated)
            assert got == _plain_resolution(alg, m, n + 2), (make.__name__, i)
            covered += len(res.gens)
    # each class stepped once, and fewer steps computed than terms covered
    assert len(set(steps)) == len(steps) < covered


class _CountingMemo(dict):
    # a class-result memo that records its misses and the largest size it reached
    def __init__(self):
        super().__init__()
        self.misses = []
        self.peak = 0

    def __setitem__(self, key, value):
        self.misses.append(key)
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


def _counting_memo(monkeypatch):
    # an empty _CountingMemo in place of the process's class-result memo
    memo = _CountingMemo()
    monkeypatch.setattr(qe, "_RESULTS", memo)
    return memo


def _forget_algebra_checks():
    # drop the stored algebra checks, so the next report computes them
    for key in [k for k in qe._RESULTS if k[0] == qe._ALGEBRA]:
        del qe._RESULTS[key]


def _steps_in(keys):
    # the step entries among class-result keys
    return [k for k in keys if k[0] == qe._STEP]


def _plain_data(x):
    # built of ints, bools, None and containers of them alone: no algebra,
    # module or other engine object
    if isinstance(x, dict):
        return all(map(_plain_data, [*x, *x.values()]))
    if isinstance(x, (list, tuple)):
        return all(map(_plain_data, x))
    return x is None or type(x) in (int, bool)


def test_report_computes_each_step_once(monkeypatch):
    memo = _counting_memo(monkeypatch)
    reads, computed = [], []
    once, step = qe._once, qe._syzygy_step

    def counting_once(key, fn, *args):
        if key[0] == qe._STEP:
            reads.append(key)
        return once(key, fn, *args)

    def counting_step(*args):
        computed.append((qe._STEP, _step_module(args).key))
        return step(*args)

    monkeypatch.setattr(qe, "_once", counting_once)
    monkeypatch.setattr(qe, "_syzygy_step", counting_step)
    assert verify_model_properties(8)["all_pass"]
    misses = list(memo.misses)
    assert len(set(misses)) == len(misses) == len(memo)
    assert _steps_in(misses) == computed
    # the report reads some steps more than once
    assert len(computed) < len(reads)
    # the memo outlives the report: the same report again computes nothing
    assert verify_model_properties(8)["all_pass"]
    assert memo.misses == misses and len(computed) == len(_steps_in(misses))


def test_report_step_count_does_not_grow_with_n(monkeypatch):
    # steps are keyed by translation class, and the classes the report meets
    # are the same at every large N (the content-keyed memo held 4N - 4): a
    # report at 16 computes 13 steps, those at 32 and 64 none.  Reports at
    # N = 1..64 meet 18 classes, all of them by N = 5.  The memo holds local
    # data only, no algebra or module
    memo = _counting_memo(monkeypatch)
    counts = []
    for n in (16, 32, 64):
        assert verify_model_properties(n)["all_pass"]
        counts.append(len(_steps_in(memo)))
        assert _plain_data(memo), n
    assert counts == [13] * 3, counts
    memo.clear()
    for n in range(1, 65):
        assert verify_model_properties(n)["all_pass"]
        counts.append(len(_steps_in(memo)))
    assert counts[3:] == [1, 5, 11, 16] + [18] * 60, counts


def _resolutions(engine, n):
    # every simple, standard, projective, costandard and tilting resolved to
    # N + 2 terms on a new algebra: generators, images and termination
    alg = engine.build_model_algebra(n)
    out = {}
    for make in ("simple", "standard", "projective", "costandard", "tilting"):
        for i in range(1, n + 1):
            res = engine.minimal_projective_resolution(alg, getattr(engine, make)(alg, i), n + 2)
            out[make, i] = res.gens, res.images, res.terminated
    return out


def test_warm_memo_gives_cold_answers():
    # reports at N = 1..16 in a shuffled order and then in reverse, each
    # followed by every resolution above, against the N-length route, whose
    # step memo belongs to its algebra and so starts cold each time
    order = list(range(1, 17))
    random.Random(18).shuffle(order)
    want: dict = {}
    for n in order + order[::-1]:
        if n not in want:
            want[n] = nl.verify_model_properties(n), _resolutions(nl, n)
        assert verify_model_properties(n) == want[n][0], n
        assert _resolutions(qe, n) == want[n][1], n
    assert 18 <= len(_steps_in(qe._RESULTS)) and len(qe._RESULTS) <= qe._RESULTS_BOUND
    assert _plain_data(qe._RESULTS)


def test_report_algebra_dies_when_the_report_returns(monkeypatch):
    # the memo keeps no algebra alive, so reference counting alone frees the
    # report's algebra and, on a cold memo, the window algebra of its checks
    refs = []
    init = ModelAlgebra.__init__

    def recording_init(self, *args):
        init(self, *args)
        refs.append((self.N, weakref.ref(self)))

    monkeypatch.setattr(ModelAlgebra, "__init__", recording_init)
    _counting_memo(monkeypatch)
    gc.disable()
    try:
        for n in (1, 9):
            assert verify_model_properties(n)["all_pass"]
            assert all(ref() is None for _, ref in refs), n
    finally:
        gc.enable()
    assert [n for n, _ in refs] == [1, 1, 9, 6]


def test_bounded_step_memo_gives_the_same_answers(monkeypatch):
    # a miss that would pass the bound empties the memo, mid-resolution too
    monkeypatch.setattr(qe, "_RESULTS_BOUND", 3)
    memo = _counting_memo(monkeypatch)
    for n in (1, 2, 3, 5, 8, 12, 16):
        blob = json.dumps(verify_model_properties(n), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[n], n
    for n in (3, 7):
        assert _resolutions(qe, n) == _resolutions(nl, n), n
    assert memo.peak == 3 and len(memo.misses) > 17


@pytest.mark.parametrize("n", range(1, 13))
def test_class_results_match_fresh_computation(n, monkeypatch):
    # every resolution step, standard quotient, sum-of-projectives arrow
    # set, verify(), standard-multiplicity row and Hom-complex Ext the report
    # asks for, stored or not, against the same computation run afresh on
    # the caller's own module, sum, resolution and target; and the algebra
    # checks, read once per report, against the window algebra's afresh and
    # the full scans of the report's own algebra
    once, seen = qe._once, Counter()
    full = build_model_algebra(n)
    full = tuple(getattr(full, name)() for name in ALGEBRA_CHECKS)

    def checked_once(key, fn, *args):
        seen[key[0], key in qe._RESULTS] += 1
        got = once(key, fn, *args)
        assert got == fn(*args), key
        assert key[0] != qe._ALGEBRA or (key, got) == ((qe._ALGEBRA, min(n, 6)), full)
        return got

    monkeypatch.setattr(qe, "_once", checked_once)
    assert verify_model_properties(n)["all_pass"]
    tags = {qe._STEP, qe._STANDARD, qe._VERIFY, qe._DELTA, qe._EXT, qe._SUM, qe._ALGEBRA}
    assert {tag for tag, _ in seen} == (tags - {qe._STANDARD} if n == 1 else tags)
    assert seen[qe._ALGEBRA, False] + seen[qe._ALGEBRA, True] == 1
    # from N = 8 on the report meets classes of each other kind more than once
    assert n < 8 or all(seen[tag, True] for tag in tags - {qe._ALGEBRA})


def _class_results(alg, module):
    # the step, verify(), standard multiplicities on [lo, hi] and quotient by
    # the trace of vertex lo of a module, from an empty memo; a zero
    # quotient, which sits at vertex 1, counts as None
    qe._RESULTS.clear()
    step, ok = qe._syzygy_step(alg, module.lo, module._dims, module._act), module._verify()
    mults, quotient = qe._layer_multiplicities(alg, module), qe._standard_quotient(module)
    return step, ok, mults, quotient if quotient[1] else None


@pytest.mark.parametrize("n", (6, 9, 12))
def test_class_results_agree_at_every_placement(n, monkeypatch):
    # each module the report resolves (its kernels too), verifies or filters,
    # moved to every lo' with the same (lo == 1, hi == N) flags in algebras
    # with N and N + 3 vertices, gives the same class results at each
    # placement; lo = 2 stands beside lo = 3, and hi = N - 1 beside a
    # generic hi, as QuiverModule.key says
    modules = {}
    once, verify = qe._once, QuiverModule.verify

    def recording_once(key, fn, *args):
        if key[0] in (qe._STEP, qe._DELTA):
            module = _step_module(args) if key[0] == qe._STEP else args[1]
            modules.setdefault(module.key, module)
        return once(key, fn, *args)

    def recording_verify(self):
        modules.setdefault(self.key, self)
        return verify(self)

    monkeypatch.setattr(qe, "_once", recording_once)
    monkeypatch.setattr(QuiverModule, "verify", recording_verify)
    assert verify_model_properties(n)["all_pass"]
    monkeypatch.setattr(qe, "_once", once)
    monkeypatch.setattr(QuiverModule, "verify", verify)
    algebras = [build_model_algebra(n), build_model_algebra(n + 3)]
    seen = Counter()
    for m in modules.values():
        flags, width = (m.lo == 1, m.hi == n), len(m._dims)
        want = None
        for alg in algebras:
            for lo in range(1, alg.N - width + 2):
                hi = lo + width - 1
                if (lo == 1, hi == alg.N) != flags:
                    continue
                got = _class_results(alg, QuiverModule(alg, lo, m._dims, m._act))
                want = want or got
                assert got == want, (m.lo, m._dims, alg.N, lo)
                seen["lo", min(lo, 3)] += 1
                seen["hi", min(alg.N - hi, 2)] += 1
    # lo = 1, 2 and >= 3, and hi = N, N - 1 and below, each met
    assert len(modules) > 10 and len(seen) == 6, seen


def test_ext_memo_tells_apart_pairs_a_coarser_key_would_merge():
    # pairs the report never makes: Delta_N resolved to five terms ends there
    # at N = 5 and not at N = 6, from one first module's class, and
    # Delta_{N-1} and its dual share their dims and place
    ended = []
    for n in (5, 6):
        alg = build_model_algebra(n)
        res = minimal_projective_resolution(alg, standard(alg, n), 5)
        ended.append(res.terminated)
        for x in (simple(alg, n - 2), standard(alg, n - 1), costandard(alg, n - 1)):
            assert _hom_complex_ext(res, x, 3) == qe.ExtResult(*qe._hom_complex_dims(res, x, 3))
    assert ended == [True, False] and sum(k[0] == qe._EXT for k in qe._RESULTS) == 6


@pytest.mark.parametrize("bound", (None, 3))
def test_warm_class_results_give_cold_reports(bound, monkeypatch):
    # reports at N = 1..24 in a shuffled order, the memo warm, against the
    # same reports each computed with the memo emptied first; a miss that
    # would pass a bound of 3 empties the memo, mid-report too
    order = list(range(1, 25))
    random.Random(19).shuffle(order)
    cold = {}
    for n in order:
        qe._RESULTS.clear()
        cold[n] = verify_model_properties(n)
    if bound:
        monkeypatch.setattr(qe, "_RESULTS_BOUND", bound)
    memo = _CountingMemo()
    monkeypatch.setattr(qe, "_RESULTS", memo)
    for n in order:
        assert verify_model_properties(n) == cold[n], n
        if n in PINNED_REPORTS:
            blob = json.dumps(cold[n], sort_keys=True).encode()
            assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[n], n
    assert _plain_data(memo) and memo.peak == (bound or len(memo))
    assert len(memo.misses) > len(memo) if bound else len(set(memo.misses)) == len(memo.misses)


def test_stored_zero_kernel_builds_no_module(monkeypatch):
    # a projective's cover is an isomorphism: its one step ends in the zero
    # kernel, which a read of the stored step, P_5 as P_4 moved, does not build
    alg = build_model_algebra(7)
    first = minimal_projective_resolution(alg, projective(alg, 4), 3)
    p5 = projective(alg, 5)
    built = []
    init = QuiverModule.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    res = minimal_projective_resolution(alg, p5, 3)
    assert res.terminated and res.gens == [(5,)] and built == []
    assert res.key == first.key == (p5.key, 3)


@pytest.mark.parametrize("n", range(1, 17))
def test_walked_keys_are_the_keys_of_the_stepped_modules(n, monkeypatch):
    # every step a report reads, the module's own and each kernel's: the key
    # the walk carries (a stored kernel key and the end flags of its new lo)
    # is the key of the module built from the same lo, dims and arrows
    once, reads = qe._once, []

    def checked_once(key, fn, *args):
        if key[0] == qe._STEP:
            module = _step_module(args)
            assert key[1] == module.key, (module.lo, module._dims)
            reads.append(module.lo)
        return once(key, fn, *args)

    monkeypatch.setattr(qe, "_once", checked_once)
    assert verify_model_properties(n)["all_pass"]
    # reads at vertex 1, at N and in between, wherever n allows
    assert reads and {1, n} <= set(reads) and (n < 3 or set(reads) - {1, n})


def test_a_warm_report_builds_no_module_in_a_resolution(monkeypatch):
    # a second report at N = 16 reads every step from the memo, so its
    # resolutions walk class keys and build no QuiverModule at all
    assert verify_model_properties(16)["all_pass"]
    depth, built = [0], []
    init, resolve = QuiverModule.__init__, qe.minimal_projective_resolution

    def recording_init(self, *args):
        init(self, *args)
        built.append(depth[0])

    def counted_resolve(*args):
        depth[0] += 1
        try:
            return resolve(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    monkeypatch.setattr(qe, "minimal_projective_resolution", counted_resolve)
    assert verify_model_properties(16)["all_pass"]
    assert built and not any(built)


def test_a_model_block_pass_builds_at_most_1353_modules(monkeypatch):
    # the 42 reports of the benchmark's model_block pass at seed 1 (the
    # ladder of perfbench/workloads.py), from an empty memo as in the fresh
    # interpreter of a pass: 2,733 modules when each resolution built its
    # kernels, 1,298 when it walks class keys
    ladder = list(range(2, 17)) + list(range(2, 7)) * 2 + [7] * 12 + [13] * 5
    random.Random("model_block:1").shuffle(ladder)
    built = [0]
    init = QuiverModule.__init__

    def counting_init(self, *args):
        init(self, *args)
        built[0] += 1

    monkeypatch.setattr(qe, "_RESULTS", {})
    monkeypatch.setattr(QuiverModule, "__init__", counting_init)
    for n in ladder:
        assert verify_model_properties(n)["all_pass"], n
    assert built[0] <= 1353, built[0]


# The step memo before it was keyed by translation class: one step per
# content, a module's dims and live arrow matrices, and the resolution loop
# walking those steps, on the N-length route.


def _content_keyed_step(algebra, module, memo):
    live = nl._live(algebra, module.dims)
    key = (module.dims, *(tuple(map(tuple, module.act[g])) for g, _, _ in live))
    if key not in memo:
        tops = nl.top_generators(module)
        ps = nl.ProjectiveSum(algebra, tuple(v for v, _ in tops))
        cov = nl.cover_map(ps, module, [(v, qe._unit(module.dims[v - 1], t)) for v, t in tops])
        incl = [
            nl._from_cols(el.nullspace(c), d) if d and m else el.identity(d) if d else []
            for c, d, m in zip(cov, ps.dims, module.dims)
        ]
        memo[key] = (ps, tops, incl, nl._restrict(ps.module, incl))
    return memo[key]


def _content_keyed_resolution(algebra, module, max_terms, memo):
    gens, images = [], []
    cur, incl_prev = module, None
    for _ in range(max_terms):
        if cur.total_dim == 0:
            break
        ps, tops, incl, syzygy = _content_keyed_step(algebra, cur, memo)
        images.append([(v, qe._unit(cur.dims[v - 1], t) if incl_prev is None else
                        [row[t] for row in incl_prev[v - 1]]) for v, t in tops])
        gens.append(ps.gen_vertices)
        cur, incl_prev = syzygy, incl
    return gens, images, cur.total_dim == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_translation_keyed_steps_match_content_keyed_steps(n, monkeypatch):
    # every step read and every resolution of the report, in the report's
    # order, against the content-keyed route, which steps every term in full
    memo: dict = {}
    stepped = []
    resolve, once = qe.minimal_projective_resolution, qe._once

    def checked_once(key, fn, *args):
        got = once(key, fn, *args)
        if key[0] != qe._STEP:
            return got
        alg, module = args[0], _step_module(args)
        tops, incl, cover, kernel = got
        want_ps, want_tops, want_incl, want_syzygy = _content_keyed_step(alg, module, memo)
        assert [(module.lo + r, t) for r, t in tops] == want_tops, module.dims
        assert cover == want_ps.module.total_dim, module.dims
        if kernel is None:  # the zero kernel that ends a resolution
            assert incl == [] and want_syzygy.total_dim == 0, module.dims
        else:
            # the engine keeps the inclusions at the kernel's vertices; off
            # them the kernel is zero
            at, act, tail = kernel
            syzygy = QuiverModule(alg, module.lo + at, tail[0], act)
            assert tail == syzygy.key[2:], module.dims
            lo, hi = syzygy.lo, syzygy.hi
            ps = ProjectiveSum(alg, tuple(v for v, _ in want_tops))
            got_incl = _n_length(ps.module, incl, lo)
            assert got_incl[lo - 1 : hi] == want_incl[lo - 1 : hi], module.dims
            assert not any(m and m[0] for m in want_incl[: lo - 1] + want_incl[hi:])
            assert _content(syzygy) == _content(want_syzygy) and syzygy.verify(), module.dims
        stepped.append(module)
        return got

    def checked_resolve(alg, module, max_terms):
        res = resolve(alg, module, max_terms)
        want = _content_keyed_resolution(alg, module, max_terms, memo)
        assert (res.gens, res.images, res.terminated) == want, module.dims
        return res

    monkeypatch.setattr(qe, "_once", checked_once)
    monkeypatch.setattr(qe, "minimal_projective_resolution", checked_resolve)
    assert verify_model_properties(n)["all_pass"]
    # supports starting at vertex 1 and at vertex 2 and ending at N, and
    # steps served at another offset than they were computed at
    firsts = {m.dims.index(next(d for d in m.dims if d)) for m in stepped}
    assert {0, 1} <= firsts or n == 1
    assert any(m.dims[-1] for m in stepped)
    classes = {_translation_class(m) for m in stepped}
    assert len(classes) < len({_content(m) for m in stepped}) or n < 5


def _small_modules(alg):
    # simples, standards, costandards and the sums of one to three projectives
    n = alg.N
    yield from (make(alg, i) for make in (simple, standard, costandard) for i in range(1, n + 1))
    for size in (1, 2, 3):
        for gens in combinations_with_replacement(range(1, n + 1), size):
            yield ProjectiveSum(alg, gens).module


@pytest.mark.parametrize("n", range(1, 6))
def test_generators_only_last_terms_match_full_step_loop(n):
    # the content-keyed loop covers, and restricts the kernel of, every term,
    # the last too; the engine places no kernel for the last term and takes
    # termination from dim P - dim M.  Ascending max_terms reads stored steps
    # further down each resolution, descending reads them all first, and
    # one-term resolutions in reverse order store steps that translates
    # further down read
    ends = Counter()
    for plan in ("up", "down", "moved"):
        alg, memo = build_model_algebra(n), {}
        mods = list(_small_modules(alg))
        if plan == "moved":
            calls = [(m, 1) for m in reversed(mods)] + [(m, 4) for m in mods]
        else:
            ks = range(5) if plan == "up" else range(4, -1, -1)
            calls = [(m, k) for m in mods for k in ks]
        for m, k in calls:
            res = minimal_projective_resolution(alg, m, k)
            want = _content_keyed_resolution(alg, m, k, memo)
            assert (res.gens, res.images, res.terminated) == want, (plan, m.dims, k)
            if k and len(res.gens) == k:
                ends[res.terminated] += 1
    # cut-off resolutions that end exactly at their last term, and others
    assert ends[True] and (ends[False] or n == 1)


@pytest.mark.parametrize("n", (3, 5, 8, 12))
def test_report_computes_no_syzygy_of_a_last_term(n, monkeypatch):
    # a resolution places the kernel of each term it goes on to cover, as the
    # class key of its next step read, and none for its last term, building
    # no module itself; each class's step is computed once per process, with
    # one _restrict, its kernel's
    resolve, step, init = qe.minimal_projective_resolution, qe._syzygy_step, QuiverModule.__init__
    once, reads = qe._once, [0]
    restricts, builders = [0], Counter()
    computed = []

    def counted_restrict(*args, _fn=qe._restrict):
        restricts[0] += 1
        return _fn(*args)

    def recording_init(self, *args):
        init(self, *args)
        builders[sys._getframe(1).f_code.co_name] += 1

    def recording_step(*args):
        computed.append(_step_module(args).key)
        return step(*args)

    def counting_once(key, fn, *args):
        reads[0] += key[0] == qe._STEP
        return once(key, fn, *args)

    def recording_resolve(alg, module, max_terms):
        before = reads[0]
        res = resolve(alg, module, max_terms)
        placed = reads[0] - before - 1 if res.gens else 0  # the first read is the module's
        assert placed == max(len(res.gens) - 1, 0), module.dims
        return res

    monkeypatch.setattr(qe, "_restrict", counted_restrict)
    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    monkeypatch.setattr(qe, "_syzygy_step", recording_step)
    monkeypatch.setattr(qe, "_once", counting_once)
    monkeypatch.setattr(qe, "minimal_projective_resolution", recording_resolve)
    for _ in range(2):
        assert verify_model_properties(n)["all_pass"]
        assert len(set(computed)) == len(computed) == restricts[0]
    assert 0 < len(computed) <= 13
    assert builders["minimal_projective_resolution"] == 0


def test_each_resolution_owns_its_images():
    alg = build_model_algebra(4)
    m = standard(alg, 3)
    first = minimal_projective_resolution(alg, m, 5)
    want = [[(v, list(vec)) for v, vec in term] for term in first.images]
    assert first.terminated and len(want) >= 2
    assert want[0] == [(3, [1])]  # the top of Delta_3 at its only coordinate
    first.images[0][0][1][0] = 99
    first.images[1][0] = (1, [99])
    # the same module, and an equal copy of it, resolve as before
    for again in (m, dual_module(dual_module(m))):
        later = minimal_projective_resolution(alg, again, 5)
        assert later.images == want
        assert later.images[0] is not first.images[0]
        assert later.images[0][0][1] is not first.images[0][0][1]


def test_no_empty_per_vertex_matrix_is_built_by_a_call(monkeypatch):
    # spans, covers and kernels give a vertex without rows [], and a
    # Hom-complex differential between spaces one of which is zero is not
    # built at all
    callers = []
    zeros, identity = el.zeros, el.identity

    def rows_zeros(m, n):
        if not m:
            callers.append(sys._getframe(1).f_code.co_name)
        return zeros(m, n)

    def rows_identity(n):
        if not n:
            callers.append(sys._getframe(1).f_code.co_name)
        return identity(n)

    monkeypatch.setattr(el, "zeros", rows_zeros)
    monkeypatch.setattr(el, "identity", rows_identity)
    assert verify_model_properties(8)["all_pass"]
    assert callers == []


# The span route before spans were taken in one pass over the path basis:
# close the seeds under the arrows breadth first, testing each candidate
# vector against the span so far with a fresh rank.


def _bfs_span_matrices(module, vectors):
    a = module.algebra
    # an int seed c is the c-th unit vector at its vertex
    vectors = [(v, qe._unit(module.dims[v - 1], c) if type(c) is int else c) for v, c in vectors]
    spans = [[] for _ in range(a.N)]

    def add(v, vec):
        span = spans[v]
        if all(x == 0 for x in vec) or el.rank(span + [vec]) == len(span):
            return False
        span.append(list(vec))
        return True

    frontier = [(v - 1, vec) for v, vec in vectors if add(v - 1, vec)]
    while frontier:
        new_frontier = []
        for v, vec in frontier:
            for g, w in a._out[v]:
                if module.dims[w]:
                    img = el.mat_vec(module.act[g], vec)
                    if add(w, img):
                        new_frontier.append((w, img))
        frontier = new_frontier
    return [nl._from_cols(sp, d) for sp, d in zip(spans, module.dims)]


def _same_column_spaces(got, want, dims):
    # per vertex: got's columns are independent and span what want's span
    for g, w, d in zip(got, want, dims):
        g_cols, w_cols = el.transpose(g), el.transpose(w)
        if not d:
            assert g == w == [], (g, w)
            continue
        assert len(g) == len(w) == d
        r = el.rank(g_cols) if g_cols else 0
        assert r == len(g_cols), "dependent columns"
        assert r == (el.rank(w_cols) if w_cols else 0)
        assert r == (el.rank(g_cols + w_cols) if r else 0)


def _trace_seeds(module, j):
    # every unit vector at the vertices <= j: the seeds of the trace of j
    return [(v, u) for v in range(1, j + 1) for u in el.identity(module.dims[v - 1])]


def _random_seeds(rng, module, count):
    support = [v for v, d in enumerate(module.dims, start=1) if d]
    return [
        (v, [rng.randint(-2, 2) for _ in range(module.dims[v - 1])])
        for v in rng.choices(support, k=count)
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_one_pass_spans_match_bfs_closure(n, monkeypatch):
    # every span the report takes, and seeded random seed sets in every
    # module it builds, on both routes
    built, calls = [], []
    init, span = QuiverModule.__init__, qe._span_matrices

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    def checked_span(module, vectors):
        got = span(module, vectors)
        want = _bfs_span_matrices(module, vectors)
        _same_column_spaces(_n_length(module, got), want, module.dims)
        calls.append(module)
        return got

    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    monkeypatch.setattr(qe, "_span_matrices", checked_span)
    assert verify_model_properties(n)["all_pass"]
    assert n == 1 or len(calls) >= n
    rng = random.Random(n)
    for m in built:
        if not m.total_dim:
            continue
        for count in (1, 2, 4):
            seeds = _random_seeds(rng, m, count)
            got = _n_length(m, span(m, seeds))
            _same_column_spaces(got, _bfs_span_matrices(m, seeds), m.dims)


def test_one_pass_spans_on_sums_of_projectives():
    # larger spans than the report takes: random seeds and every trace
    rng = random.Random(2016)
    alg = build_model_algebra(5)
    for gens in [(2, 2, 3), (1, 5, 3, 3), (4,) * 5, (1, 2, 3, 4, 5)]:
        m = ProjectiveSum(alg, gens).module
        for count in (1, 3, 6):
            seeds = _random_seeds(rng, m, count)
            got = _n_length(m, qe._span_matrices(m, seeds))
            _same_column_spaces(got, _bfs_span_matrices(m, seeds), m.dims)
        for j in range(1, 6):
            want = _bfs_span_matrices(m, _trace_seeds(m, j))
            _same_column_spaces(_n_length(m, qe._trace_span(m, j)), want, m.dims)


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_reads_columns_like_unit_vector_seeds(n, monkeypatch):
    # the trace of every module the report builds, and of sums of
    # projectives, for every max vertex: unit seeds read columns of the
    # actions and give the same matrices as unit vectors multiplied through
    built = []
    init = QuiverModule.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    assert verify_model_properties(n)["all_pass"]
    alg = build_model_algebra(n)
    built += [ProjectiveSum(alg, gens).module for gens in [tuple(range(1, n + 1)), (n,) * 3]]
    monkeypatch.undo()
    for m in built:
        for j in range(1, n + 1):
            assert qe._trace_span(m, j) == qe._span_matrices(m, _trace_seeds(m, j)), m.dims
    # a trace multiplies no vector through
    monkeypatch.setattr(el, "mat_vec", None)
    for m in built:
        qe._trace_span(m, n)


def _count_eliminations(monkeypatch):
    counts = {"rank": 0, "fraction_free_echelon": 0}
    for name in counts:
        fn = getattr(el, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(el, name, counted)
    return counts


def test_span_makes_one_elimination_per_vertex_and_no_rank(monkeypatch):
    alg = build_model_algebra(6)
    modules = [ProjectiveSum(alg, (2, 3, 3, 5)).module] + [
        make(alg, i) for make in (projective, standard, costandard) for i in range(1, 7)
    ]
    counts = _count_eliminations(monkeypatch)
    rng = random.Random(7)
    for m in modules:
        for seeds in [_random_seeds(rng, m, 3), *(_trace_seeds(m, j) for j in range(1, 7))]:
            before = dict(counts)
            qe._span_matrices(m, seeds)
            assert counts["rank"] == before["rank"]
            support = sum(1 for d in m.dims if d)
            assert counts["fraction_free_echelon"] - before["fraction_free_echelon"] <= support


def test_delta_multiplicities_of_forty_summands(monkeypatch):
    # formerly one rank per candidate vector, seconds of elimination; now one
    # elimination per support vertex of each trace taken
    alg = build_model_algebra(3)
    m = ProjectiveSum(alg, (2,) * 40).module
    assert m.dims == (40, 80, 40)
    for j in (1, 2, 3):
        standard(alg, j)  # its quotient is stored per class, before counting
    counts = _count_eliminations(monkeypatch)
    assert delta_multiplicities(alg, m) == [40, 40, 0]
    # the trace of vertex 1 lives on vertices 1 and 2, that of 1 and 2 on all
    # three; the trace of all three is not taken, the module being exhausted
    assert counts == {"rank": 0, "fraction_free_echelon": 5}


@pytest.mark.parametrize("n", range(1, 9))
def test_ii_reads_tops_off_the_tilting_resolutions(n, monkeypatch):
    # T_{i-1} = P_i, whose resolution's first term is its projective cover
    alg = build_model_algebra(n)
    for i in range(2, n + 1):
        res = minimal_projective_resolution(alg, tilting(alg, i - 1), n + 2)
        assert res.gens[0] == (i,)
        assert res.gens[0] == tuple(v for v, _ in top_generators(projective(alg, i)))
    # the report reads every top through a resolution step
    callers = []
    tops = qe.top_generators

    def recording_tops(module):
        callers.append(sys._getframe(1).f_code.co_name)
        return tops(module)

    monkeypatch.setattr(qe, "top_generators", recording_tops)
    qe._RESULTS.clear()  # a cold memo, which the resolutions above warmed
    assert verify_model_properties(n)["checks"]["ii_universal_extensions"]
    assert callers and set(callers) == {"_syzygy_step"}
    if n == 1:
        return
    # a second generator on the cover of P_2 = T_1 fails (ii) and nothing else
    resolve = qe.minimal_projective_resolution

    def doubled_top(alg, module, max_terms):
        res = resolve(alg, module, max_terms)
        if max_terms == n + 2 and res.gens[0] == (2,):
            res.gens[0] = (2, 2)
        return res

    monkeypatch.setattr(qe, "minimal_projective_resolution", doubled_top)
    checks = verify_model_properties(n)["checks"]
    assert [k for k, ok in checks.items() if not ok] == ["ii_universal_extensions"]


def _direct_sum(alg, modules):
    # block-diagonal arrow matrices, the summands in order
    dims = tuple(sum(m.dims[v] for m in modules) for v in range(alg.N))
    act = {}
    for g in _live_arrows(alg, dims):
        s, t = alg.src[g] - 1, alg.tgt[g] - 1
        act[g] = _block_diag(
            [m.action(g) for m in modules],
            [m.dims[t] for m in modules],
            [m.dims[s] for m in modules],
        )
    return _module(alg, dims, act)


def _ext_by_hom_spaces(alg, plain, target, max_degree):
    # Ext^k from the plain route's differentials: each basis map of
    # Hom(P_t, X), found by the Hom-space oracle, composed with d_{t+1}
    gens, _, diffs, terminated = plain
    terms = [ProjectiveSum(alg, g).module for g in gens]
    homs = [hom_space(p, target) for p in terms]

    def rank(t):
        if t < 0 or t + 1 >= len(terms):
            return 0
        nxt = terms[t + 1]
        rows = [
            [x for v in range(alg.N) for row in _mm(phi[v], diffs[t + 1][v], nxt.dims[v])
             for x in row]
            for phi in homs[t]
        ]
        return el.rank(rows) if rows and rows[0] else 0

    dims = [len(h) for h in homs] + [0] * (max_degree + 1)
    ext = tuple(dims[k] - rank(k) - rank(k - 1) for k in range(max_degree + 1))
    return qe.ExtResult(ext, not terminated)


@pytest.mark.parametrize("n", range(2, 6))
def test_direct_sums_resolve_and_ext_like_the_plain_route(n):
    # syzygies with several generators at one vertex, whose images are
    # columns past the first of the kernel inclusion, and Ext into targets
    # that are not simple, against the Hom spaces of the plain route's terms
    alg = build_model_algebra(n)
    makes = (simple, standard, costandard, tilting)
    sums = [_direct_sum(alg, [make(alg, i)] * 2) for make in makes for i in range(1, n + 1)]
    sums += [_direct_sum(alg, [make(alg, i) for i in range(1, n + 1)]) for make in makes]
    targets = [make(alg, i) for make in (standard, costandard, simple) for i in range(1, n + 1)]
    wide = 0
    for m in sums:
        assert m.verify()
        res = minimal_projective_resolution(alg, m, 4)
        terms = [ProjectiveSum(alg, g).module for g in res.gens]
        diffs = [
            nl.cover_map(nl.ProjectiveSum(alg, g), target, images)
            for g, target, images in zip(res.gens, [m] + terms, res.images)
        ]
        plain = _plain_resolution(alg, m, 4)
        assert (res.gens, [p.dims for p in terms], diffs, res.terminated) == plain
        wide += any(len(set(g)) < len(g) for g in res.gens[1:])
        for x in targets:
            want = _ext_by_hom_spaces(alg, plain, x, 2)
            assert _hom_complex_ext(res, x, 2) == want, (m.dims, x.dims)
            assert ext_groups(alg, m, x, 2) == want
    assert wide > 0


# Interval modules: a module is lo plus its dims and live arrows on [lo, hi].
# The N-length route (``n_length_engine``, the engine before this form) is
# the oracle of everything the report builds.


def _recording(monkeypatch, engine):
    # in call order: every module the engine builds, with whether a class
    # computation built it (a step; on the interval route also a standard's
    # quotient); the module, max_terms, generators, images and termination
    # of every resolution; and the module and generators of every step read.
    # A resolution's reads after its first are of the kernels of the terms
    # before, so the reads compare every kernel a resolution goes on to cover
    built, resolved, stepped = [], [], []
    depth = [0]
    init, resolve = engine.QuiverModule.__init__, engine.minimal_projective_resolution

    def recording_init(self, *args):
        init(self, *args)
        built.append((self, depth[0] > 0))

    def inside(fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapper

    def recording_resolve(alg, module, max_terms):
        res = resolve(alg, module, max_terms)
        resolved.append((_content(module), max_terms, res.gens, res.images, res.terminated))
        return res

    if engine is qe:
        once = qe._once

        def recording_once(key, fn, *args):
            got = once(key, fn, *args)
            if key[0] == qe._STEP:
                module = _step_module(args)
                stepped.append((_content(module), [(module.lo + r, t) for r, t in got[0]]))
            return got

        monkeypatch.setattr(qe, "_once", recording_once)
        for name in ("_syzygy_step", "_standard_quotient"):
            monkeypatch.setattr(qe, name, inside(getattr(qe, name)))
    else:
        step = inside(nl._syzygy_step)

        def recording_step(alg, module, full=True):
            out = step(alg, module, full)
            stepped.append((_content(module), out[0]))
            return out

        monkeypatch.setattr(nl, "_syzygy_step", recording_step)
    monkeypatch.setattr(engine.QuiverModule, "__init__", recording_init)
    monkeypatch.setattr(engine, "minimal_projective_resolution", recording_resolve)
    return built, resolved, stepped


@pytest.mark.parametrize("n", range(1, 17))
def test_interval_modules_match_the_n_length_route(n, monkeypatch):
    built, resolved, stepped = _recording(monkeypatch, qe)
    want_built, want_resolved, want_stepped = _recording(monkeypatch, nl)
    got = json.dumps(verify_model_properties(n), sort_keys=True)
    assert got == json.dumps(nl.verify_model_properties(n), sort_keys=True)
    assert resolved == want_resolved and stepped == want_stepped
    # class computations run once per process, so the interval route builds
    # fewer modules; every module it builds outside them, the N-length route
    # builds too
    outside = {_content(m) for m, inside in built if not inside}
    assert outside and outside <= {_content(m) for m, _ in want_built}
    assert all(m.total_dim == sum(m.dims) for m, _ in built)


def test_report_modules_store_data_on_their_support_only(monkeypatch):
    # every module and sum of projectives the report builds at N = 64 keeps
    # per-vertex data on its support interval [lo, hi] alone, and reads the
    # action of a basis element with both ends there only
    n = 64
    built, sums, reads = [], [], []
    init, ps_init, action = QuiverModule.__init__, ProjectiveSum.__init__, QuiverModule.action

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    def recording_ps_init(self, *args):
        ps_init(self, *args)
        sums.append(self)

    def recording_action(self, b):
        reads.append((self, b))
        return action(self, b)

    monkeypatch.setattr(QuiverModule, "__init__", recording_init)
    monkeypatch.setattr(ProjectiveSum, "__init__", recording_ps_init)
    monkeypatch.setattr(QuiverModule, "action", recording_action)
    assert verify_model_properties(n)["all_pass"]
    alg = built[0].algebra
    assert len(built) > 4 * n and len(sums) >= n and reads
    for m in built:
        w = m.hi - m.lo + 1
        assert len(m._dims) == w and (w == 0 or m._dims[0] and m._dims[-1]), (m.lo, m._dims)
        assert set(m._act) <= set(range(2 * w - 2))
        assert all(len(x) < n for x in vars(m).values() if hasattr(x, "__len__"))
    for m, b in reads:
        ends = [alg.src[b] - m.lo, alg.tgt[b] - m.lo]
        assert all(0 <= p < len(m._dims) and m._dims[p] for p in ends), (m.lo, m._dims, alg.labels[b])
    for ps in sums:
        lo, hi = max(min(ps.gen_vertices) - 1, 1), min(max(ps.gen_vertices) + 1, n)
        assert (ps.module.lo, ps.module.hi) == (lo, hi) and len(ps._pos) == hi - lo + 1
        assert all(len(x) < n for x in vars(ps).values() if hasattr(x, "__len__"))


def test_moving_a_module_sets_lo_only():
    alg = build_model_algebra(9)
    d3 = standard(alg, 3)
    for i in range(4, 8):  # P_i for 3 <= i <= N - 2 has one class
        d = standard(alg, i)
        assert d.lo == d3.lo + i - 3 and d._dims is d3._dims and d._act is d3._act
        assert d.dims == d3.dims[-(i - 3):] + d3.dims[: -(i - 3)]
    # the views read back at lo = 1 place the same data, trimmed to the support
    m = _module(alg, standard(alg, 5).dims, standard(alg, 5).act)
    assert (m.lo, m.hi, m._dims, m._act) == (5, 6, d3._dims, d3._act)


def test_resolution_reaching_an_end_in_a_later_term():
    # at N = 5, L_3's third term reaches both ends; its steps must not be
    # taken for those of L_4 and L_2, whose supports touch an end earlier
    want = [(3,), (2, 4), (1, 3, 5)]
    for first in ((), (4, 2)):
        alg = build_model_algebra(5)
        for i in first:
            minimal_projective_resolution(alg, simple(alg, i), 3)
        assert minimal_projective_resolution(alg, simple(alg, 3), 3).gens == want


@pytest.mark.parametrize("n", range(1, 9))
def test_resolutions_do_not_depend_on_call_order(n):
    # every simple, standard and projective resolved to N + 2 terms, forward
    # and in reverse order on one algebra, against a fresh algebra each
    def modules(alg):
        return [make(alg, i) for make in (simple, standard, projective) for i in range(1, n + 1)]

    def resolve(alg, m):
        res = minimal_projective_resolution(alg, m, n + 2)
        return res.gens, res.images, res.terminated

    count = 3 * n
    fresh = []
    for k in range(count):
        alg = build_model_algebra(n)
        fresh.append(resolve(alg, modules(alg)[k]))
    for order in (range(count), range(count - 1, -1, -1)):
        alg = build_model_algebra(n)
        mods = modules(alg)
        for k in order:
            assert resolve(alg, mods[k]) == fresh[k], (order, k)


@pytest.mark.parametrize("n", (1, 2, 4))
def test_linear_order_check_matches_the_dense_comparison(n, monkeypatch):
    # (i) checks each standard-multiplicity row without building the expected
    # table; on tables with one entry moved by +-1, or one row None, it must
    # agree with the dense comparison against the bidiagonal table
    expected = [[int(j in (i - 1, i)) for j in range(n)] for i in range(n)]
    delta = qe.delta_multiplicities
    changes = [(i, j, d) for i in range(n) for j in range(n) for d in (1, -1)]
    changes += [(i, None, None) for i in range(n)] + [(None, None, None)]
    for i, j, d in changes:
        def altered(alg, m, _i=i, _j=j, _d=d):
            row = delta(alg, m)
            if _i is None or _content(m) != _content(projective(alg, _i + 1)):
                return row
            if _j is None:
                return None
            row[_j] += _d
            return row

        monkeypatch.setattr(qe, "delta_multiplicities", altered)
        out = verify_model_properties(n)
        dense = out["report"]["standard_multiplicities"] == expected
        assert out["checks"]["i_linear_order"] == dense, (i, j, d)
        assert dense == (i is None)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_linear_order_check_reads_where_each_standard_starts(n, monkeypatch):
    # the multiplicity rows patched to the right ones, and Delta_j placed a
    # vertex low: its top is still a 1, so only the lo == j clause of (i) can
    # see it
    rows = [[int(j in (i - 1, i)) for j in range(n)] for i in range(n)]
    def right_rows(alg, module):  # the report asks for those of each projective
        (i,) = [i for i in range(n) if _content(projective(alg, i + 1)) == _content(module)]
        return rows[i]

    monkeypatch.setattr(qe, "delta_multiplicities", right_rows)
    assert verify_model_properties(n)["checks"]["i_linear_order"]
    make = qe._standard
    for low in range(2, n + 1):
        def placed_low(p, i, _low=low):
            s = make(p, i)
            return QuiverModule(s.algebra, s.lo - 1, s._dims, s._act) if i == _low else s

        monkeypatch.setattr(qe, "_standard", placed_low)
        out = verify_model_properties(n)
        assert out["report"]["standard_multiplicities"] == rows, low
        assert out["report"]["standard_dim_vectors"][low - 1][low - 2] == 1, low
        assert not out["checks"]["i_linear_order"], low


@pytest.mark.parametrize(
    "dims, vertex",
    [((1, 0, 0, 0.5), 4), ((1, -1, 0, 0), 2), ((True, 0), 1), ((1, "2"), 2), ((0, None), 2)],
)
def test_constructor_rejects_dims_that_are_not_non_negative_ints(dims, vertex):
    # formerly a module of dimension 0.5 at vertex 4, and for -1 the
    # misleading "one matrix per live arrow"; True is not an int here
    alg = build_model_algebra(4)
    with pytest.raises(ValueError, match=f"vertex {vertex} "):
        QuiverModule(alg, 1, dims, {})
    with pytest.raises(ValueError, match=f"vertex {vertex + 1} "):
        QuiverModule(alg, 2, dims, {})


def test_constructor_rejects_support_outside_the_quiver():
    alg = build_model_algebra(4)
    d3 = standard(alg, 3)  # dims (1, 1) on [3, 4]
    for lo in (-1, 0, 4, 9):
        with pytest.raises(ValueError, match=r"does not fit in 1\.\.4"):
            QuiverModule(alg, lo, d3._dims, d3._act)
    with pytest.raises(ValueError, match="does not fit"):
        QuiverModule(alg, 1, (1, 0, 0, 0, 1), {})
    # zero ends may hang over, and the zero module sits at vertex 1 wherever it is put
    m = QuiverModule(alg, 0, (0, 1, 1, 0, 0), {2: [[0]], 3: [[1]]})  # P_1
    assert (m.lo, m.hi, m.dims, m._act) == (1, 2, (1, 1, 0, 0), {0: [[0]], 1: [[1]]})
    assert _content(m) == _content(projective(alg, 1)) and m.verify()
    for lo in (-5, 1, 7):
        zero = QuiverModule(alg, lo, (0, 0), {})
        assert (zero.lo, zero.hi, zero.dims, zero.total_dim) == (1, 0, (0,) * 4, 0)
    assert QuiverModule(alg, 3, d3._dims, d3._act).dims == d3.dims
    # lo is an int too: a float lo broke the dims view on read, and True
    # passed for 1
    for lo in (3.0, True, "3", None):
        with pytest.raises(ValueError, match="lo is not an int"):
            QuiverModule(alg, lo, d3._dims, d3._act)


def test_quotient_needs_one_column_list_per_support_vertex():
    # formerly a bare IndexError
    alg = build_model_algebra(4)
    p2 = projective(alg, 2)  # on [1, 3]
    for incl in ([], [[]] * 2, [[]] * 4):
        with pytest.raises(ValueError, match=r"one column list per vertex 1\.\.3"):
            quotient(p2, incl)
    q, proj = quotient(p2, [[]] * 3)
    assert _content(q) == _content(p2) and proj == [el.identity(d) for d in p2._dims]
    # a column of the wrong length was reported as dependent columns
    for incl, v in (([[[1, 0]], [], []], 1), ([[], [[1]], []], 2), ([[], [[1, 0, 0]], []], 2)):
        with pytest.raises(ValueError, match=f"column at vertex {v} does not have length"):
            quotient(p2, incl)


@pytest.mark.parametrize("n", range(1, 7))
def test_submodule_columns_match_the_n_length_route(n):
    # submodule's basis columns on the module's [lo, hi], and quotient's
    # projections there, against the inclusion and projection matrices of
    # the N-length route
    alg = build_model_algebra(n)
    rng = random.Random(n)
    seen = 0
    for m in _small_modules(alg):
        for count in (1, 2, 3):
            seeds = _random_seeds(rng, m, count)
            want_incl = nl._span_matrices(m, seeds)
            # a span that is not saturated over the integers makes both routes raise
            try:
                sub, incl = submodule(m, seeds)
            except InvariantError:
                assert _n_length(m, qe._span_matrices(m, seeds)) == want_incl
                with pytest.raises(InvariantError):
                    nl.submodule(m, seeds)
                continue
            want_sub, _ = nl.submodule(m, seeds)
            assert len(incl) == len(m._dims)
            assert _n_length(m, incl) == want_incl, (m.dims, seeds)
            assert _content(sub) == _content(want_sub)
            try:
                q, proj = quotient(m, incl)
            except InvariantError:
                with pytest.raises(InvariantError):
                    nl.quotient(m, want_incl)
                continue
            want_q, want_proj = nl.quotient(m, want_incl)
            assert _content(q) == _content(want_q)
            assert [[]] * (m.lo - 1) + proj + [[]] * (n - m.hi) == want_proj
            seen += 1
    assert seen > 0
