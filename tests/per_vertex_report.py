"""The model-block report as it was when every row was computed per vertex.

``gieseker.quiver_engine.verify_model_properties`` reads the algebra checks
and each vertex's row off a window algebra of at most five vertices.  This
is the route it replaced, kept as the oracle of that argument: every module
of the report is built, each standard, tilting and simple is resolved, and
each check runs over all N vertices, the algebra checks as full scans,
calling the engine's functions through the module so that a test's patch of
one of them reaches this route too.  The K_0 check is the whole-list Gram
matrix of the standards.  Do not edit it to follow the engine.
"""

from __future__ import annotations

from collections import Counter

import gieseker.quiver_engine as qe
from gieseker.errors import InvariantError


def k0_classes(projectives, standards, costandards) -> bool:
    if any((s.lo, s._dims) != (c.lo, c._dims) for s, c in zip(standards, costandards)):
        return False
    # row i of D^T D sums D[j][i] D[j] over the standards j nonzero at i and
    # must be the dims of P_i; a Counter compares missing entries as 0
    gram = [Counter() for _ in projectives]
    for s in standards:
        for i, x in enumerate(s._dims, s.lo):
            for j, y in enumerate(s._dims, s.lo):
                gram[i - 1][j] += x * y
    return all(row == Counter(dict(enumerate(p._dims, p.lo))) for row, p in zip(gram, projectives))


def verify_model_properties(n_vertices: int) -> dict:
    """The engine's report, computed vertex by vertex.

    Each module is resolved once and every check reads its Ext groups off
    that resolution: each standard to three terms for the Ext^1 of (ii) and
    (iii) (Hom-complex route), each tilting to N + 2 terms for (ii), (iv), (v)
    and each simple to two terms for the Ext^1 table (multiplicity route).
    ``iv_two_routes_agree`` compares both routes on the resolution of T_N,
    which is the top standard.  A tilting resolution that fails to terminate
    raises ``InvariantError``.
    """
    a = qe.ModelAlgebra(n_vertices)
    n = a.N
    projectives, standards, costandards, tiltings = qe.model_families(a)
    simples = [qe.simple(a, i) for i in range(1, n + 1)]

    checks: dict[str, bool] = {}
    report: dict[str, object] = {}

    checks["dimension"] = a.dim == 4 * n - 3
    # the full scans of the report's own algebra, which the engine reads off a window
    checks["associative"] = a.is_associative()
    checks["relations"] = a.relations_hold()
    checks["opposite_antiautomorphism"] = a.opposite_swap_is_antiautomorphism()
    # a module met twice, such as a tilting, is verified once per class
    checks["module_axioms"] = all(
        m.verify() for m in projectives + standards + costandards + tiltings + simples
    )
    checks["projectives_partition_algebra"] = sum(m.total_dim for m in projectives) == a.dim
    report["algebra_dim"] = a.dim
    report["projective_dims"] = [m.total_dim for m in projectives]
    report["standard_dims"] = [m.total_dim for m in standards]
    report["costandard_dims"] = [m.total_dim for m in costandards]
    report["tilting_dims"] = [m.total_dim for m in tiltings]

    # (i) linear highest weight order: unitriangular standard multiplicities
    # plus each projective stacking exactly the two adjacent standards
    unitriangular = all(s.lo == j and s._dims[0] == 1 for j, s in enumerate(standards, 1))
    mults = [qe.delta_multiplicities(a, projectives[i]) for i in range(n)]
    # row i is 1 at vertices i - 1 and i and 0 elsewhere
    linear = all(
        m and m.count(0) == n - min(i, 2) and m[max(i - 2, 0) : i] == [1] * min(i, 2)
        for i, m in enumerate(mults, 1)
    )
    checks["i_linear_order"] = unitriangular and linear
    report["standard_multiplicities"] = mults

    # each tilting resolved once, for (ii), (iv) and (v)
    max_deg = n + 1
    tilting_res = [qe.minimal_projective_resolution(a, t, max_deg + 1) for t in tiltings]
    if not all(res.terminated for res in tilting_res):
        raise InvariantError(f"a tilting resolution runs past {max_deg + 1} terms at N = {n}")

    # Ext^1 out of each standard, read off one three-term resolution: into
    # the standard below it for (ii), into every tilting for (iii).  A
    # tilting T zero at every generator of the second term P_1 has
    # Hom(P_1, T) = 0, so its Ext^1 is 0 and only the others are paired.
    ext1_down = []
    nabla_filtered = True
    nonzero_at: list[list[int]] = [[] for _ in range(n)]
    for j, t in enumerate(tiltings):
        for v, d in enumerate(t._dims, start=t.lo):
            if d:
                nonzero_at[v - 1].append(j)
    for i, m in enumerate(standards, start=1):
        res = qe.minimal_projective_resolution(a, m, 3)
        if i >= 2:
            ext1_down.append(qe._hom_complex_ext(res, standards[i - 2], 1).dims[1])
        reach = {j for term in res.gens[1:2] for v in term for j in nonzero_at[v - 1]}
        nabla_filtered = nabla_filtered and all(
            qe._hom_complex_ext(res, tiltings[j], 1).dims[1] == 0 for j in sorted(reach)
        )

    # (ii) each later projective is the universal self-reproducing extension:
    # its trace sub and quotient are the adjacent standards, which (i) checked
    # as the two layers of its trace filtration; simple top; and the extension
    # space between those standards is exactly one-dimensional.  The first
    # standard is the first projective; P_i = T_{i-1} and its cover has its top.
    checks["ii_universal_extensions"] = linear and all(
        tilting_res[i - 2].gens[0] == (i,) and ext1_down[i - 2] == 1 for i in range(2, n + 1)
    )

    # (iii) tilting test: standard filtration from (i), costandard filtration
    # by vanishing of first extensions from every standard
    checks["iii_tiltings"] = nabla_filtered

    # (iv) derived Hom from the full tilting to the first simple: dimensions
    # per degree, checked for concentration in a single degree
    full = [0] * (max_deg + 1)
    for res in tilting_res:
        for k, term in enumerate(res.gens):
            full[k] += term.count(1)
    nonzero = [k for k, d in enumerate(full) if d]
    single = len(nonzero) == 1
    degree = nonzero[0] if single else None
    checks["iv_single_degree"] = single
    # the same Ext two ways on T_N = Delta_N: Hom complex and generator multiplicities
    top_res = tilting_res[n - 1]
    cross = qe._hom_complex_ext(top_res, simples[0], max_deg)
    checks["iv_two_routes_agree"] = not cross.truncated and cross.dims == tuple(
        top_res.multiplicity(k, 1) for k in range(max_deg + 1)
    )
    report["iv_ext_dims"] = full
    report["iv_degree"] = degree
    report["iv_degree_matches_vertex_count"] = degree == n
    report["iv_degree_matches_vertex_count_minus_one"] = degree == n - 1

    # (v) exactly one tilting summand carries higher extensions; the count of
    # simples hit by them is reported but not asserted
    hits = [{j for term in res.gens[1:] for j in term} for res in tilting_res]  # degrees >= 1
    summands_with_higher = [p for p, hit in enumerate(hits, start=1) if hit]
    simples_hit = set().union(*hits)
    expected_summands = [n] if n >= 2 else []
    checks["v_unique_summand_with_higher_ext"] = summands_with_higher == expected_summands
    report["v_summands_with_higher_ext"] = summands_with_higher
    report["v_simples_with_higher_ext"] = sorted(simples_hit)
    report["v_unique_simple_with_higher_ext"] = len(simples_hit) == 1

    # first extensions between simples: no self-extensions, doubled-path shape;
    # row i counts the generator vertices of the second term of L_i's resolution
    e1, double_path = [], True
    for i, m in enumerate(simples, start=1):
        first = sorted(sum(qe.minimal_projective_resolution(a, m, 2).gens[1:], ()))
        e1.append([0] * n)
        for v in first:
            e1[-1][v - 1] += 1
        double_path = double_path and first == [j for j in (i - 1, i + 1) if 1 <= j <= n]
    checks["ext1_no_self_extensions"] = all(e1[i][i] == 0 for i in range(n))
    checks["ext1_double_path"] = double_path
    report["ext1_simples"] = e1

    checks["k0_classes"] = k0_classes(projectives, standards, costandards)
    report["cartan_matrix"] = [list(p.dims) for p in projectives]
    report["standard_dim_vectors"] = [list(s.dims) for s in standards]
    all_pass = all(checks.values())
    return {"n_vertices": n, "checks": checks, "report": report, "all_pass": all_pass}
