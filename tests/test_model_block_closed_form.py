"""The whole ``verify_model_properties(N)`` report in closed form.

Each value is derived here from the algebra's relations, as the module
docstring of ``gieseker.quiver_engine`` states them, and not read off the
engine's output.  The engine's own oracles stop at N <= 16 and the pinned
hashes at a fixed list, so this is an independent route at every N.

* **Dimension.**  The basis is e_i (N of them), a(i, i +- 1) (2(N - 1)) and
  l_i for i >= 2 (N - 1): 4N - 3.
* **Projectives.**  P_i = A e_i has the paths starting at i as its basis:
  e_i and, for i >= 2, l_i at vertex i; a(i - 1, i) at i - 1 and
  a(i + 1, i) at i + 1, where those vertices exist.  So row i of the Cartan
  matrix is 1 + [i >= 2] on the diagonal and 1 at |i - l| = 1, and dim P_i
  is 2 at i = 1 (1 when N = 1), 4 for 1 < i < N and 3 at i = N >= 2.
* **D bidiagonal.**  Delta_i is P_i modulo the trace of the vertices below
  i, the submodule generated by a(i - 1, i), the one path of P_i ending
  below i.  a(i, i - 1) sends it to a(i, i - 1) a(i - 1, i) = l_i and
  a(i - 2, i - 1) to a monotone path, 0; so the trace is <a(i - 1, i), l_i>
  and Delta_i = <e_i, a(i + 1, i)>.  Its dimension vector is 1 at i and at
  i + 1 <= N: D[j][l] = [l in {j, j + 1}], upper bidiagonal, and dim
  Delta_j is 2 for j < N and 1 at j = N.  The costandards are the duals
  twisted by the arrow swap, with the same dimension vectors.
* **Tiltings.**  T_i = P_{i+1} for i < N and T_N = Delta_N: dims
  4, ..., 4, 3, 1 for N >= 2 and [1] at N = 1.
* **standard_multiplicities = D^T.**  BGG reciprocity gives
  [P_i : Delta_j] = [nabla_j : L_i] = D[j][i]: row i is 1 at j = i - 1
  and j = i.  Directly: the trace above is Delta_{i-1} (e_{i-1} to
  a(i - 1, i), a(i, i - 1) to l_i), so 0 -> Delta_{i-1} -> P_i -> Delta_i
  -> 0.
* **Cartan = D^T D.**  (D^T D)[i][l] counts the j with i, l in {j, j + 1}:
  1 + [i >= 2] on the diagonal and 1 at |i - l| = 1, the projectives' rows.
* **Ext^1 on the doubled path.**  The relations lie in the square of the
  arrow ideal (l_i is the length-2 path a(i, i - 1) a(i - 1, i)), so
  rad P_i / rad^2 P_i has one basis vector per arrow leaving i,
  a(i +- 1, i).  The second term of L_i's minimal resolution is therefore
  P_{i-1} + P_{i+1} within 1..N, and Ext^1(L_i, L_j) = [|i - j| = 1],
  zero on the diagonal.
* **iv_ext_dims in degree N - 1.**  Omega Delta_i = Delta_{i-1} by the
  sequence above, and Delta_1 = P_1 is projective, so Delta_N's minimal
  resolution is 0 -> P_1 -> ... -> P_N -> Delta_N with P_{N-k} in degree
  k.  Every other tilting is a projective with top L_{i+1}, not L_1.  So
  the sum over the tiltings of dim Ext^k(T, L_1), listed for k = 0..N + 1,
  is 1 at k = N - 1 and 0 elsewhere: the degree is N - 1, never N.
* **(v) summand N, simples 1..N - 1.**  Only Delta_N has a term in a degree
  >= 1, and only for N >= 2; those terms are generated at N - 1, ..., 1.
  So the one summand is N and the simples hit are 1..N - 1, a single simple
  only at N = 2.  At N = 1 the tilting is P_1 and both lists are empty.
* **Checks.**  Every property checked holds, so every check is true.
"""

import pytest

from gieseker import verify_model_properties

CHECKS = (
    "associative", "dimension", "ext1_double_path", "ext1_no_self_extensions",
    "i_linear_order", "ii_universal_extensions", "iii_tiltings", "iv_single_degree",
    "iv_two_routes_agree", "k0_classes", "module_axioms", "opposite_antiautomorphism",
    "projectives_partition_algebra", "relations", "v_unique_summand_with_higher_ext",
)


def closed_form_report(n: int) -> dict:
    """``verify_model_properties(n)`` from the forms in the module docstring."""
    rng = range(n)  # 0-based vertices
    d = [[int(l in (j, j + 1)) for l in rng] for j in rng]
    cartan = [[0] * n for _ in rng]  # D^T D, summed over each row's support
    for row in d:
        support = [l for l in rng if row[l]]
        for i in support:
            for l in support:
                cartan[i][l] += row[i] * row[l]
    standard_dims = [2] * (n - 1) + [1]
    report = {
        "algebra_dim": 4 * n - 3,
        "projective_dims": [1] if n == 1 else [2] + [4] * (n - 2) + [3],
        "standard_dims": standard_dims,
        "costandard_dims": standard_dims,
        "tilting_dims": [1] if n == 1 else [4] * (n - 2) + [3, 1],
        "standard_dim_vectors": d,
        "standard_multiplicities": [[d[j][i] for j in rng] for i in rng],
        "cartan_matrix": cartan,
        "ext1_simples": [[int(abs(i - j) == 1) for j in rng] for i in rng],
        "iv_ext_dims": [int(k == n - 1) for k in range(n + 2)],
        "iv_degree": n - 1,
        "iv_degree_matches_vertex_count": False,
        "iv_degree_matches_vertex_count_minus_one": True,
        "v_summands_with_higher_ext": [n] if n >= 2 else [],
        "v_simples_with_higher_ext": list(range(1, n)),
        "v_unique_simple_with_higher_ext": n == 2,
    }
    checks = dict.fromkeys(CHECKS, True)
    return {"n_vertices": n, "checks": checks, "report": report, "all_pass": True}


# the two smallest cases, stated in full: at N = 1 the algebra is the field
# and every list is trivial; at N = 2, P_2 = T_1 has dims (1, 2)
STATED = {
    1: {
        "algebra_dim": 1,
        "projective_dims": [1],
        "standard_dims": [1],
        "costandard_dims": [1],
        "tilting_dims": [1],
        "standard_dim_vectors": [[1]],
        "standard_multiplicities": [[1]],
        "cartan_matrix": [[1]],
        "ext1_simples": [[0]],
        "iv_ext_dims": [1, 0, 0],
        "iv_degree": 0,
        "iv_degree_matches_vertex_count": False,
        "iv_degree_matches_vertex_count_minus_one": True,
        "v_summands_with_higher_ext": [],
        "v_simples_with_higher_ext": [],
        "v_unique_simple_with_higher_ext": False,
    },
    2: {
        "algebra_dim": 5,
        "projective_dims": [2, 3],
        "standard_dims": [2, 1],
        "costandard_dims": [2, 1],
        "tilting_dims": [3, 1],
        "standard_dim_vectors": [[1, 1], [0, 1]],
        "standard_multiplicities": [[1, 0], [1, 1]],
        "cartan_matrix": [[1, 1], [1, 2]],
        "ext1_simples": [[0, 1], [1, 0]],
        "iv_ext_dims": [0, 1, 0, 0],
        "iv_degree": 1,
        "iv_degree_matches_vertex_count": False,
        "iv_degree_matches_vertex_count_minus_one": True,
        "v_summands_with_higher_ext": [2],
        "v_simples_with_higher_ext": [1],
        "v_unique_simple_with_higher_ext": True,
    },
}


@pytest.mark.parametrize("n", sorted(STATED))
def test_stated_small_cases(n):
    want = closed_form_report(n)
    assert want["report"] == STATED[n]
    assert verify_model_properties(n) == want


@pytest.mark.parametrize("n", [*range(1, 65), 256, 512])
def test_report_matches_closed_form(n):
    # every report field, every check, and nothing besides
    assert verify_model_properties(n) == closed_form_report(n)

