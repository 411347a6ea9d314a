"""Exact homological verification of the model block algebra.

The algebra on N ordered vertices has basis: idempotents e_i; arrows a(i,j)
for |i - j| = 1, where a(i,j) is a map from the j-th projective to the i-th
and products compose right to left; and loops l_i at vertices i >= 2.  The
normalization fixes every structure constant to 0 or 1:

* back-and-forth through the lower neighbor: a(i,i-1) a(i-1,i) = l_i;
* back-and-forth through the upper neighbor: a(i,i+1) a(i+1,i) = l_i for
  i >= 2 and 0 for i = 1;
* monotone length-2 paths vanish; loops annihilate everything.

So End of the first projective is one-dimensional and every other End is the
dual numbers, total dimension 4N - 3.  Every module matrix is integral: the
engine computes in int, ``_solve`` raises if a module map comes out
non-integral, and Ext groups come from minimal projective resolutions.

A module has one form, an offset plus its local data: ``lo``, the first
vertex of its support (where it is nonzero), its dims on [lo, hi], and the
matrices of its live arrows (both ends in the support) keyed relative to lo;
the N dims and the arrows keyed by basis index are views for the public API.
A dead arrow acts by the empty matrix of its shape, e_i by the identity and
l_i by the composite through the lower neighbor, which ``QuiverModule.action``
computes per basis element on each call.

Each module's work, and every per-vertex list the engine builds or returns,
runs over its [lo, hi] only.  A subspace is its list of basis columns, [] at
a vertex without any.  The algebra is its multiplication rule on basis
indices, ``ModelAlgebra.product``, with no table, and the basis elements
starting and ending at each vertex, so it is built in O(N); a report checks
it once per window class, on at most six vertices.  The path basis spans the
algebra, so the paths acting on a submodule's seeds span it, and a
resolution keeps each differential as the images of its generators.

The one memo, ``_RESULTS``, is the engine's only cache: an algebra holds no
module, each call that returns a module builds it, and modules are never
mutated.  It holds one result per translation class (``QuiverModule.key``).

``Resolution`` and ``ExtResult`` are named tuples, cheap to define and to
build (see the package docstring).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from itertools import product as iproduct
from typing import NamedTuple

from . import exact_linalg as el
from .errors import InvariantError
from .exact_linalg import Matrix, Vector

Label = tuple


def _solve(a: Matrix, b: Matrix, skip: int = 0) -> Matrix:
    # rows skip.. of the X with a·X = b, which alone must be integral; an
    # inclusion matrix a has zero columns wherever it has zero rows, and a b
    # without columns has the X without columns
    if not (b and b[0]):
        return [[] for _ in (a[0] if a else ())][skip:]
    x = el.solve_matrix(a, b)
    if x is None:
        raise InvariantError("image does not lie in the column space it should")
    x = x[skip:]
    if any(type(v) is not int for row in x for v in row):
        raise InvariantError("a module map came out non-integral")
    return x


class ModelAlgebra:
    """The bound-quiver algebra of the model block on N vertices."""

    def __init__(self, n_vertices: int) -> None:
        if type(n_vertices) is not int:
            raise ValueError(f"the vertex count is not an int: {n_vertices!r}")
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        self.N = n = n_vertices
        labels: list[Label] = [("e", i) for i in range(1, n + 1)]
        for i in range(1, n):
            labels.append(("a", i, i + 1))
            labels.append(("a", i + 1, i))
        labels.extend(("loop", i) for i in range(2, n + 1))
        self.labels: tuple[Label, ...] = tuple(labels)
        self.dim = len(labels)
        self.index: dict[Label, int] = {lab: i for i, lab in enumerate(labels)}
        self.src = tuple(lab[2] if lab[0] == "a" else lab[1] for lab in labels)
        self.tgt = tuple(lab[1] for lab in labels)
        # the basis elements starting / ending at each vertex, in basis order
        self._starting: list[list[int]] = [[] for _ in range(n)]
        self._ending: list[list[int]] = [[] for _ in range(n)]
        for b in range(self.dim):
            self._starting[self.src[b] - 1].append(b)
            self._ending[self.tgt[b] - 1].append(b)
        # the arrows leaving each vertex as (arrow, other end), 0-based
        self._out = [[(g, self.tgt[g] - 1) for g in starts if n <= g < 3 * n - 2]
                     for starts in self._starting]

    def product(self, x: int, y: int) -> int | None:
        """Index of the basis product x*y, or None when it is zero or x or y is
        not a basis index: zero unless src x = tgt y; then e_i y = y, x e_i = x,
        two arrows out and back to a vertex i >= 2 give l_i, and all else is 0.

        The rule reads only the kinds (e_i, arrows from N, l_i at 3N - 4 + i),
        whether two ends are equal and whether i >= 2, and a composable triple
        spans at most four consecutive vertices.  So each check below answers
        on each window of four vertices by its class: at vertex 1, interior
        (touching neither end) or at vertex N.  At N0 = 6 every class appears
        ([1, 4], [2, 5], [3, 6]), so a report reads the checks per min(N, 6)."""
        n = self.N
        try:  # a negative index reads from the end, so it is refused after
            if self.src[x] != self.tgt[y] or x < 0 or y < 0:
                return None
        except IndexError:  # past the basis
            return None
        if x < n:
            return y
        if y < n:
            return x
        i = self.tgt[x]
        if x < 3 * n - 2 and y < 3 * n - 2 and i == self.src[y] and i >= 2:
            return 3 * n - 4 + i
        return None

    def arrows(self) -> tuple[int, ...]:
        """Basis indices of the arrows a(i,j), in basis order."""
        return tuple(range(self.N, 3 * self.N - 2))  # e_i come first, loops last

    def path_basis(self, i: int) -> list[int]:
        """Basis indices of the paths starting at vertex i, in basis order:
        the path basis of the i-th projective."""
        return self._starting[i - 1]

    def _pairs(self):
        # the pairs (x, y) with src x = tgt y, by vertex; any other product is 0
        return chain.from_iterable(map(iproduct, self._starting, self._ending))

    def is_associative(self) -> bool:
        """(xy)z = x(yz) for every basis triple.  Only composable pairs extend
        to triples: associativity with the idempotents forces each product to
        keep the outer endpoints, so any other triple is zero on both sides."""
        prod, src, ending = self.product, self.src, self._ending
        for x, y in self._pairs():
            xy = prod(x, y)
            for z in ending[src[y] - 1]:
                yz = prod(y, z)
                if (None if xy is None else prod(xy, z)) != (None if yz is None else prod(x, yz)):
                    return False
        return True

    def relations_hold(self) -> bool:
        n, ix, prod = self.N, self.index, self.product
        for i in range(1, n + 1):
            loop = ix.get(("loop", i))  # None at vertex 1
            # back and forth through the lower neighbor gives l_i, through the
            # upper one l_i too, or zero at vertex 1; monotone paths vanish
            if i > 1 and prod(ix[("a", i, i - 1)], ix[("a", i - 1, i)]) != loop:
                return False
            if i < n and prod(ix[("a", i, i + 1)], ix[("a", i + 1, i)]) != loop:
                return False
            if 1 < i < n and (prod(ix[("a", i + 1, i)], ix[("a", i, i - 1)]) is not None
                              or prod(ix[("a", i - 1, i)], ix[("a", i, i + 1)]) is not None):
                return False
        # loops annihilate every arrow and loop; a pair that is not composable
        # multiplies to zero
        loops = 3 * n - 2  # the first loop's index
        if any(n <= x and n <= y and (x >= loops or y >= loops) and prod(x, y) is not None
               for x, y in self._pairs()):
            return False
        # Hom-space dimensions: 1 off-diagonal at distance one, dual numbers on
        # the diagonal past the first vertex (e_j and l_j), zero further away;
        # compared as the sorted targets of the paths from j
        return all(sorted(self.tgt[b] for b in self.path_basis(j))
                   == [i for i in (j - 1, j, j if j >= 2 else 0, j + 1) if 1 <= i <= n]
                   for j in range(1, n + 1))

    def swap(self, b: int) -> int:
        """Arrow-reversing involution e_i -> e_i, a(i,j) -> a(j,i), l_i -> l_i."""
        n = self.N  # a(i,i+1) and a(i+1,i) sit at N + 2i - 2 and N + 2i - 1
        return n + ((b - n) ^ 1) if n <= b < 3 * n - 2 else b

    def opposite_swap_is_antiautomorphism(self) -> bool:
        # the swap reverses endpoints, so non-composable pairs stay
        # non-composable, and it is an involution on composable pairs: a pair
        # with a zero product and a nonzero mirror product is the mirror of a
        # pair that fails the test below, so zero against nonzero needs no test
        prod, swap = self.product, [self.swap(b) for b in range(self.dim)]
        for x, y in self._pairs():
            xy = prod(x, y)
            if xy is not None and swap[xy] != prod(swap[y], swap[x]):
                return False
        return True


def build_model_algebra(n_vertices: int) -> ModelAlgebra:
    """Construct the model block algebra on the given number of vertices."""
    return ModelAlgebra(n_vertices)


def _check_vertex(algebra: ModelAlgebra, i: int) -> None:
    if type(i) is not int:  # True would pass for vertex 1
        raise ValueError(f"vertex is not an int: {i!r}")
    if not 1 <= i <= algebra.N:
        raise ValueError("vertex out of range")


def _check_inputs(algebra: ModelAlgebra, *modules: QuiverModule, **counts: int) -> None:
    if any(m.algebra is not algebra for m in modules):
        raise ValueError("module belongs to another algebra")
    for name, x in counts.items():  # max_degree or max_terms
        if type(x) is not int:  # True would pass for 1, 2.5 for 3 terms
            raise ValueError(f"{name} is not an int: {x!r}")
        if x < 0:
            raise ValueError(f"{name} must be non-negative")


def _live(dims) -> list[tuple[int, int, int]]:
    # (k, s, t) for each arrow with both ends in the support: its key k
    # relative to lo and its ends s -> t as positions in the local dims
    return [x for p in range(len(dims) - 1) if dims[p] and dims[p + 1]
            for x in ((2 * p, p + 1, p), (2 * p + 1, p, p + 1))]


def _unit(d: int, t: int) -> Vector:
    return [int(x == t) for x in range(d)]


class QuiverModule:
    """Finite dimensional module on its support [lo, hi], from its one form:
    the int ``lo``, ``dims`` of the vertices lo, lo + 1, ... and ``act``, an
    integer matrix per live arrow keyed relative to lo, 2p for a(lo+p, lo+p+1)
    and 2p + 1 for a(lo+p+1, lo+p), which determine every basis element's
    action.  Zero ends are trimmed; the zero module sits at lo = 1."""

    def __init__(self, algebra: ModelAlgebra, lo: int, dims, act: dict[int, Matrix]) -> None:
        if type(lo) is not int:
            raise ValueError(f"lo is not an int: {lo!r}")
        for v, d in enumerate(dims, lo):
            if type(d) is not int or d < 0:
                raise ValueError(f"the dim at vertex {v} is not an int >= 0: {d!r}")
        support = [p for p, d in enumerate(dims) if d] or [1 - lo, -lo]  # z puts 0 at 1
        z = support[0]  # zero dims before the support move lo and the keys
        self.algebra, self.lo, self._dims = algebra, lo + z, tuple(dims[z : support[-1] + 1])
        self._act = {k - 2 * z: mat for k, mat in act.items()} if z else act
        self.hi = self.lo + len(self._dims) - 1
        if self._dims and not 1 <= self.lo <= self.hi <= algebra.N:
            raise ValueError(f"support [{self.lo}, {self.hi}] does not fit in 1..{algebra.N}")
        if set(self._act) != {k for k, _, _ in _live(self._dims)}:
            raise InvariantError("a module needs one matrix per live arrow")
        self._key = None

    @property
    def key(self) -> tuple:
        """The translation class, built on first read: whether lo = 1 and
        whether hi = N, the dims and the live arrow matrices.  Vertex N
        differs only in having no upper neighbour, and vertex 1 in lacking
        l_1 and in a(1,2) a(2,1) = 0, products acting on elements at vertex 1
        only.  For v >= 2, P_v has one basis shape (e_v, a(v-1,v), a(v+1,v)
        where it exists, l_v) and one action, and there, as in a module with
        lo >= 2, each such product is already 0, loops killing arrows.  So
        lo = 2 is generic, as hi = N - 1 is: work reading the algebra on
        [lo - 1, hi + 1] only gives equal keys, in any algebras, one answer
        up to translation.

        So a process computes such work once per key, through ``_RESULTS``,
        as local data that a module with that key places at its lo: a
        resolution step, a standard quotient, the arrows of a sum of
        projectives, ``verify``, ``delta_multiplicities`` and the Hom-complex
        Ext.  Moving a module along the quiver sets a new lo, so no report
        re-derives what an earlier one computed."""
        if self._key is None:
            self._key = (self.lo == 1, self.hi == self.algebra.N, self._dims,
                         *((k, tuple(map(tuple, m))) for k, m in sorted(self._act.items())))
        return self._key

    @property
    def dims(self) -> tuple[int, ...]:
        return (0,) * (self.lo - 1) + self._dims + (0,) * (self.algebra.N - self.hi)

    @property
    def act(self) -> dict[int, Matrix]:
        g0 = self.algebra.N + 2 * self.lo - 2  # the basis index of a(lo, lo+1)
        return {g0 + k: mat for k, mat in self._act.items()}

    @property
    def total_dim(self) -> int:
        return sum(self._dims)

    def dim_at(self, vertex: int) -> int:
        p = vertex - self.lo
        return self._dims[p] if 0 <= p < len(self._dims) else 0

    def action(self, b: int) -> Matrix:
        """The matrix of basis element b, computed on each call."""
        algebra, lo, dims, act = self.algebra, self.lo, self._dims, self._act
        lab = algebra.labels[b]
        p = lab[1] - lo
        d = dims[p] if 0 <= p < len(dims) else 0
        if lab[0] == "a":
            # a dead arrow has the empty matrix of its shape: d rows, no columns
            k = b - algebra.N - 2 * lo + 2
            return act[k] if k in act else [[] for _ in range(d)]
        if not d:
            return []
        if lab[0] == "e":
            return el.identity(d)
        if p and dims[p - 1]:  # l_i = a(i,i-1) a(i-1,i), both live
            return el.mat_mul(act[2 * p - 1], act[2 * p - 2])
        return el.zeros(d, d)  # the lower neighbor is outside the support

    def verify(self) -> bool:
        """Module axioms: each live arrow matrix has the shape of its arrow, and
        every composable pair of arrows acts as ``product`` says
        (relations act by 0).  The algebra is the path algebra of the quiver
        modulo the ideal these length-two relations generate, so a
        representation satisfying them is a module (Assem-Simson-Skowronski,
        Elements of the Representation Theory of Associative Algebras 1,
        Thm III.1.6): e_i acts by the identity and l_i by down·up, and every
        other product follows by associativity.  A pair y: s -> m, x: m -> t
        with s or t outside the support has two empty sides and is skipped.
        Computed once per ``key``."""
        return _once((_VERIFY, self.key), self._verify)

    def _verify(self) -> bool:
        a, lo, dims, action = self.algebra, self.lo, self._dims, self.action
        for k, mat in self._act.items():  # key 2p maps p + 1 to p, key 2p + 1 p to p + 1
            rows, cols = dims[(k >> 1) + (k & 1)], dims[(k >> 1) + 1 - (k & 1)]
            if len(mat) != rows or any(len(r) != cols for r in mat):
                return False
        pad = (0, 0, *dims, 0, 0)  # at 0-based vertex u, the dim is pad[u + 3 - lo]
        for s, d in enumerate(dims, start=lo - 1):
            for y, m in a._out[s] if d else ():
                for x, t in a._out[m]:
                    if not pad[t + 3 - lo]:
                        continue
                    # a side through an empty vertex or on a zero product is 0
                    lhs = el.mat_mul(action(x), action(y)) if pad[m + 3 - lo] else None
                    z = a.product(x, y)
                    rhs = action(z) if z is not None else None
                    if lhs is None or rhs is None:
                        if any(map(any, lhs or rhs or ())):
                            return False
                    elif lhs != rhs:
                        return False
        return True


def projective(algebra: ModelAlgebra, i: int) -> QuiverModule:
    """P(p_i) = A e_i with its path basis; arrow matrices are 0/1.  Each call
    builds the module; repeated calls return equal modules."""
    return ProjectiveSum(algebra, (i,)).module  # which checks i


def simple(algebra: ModelAlgebra, i: int) -> QuiverModule:
    _check_vertex(algebra, i)
    return QuiverModule(algebra, i, (1,), {})


def _span_matrices(module: QuiverModule, vectors: list[tuple[int, Vector | int]]):
    """Independent columns at each vertex lo..hi spanning the submodule that
    the (vertex, vector) seeds generate: b·vec for the seeds (v, vec) and
    the paths b from v to t span it at t, and one elimination keeps their
    pivots.  A seed (v, c) with an int c is the c-th unit vector at v, and b
    sends it to column c of b's matrix."""
    a, lo, dims, action = module.algebra, module.lo, module._dims, module.action
    cands: list[list[Vector]] = [[] for _ in dims]
    for v, vec in vectors:
        for b in a.path_basis(v):
            t = a.tgt[b] - lo
            if 0 <= t < len(dims) and dims[t]:
                m = action(b)
                cands[t].append([r[vec] for r in m] if type(vec) is int else el.mat_vec(m, vec))
    return [[cols[c] for c in el.fraction_free_echelon(el.transpose(cols))[1]] if cols else []
            for cols in cands]


def _restrict(module: QuiverModule, incl: list[list[Vector]]) -> QuiverModule:
    """Submodule spanned by the independent, arrow-closed columns ``incl[p]``
    at each vertex lo + p: its matrix for a live arrow k: s -> t is the X
    with I_t·X = act_k·I_s, I_p the matrix with the columns incl[p]."""
    dims = tuple(map(len, incl))
    mats = [el.transpose(cols) for cols in incl]
    act = {k: _solve(mats[t], el.mat_mul(module._act[k], mats[s])) for k, s, t in _live(dims)}
    return QuiverModule(module.algebra, module.lo, dims, act)


def submodule(module: QuiverModule, vectors) -> tuple[QuiverModule, list[list[Vector]]]:
    """Submodule generated by (vertex, vector) seeds, with its basis columns
    in the module at each vertex lo..hi of the module.  An int seed (v, c)
    is the c-th unit vector at v, so c must be an int in 0..dim - 1 there."""
    for v, c in vectors:
        _check_vertex(module.algebra, v)
        if isinstance(c, int) and not (type(c) is int and 0 <= c < module.dim_at(v)):
            raise ValueError(f"seed coordinate {c!r} at vertex {v} is not an int "
                             f"with 0 <= c < {module.dim_at(v)}")
    incl = _span_matrices(module, vectors)
    return _restrict(module, incl), incl


def quotient(module: QuiverModule, incl: list[list[Vector]]) -> tuple[QuiverModule, list[Matrix]]:
    """Quotient by the submodule with independent basis columns ``incl[p]``
    at each vertex lo + p of the module; returns the quotient module and the
    projection matrices at the vertices lo..hi."""
    if len(incl) != len(module._dims):
        raise ValueError(f"need one column list per vertex {module.lo}..{module.hi}")
    projections, comps = [], []
    for v, d, sub in zip(range(module.lo, module.hi + 1), module._dims, incl):
        if any(len(c) != d for c in sub):
            raise ValueError(f"a column at vertex {v} does not have length {d}")
        comp = el.column_space_completion(sub, d) if sub else range(d)
        if len(sub) + len(comp) != d:
            raise ValueError(f"inclusion columns at vertex {v} are not independent")
        comps.append(comp)
        # basis change [sub | chosen unit vectors]; quotient coords are the
        # trailing block of the inverse, the unit rows alone when sub is 0;
        # the leading block may be fractional, the trailing one may not
        units = [_unit(d, c) for c in comp]
        projections.append(
            _solve(el.transpose(sub + units), el.identity(d), len(sub)) if sub and units else units
        )
    dims = tuple(map(len, comps))
    act = {  # the chosen unit vectors at s, mapped and projected at t
        k: el.mat_mul(projections[t], [[row[c] for c in comps[s]] for row in module._act[k]])
        for k, s, t in _live(dims)
    }
    return QuiverModule(module.algebra, module.lo, dims, act), projections


def _trace_span(module: QuiverModule, max_vertex: int) -> list[list[Vector]]:
    """Basis columns, at each vertex lo..hi, of the trace of vertices <= max_vertex."""
    below = module._dims[: max(max_vertex - module.lo + 1, 0)]  # at lo..max_vertex
    seeds = [(v, c) for v, d in enumerate(below, module.lo) for c in range(d)]
    return _span_matrices(module, seeds)


def standard(algebra: ModelAlgebra, i: int) -> QuiverModule:
    """Delta(p_i): the i-th projective modulo the trace of the larger ones,
    built from P_i on each call.  For i >= 2 it is P_i modulo the trace of
    vertex i - 1, P_i's lo: one quotient per ``key`` of P_i."""
    return _standard(projective(algebra, i), i)  # projective checks i


def _standard(p: QuiverModule, i: int) -> QuiverModule:
    # Delta_i from P_i: P_1 itself, else the stored quotient placed at P_i's lo
    if i == 1:
        return p
    at, dims, act = _once((_STANDARD, p.key), _standard_quotient, p)
    return QuiverModule(p.algebra, p.lo + at, dims, act)


def _standard_quotient(p: QuiverModule) -> tuple:
    q, _ = quotient(p, _trace_span(p, p.lo))
    return q.lo - p.lo, q._dims, q._act  # Delta's offset from P_i's lo, dims and arrows


def dual_module(module: QuiverModule) -> QuiverModule:
    """Linear dual twisted by the arrow swap, which exchanges the keys 2p and
    2p + 1; exchanges standards with costandards because the swap is an
    antiautomorphism."""
    act = {k: el.transpose(module._act[k ^ 1]) for k in module._act}
    return QuiverModule(module.algebra, module.lo, module._dims, act)


def costandard(algebra: ModelAlgebra, i: int) -> QuiverModule:
    """Nabla(p_i), the dual of Delta(p_i), built on each call."""
    return dual_module(standard(algebra, i))  # standard checks i


def tilting(algebra: ModelAlgebra, i: int) -> QuiverModule:
    """T(p_i): the (i+1)-st projective for i < N; the last standard at i = N."""
    _check_vertex(algebra, i)
    if i < algebra.N:
        return projective(algebra, i + 1)
    return standard(algebra, algebra.N)


def model_families(algebra: ModelAlgebra) -> tuple[list[QuiverModule], ...]:
    """The projectives, standards, costandards and tiltings, each list by
    vertex and each P_i built once: Delta_i from P_i, Nabla_i the dual of
    Delta_i, T_i = P_{i+1} for i < N and T_N = Delta_N."""
    projectives = [projective(algebra, i) for i in range(1, algebra.N + 1)]
    standards = [_standard(p, i) for i, p in enumerate(projectives, 1)]
    tiltings = projectives[1:] + standards[-1:]
    return projectives, standards, [dual_module(s) for s in standards], tiltings


def top_generators(module: QuiverModule) -> list[tuple[int, int]]:
    """(vertex, coordinate) pairs projecting to a basis of M / rad M, where
    rad M = (arrow ideal) * M is spanned by the columns of the arrow matrices."""
    rad: list[list[Vector]] = [[] for _ in module._dims]
    for k, _, t in _live(module._dims):
        rad[t].extend(list(col) for col in zip(*module._act[k]))
    gens = []
    for v, d, r in zip(range(module.lo, module.hi + 1), module._dims, rad):
        gens.extend((v, t) for t in (el.column_space_completion(r, d) if r else range(d)))
    return gens


def _sum_basis(algebra: ModelAlgebra, gen_vertices) -> tuple[int, list[list[tuple[int, int]]]]:
    # the path basis of the sum of the P_v, v in gen_vertices: P_v lives on
    # [v - 1, v + 1], so the sum on [lo, hi] = [min gen - 1, max gen + 1]
    # within 1..N; returns lo and the (summand, path) pairs at each vertex lo..hi
    lo = max(min(gen_vertices, default=2) - 1, 1)
    hi = min(max(gen_vertices, default=-1) + 1, algebra.N)
    pos: list[list[tuple[int, int]]] = [[] for _ in range(lo, hi + 1)]
    for s, v in enumerate(gen_vertices):
        for b in algebra.path_basis(v):  # each path sits at its target
            pos[algebra.tgt[b] - lo].append((s, b))
    return lo, pos


class ProjectiveSum:
    """Direct sum of indecomposable projectives, one per generator vertex, on
    its path basis; ``_pos[p]`` lists the (summand, path) pairs at vertex
    lo + p of its support [lo, hi]."""

    def __init__(self, algebra: ModelAlgebra, gen_vertices: tuple[int, ...]) -> None:
        for v in gen_vertices:
            _check_vertex(algebra, v)
        self.algebra = algebra
        self.gen_vertices = tuple(gen_vertices)
        lo, self._pos = _sum_basis(algebra, self.gen_vertices)
        hi = lo + len(self._pos) - 1
        dims = tuple(len(p) for p in self._pos)
        # the arrows read the algebra on [lo, hi] only: one computation per
        # class (see QuiverModule.key) of the end flags, the dims, which tell
        # a sum clipped at vertex N (gens (3,) at N = 3 and at N = 4 differ
        # only there), and the generators relative to lo
        key = (_SUM, lo == 1, hi == algebra.N, dims, tuple(v - lo for v in self.gen_vertices))
        self.module = QuiverModule(algebra, lo, dims, _once(key, self._arrow_matrices, lo, dims))

    def _arrow_matrices(self, lo: int, dims: tuple[int, ...]) -> dict[int, Matrix]:
        # arrow g sends path b of a summand to path g·b of that summand, or to 0
        algebra = self.algebra
        where = [{sb: c for c, sb in enumerate(pos)} for pos in self._pos]
        g0 = algebra.N + 2 * lo - 2
        act: dict[int, Matrix] = {}
        for k, s_p, t_p in _live(dims):
            mat = el.zeros(dims[t_p], dims[s_p])
            for col, (s, b) in enumerate(self._pos[s_p]):
                z = algebra.product(g0 + k, b)
                if z is not None:
                    mat[where[t_p][(s, z)]][col] = 1
            act[k] = mat
        return act


def cover_map(ps: ProjectiveSum, target: QuiverModule, images: list[tuple[int, Vector]]):
    """Module map PS -> target sending the s-th generator to images[s];
    returns its matrices at the vertices lo..hi of PS."""
    if [v for v, _ in images] != list(ps.gen_vertices):
        raise ValueError("each image must sit at the vertex of its generator")
    mats = []
    for v, pos in enumerate(ps._pos, start=ps.module.lo):
        d = target.dim_at(v)
        cols = [el.mat_vec(target.action(b), images[s][1]) for s, b in pos] if d else []
        mats.append(el.transpose(cols) if cols else [[] for _ in range(d)])
    return mats


class Resolution(NamedTuple):
    """Minimal projective resolution data: ... -> P_1 -> P_0 -> M -> 0.
    ``images[t]`` holds d_t of each generator of P_t as ``cover_map`` takes
    it: a unit vector of M for t = 0, a vector of P_{t-1} after that."""

    algebra: ModelAlgebra
    target: QuiverModule
    gens: list[tuple[int, ...]]  # generator vertices per term, which fix it
    images: list[list[tuple[int, Vector]]]
    terminated: bool
    key: tuple  # the keys of the modules covered, max_terms: its class

    def multiplicity(self, degree: int, vertex: int) -> int:
        """dim Ext^degree(M, L(vertex)): how often the vertex generates term degree."""
        _check_vertex(self.algebra, vertex)
        _check_inputs(self.algebra, max_degree=degree)
        return self.gens[degree].count(vertex) if degree < len(self.gens) else 0


# Class results, shared by every algebra in the process and keyed by a tag and
# the classes they depend on (see QuiverModule.key and ModelAlgebra.product).
# A value is local data only, so the memo keeps no algebra or module alive; a
# miss that would pass the bound empties it first.
_RESULTS: dict[tuple, object] = {}
_RESULTS_BOUND = 4096
_STEP, _STANDARD, _VERIFY, _DELTA, _EXT, _SUM, _ALGEBRA = range(7)
_ALGEBRA_WINDOW = 6  # N0: every window class of the algebra checks appears


def _once(key: tuple, fn, *args):
    """fn(*args) for the class ``key``, computed on a miss or a None value."""
    value = _RESULTS.get(key)
    if value is None:
        value = fn(*args)
        if len(_RESULTS) >= _RESULTS_BOUND:
            _RESULTS.clear()
        _RESULTS[key] = value
    return value


def _algebra_checks(n: int) -> tuple[bool, bool, bool]:
    # the three algebra checks on the window algebra of n <= N0 vertices
    a = ModelAlgebra(n)
    return a.is_associative(), a.relations_hold(), a.opposite_swap_is_antiautomorphism()


def _syzygy_step(algebra: ModelAlgebra, lo: int, dims, act: dict[int, Matrix]) -> tuple:
    """One step of a minimal resolution of the nonzero module with this
    local data, as local data: its top generators as (offset from lo,
    coordinate), the basis columns in its projective cover P of the kernel,
    at the kernel's vertices lo..hi, dim P, and the kernel's offset from lo,
    arrow matrices and class key without its two end flags, or None if the
    kernel is zero.  Computed once per class key, building the module then."""
    module = QuiverModule(algebra, lo, dims, act)
    tops = top_generators(module)
    ps = ProjectiveSum(algebra, tuple(v for v, _ in tops))
    cov = cover_map(ps, module, [(v, _unit(module.dim_at(v), t)) for v, t in tops])
    # the cover is onto, so the module's support lies in P's; off it, ker = P
    incl = [
        el.nullspace(c) if d and c else el.identity(d) if d else []
        for c, d in zip(cov, ps.module._dims)
    ]
    kernel = _restrict(ps.module, incl)
    p0 = kernel.lo - ps.module.lo  # keep the inclusions at the kernel's vertices
    return ([(v - lo, t) for v, t in tops], incl[p0 : p0 + len(kernel._dims)], ps.module.total_dim,
            (kernel.lo - lo, kernel._act, kernel.key[2:]) if kernel._dims else None)


def minimal_projective_resolution(
    algebra: ModelAlgebra, module: QuiverModule, max_terms: int
) -> Resolution:
    """The first ``max_terms`` terms of a minimal projective resolution of
    ``module``, with no kernel placed for the last: each cover is onto, so
    dim Omega = dim P - dim M tells whether the resolution ends.  It walks
    class keys, a stored kernel's key with the end flags of its new lo being
    the next step's, and builds no kernel module unless a step is computed."""
    _check_inputs(algebra, module, max_terms=max_terms)
    gens, images, keys = [], [], []  # per term: generator vertices, their images, the key covered
    # the module to cover next, its dim and its basis columns in the previous term
    lo, dims, act, key = module.lo, module._dims, module._act, module.key
    left, incl_prev = module.total_dim, None
    while left and len(gens) < max_terms:
        keys.append(key)
        tops, incl, cover, kernel = _once((_STEP, key), _syzygy_step, algebra, lo, dims, act)
        # generator (r, t) goes to coordinate t at lo + r, in the previous term
        images.append([(lo + r, _unit(dims[r], t) if incl_prev is None else
                        list(incl_prev[r][t])) for r, t in tops])
        gens.append(tuple(lo + r for r, _ in tops))
        left = cover - left
        if left and len(gens) < max_terms:
            at, act, tail = kernel
            lo, dims, incl_prev = lo + at, tail[0], incl
            key = (lo == 1, lo + len(dims) - 1 == algebra.N, *tail)
    return Resolution(algebra, module, gens, images, not left, (*keys, max_terms))


class ExtResult(NamedTuple):
    dims: tuple[int, ...]  # dim Ext^k for k = 0..max_degree
    truncated: bool  # resolution ran past max_degree without terminating


def ext_groups(
    algebra: ModelAlgebra, module: QuiverModule, target: QuiverModule, max_degree: int
) -> ExtResult:
    """Ext^k(module, target) for k <= max_degree, via the Hom complex of a
    minimal projective resolution."""
    _check_inputs(algebra, target, max_degree=max_degree)
    res = minimal_projective_resolution(algebra, module, max_degree + 2)
    return _hom_complex_ext(res, target, max_degree)


def _hom_complex_ext(res: Resolution, target: QuiverModule, max_degree: int) -> ExtResult:
    """Ext^k(res.target, target) for k <= max_degree from the Hom complex of
    ``res.images``; ``res`` must have max_degree + 2 terms or terminate.
    Computed once per ``res.key``, ``target.key``, their offset and max_degree."""
    key = (_EXT, res.key, target.key, target.lo - res.target.lo, max_degree)
    return ExtResult(*_once(key, _hom_complex_dims, res, target, max_degree))


def _hom_complex_dims(res: Resolution, target: QuiverModule, max_degree: int) -> tuple:
    dim, action = dict(enumerate(target._dims, target.lo)).get, target.action
    hom_dims = [sum(dim(v, 0) for v in gens) for gens in res.gens]
    hom_dims += [0] * (max_degree + 2 - len(hom_dims))

    def delta_rank(t: int) -> int:
        # Hom(P_t, X) -> Hom(P_{t+1}, X), phi -> phi . d_{t+1}.  A generator
        # phi of Hom(P_t, X) sends one summand's top to a vector of X; its
        # value on the next term's generator at w is X acting on the paths of
        # that summand in the generator's image.  A map between spaces one of
        # which is zero, past the last term in particular, has rank 0.
        if not (hom_dims[t + 1] and hom_dims[t]):
            return 0
        mat = el.zeros(hom_dims[t + 1], hom_dims[t])
        col_start = [0, *accumulate(dim(v, 0) for v in res.gens[t])]
        lo, pos = _sum_basis(res.algebra, res.gens[t])
        row0 = 0
        for w, image in res.images[t + 1]:
            if not dim(w):
                continue
            # a generator's image lies in P_t at w, on the paths pos[w - lo]
            for (s, b), coeff in zip(pos[w - lo], image):
                if not coeff or col_start[s] == col_start[s + 1]:  # X is 0 at s's top
                    continue
                col0 = col_start[s]
                for r, act_row in enumerate(action(b)):
                    out = mat[row0 + r]
                    for u, x in enumerate(act_row):
                        if x:
                            out[col0 + u] += coeff * x
            row0 += dim(w, 0)
        return el.rank(mat)

    dims_out, prev_rank = [], 0
    for k in range(max_degree + 1):
        rank_k = delta_rank(k)
        dims_out.append(hom_dims[k] - rank_k - prev_rank)  # kernel over image
        prev_rank = rank_k
    return tuple(dims_out), not res.terminated


def ext_to_simple(
    algebra: ModelAlgebra, module: QuiverModule, vertex: int, max_degree: int
) -> ExtResult:
    """Ext^k(module, L(vertex)) read off generator multiplicities of the
    minimal resolution (independent of the Hom-complex route)."""
    _check_vertex(algebra, vertex)
    _check_inputs(algebra, max_degree=max_degree)
    res = minimal_projective_resolution(algebra, module, max_degree + 1)
    dims = tuple(res.multiplicity(k, vertex) for k in range(max_degree + 1))
    return ExtResult(dims, not res.terminated)


def k0_class_check(algebra: ModelAlgebra) -> bool:
    """Grothendieck-group sanity: standards and costandards share classes and
    the matrix of projective composition multiplicities factors as the square
    of the standard one."""
    return _k0_classes(*model_families(algebra)[:3])


def _k0_classes(projectives, standards, costandards) -> bool:
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


def cartan_matrix(algebra: ModelAlgebra) -> list[list[int]]:
    """Composition multiplicities of the projectives: row i, column l is the
    number of times the l-th simple occurs in P(p_i)."""
    return [list(projective(algebra, i).dims) for i in range(1, algebra.N + 1)]


def verify_model_properties(n_vertices: int) -> dict:
    """Machine-check the structural properties of the model block algebra.

    Returns a JSON-friendly report: ``checks`` maps property names to booleans
    (``all_pass`` is their conjunction); ``report`` carries the numeric data.
    The concentration degree of the derived Hom from the full tilting to the
    first simple is reported together with flags comparing it against both
    candidate values; only single-degree concentration enters ``checks``.

    Each module is resolved once and every check reads its Ext groups off
    that resolution: each standard to three terms for the Ext^1 of (ii) and
    (iii) (Hom-complex route), each tilting to N + 2 terms for (ii), (iv), (v)
    and each simple to two terms for the Ext^1 table (multiplicity route).
    ``iv_two_routes_agree`` compares both routes on the resolution of T_N,
    which is the top standard.  A tilting resolution that fails to terminate
    raises ``InvariantError``.  Work on modules equal up to translation is
    shared, in one report and across reports (see ``QuiverModule.key``).
    """
    a = ModelAlgebra(n_vertices)
    n = a.N
    projectives, standards, costandards, tiltings = model_families(a)
    simples = [simple(a, i) for i in range(1, n + 1)]

    checks: dict[str, bool] = {}
    report: dict[str, object] = {}

    checks["dimension"] = a.dim == 4 * n - 3
    window = min(n, _ALGEBRA_WINDOW)  # see ModelAlgebra.product
    checks["associative"], checks["relations"], checks["opposite_antiautomorphism"] = _once(
        (_ALGEBRA, window), _algebra_checks, window
    )
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
    mults = [delta_multiplicities(a, projectives[i]) for i in range(n)]
    # row i is 1 at vertices i - 1 and i and 0 elsewhere
    linear = all(
        m and m.count(0) == n - min(i, 2) and m[max(i - 2, 0) : i] == [1] * min(i, 2)
        for i, m in enumerate(mults, 1)
    )
    checks["i_linear_order"] = unitriangular and linear
    report["standard_multiplicities"] = mults

    # each tilting resolved once, for (ii), (iv) and (v)
    max_deg = n + 1
    tilting_res = [minimal_projective_resolution(a, t, max_deg + 1) for t in tiltings]
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
        res = minimal_projective_resolution(a, m, 3)
        if i >= 2:
            ext1_down.append(_hom_complex_ext(res, standards[i - 2], 1).dims[1])
        reach = {j for term in res.gens[1:2] for v in term for j in nonzero_at[v - 1]}
        nabla_filtered = nabla_filtered and all(
            _hom_complex_ext(res, tiltings[j], 1).dims[1] == 0 for j in sorted(reach)
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
    cross = _hom_complex_ext(top_res, simples[0], max_deg)
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
        first = sorted(sum(minimal_projective_resolution(a, m, 2).gens[1:], ()))
        e1.append([0] * n)
        for v in first:
            e1[-1][v - 1] += 1
        double_path = double_path and first == [j for j in (i - 1, i + 1) if 1 <= j <= n]
    checks["ext1_no_self_extensions"] = all(e1[i][i] == 0 for i in range(n))
    checks["ext1_double_path"] = double_path
    report["ext1_simples"] = e1

    checks["k0_classes"] = _k0_classes(projectives, standards, costandards)
    report["cartan_matrix"] = [list(p.dims) for p in projectives]
    report["standard_dim_vectors"] = [list(s.dims) for s in standards]
    all_pass = all(checks.values())
    return {"n_vertices": n, "checks": checks, "report": report, "all_pass": all_pass}


def delta_multiplicities(algebra: ModelAlgebra, module: QuiverModule):
    """Multiplicities [module : Delta_j] via the trace filtration, or None if
    some layer fails to be a direct sum of copies of the expected standard.

    The j-th layer (trace of vertices <= j over trace of vertices < j) is
    zero below j and generated by its m-dimensional space at j, so it is a
    quotient of P_j^m killing the trace of the smaller vertices, hence of
    Delta_j^m (Cline-Parshall-Scott 1988); it is Delta_j^m exactly when the
    dimension vectors agree, so trace dimensions decide every layer.
    Computed once per ``module.key`` and placed at lo.
    """
    _check_inputs(algebra, module)
    local = _once((_DELTA, module.key), _layer_multiplicities, algebra, module)
    if local is None:
        return None
    return [0] * (module.lo - 1) + [*local] + [0] * (algebra.N - module.hi)


def _layer_multiplicities(algebra: ModelAlgebra, module: QuiverModule) -> tuple | None:
    lo, dims, total = module.lo, module._dims, module.total_dim
    mults = [0] * len(dims)  # at the vertices lo..hi
    prev = [0] * len(dims)  # the trace so far, at the vertices lo..hi
    for j, d in enumerate(dims, start=lo):
        if not d or sum(prev) == total:
            continue  # nothing at j, or the filtration is exhausted
        cur = list(map(len, _trace_span(module, j)))
        layer = [c - p for c, p in zip(cur, prev)]
        m = mults[j - lo] = layer[j - lo]
        # m copies of Delta_j on [lo, hi], and nothing of them outside it
        delta = standard(algebra, j)
        want = [m * delta.dim_at(v) for v in range(lo, module.hi + 1)]
        if layer != want or m * delta.total_dim != sum(layer):
            return None
        prev = cur
    return tuple(mults)
