"""The support recursion's search over every order of legal box removals.

``gieseker.category_o.support_recursion_values`` once ran this search to show,
input by input, that the corner removed at each step does not change the
recursion's value.  It now returns the one path's value, on the strength of
the proof in its docstring; the search is kept here as the oracle of that
proof, removing each box with ``gieseker.partitions.remove_corner``.  Do not
edit it to follow the package's recursion.
"""

from __future__ import annotations

from functools import cache

from gieseker.category_o import (
    _checked_recursion_input,
    _end_value,
    _legal_removals,
)
from gieseker.partitions import Multipartition, remove_corner

# a component and row recur across the searched states, and the removal
# checks its partition each time: uncached, the search takes a quarter longer
_remove_corner = cache(remove_corner)


def support_recursion_values(n: int, r: int, m: int, sigma: Multipartition) -> frozenset[int]:
    """Set of values the recursion can reach over ALL legal corner choices.

    A singleton certifies corner-choice independence for this input (the
    tested contract); memoized over multipartition states.  The inputs are
    checked as in ``support_dimension_recursive``.
    """
    sigma = _checked_recursion_input(n, r, m, sigma)

    @cache
    def go(state: Multipartition, total: int) -> frozenset[int]:
        value = _end_value(total, r, m, state)
        if value is not None:
            return frozenset({value})
        out = set()
        for ci, row in _legal_removals(state, m):
            smaller = state[:ci] + (_remove_corner(state[ci], row),) + state[ci + 1 :]
            out.update(r + v for v in go(smaller, total - 1))
        return frozenset(out)

    return go(sigma, n)
