"""Independent reference computations.

The classical rack chain complex, group homology through the bar model of
the nerve, and graded dimensions of free tensor algebras, with the closed
forms they imply for trivial racks.  These never touch the envelope
machinery, so agreement with it is meaningful.  ``rack_complex(rack, m_max, cap=None)``
lists bases and faces only, and hands them to ``homology.assemble_complex``,
the linear-algebra step every chain complex shares.
"""

from __future__ import annotations

import itertools

from .algebra import AugmentedRack, FiniteGroup
from .errors import ModeMismatch, ResourceBound
from .homology import (
    MATRIX_CAP,
    ChainComplex,
    HomologyGroup,
    assemble_complex,
    chain_complex,
    homology,
)
from .simplicial import build_nerve


def rack_complex(rack: AugmentedRack, m_max: int, cap: int | None = None) -> ChainComplex:
    """Chain complex of the rack space in degrees 0..m_max+1: degree n is free on n-tuples.

    The differential deletes one entry and subtracts the variant where the
    deleted entry acts on the prefix:
    d(x_1..x_n) = sum_i (-1)^i [ (x_1..^x_i..x_n) - (x_1^(pi x_i),..,x_{i-1}^(pi x_i),x_{i+1},..,x_n) ].
    Every tuple is a basis element, so ``cap`` (MATRIX_CAP when None) bounds
    size**n before the degree-n tuples are built.  The 2n faces of a tuple
    go to ``assemble_complex`` acted-first for odd i and deleted-first for
    even i, so its signs +1, -1, ... give the (-1)^i above.
    """
    if not isinstance(rack, AugmentedRack):
        raise ModeMismatch("the rack complex requires an augmented rack")
    size, action, pi = rack.size, rack.action, rack.pi
    cap = MATRIX_CAP if cap is None else cap
    for n in range(m_max + 2):
        if size**n > cap:
            raise ResourceBound(
                f"rackcomplex degree {n} basis of size {size**n} exceeds matrix cap {cap}"
            )
    bases = [list(itertools.product(range(size), repeat=n)) for n in range(m_max + 2)]

    def faces(t):  # one at a time, so a long tuple's 2n faces are never all held
        for i in range(1, len(t) + 1):
            deleted = t[: i - 1] + t[i:]
            g = pi[t[i - 1]]
            acted = tuple(action[x][g] for x in t[: i - 1]) + t[i:]
            yield from (acted, deleted) if i % 2 else (deleted, acted)

    return assemble_complex(bases, lambda n, basis: map(faces, basis))


def tensor_algebra_dims(generator_dims: list[tuple[int, int]], m: int) -> int:
    """Dimension of the degree-m piece of the free tensor algebra on a graded set.

    ``generator_dims`` lists (degree, count) pairs with degree >= 1; the
    answer sums, over all compositions of m into generator degrees, the
    product of the counts.
    """
    counts: dict[int, int] = {}
    for degree, count in generator_dims:
        if degree < 1:
            raise ValueError("tensor algebra generators must have positive degree")
        counts[degree] = counts.get(degree, 0) + count
    ways = [0] * (m + 1)
    ways[0] = 1
    for d in range(1, m + 1):
        ways[d] = sum(c * ways[d - deg] for deg, c in counts.items() if deg <= d)
    return ways[m]


def group_homology(group: FiniteGroup, m_max: int, coeff: str = "Z",
                   cap: int | None = None) -> list[HomologyGroup]:
    """H_0..H_m_max of the group, from one normalized bar complex of its nerve."""
    comp = chain_complex(build_nerve(group), m_max, cap=cap)
    return [homology(comp, m, coeff) for m in range(m_max + 1)]
