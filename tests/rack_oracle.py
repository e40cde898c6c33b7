"""Rack-theory identities and a reference rack differential, run as standing
checks on the package's rack complex.

G_X is the permutation group of a rack's carrier that the moves x -> x^pi(y)
generate, one move per y.  It is built here by closing the moves under
composition, and its orbits are read off the closure, so nothing is shared
with the union-find of ``oracles.etingof_grana_betti``.

The two identities are pinned as observed, on the racks the tests pass in:

* for a prime p that does not divide |G_X|, dim H_n(X; F_p) = (#orbits)^n,
  the count that Etingof and Grana ("On rack cohomology", J. Pure Appl.
  Algebra 177 (2003)) give for a field whose characteristic does not divide
  |G_X|;
* every prime that divides a torsion order of H_n(X; Z) divides |G_X|.

``reference_rack_boundary`` writes d_n down from its formula, with its own
tuple index and no code of ``homology`` or ``oracles``.
"""

import itertools

from precrossed.homology import homology
from precrossed.oracles import rack_complex

# the top degree to which each rack of tests/data/racks.txt is checked
RACK_TOPS = {"R5": 4, "S4T": 3, "S4C": 3, "A4C": 3, "CYC3": 5}


def move_group(rack):
    """Every permutation of the carrier in G_X, as image tuples."""
    op = rack.induced.op
    moves = {tuple(op[x][y] for x in range(rack.size)) for y in range(rack.size)}
    seen = {tuple(range(rack.size))}
    frontier = list(seen)
    while frontier:
        grown = []
        for perm in frontier:
            for move in moves:
                composed = tuple(move[x] for x in perm)
                if composed not in seen:
                    seen.add(composed)
                    grown.append(composed)
        frontier = grown
    return seen


def prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def check_etingof_grana(rack, top, primes=(2, 3, 5, 7)):
    """Hold both identities on H_0..H_top of ``rack_complex(rack, top)``.

    Returns (|G_X|, #orbits, the primes checked over F_p); raises
    AssertionError naming the degree and the prime at the first failure.
    """
    group = move_group(rack)
    order = len(group)
    orbits = len({frozenset(perm[x] for perm in group) for x in range(rack.size)})
    coprime = [p for p in primes if order % p]
    comp = rack_complex(rack, top)
    for n in range(top + 1):
        for t in homology(comp, n).torsion:
            bad = sorted(q for q in prime_factors(t) if order % q)
            assert not bad, f"H_{n} has Z/{t}, and |G_X| = {order}"
        for p in coprime:
            got = homology(comp, n, f"F{p}").betti
            assert got == orbits**n, f"H_{n} over F{p} has dimension {got}, not {orbits}^{n}"
    return order, orbits, coprime


def reference_rack_boundary(rack, n):
    """d_n of the rack complex as a {(row, col): value} dict, from the formula

    d(x_1..x_n) = sum_i (-1)^i [(x_1..^x_i..x_n) - (x_1<|x_i, .., x_(i-1)<|x_i, x_(i+1), .., x_n)]

    with x <| y = x^pi(y) read off ``rack.induced.op``.  A k-tuple's index is
    its rank in lexicographic order: its entries read as base-|X| digits.
    """
    op = rack.induced.op

    def index(t):
        r = 0
        for x in t:
            r = r * rack.size + x
        return r

    out = {}
    for t in itertools.product(range(rack.size), repeat=n):
        col = index(t)
        for i in range(1, n + 1):
            sign = (-1) ** i
            deleted = t[: i - 1] + t[i:]
            acted = tuple(op[x][t[i - 1]] for x in t[: i - 1]) + t[i:]
            for face, v in ((deleted, sign), (acted, -sign)):
                key = (index(face), col)
                out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}
