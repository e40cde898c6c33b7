"""Rack-theory identities and a reference rack differential, run as standing
checks on the package's rack complex.

G_X is the permutation group of a rack's carrier that the moves x -> x^pi(y)
generate, one move per y.  It is built here by closing the moves under
composition, and its orbits are read off the closure (``orbit_count``).

The two identities are pinned as observed, on the racks the tests pass in:

* for a prime p that does not divide |G_X|, dim H_n(X; F_p) = (#orbits)^n,
  the count that Etingof and Grana ("On rack cohomology", J. Pure Appl.
  Algebra 177 (2003)) give for a field whose characteristic does not divide
  |G_X|;
* every prime that divides a torsion order of H_n(X; Z) divides |G_X|.

``reference_rack_boundary`` writes d_n down from its formula, with its own
tuple index and no code of ``homology`` or ``oracles``.

``check_quandle_splitting`` holds H^R = H^Q + H^D for a quandle (x <| x = x):
the tuples with some x_i = x_(i+1) span a subcomplex D of the rack complex,
the quandle complex is the quotient Q = C/D, and the sequence of the two
splits (Carter, Jelsovsky, Kamada, Langford and Saito, Trans. AMS 355
(2003); Litherland and Nelson, J. Pure Appl. Algebra 178 (2003)).  Q and D
are cut out of ``reference_rack_boundary``; only their Smith forms come from
the package.
"""

import itertools
from collections import Counter

from snf_oracle import from_entries

from precrossed.homology import homology, smith_normal_form
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


def orbit_count(rack):
    """The number of orbits of the carrier under G_X."""
    group = move_group(rack)
    return len({frozenset(perm[x] for perm in group) for x in range(rack.size)})


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
    orbits = orbit_count(rack)
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


def _degenerate(t):
    return any(a == b for a, b in zip(t, t[1:]))


def _split_boundary(rack, n, keep):
    """d_n of the reference complex on the tuples ``keep`` selects, as a
    {(row, col): value} dict indexed by rank among the kept tuples: the
    columns are the kept n-tuples, and the rows of other (n-1)-tuples drop."""
    def ranks(k):
        kept = [i for i, t in enumerate(itertools.product(range(rack.size), repeat=k)) if keep(t)]
        return {i: r for r, i in enumerate(kept)}

    rows, cols = ranks(n - 1), ranks(n)
    matrix = {(rows[r], cols[c]): v for (r, c), v in reference_rack_boundary(rack, n).items()
              if r in rows and c in cols}
    return len(rows), len(cols), matrix


def _prime_powers(orders):
    """The multiset of prime-power orders of a sum of cyclic groups Z/t."""
    out = Counter()
    for t in orders:
        for p in prime_factors(t):
            q = 1
            while t % (q * p) == 0:
                q *= p
            out[q] += 1
    return out


def _split_homology(rack, top, keep, what):
    """(Betti number, prime-power torsion) of H_0..H_top of a complex cut out by ``keep``.

    Raises AssertionError naming the degree where d_(n-1) d_n is not 0.
    """
    mats = [_split_boundary(rack, n, keep) for n in range(1, top + 2)]
    for n in range(2, top + 2):
        low_columns, composed = {}, Counter()
        for (r, k), u in mats[n - 2][2].items():
            low_columns.setdefault(k, []).append((r, u))
        for (k, c), v in mats[n - 1][2].items():
            for r, u in low_columns.get(k, ()):
                composed[r, c] += u * v
        assert not any(composed.values()), f"{what}: d_{n - 1} d_{n} is not 0"
    snfs = [smith_normal_form(from_entries(*mat)) for mat in mats]
    dims = [mats[0][0]] + [cols for _, cols, _ in mats]
    out = []
    for n in range(top + 1):
        rank_in = snfs[n - 1].rank if n else 0
        out.append((dims[n] - rank_in - snfs[n].rank, _prime_powers(snfs[n].torsion)))
    return out


def check_quandle_splitting(rack, top):
    """Hold H_n^R = H_n^Q + H_n^D for n = 0..top, as Betti numbers and prime-power torsion.

    Returns [(H_n^Q, H_n^D)] with each group as (Betti number, {prime power: count});
    raises AssertionError at a d_(n-1) d_n that is not 0 or at the first unequal degree.
    """
    quandle = _split_homology(rack, top, lambda t: not _degenerate(t), "quandle complex")
    degenerate = _split_homology(rack, top, _degenerate, "degenerate complex")
    comp = rack_complex(rack, top)
    for n, ((bq, tq), (bd, td)) in enumerate(zip(quandle, degenerate)):
        h = homology(comp, n)
        assert (h.betti, _prime_powers(h.torsion)) == (bq + bd, tq + td), (
            f"H_{n}: rack {h.render()}, quandle {bq, dict(tq)}, degenerate {bd, dict(td)}")
    return list(zip(quandle, degenerate))
