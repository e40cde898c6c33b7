"""Finite algebraic structures: groups, racks, augmented racks, pre-crossed modules.

Everything is an index table over 0..n-1 with string labels, exhaustively
validated at construction (desk scale), and immutable afterwards.  Actions
are written on the right throughout: ``x^g``, with ``(x^g)^h = x^(gh)`` and
a group acting on itself by conjugation ``x^g = g^{-1} x g``.
"""

from __future__ import annotations

from ._values import value_type
from .errors import (
    ActionInvalid,
    NoIdentity,
    NotAssociative,
    NotBijective,
    NotByAutomorphisms,
    NotClosed,
    NotEquivariant,
    NotHomomorphism,
    NotLatinSquare,
    NotSelfDistributive,
    ValidationError,
)


class FiniteGroup(value_type("FiniteGroup", "elements table identity inverse")):
    """A finite group as a Cayley table on element indices."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, g: int) -> int:
        """Right conjugation a^g = g^{-1} a g."""
        return self.table[self.table[self.inverse[g]][a]][g]

    def label(self, a: int) -> str:
        return self.elements[a]


class Rack(value_type("Rack", "size op")):
    """A finite rack: op[x][y] = x <| y."""

    __slots__ = ()


class AugmentedRack(value_type("AugmentedRack", "carrier group action pi induced")):
    """A G-set X with an equivariant map pi: X -> G (G acting on itself by conjugation);
    ``action[x][g]`` is x^g and ``induced`` is the derived operation x <| y = x^(pi y)."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.carrier)


class PreCrossedModule(value_type("PreCrossedModule", "x_group group action pi")):
    """An augmented rack whose carrier is a group, with G acting by automorphisms;
    ``action[x][g]`` is x^g."""

    __slots__ = ()

    def as_augmented_rack(self) -> AugmentedRack:
        return validate_augmented_rack(
            self.x_group.elements, self.group, self.action, self.pi
        )


def _as_index_table(table) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in table)


def validate_group(table, elements=None) -> FiniteGroup:
    """Validate a Cayley table: Latin square, identity, associativity, inverses."""
    rows = _as_index_table(table)
    n = len(rows)
    if n == 0:
        raise NotLatinSquare("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotLatinSquare(f"row {i} has length {len(row)}, expected {n}")
        if any(v < 0 or v >= n for v in row):
            raise NotLatinSquare(f"row {i} has an entry outside 0..{n - 1}")
        if sorted(row) != list(range(n)):
            raise NotLatinSquare(f"row {i} is not a permutation")
    for j in range(n):
        col = sorted(rows[i][j] for i in range(n))
        if col != list(range(n)):
            raise NotLatinSquare(f"column {j} is not a permutation")
    identity = None
    for e in range(n):
        if all(rows[e][x] == x for x in range(n)) and all(
            rows[x][e] == x for x in range(n)
        ):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    inverse = []
    for a in range(n):
        b = rows[a].index(identity)
        if rows[b][a] != identity:
            raise NoIdentity(f"element {a} has no two-sided inverse")
        inverse.append(b)
    if elements is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(str(x) for x in elements)
        if len(labels) != n:
            raise ValidationError(f"{len(labels)} labels for {n} elements")
    return FiniteGroup(labels, rows, identity, tuple(inverse))


def _cycle_label(perm: tuple[int, ...]) -> str:
    n = len(perm)
    sep = "" if n <= 10 else ","
    seen = [False] * n
    parts = []
    for s in range(n):
        if seen[s] or perm[s] == s:
            seen[s] = True
            continue
        cyc = [s]
        seen[s] = True
        t = perm[s]
        while t != s:
            cyc.append(t)
            seen[t] = True
            t = perm[t]
        parts.append("(" + sep.join(str(v) for v in cyc) + ")")
    return "".join(parts) or "e"


def _permutation_group(gens, n: int) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Close permutations of 0..n-1 under composition (diagram order).

    Returns the group, whose element i is the i-th permutation in sorted
    order, together with those sorted permutations.
    """
    ident = tuple(range(n))
    seen = {ident}
    queue = [ident]
    while queue:
        p = queue.pop()
        for q in gens:
            r = tuple(q[p[i]] for i in range(n))
            if r not in seen:
                seen.add(r)
                queue.append(r)
    elems = sorted(seen)
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(q[p[i]] for i in range(n))] for q in elems] for p in elems
    ]
    return validate_group(table, [_cycle_label(p) for p in elems]), elems


def group_from_permutations(perms) -> FiniteGroup:
    """Close a set of permutations (image tuples) under composition.

    Products are taken in diagram order: (p*q)(i) = q(p(i)).
    """
    gens = [tuple(int(v) for v in p) for p in perms]
    if not gens:
        raise ValidationError("at least one generator permutation required")
    n = len(gens[0])
    for p in gens:
        if len(p) != n or sorted(p) != list(range(n)):
            raise NotBijective(f"{p} is not a permutation of 0..{n - 1}")
    return _permutation_group(gens, n)[0]


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(table)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n by closing a transposition and an n-cycle (desk scale only)."""
    if n == 1:
        return group_from_permutations([(0,)])
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return group_from_permutations([swap, cycle])


def validate_right_action(
    group: FiniteGroup, carrier_size: int, table, automorphisms_of: FiniteGroup | None = None
) -> tuple[tuple[int, ...], ...]:
    """Check the right-action axioms; optionally also that each g acts by automorphisms.
    Returns the validated table, ``table[x][g] = x^g``."""
    rows = _as_index_table(table)
    if len(rows) != carrier_size:
        raise ActionInvalid(f"{len(rows)} rows for carrier of size {carrier_size}")
    for x, row in enumerate(rows):
        if len(row) != group.order:
            raise ActionInvalid(f"row {x} has length {len(row)}, expected {group.order}")
        if any(v < 0 or v >= carrier_size for v in row):
            raise ActionInvalid(f"row {x} has an entry outside the carrier")
    e = group.identity
    for x in range(carrier_size):
        if rows[x][e] != x:
            raise ActionInvalid(f"{x}^identity = {rows[x][e]} != {x}")
    for x in range(carrier_size):
        for g in range(group.order):
            xg = rows[x][g]
            for h in range(group.order):
                if rows[xg][h] != rows[x][group.mul(g, h)]:
                    raise ActionInvalid(f"({x}^{g})^{h} != {x}^({g}{h})")
    if automorphisms_of is not None:
        xg_table = automorphisms_of.table
        if automorphisms_of.order != carrier_size:
            raise ActionInvalid("carrier group does not match carrier size")
        for g in range(group.order):
            for x in range(carrier_size):
                for y in range(carrier_size):
                    if rows[xg_table[x][y]][g] != xg_table[rows[x][g]][rows[y][g]]:
                        raise NotByAutomorphisms(f"({x}{y})^{g} != {x}^{g} {y}^{g}")
    return rows


def trivial_action(group: FiniteGroup, carrier_size: int) -> tuple[tuple[int, ...], ...]:
    return tuple((x,) * group.order for x in range(carrier_size))


def conjugation_action(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    n = group.order
    return tuple(tuple(group.conj(x, g) for g in range(n)) for x in range(n))


def validate_rack(op) -> Rack:
    """Check that a binary table is a rack: columns bijective and self-distributive."""
    rows = _as_index_table(op)
    n = len(rows)
    for x, row in enumerate(rows):
        if len(row) != n:
            raise NotBijective(f"row {x} has length {len(row)}, expected {n}")
        if any(v < 0 or v >= n for v in row):
            raise NotBijective(f"row {x} has an entry outside 0..{n - 1}")
    for y in range(n):
        col = sorted(rows[x][y] for x in range(n))
        if col != list(range(n)):
            raise NotBijective(f"x -> x<|{y} is not a bijection")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[rows[x][y]][z] != rows[rows[x][z]][rows[y][z]]:
                    raise NotSelfDistributive(f"({x}<|{y})<|{z} != ({x}<|{z})<|({y}<|{z})")
    return Rack(n, rows)


def validate_augmented_rack(carrier, group: FiniteGroup, action, pi) -> AugmentedRack:
    """Check equivariance pi(x^g) = g^{-1} pi(x) g and derive the induced rack."""
    labels = tuple(str(c) for c in carrier)
    size = len(labels)
    action = validate_right_action(group, size, action)
    pi = tuple(int(v) for v in pi)
    if len(pi) != size:
        raise NotEquivariant(f"pi has length {len(pi)}, expected {size}")
    if any(v < 0 or v >= group.order for v in pi):
        raise NotEquivariant("pi has a value outside the group")
    for x in range(size):
        for g in range(group.order):
            if pi[action[x][g]] != group.conj(pi[x], g):
                raise NotEquivariant(f"pi({x}^{g}) != pi({x})^{g}")
    induced = validate_rack([[row[p] for p in pi] for row in action])
    return AugmentedRack(labels, group, action, pi, induced)


def validate_precrossed(x_group: FiniteGroup, group: FiniteGroup, action, pi) -> PreCrossedModule:
    """Check the pre-crossed module axioms on top of the augmented-rack ones."""
    action = validate_right_action(group, x_group.order, action, automorphisms_of=x_group)
    pi = tuple(int(v) for v in pi)
    if len(pi) != x_group.order:
        raise NotHomomorphism(f"pi has length {len(pi)}, expected {x_group.order}")
    if any(v < 0 or v >= group.order for v in pi):
        raise NotHomomorphism("pi has a value outside the group")
    for x in range(x_group.order):
        for y in range(x_group.order):
            if pi[x_group.mul(x, y)] != group.mul(pi[x], pi[y]):
                raise NotHomomorphism(f"pi({x}{y}) != pi({x})pi({y})")
    for x in range(x_group.order):
        for g in range(group.order):
            if pi[action[x][g]] != group.conj(pi[x], g):
                raise NotEquivariant(f"pi({x}^{g}) != pi({x})^{g}")
    return PreCrossedModule(x_group, group, action, pi)


def conjugation_structure(group: FiniteGroup, subset) -> AugmentedRack:
    """Augmented rack on a conjugation-closed subset, with pi the inclusion."""
    sub = sorted({int(v) for v in subset})
    if any(v < 0 or v >= group.order for v in sub):
        raise NotClosed("subset contains an index outside the group")
    index = {v: i for i, v in enumerate(sub)}
    for v in sub:
        for g in range(group.order):
            if group.conj(v, g) not in index:
                raise NotClosed(f"conjugate of {v} by {g} leaves the subset")
    action = [[index[group.conj(v, g)] for g in range(group.order)] for v in sub]
    labels = [group.label(v) for v in sub]
    return validate_augmented_rack(labels, group, action, sub)


def conjugation_module(group: FiniteGroup) -> PreCrossedModule:
    """The identity pre-crossed module: G -> G with the conjugation action."""
    return validate_precrossed(
        group, group, conjugation_action(group), tuple(range(group.order))
    )


class PrecrossedAction(value_type("PrecrossedAction", "phi image module")):
    """The action of X on itself through pi, with its image automorphism group:
    ``phi[y]`` is the permutation x -> x^(pi y), ``module`` is X -> image, revalidated."""

    __slots__ = ()


def precrossed_action(module: PreCrossedModule) -> PrecrossedAction:
    """Compose pi with the action to get X acting on itself; close the image group."""
    n = module.x_group.order
    phi = tuple(tuple(row[p] for row in module.action) for p in module.pi)
    image, ordered = _permutation_group(set(phi), n)
    perm_index = {p: i for i, p in enumerate(ordered)}
    pi2 = tuple(perm_index[p] for p in phi)
    action2 = tuple(
        tuple(ordered[q][x] for q in range(image.order)) for x in range(n)
    )
    reduced = validate_precrossed(module.x_group, image, action2, pi2)
    return PrecrossedAction(phi, image, reduced)


def restrict_to_image(module: PreCrossedModule) -> PreCrossedModule:
    """Replace the base group by the image of pi (a subgroup, since pi is a homomorphism)."""
    g = module.group
    img = sorted(set(module.pi))
    index = {v: i for i, v in enumerate(img)}
    table = [[index[g.mul(a, b)] for b in img] for a in img]
    sub = validate_group(table, [g.label(v) for v in img])
    pi2 = tuple(index[v] for v in module.pi)
    action2 = tuple(tuple(row[v] for v in img) for row in module.action)
    return validate_precrossed(module.x_group, sub, action2, pi2)
