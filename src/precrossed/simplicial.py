"""Finite-per-degree simplicial sets: enumeration, faces, degeneracies.

Four builders share one interface:

* ENVELOPE   -- degree-k simplices are tail-free normal-form words with
  positions below k: GROUP_SYLLABLE letters for a pre-crossed module,
  FREE_LETTER ones for an augmented rack (its free pre-crossed module).
* CLAUWENS   -- the same word machinery in MONOID_LETTER mode.
* COSKELETON -- matching families of vertices and connecting edges for a
  pre-crossed module, coset-normalized so the last vertex is the identity.
* NERVE      -- the bar model of a finite group.

A simplex is the builder's own hashable value -- the int code of a word's
letters (see ``words.Coding``), a ``CoskeletonFamily`` or a group tuple --
and its degree k is passed next to it, which a word code needs to be read.
Degree-k truncation by total letter count is closed under faces, so every
length bound yields a simplicial subset.
"""

from __future__ import annotations

# Callable in annotations is collections.abc.Callable; PEP 563 keeps annotations
# as strings, so that module is never imported

import itertools

from ._values import Memo, pack, value_type
from .algebra import AugmentedRack, FiniteGroup, PreCrossedModule
from .errors import IndexOutOfRange, ModeMismatch, ResourceBound
from .words import (
    Letter,
    WordMode,
    _fold,
    coding,
    face_table,
    letter_text,
    reduce,
    word_faces,
)

SIMPLEX_CAP = 200_000


class SimplicialSpec:
    """Common contract: enumerate simplices per degree, plus face/degeneracy.

    A simplex is any hashable value; every operation takes its degree k too.
    The two entry points resolve the default cap for each builder's one ``_enumerate``.
    """

    name: str

    def simplices(self, k: int, length_bound: int | None = None, cap: int | None = None) -> list:
        """Every degree-k simplex, in a fixed order; ``cap`` (SIMPLEX_CAP when None) counts them."""
        return self._enumerate(k, length_bound, SIMPLEX_CAP if cap is None else cap, False)

    def nondegenerate(self, k: int, length_bound: int | None = None,
                      cap: int | None = None) -> list:
        """The basis of the normalized chains in degree k, in ``simplices`` order.

        Each builder describes its nondegenerate simplices directly, and
        ``cap`` counts only those.
        """
        return self._enumerate(k, length_bound, SIMPLEX_CAP if cap is None else cap, True)

    def _enumerate(self, k: int, length_bound: int | None, cap: int, nondegenerate: bool) -> list:
        raise NotImplementedError

    def face(self, k: int, simplex, i: int):
        raise NotImplementedError

    def faces(self, k: int, simplices):
        """``(d_0 s, ..., d_k s)`` for each degree-k simplex, in input order."""
        face = self.face
        for s in simplices:
            yield tuple([face(k, s, i) for i in range(k + 1)])

    def degeneracy(self, k: int, simplex, i: int):
        raise NotImplementedError

    def encode(self, k: int, simplex) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class WordSpec(SimplicialSpec):
    """Envelope and Clauwens quotients: a simplex is the code of a tail-free normal form.

    The one object of a word simplicial set, which the ``words`` functions
    read: ``obj`` is a pre-crossed module lettered by X in GROUP_SYLLABLE
    mode, else an augmented rack lettered by its carrier.  A degree-k code's
    digits are letter codes in ``codings[k]``; ``letters`` and ``word`` convert.
    """

    def __init__(self, name: str, mode: WordMode, obj):
        self.name, self.mode = name, mode
        self.group, self.pi, self.action = obj.group, obj.pi, obj.action
        if mode is WordMode.GROUP_SYLLABLE:
            x = obj.x_group
            self.labels, self.x_table, self.x_identity = x.elements, x.table, x.identity
        else:
            self.labels, self.x_table, self.x_identity = obj.carrier, None, None
        self.codings = Memo(lambda k: coding(self, k))
        self.face_tables = Memo(lambda k: face_table(self, k))

    def letters(self, k: int, w: int) -> tuple[Letter, ...]:
        """The letters of the degree-k word code ``w``."""
        coding = self.codings[k]
        letters, radix = coding.letters, coding.radix
        out = []
        while w:
            w, c = divmod(w, radix)
            out.append(letters[c])
        return tuple(reversed(out))

    def word(self, k: int, letters) -> int:
        """The degree-k code of the normal form of ``letters``."""
        return reduce(self, k, letters)

    def _enumerate(self, k, length_bound, cap, nondegenerate):
        """Normal-form words of length <= length_bound, in (length, text) order.

        The walk adds letters in code order, which is the order of their
        texts, and letter texts are prefix-free (no label holds ``@``), so the
        codes come out increasing and no sort is needed.  ``cap`` is checked
        per word.  With ``nondegenerate`` only words meeting every position
        0..k-1 are kept (s_i leaves position i empty), and a prefix is dropped
        as soon as it misses more positions than it has letters left to add;
        so in a degree k above ``length_bound`` nothing is enumerated at all.
        The codes are returned as a read-only memoryview of 8-byte ints, or
        as the list if one reaches 2^63.
        """
        if length_bound is None:
            raise ResourceBound(f"{self.name} enumeration needs a length bound")
        if nondegenerate and k > length_bound:
            return []
        what = "nondegenerate simplices" if nondegenerate else "simplices"
        coding = self.codings[k]
        push, radix = coding.push, coding.radix
        # follow[c]: each code with the bit of its position that push appends
        # after the last code c, rather than merging or cancelling; the empty
        # word's last digit is 0, which every code may follow
        alphabet = [(c, 1 << lt[2]) for c, lt in enumerate(coding.letters) if c]
        follow = [alphabet] + [[(n, bit) for n, bit in alphabet if push(c, n) == c * radix + n]
                               for c, _ in alphabet]
        full = (1 << k) - 1
        found: list[int] = []

        def keep(word):
            found.append(word)
            if len(found) > cap:
                raise ResourceBound(
                    f"{self.describe()} degree {k} exceeds {cap} {what} at length {length_bound}"
                )

        if not nondegenerate or k == 0:
            keep(0)
        # (word, bit mask of the positions it meets); `left` letters may follow
        frontier: list[tuple[int, int]] = [(0, 0)]
        for left in range(length_bound - 1, -1, -1):
            grown = []
            for word, seen in frontier:
                for c, bit in follow[word % radix]:
                    now = seen | bit
                    if nondegenerate and k - now.bit_count() > left:
                        continue
                    longer = word * radix + c
                    if not nondegenerate or now == full:
                        keep(longer)
                    if left:
                        grown.append((longer, now))
            frontier = grown
            if not frontier:
                break
        packed = pack(found, "q")
        return found if type(packed) is tuple else memoryview(packed).cast("q")

    def face(self, k, simplex, i):
        """The code of d_i, tail dropped."""
        if not 0 <= i <= k:
            raise IndexOutOfRange(f"face {i} undefined in degree {k}")
        return next(word_faces(self, k, (simplex,)))[i]

    def faces(self, k, simplices):
        """All faces of each word along shared prefixes, as ``word_faces`` walks them."""
        return word_faces(self, k, simplices)

    def degeneracy(self, k, simplex, i):
        """s_i: a letter at position j moves to j + 1 when i <= j, folded straight to a code."""
        if not 0 <= i <= k:
            raise IndexOutOfRange(f"degeneracy {i} undefined in degree {k}")
        move = tuple([j if j < i else j + 1 for j in range(k)])
        return _fold(self, k + 1, self.letters(k, simplex), move)

    def encode(self, k, simplex):
        return letter_text(self, self.letters(k, simplex))

    def describe(self):
        return f"{self.name}[{self.mode.value}]"


class CoskeletonFamily(value_type("CoskeletonFamily", "vertices edges")):
    """Vertices v_0..v_k (v_k = identity) plus one connecting letter x_ab per
    pair a<b, the ``edges`` in lexicographic pair order."""

    __slots__ = ()


@Memo
def _pairs(k: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(k + 1) for b in range(a + 1, k + 1))


@Memo
def _pair_index(k: int) -> dict[tuple[int, int], int]:
    """The index of each pair a < b among the degree-k edges, ``_pairs[k]``."""
    return {p: n for n, p in enumerate(_pairs[k])}


@Memo
def _face_edges(key: tuple[int, int]) -> tuple[int, ...]:
    """For d_i in degree k: where each degree-(k-1) edge sits among the degree-k edges."""
    k, i = key
    old_index = _pair_index[k]

    def delta(a):
        return a if a < i else a + 1

    return tuple(old_index[delta(a), delta(b)] for a, b in _pairs[k - 1])


@Memo
def _degeneracy_edges(key: tuple[int, int]) -> tuple[int, ...]:
    """For s_i in degree k: where each degree-(k+1) edge sits among the degree-k
    edges; -1 marks the identity edge over the repeated vertex."""
    k, i = key
    old_index = _pair_index[k]

    def sigma(a):
        return a if a <= i else a - 1

    return tuple(-1 if sigma(a) == sigma(b) else old_index[sigma(a), sigma(b)]
                 for a, b in _pairs[k + 1])


@Memo
def _degenerate_edges(key: tuple[int, int]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """For s_i d_i in degree k: the index of x_(i,i+1), and the index pairs of
    the edges x_(a,i), x_(a,i+1) (a < i) and x_(i,b), x_(i+1,b) (b > i+1)."""
    k, i = key
    index = _pair_index[k]
    same = [(index[a, i], index[a, i + 1]) for a in range(i)]
    same += [(index[i, b], index[i + 1, b]) for b in range(i + 2, k + 1)]
    return index[i, i + 1], tuple(same)


class CoskeletonSpec(SimplicialSpec):
    """Matching families for the degree-one truncation of a pre-crossed module.

    An edge from vertex a to vertex b is a carrier element x with
    pi(x) = v_a v_b^{-1}; faces delete a vertex with its incident edges and
    degeneracies insert the identity edge over a repeated vertex.
    """

    name = "coskeleton"

    def __init__(self, module: PreCrossedModule):
        self.module = module
        g = module.group
        # the base group's tables, read on every face
        self.table, self.inverse, self.identity = g.table, g.inverse, g.identity
        self.preimages: list[list[int]] = [[] for _ in range(g.order)]
        for x, v in enumerate(module.pi):
            self.preimages[v].append(x)

    def _enumerate(self, k, length_bound, cap, nondegenerate):
        """Matching families in degree k, sorted; ``cap`` is checked per kept family.

        With ``nondegenerate`` a family F is dropped when F = s_i d_i F for
        some i < k, that is when x_(i,i+1) = e (which forces v_i = v_(i+1)),
        x_(a,i) = x_(a,i+1) for every a < i and x_(i,b) = x_(i+1,b) for every
        b > i+1.
        """
        what = "nondegenerate simplices" if nondegenerate else "simplices"
        table, inv, xe = self.table, self.inverse, self.module.x_group.identity
        pairs = _pairs[k]
        rules = [_degenerate_edges[k, i] for i in range(k)] if nondegenerate else []
        out = []
        for base in itertools.product(range(len(table)), repeat=k):
            vertices = base + (self.identity,)
            choices = [self.preimages[table[vertices[a]][inv[vertices[b]]]] for a, b in pairs]
            if not all(choices):
                continue
            for edges in itertools.product(*choices):
                if any(edges[unit] == xe and all(edges[p] == edges[q] for p, q in same)
                       for unit, same in rules):
                    continue
                out.append(CoskeletonFamily(vertices, edges))
                if len(out) > cap:
                    raise ResourceBound(f"coskeleton degree {k} exceeds {cap} {what}")
        out.sort(key=lambda s: self.encode(k, s))
        return out

    def face(self, k, fam, i):
        if k == 0 or not 0 <= i <= k:
            raise IndexOutOfRange(f"face {i} undefined in degree {k}")
        vertices, edges = fam
        edges = tuple([edges[n] for n in _face_edges[k, i]])
        vertices = vertices[:i] + vertices[i + 1:]
        if i == k and vertices[-1] != self.identity:
            table, tinv = self.table, self.inverse[vertices[-1]]
            vertices = tuple([table[v][tinv] for v in vertices])
        return CoskeletonFamily(vertices, edges)

    def degeneracy(self, k, fam, i):
        if not 0 <= i <= k:
            raise IndexOutOfRange(f"degeneracy {i} undefined in degree {k}")
        (vertices, old), e = fam, self.module.x_group.identity
        edges = tuple([e if n < 0 else old[n] for n in _degeneracy_edges[k, i]])
        return CoskeletonFamily(vertices[: i + 1] + vertices[i:], edges)

    def encode(self, k, fam):
        labels, x_labels = self.module.group.elements, self.module.x_group.elements
        vertices, edges = fam
        verts = ",".join([labels[v] for v in vertices])
        edges = ",".join([x_labels[e] for e in edges])
        return f"{verts};{edges}"


class NerveSpec(SimplicialSpec):
    """The bar model of a finite group: degree k holds all k-tuples."""

    name = "nerve"

    def __init__(self, group: FiniteGroup):
        self.group = group

    def _enumerate(self, k, length_bound, cap, nondegenerate):
        """All k-tuples, or with ``nondegenerate`` those with no identity entry
        (s_i inserts the identity at place i); ``cap`` is checked before any is built."""
        g = self.group
        entries = [v for v in range(g.order) if not nondegenerate or v != g.identity]
        if len(entries) ** k > cap:
            what = "nondegenerate simplices" if nondegenerate else "simplices"
            raise ResourceBound(f"nerve degree {k} exceeds {cap} {what}")
        out = list(itertools.product(entries, repeat=k))
        out.sort(key=lambda s: self.encode(k, s))
        return out

    def face(self, k, t, i):
        if k == 0 or not 0 <= i <= k:
            raise IndexOutOfRange(f"face {i} undefined in degree {k}")
        if i == 0:
            return t[1:]
        if i == k:
            return t[:-1]
        return t[: i - 1] + (self.group.mul(t[i - 1], t[i]),) + t[i + 1 :]

    def degeneracy(self, k, t, i):
        if not 0 <= i <= k:
            raise IndexOutOfRange(f"degeneracy {i} undefined in degree {k}")
        return t[:i] + (self.group.identity,) + t[i:]

    def encode(self, k, t):
        return "(" + ",".join(self.group.label(v) for v in t) + ")"


def build_envelope(obj) -> WordSpec:
    """Envelope quotient: group syllables for a pre-crossed module, free letters
    for an augmented rack (the envelope of its free pre-crossed module)."""
    if isinstance(obj, PreCrossedModule):
        return WordSpec("envelope", WordMode.GROUP_SYLLABLE, obj)
    if isinstance(obj, AugmentedRack):
        return WordSpec("envelope", WordMode.FREE_LETTER, obj)
    raise ModeMismatch("an envelope needs a pre-crossed module or an augmented rack")


def build_clauwens(rack: AugmentedRack) -> WordSpec:
    """Quotient of the simplicial free monoid on the rack graph by the group relations."""
    if not isinstance(rack, AugmentedRack):
        raise ModeMismatch("the Clauwens builder requires an augmented rack")
    return WordSpec("clauwens", WordMode.MONOID_LETTER, rack)


def build_coskeleton(module: PreCrossedModule) -> CoskeletonSpec:
    return CoskeletonSpec(module)


def build_nerve(group: FiniteGroup) -> NerveSpec:
    return NerveSpec(group)


def is_degenerate(spec: SimplicialSpec, k: int, simplex) -> bool:
    """True iff the degree-k simplex equals s_i(d_i simplex) for some i (k >= 1)."""
    for i in range(k):
        if spec.degeneracy(k - 1, spec.face(k, simplex, i), i) == simplex:
            return True
    return False


class SimplicialMap:
    """A per-simplex rule ``rule(k, s)`` between two specs, expected to commute with structure maps.

    The rule is a function of (k, s), so ``apply`` evaluates it once per simplex
    and keeps the image for the life of the map."""

    def __init__(self, source: SimplicialSpec, target: SimplicialSpec,
                 rule: Callable[[int, object], object]):
        self.source = source
        self.target = target
        self.rule = rule
        self._images = Memo(lambda key: rule(*key))

    def apply(self, k: int, simplex):
        return self._images[k, simplex]


def canonical_to_coskeleton(module: PreCrossedModule) -> SimplicialMap:
    """Read each envelope word's vertices and edges off its letters in one sweep.

    For a degree-k word with letters (x, 1, j) in word order, vertex v_a is
    the product in G, in word order, of pi(x) over the letters with j >= a;
    the edge x_ab (a < b) is the product in X, in word order, of the letters
    with a <= j < b, each twisted to x^(t^-1), where t is the pi-product of
    the letters with j >= b before it.  These are the iterated faces keeping
    vertex a or the pair a, b: since pi(x^g) = g^-1 pi(x) g, the pi-values of
    twisted letters telescope.  No letter sits at position k, so v_k is the
    identity and the family is already coset-normalized.
    """
    source = build_envelope(module)
    target = build_coskeleton(module)
    g = module.group
    mul, inv, e = g.table, g.inverse, g.identity
    pi, act = module.pi, module.action
    xmul, xe = module.x_group.table, module.x_group.identity

    letters = source.letters

    def rule(k: int, w: int) -> CoskeletonFamily:
        verts = [e] * (k + 1)  # verts[b]: pi-product of the letters so far with j >= b
        edges = [[xe] * (k + 1) for _ in range(k)]  # edges[a][b]: x_ab so far
        for x, _, j in letters(k, w):
            for b in range(j + 1, k + 1):
                twisted = act[x][inv[verts[b]]]
                for a in range(j + 1):
                    edges[a][b] = xmul[edges[a][b]][twisted]
            p = pi[x]
            for b in range(j + 1):
                verts[b] = mul[verts[b]][p]
        out = []
        for a, b in _pairs[k]:
            x = edges[a][b]
            if mul[pi[x]][verts[b]] != verts[a]:
                raise AssertionError("vertex/edge evaluations do not match")
            out.append(x)
        return CoskeletonFamily(tuple(verts), tuple(out))

    return SimplicialMap(source, target, rule)
