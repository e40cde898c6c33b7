"""Reference letterwise face operator on envelope words, and what is built on it.

Deliberately separate from the package implementation: it rebuilds every
face the slow way, by evaluating each letter to a letter or a group element,
pushing the group elements right one at a time, and reducing letter by
letter with ``Letter`` values.  It shares no code with ``words``, so
agreement with the table-driven face routine is meaningful.  A word here
is a ``(letters, tail)`` pair: ``Letter`` values and the group element on
their right, which the package forgets.  ``reference_normalize`` is the
envelope's group law on such words, the push of group elements right that
every face here goes through.  The canonical map to the coskeleton is
rebuilt here by iterated faces, and coskeleton faces and degeneracies
through a pair index built on every call, so they check the one-sweep map
and the cached edge tables of ``simplicial``.
``reference_words`` lists the normal forms by growing letter tuples under
the same letterwise reduction and sorting them by length, then text, so
the enumerated word codes can be decoded and compared with it.

The identity checkers at the end are different: they run the package's own
faces and degeneracies, and check the simplicial identities among them and
that a ``SimplicialMap`` commutes with them.
"""

from precrossed.errors import NotChainMap
from precrossed.words import Letter, WordMode

from snf_oracle import from_entries


def _push(spec, out, lt):
    if spec.mode is WordMode.GROUP_SYLLABLE:
        if lt.base == spec.x_identity:
            return
        if out and out[-1].position == lt.position:
            prev = out.pop()
            merged = spec.x_table[prev.base][lt.base]
            if merged != spec.x_identity:
                out.append(Letter(merged, 1, lt.position))
            return
        out.append(lt)
    elif spec.mode is WordMode.FREE_LETTER:
        if out and out[-1] == Letter(lt.base, -lt.sign, lt.position):
            out.pop()
            return
        out.append(lt)
    else:
        out.append(lt)


def _reduce(spec, letters):
    out = []
    for lt in letters:
        _push(spec, out, Letter(*lt))
    return tuple(out)


def _text(spec, letters):
    return "".join(f"({spec.labels[b]}@{j})" if s > 0 else f"({spec.labels[b]}^-1@{j})"
                   for b, s, j in letters) or "1"


def reference_words(spec, k, length_bound, nondegenerate=False):
    """Every tail-free normal form of degree k with at most ``length_bound``
    letters, as ``Letter`` tuples sorted by length, then text; with
    ``nondegenerate`` only those meeting every position 0..k-1.

    A word is grown by any letter after which the reference reduction
    changes nothing, and sorted at the end."""
    signs = (1, -1) if spec.mode is WordMode.FREE_LETTER else (1,)
    letters = [Letter(b, s, j) for j in range(k) for b in range(len(spec.labels))
               for s in signs]
    level = [()]
    words = [()]
    for _ in range(length_bound):
        level = [w + (lt,) for w in level for lt in letters
                 if _reduce(spec, w + (lt,)) == w + (lt,)]
        words += level
    if nondegenerate:
        words = [w for w in words if {j for _, _, j in w} == set(range(k))]
    return sorted(words, key=lambda w: (len(w), _text(spec, w)))


def reference_normalize(spec, items):
    """The normal form ``(letters, tail)`` of ``items``, a sequence of ``Letter``
    values and group element indices (plain ints).

    Each group element is carried right into the tail past the letters after
    it, g (x)_j = (x^(g^-1))_j g, so every letter is twisted by the product
    of the group elements before it; the letters are then pushed one by one.
    """
    group = spec.group
    g = group.identity
    out = []
    for item in items:
        if isinstance(item, Letter):
            base = spec.action[item.base][group.inv(g)]
            _push(spec, out, Letter(base, item.sign, item.position))
        else:
            g = group.mul(g, item)
    return tuple(out), g


def reference_face(spec, k, word, i):
    """d_i of a degree-k word ``(letters, tail)``, tail kept.

    A letter at position j in degree k goes to: nothing when i = j = 0, the
    untouched letter when i > j, position j-1 when i <= j and j > 0, and the
    group element pi(base)^sign when j = k-1 and i = k.  The items, then
    the tail, are normalized by ``reference_normalize``.
    """
    assert k >= 1 and 0 <= i <= k
    letters, tail = word
    group = spec.group
    items = []
    for b, s, j in letters:
        if j == k - 1 and i == k:
            g = spec.pi[b]
            items.append(g if s > 0 else group.inv(g))
        elif i > j:
            items.append(Letter(b, s, j))
        elif j == 0:
            continue
        else:
            items.append(Letter(b, s, j - 1))
    return reference_normalize(spec, [*items, tail])


def reference_boundaries(spec, m_max, length_bound):
    """Boundary matrices d_1..d_(m_max+1) on the ``nondegenerate`` bases, faces through
    ``reference_face`` with the tail forgotten."""
    bases = [spec.nondegenerate(k, length_bound) for k in range(m_max + 2)]
    out = []
    for k in range(1, m_max + 2):
        index = {spec.letters(k - 1, s): r for r, s in enumerate(bases[k - 1])}
        entries = {}
        for c, s in enumerate(bases[k]):
            w = (spec.letters(k, s), spec.group.identity)
            for i in range(k + 1):
                r = index.get(reference_face(spec, k, w, i)[0])
                if r is not None:
                    entries[r, c] = entries.get((r, c), 0) + (-1) ** i
        out.append(from_entries(len(bases[k - 1]), len(bases[k]), entries))
    return out


def _pairs(k):
    return [(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)]


def reference_canonical_rule(module, spec):
    """The canonical map to the coskeleton by iterated faces, one chain per vertex and edge.

    Vertex a is the tail of the word after every face but d_a (highest
    first); the edge over a < b is the one letter left after every face but
    d_a and d_b, whose tail must be vertex b.  The family is then
    coset-normalized so the last vertex is the identity.  Returns
    ``(vertices, edges)``, to compare with a ``CoskeletonFamily``.
    """
    g = module.group

    def evaluate(k, word, keep):
        for idx in range(k, -1, -1):
            if idx not in keep:
                word = reference_face(spec, k, word, idx)
                k -= 1
        return word

    def rule(k, letters):
        word = (tuple(Letter(*lt) for lt in letters), g.identity)
        verts = [evaluate(k, word, (a,))[1] for a in range(k + 1)]
        edges = []
        for a, b in _pairs(k):
            left, tail = evaluate(k, word, (a, b))
            assert len(left) <= 1 and tail == verts[b]
            x = left[0].base if left else module.x_group.identity
            assert g.mul(module.pi[x], tail) == verts[a]
            edges.append(x)
        tinv = g.inv(verts[k])
        return tuple(g.mul(v, tinv) for v in verts), tuple(edges)

    return rule


def reference_coskeleton_face(module, k, vertices, edges, i):
    """d_i of a coskeleton family: drop vertex i and its edges through a pair index,
    then renormalize by the new last vertex."""
    g = module.group
    old_index = {p: n for n, p in enumerate(_pairs(k))}

    def delta(a):
        return a if a < i else a + 1

    new_edges = tuple(edges[old_index[(delta(a), delta(b))]] for a, b in _pairs(k - 1))
    verts = [v for n, v in enumerate(vertices) if n != i]
    tinv = g.inv(verts[-1])
    return tuple(g.mul(v, tinv) for v in verts), new_edges


def reference_coskeleton_degeneracy(module, k, vertices, edges, i):
    """s_i of a coskeleton family: repeat vertex i, with the identity edge between the copies."""
    old_index = {p: n for n, p in enumerate(_pairs(k))}

    def sigma(a):
        return a if a <= i else a - 1

    new_edges = []
    for a, b in _pairs(k + 1):
        sa, sb = sigma(a), sigma(b)
        new_edges.append(module.x_group.identity if sa == sb else edges[old_index[(sa, sb)]])
    return tuple(vertices[: i + 1] + vertices[i:]), tuple(new_edges)


def check_simplicial_identities(spec, k_max, length_bound=None):
    """Verify the five simplicial identity families on enumerated simplices; return their count.

    The first identity that fails raises AssertionError naming it and its simplex."""
    identities = 0
    face, degeneracy = spec.face, spec.degeneracy
    for k in range(k_max + 1):
        for s in spec.simplices(k, length_bound):
            label = f"{spec.describe()} degree {k} simplex {spec.encode(k, s)}"
            if k >= 2:
                for j in range(1, k + 1):
                    dj = face(k, s, j)
                    for i in range(j):
                        identities += 1
                        if face(k - 1, dj, i) != face(k - 1, face(k, s, i), j - 1):
                            raise AssertionError(f"d_{i} d_{j} != d_{j-1} d_{i} on {label}")
            for j in range(k + 1):
                sj = degeneracy(k, s, j)
                for i in range(k + 2):
                    identities += 1
                    got = face(k + 1, sj, i)
                    if i < j:
                        want = degeneracy(k - 1, face(k, s, i), j - 1)
                    elif i in (j, j + 1):
                        want = s
                    else:
                        want = degeneracy(k - 1, face(k, s, i - 1), j)
                    if got != want:
                        raise AssertionError(f"d_{i} s_{j} mismatch on {label}")
                for i in range(j + 1):
                    identities += 1
                    if degeneracy(k + 1, sj, i) != degeneracy(k + 1, degeneracy(k, s, i), j + 1):
                        raise AssertionError(f"s_{i} s_{j} != s_{j+1} s_{i} on {label}")
    return identities


def check_commutes(smap, k_max, length_bound=None):
    """Identities a ``SimplicialMap`` keeps with faces and degeneracies; NotChainMap on a failure."""
    identities = 0
    source, target = smap.source, smap.target
    for k in range(k_max + 1):
        for s in source.simplices(k, length_bound):
            fs = smap.apply(k, s)
            label = f"degree {k} simplex {source.encode(k, s)}"
            for i in range(k + 1):
                if k >= 1:
                    identities += 1
                    if smap.apply(k - 1, source.face(k, s, i)) != target.face(k, fs, i):
                        raise NotChainMap(f"map fails d_{i} on {label}")
                identities += 1
                if smap.apply(k + 1, source.degeneracy(k, s, i)) != target.degeneracy(k, fs, i):
                    raise NotChainMap(f"map fails s_{i} on {label}")
    return identities
