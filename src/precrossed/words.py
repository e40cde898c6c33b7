"""Words of position-tagged letters as int codes: normal forms and faces.

A word in degree k is a sequence of letters over positions 0..k-1.  Three
modes share the machinery:

* GROUP_SYLLABLE -- letters index a finite group X; adjacent letters at the
  same position merge through the X table and identity letters vanish.
* FREE_LETTER    -- letters index a plain carrier and carry a sign; only
  adjacent exact inverses cancel (free-group syllables spelled letterwise).
* MONOID_LETTER  -- letters index a plain carrier; nothing reduces.

An envelope word also ends in a group element, its tail, and homology reads
the envelope modulo the base group, which forgets the tail; so a word here
has none.  The top face turns letters into group elements, and carrying g
right past a letter twists its base, g * (x)_j = (x^(g^-1))_j * g.

A word of degree k is a single int, its code, whose digits are the codes
of its letters (see ``Coding``).  Each mode's merge/cancel rule is written
once, as the ``push`` of a degree's ``Coding``, which adds one letter code
to a word code.  ``word_faces`` walks the digits of word codes along the
prefixes that consecutive words share, and is the one face routine; the
twist is written once, in ``face_table``.  ``reduce`` folds any checked
letters through ``push`` into a code.

The functions take the word simplicial set, ``simplicial.WordSpec``, as
``spec`` and read: ``mode``; the base ``group``; ``pi[b]``, the group value
of letter base b, and ``action[b][g]``, its twist b^g; ``labels``, the
letter base texts; X's ``x_table`` and ``x_identity`` (None outside
GROUP_SYLLABLE); and ``codings[k]`` and ``face_tables[k]``, ``coding`` and
``face_table`` of degree k, kept on first read.
"""

from __future__ import annotations

# Iterable, Iterator (collections.abc) and WordSpec (simplicial) in annotations
# are never imported: PEP 563 keeps annotations as strings

from ._values import value_type
from .errors import IndexOutOfRange, ModeMismatch


class WordMode(value_type("WordMode", "name value")):
    """How letters reduce: one of the three members below, compared by identity."""

    __slots__ = ()


WordMode.GROUP_SYLLABLE = WordMode("GROUP_SYLLABLE", "group")
WordMode.FREE_LETTER = WordMode("FREE_LETTER", "free")
WordMode.MONOID_LETTER = WordMode("MONOID_LETTER", "monoid")


class Letter(value_type("Letter", "base sign position")):
    """One letter: a base index, a sign (+1, or -1 only in FREE_LETTER mode), a position."""

    __slots__ = ()


class Coding:
    """The letters of one degree as integer codes, and the mode's push rule on them.

    ``letters[c]`` is the letter of code c, its rank in the alphabet counted
    from 1 (``letters[0]`` is None), and ``codes`` maps each letter back to
    its code.  A word c_1 ... c_n is the int sum of c_i R^(n-i), R =
    ``radix`` = len(letters): the first letter is the most significant digit.
    So a longer word is a larger int, and words of one length compare as
    their texts do.
    """

    __slots__ = ("letters", "codes", "radix", "push")

    def __init__(self, letters: list, codes: dict, radix: int, push):
        self.letters = letters
        self.codes = codes
        self.radix = radix
        self.push = push


def alphabet(spec: WordSpec, k: int) -> list[Letter]:
    """Every letter that does not vanish on its own in degree k, in the order of its text.

    Those are the group syllables other than the identity, free letters
    of either sign and monoid letters, at positions 0..k-1.
    """
    signs = (1, -1) if spec.mode is WordMode.FREE_LETTER else (1,)
    letters = [Letter(b, s, j) for j in range(k) for b in range(len(spec.labels))
               for s in signs if b != spec.x_identity]
    return sorted(letters, key=lambda lt: letter_text(spec, (lt,)))


def coding(spec: WordSpec, k: int) -> Coding:
    """The codes of degree k, and the reduction rule of the mode on them.

    ``push(w, c)`` returns the word code ``w`` with the letter of code c
    added on the right: group syllables at one position merge through
    the X table and identities vanish, free letters cancel against an
    adjacent exact inverse, monoid letters never reduce.  The empty word
    is 0, whose last digit 0 is no letter's code.
    """
    letters = [None, *alphabet(spec, k)]
    radix = len(letters)
    codes = {lt: c for c, lt in enumerate(letters) if c}
    if spec.mode is WordMode.GROUP_SYLLABLE:
        table = spec.x_table
        pos = [-1] + [j for _, _, j in letters[1:]]
        # merged[t][c]: the code of the syllable t.c, 0 for the identity;
        # read only where t and c share a position
        merged = [()] + [[0] + [codes.get((table[a][b], 1, i), 0) if j == i else 0
                                for b, _, j in letters[1:]]
                         for a, _, i in letters[1:]]

        def push(w, c):
            t = w % radix
            if pos[t] != pos[c]:
                return w * radix + c
            # the new last letter has another position, so one merge suffices
            m = merged[t][c]
            return w - t + m if m else w // radix
    elif spec.mode is WordMode.FREE_LETTER:
        inverse = [0] + [codes[b, -s, j] for b, s, j in letters[1:]]

        def push(w, c):
            if w % radix == inverse[c]:
                return w // radix
            return w * radix + c
    else:
        def push(w, c):
            return w * radix + c
    return Coding(letters, codes, radix, push)


def face_table(spec: WordSpec, k: int) -> tuple[list, list, list]:
    """What each degree-k code c becomes in the faces of a word (k >= 1).

    ``lowered[c][i]`` is the degree-(k-1) code of c in d_i for i < k, 0
    where d_0 drops a letter at position 0.  For d_k, a letter at the top
    position k-1 becomes the group element ``value[c]``, pi(base)^sign;
    any other letter twisted by g^-1 has the code ``twisted[c][g]``, and
    ``twisted[c]`` is None at the top position.
    """
    top = k - 1
    below = spec.codings[top].codes
    inv, pi, action = spec.group.inverse, spec.pi, spec.action
    lowered: list = [()]
    twisted: list = [None]
    value: list = [None]
    for b, s, j in spec.codings[k].letters[1:]:
        # d_i sends position j to j - 1 for i <= j and keeps it for j < i < k;
        # below holds no letter at position k - 1, which only d_k reaches
        moved = below[b, s, j - 1] if j else 0
        lowered.append((moved,) * (j + 1) + (below.get((b, s, j)),) * (top - j))
        if j == top:
            twisted.append(None)
            value.append(pi[b] if s > 0 else inv[pi[b]])
        else:
            # inv[g] is g^-1, so entry g is the code of (b^(g^-1), s, j)
            twisted.append(tuple([below[action[b][h], s, j] for h in inv]))
            value.append(None)
    return lowered, twisted, value


def _check_letter(spec: WordSpec, lt: tuple[int, int, int], degree: int) -> None:
    base, sign, position = lt
    if not 0 <= position < degree:
        raise IndexOutOfRange(f"letter position {position} outside degree {degree}")
    if not 0 <= base < len(spec.labels):
        raise IndexOutOfRange(f"letter base {base} outside the carrier")
    if sign not in (1, -1) or (sign == -1 and spec.mode is not WordMode.FREE_LETTER):
        raise ModeMismatch(f"sign {sign} not allowed in mode {spec.mode.name}")


def _fold(spec: WordSpec, degree: int, letters: Iterable[tuple[int, int, int]],
          move: tuple[int, ...] | None = None) -> int:
    """The degree-``degree`` code of ``letters`` re-indexed through ``move``, reduced.

    Letters are ``(base, sign, position)`` tuples, pushed one at a time
    through the mode's rule; a letter outside the alphabet is an identity
    syllable, which vanishes.
    """
    coding = spec.codings[degree]
    codes, push = coding.codes, coding.push
    w = 0
    for b, s, j in letters:
        c = codes.get((b, s, j if move is None else move[j]))
        if c:
            w = push(w, c)
    return w


def reduce(spec: WordSpec, degree: int, letters: Iterable[tuple[int, int, int]]) -> int:
    """The degree-``degree`` code of the normal form of a letter sequence.

    Every letter is checked, then folded through the mode's ``push``.
    """
    letters = list(letters)
    for lt in letters:
        _check_letter(spec, lt, degree)
    return _fold(spec, degree, letters)


def word_faces(spec: WordSpec, degree: int, words: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """``(d_0 w, ..., d_k w)`` for each degree-k word code w, in input order,
    as degree-(k-1) codes, tails dropped.

    The faces are computed along shared prefixes.  For each prefix length n
    of the previous word the walk keeps the reduced codes of d_0..d_(k-1)
    on its first n letters, and the reduced code and the group element g
    of d_k.  A word resumes from the state of its longest common prefix with
    the previous word and pushes only the letters after it: d_i with i < k
    pushes the letter re-indexed through its face map, d_k multiplies a top
    letter's pi(base)^sign into g and pushes any other letter twisted by
    g^-1, each read off ``spec.face_tables[k]``.  Any input order is
    correct; sorted input shares the most.
    """
    k = degree
    if k == 0:
        raise IndexOutOfRange(f"face 0 undefined in degree {k}")
    radix = spec.codings[k].radix
    push = spec.codings[k - 1].push
    lowered, twisted, value = spec.face_tables[k]
    mul = spec.group.table
    # states[n]: (lower faces, top face, g) on the first n letters of prev
    states = [((0,) * k, 0, spec.group.identity)]
    prev = 0
    for word in words:
        # the digits of word after its longest common prefix with prev, last
        # first: strip a digit off both until they agree.  Codes of one
        # length agree on their common prefix; otherwise both run down to 0,
        # and the shorter one's padding zeros, which are no code, are dropped
        suffix, w, q = [], word, prev
        while w != q:
            w, c = divmod(w, radix)
            q //= radix
            suffix.append(c)
        if w:
            del states[len(states) - len(suffix):]
        else:
            while suffix and not suffix[-1]:
                suffix.pop()
            del states[1:]
        lower, upper, g = states[-1]
        for c in reversed(suffix):
            lower = tuple([push(st, m) if m else st for st, m in zip(lower, lowered[c])])
            t = twisted[c]
            if t is None:
                g = mul[g][value[c]]
            else:
                upper = push(upper, t[g])
            states.append((lower, upper, g))
        prev = word
        yield lower + (upper,)


def letter_text(spec: WordSpec, letters: tuple) -> str:
    """The letters as text: `(x@j)`, `(x^-1@j)` for inverses, `1` if there are none."""
    labels = spec.labels
    return "".join([f"({labels[b]}@{j})" if s >= 0 else f"({labels[b]}^-1@{j})"
                    for b, s, j in letters]) or "1"
