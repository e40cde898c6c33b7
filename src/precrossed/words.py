"""Canonical normal forms for words of position-tagged letters with a group tail.

A word in degree k is a sequence of letters over positions 0..k-1 followed by
a single group element (the tail).  Three modes share the machinery:

* GROUP_SYLLABLE -- letters index a finite group X; adjacent letters at the
  same position merge through the X table and identity letters vanish.
* FREE_LETTER    -- letters index a plain carrier and carry a sign; only
  adjacent exact inverses cancel (free-group syllables spelled letterwise).
* MONOID_LETTER  -- letters index a plain carrier; nothing reduces.

The tail sits rightmost; pushing a group element g left-to-right past a
letter twists the letter base, g * (x)_j = (x^(g^-1))_j * g.

Each mode's merge/cancel rule is written once, as ``WordContext.push``,
which adds one plain ``(base, sign, position)`` tuple to a reduced tuple.
``reduce`` and the degeneracies fold letters through it; ``word_faces``
pushes letters through it along the prefixes that consecutive words share,
and is the one face routine.  The twist is written once for whole words,
in ``normalize_mixed``, which ``twist`` and ``multiply`` go through.
"""

from __future__ import annotations

# Iterable and Iterator in annotations are the collections.abc classes; PEP 563
# keeps annotations as strings, so that module is never imported

from ._values import value_type
from .algebra import AugmentedRack, FiniteGroup, PreCrossedModule
from .errors import DegreeMismatch, IndexOutOfRange, ModeMismatch


class WordMode(value_type("WordMode", "name value")):
    """How letters reduce: one of the three members below, compared by identity."""

    __slots__ = ()


WordMode.GROUP_SYLLABLE = WordMode("GROUP_SYLLABLE", "group")
WordMode.FREE_LETTER = WordMode("FREE_LETTER", "free")
WordMode.MONOID_LETTER = WordMode("MONOID_LETTER", "monoid")


class Letter(value_type("Letter", "base sign position")):
    """One letter: a base index, a sign (+1, or -1 only in FREE_LETTER mode), a position."""

    __slots__ = ()


class EnvelopeWord(value_type("EnvelopeWord", "mode degree letters tail")):
    """A word in degree ``degree``: its reduced ``letters`` and the group element ``tail``."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.letters)


class WordContext:
    """Everything word arithmetic needs about one envelope or monoid.

    ``action[b][g]`` is the base twist b^g, ``pi[b]`` the group value of a
    letter base; ``x_table``/``x_identity`` are set only in GROUP_SYLLABLE mode.
    """

    def __init__(self, mode: WordMode, group: FiniteGroup, pi: tuple[int, ...],
                 action: tuple[tuple[int, ...], ...], labels: tuple[str, ...],
                 x_table: tuple[tuple[int, ...], ...] | None = None,
                 x_identity: int | None = None):
        self.mode = mode
        self.group = group
        self.pi = pi
        self.action = action
        self.labels = labels
        self.alphabet_size = len(labels)
        self.x_table = x_table
        self.x_identity = x_identity
        self.push = self._push_rule()

    def _push_rule(self):
        """The reduction rule of the mode, one letter at a time.

        ``push(stack, base, sign, position)`` returns the reduced letter tuple
        ``stack`` with the letter added on the right: group syllables at one
        position merge through the X table and identities vanish, free letters
        cancel against an adjacent exact inverse, monoid letters never reduce.
        """
        if self.mode is WordMode.GROUP_SYLLABLE:
            table, e = self.x_table, self.x_identity

            def push(stack, b, s, j):
                if b == e:
                    return stack
                if stack and stack[-1][2] == j:
                    # the new top has a different position, so one merge suffices
                    merged = table[stack[-1][0]][b]
                    return stack[:-1] + ((merged, 1, j),) if merged != e else stack[:-1]
                return stack + ((b, s, j),)
        elif self.mode is WordMode.FREE_LETTER:
            def push(stack, b, s, j):
                if stack and stack[-1] == (b, -s, j):
                    return stack[:-1]
                return stack + ((b, s, j),)
        else:
            def push(stack, b, s, j):
                return stack + ((b, s, j),)
        return push


def context_from_precrossed(module: PreCrossedModule) -> WordContext:
    return WordContext(
        mode=WordMode.GROUP_SYLLABLE,
        group=module.group,
        pi=module.pi,
        action=module.action,
        labels=module.x_group.elements,
        x_table=module.x_group.table,
        x_identity=module.x_group.identity,
    )


def context_from_rack(rack: AugmentedRack, mode: WordMode) -> WordContext:
    if mode is WordMode.GROUP_SYLLABLE:
        raise ModeMismatch("GROUP_SYLLABLE requires a pre-crossed module")
    return WordContext(
        mode=mode,
        group=rack.group,
        pi=rack.pi,
        action=rack.action,
        labels=rack.carrier,
    )


def _check_letter(ctx: WordContext, lt: Letter, degree: int) -> None:
    if not 0 <= lt.position < degree:
        raise IndexOutOfRange(f"letter position {lt.position} outside degree {degree}")
    if not 0 <= lt.base < ctx.alphabet_size:
        raise IndexOutOfRange(f"letter base {lt.base} outside the carrier")
    if lt.sign not in (1, -1) or (lt.sign == -1 and ctx.mode is not WordMode.FREE_LETTER):
        raise ModeMismatch(f"sign {lt.sign} not allowed in mode {ctx.mode.name}")


def _normal_form(ctx: WordContext, letters: Iterable[tuple[int, int, int]],
                 move: tuple[int, ...]) -> tuple:
    """Re-index letter positions through ``move`` (-1 drops a letter), then reduce.

    Letters are ``(base, sign, position)`` tuples and come back as plain
    tuples, folded one at a time through the mode's ``push`` rule.
    """
    push = ctx.push
    out: tuple = ()
    for b, s, j in letters:
        if (j := move[j]) >= 0:
            out = push(out, b, s, j)
    return out


def _as_letters(letters: tuple) -> tuple[Letter, ...]:
    return tuple(map(Letter._make, letters))


def reduce(ctx: WordContext, degree: int, letters: Iterable[Letter], tail: int | None = None) -> EnvelopeWord:
    """Normal form of a letter sequence; idempotent.  Every letter is checked."""
    letters = list(letters)
    for lt in letters:
        _check_letter(ctx, lt, degree)
    letters = _normal_form(ctx, letters, tuple(range(degree)))
    return EnvelopeWord(ctx.mode, degree, _as_letters(letters),
                        ctx.group.identity if tail is None else tail)


def twist(ctx: WordContext, g: int, word: EnvelopeWord) -> EnvelopeWord:
    """Replace every base x by x^(g^-1); the move that carries g left past the word."""
    letters = normalize_mixed(ctx, word.degree, [g, *_as_letters(word.letters)]).letters
    return EnvelopeWord(word.mode, word.degree, letters, word.tail)


def multiply(ctx: WordContext, w1: EnvelopeWord, w2: EnvelopeWord) -> EnvelopeWord:
    if w1.mode is not w2.mode or w1.mode is not ctx.mode:
        raise ModeMismatch(f"cannot multiply {w1.mode.name} by {w2.mode.name} in {ctx.mode.name}")
    if w1.degree != w2.degree:
        raise DegreeMismatch(f"degrees {w1.degree} and {w2.degree} differ")
    items = [*_as_letters(w1.letters), w1.tail, *_as_letters(w2.letters)]
    return normalize_mixed(ctx, w1.degree, items, w2.tail)


def normalize_mixed(ctx: WordContext, degree: int, items, tail: int | None = None) -> EnvelopeWord:
    """Push every interleaved group element to the right, then reduce.

    ``items`` may mix Letter values and group element indices (plain ints);
    each letter is twisted by the group elements before it.
    """
    g = ctx.group.identity
    letters: list[Letter] = []
    for item in items:
        if isinstance(item, Letter):
            if g != ctx.group.identity:
                item = Letter(ctx.action[item.base][ctx.group.inv(g)], item.sign, item.position)
            letters.append(item)
        else:
            g = ctx.group.mul(g, item)
    if tail is not None:
        g = ctx.group.mul(g, tail)
    return reduce(ctx, degree, letters, tail=g)


def word_faces(ctx: WordContext, degree: int, words: Iterable[tuple]) -> Iterator[tuple]:
    """``(d_0 w, ..., d_k w)`` for each tail-free word w, in input order, tails dropped.

    The faces are computed along shared prefixes.  For each prefix length n
    of the previous word the walk keeps the reduced letters of d_0..d_(k-1)
    on its first n letters, and the reduced letters and the group element g
    of d_k.  A word resumes from the state of its longest common prefix with
    the previous word and pushes only the letters after it: d_i with i < k
    pushes the letter re-indexed through its face map, d_k multiplies a top
    letter's pi(base)^sign into g and pushes any other letter twisted by
    g^-1.  Any input order is correct; sorted input shares the most.
    """
    k = degree
    if k == 0:
        raise IndexOutOfRange(f"face 0 undefined in degree {k}")
    push = ctx.push
    group = ctx.group
    mul, inv = group.table, group.inverse
    pi, action = ctx.pi, ctx.action
    top = k - 1
    # moves[j][i]: where d_i (i < k) sends position j, which is j - 1 for i <= j
    # and j for i > j; -1 drops the letter
    moves = [(j - 1,) * (j + 1) + (j,) * (k - 1 - j) for j in range(k)]
    # states[n]: (lower faces, top face, g) on the first n letters of prev
    states = [(((),) * k, (), group.identity)]
    prev: tuple = ()
    for word in words:
        p, n = 0, min(len(word), len(prev))
        while p < n and word[p] == prev[p]:
            p += 1
        del states[p + 1:]
        lower, upper, g = states[p]
        for b, s, j in word[p:]:
            lower = tuple([push(st, b, s, m) if m >= 0 else st
                           for st, m in zip(lower, moves[j])])
            if j == top:
                g = mul[g][pi[b] if s > 0 else inv[pi[b]]]
            else:
                upper = push(upper, action[b][inv[g]], s, j)
            states.append((lower, upper, g))
        prev = word
        yield lower + (upper,)


def degeneracy_letters(ctx: WordContext, degree: int, letters: tuple, i: int) -> tuple:
    """Letterwise degeneracy s_i: position j becomes j+1 when i <= j, else stays."""
    k = degree
    if not 0 <= i <= k:
        raise IndexOutOfRange(f"degeneracy {i} undefined in degree {k}")
    return _normal_form(ctx, letters, tuple(j if j < i else j + 1 for j in range(k)))


def letter_text(ctx: WordContext, letters: tuple) -> str:
    """The letters as text: `(x@j)`, `(x^-1@j)` for inverses, `1` if there are none."""
    labels = ctx.labels
    return "".join([f"({labels[b]}@{j})" if s >= 0 else f"({labels[b]}^-1@{j})"
                    for b, s, j in letters]) or "1"


def encode(ctx: WordContext, word: EnvelopeWord) -> str:
    """Canonical text form: ``letter_text``, then `|g` for a tail other than the identity."""
    text = letter_text(ctx, word.letters)
    if word.tail != ctx.group.identity:
        text += f"|{ctx.group.label(word.tail)}"
    return text

