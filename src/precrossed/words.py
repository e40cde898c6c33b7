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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .algebra import AugmentedRack, FiniteGroup, PreCrossedModule
from .errors import DegreeMismatch, IndexOutOfRange, ModeMismatch


class WordMode(Enum):
    GROUP_SYLLABLE = "group"
    FREE_LETTER = "free"
    MONOID_LETTER = "monoid"


class Letter(NamedTuple):
    base: int
    sign: int  # +1 or -1; -1 only in FREE_LETTER mode
    position: int


@dataclass(frozen=True)
class EnvelopeWord:
    mode: WordMode
    degree: int
    letters: tuple[Letter, ...]
    tail: int

    @property
    def length(self) -> int:
        return len(self.letters)

    def is_pure(self, ctx: "WordContext") -> bool:
        return self.tail == ctx.group.identity


@dataclass(frozen=True)
class WordContext:
    """Everything word arithmetic needs about one envelope or monoid.

    ``action[b][g]`` is the base twist b^g, ``pi[b]`` the group value of a
    letter base; ``x_table``/``x_identity`` are set only in GROUP_SYLLABLE mode.
    """

    mode: WordMode
    group: FiniteGroup
    pi: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    x_table: tuple[tuple[int, ...], ...] | None = None
    x_identity: int | None = None

    @property
    def alphabet_size(self) -> int:
        return len(self.labels)


def context_from_precrossed(module: PreCrossedModule) -> WordContext:
    return WordContext(
        mode=WordMode.GROUP_SYLLABLE,
        group=module.group,
        pi=module.pi,
        action=module.action.table,
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
        action=rack.action.table,
        labels=rack.carrier,
    )


def _check_letter(ctx: WordContext, lt: Letter, degree: int) -> None:
    if not 0 <= lt.position < degree:
        raise IndexOutOfRange(f"letter position {lt.position} outside degree {degree}")
    if not 0 <= lt.base < ctx.alphabet_size:
        raise IndexOutOfRange(f"letter base {lt.base} outside the carrier")
    if lt.sign not in (1, -1) or (lt.sign == -1 and ctx.mode is not WordMode.FREE_LETTER):
        raise ModeMismatch(f"sign {lt.sign} not allowed in mode {ctx.mode.name}")


def _push(ctx: WordContext, out: list[Letter], lt: Letter) -> None:
    if ctx.mode is WordMode.GROUP_SYLLABLE:
        if lt.base == ctx.x_identity:
            return
        if out and out[-1].position == lt.position:
            prev = out.pop()
            merged = ctx.x_table[prev.base][lt.base]
            # the new top has a different position, so one merge suffices
            if merged != ctx.x_identity:
                out.append(Letter(merged, 1, lt.position))
            return
        out.append(lt)
    elif ctx.mode is WordMode.FREE_LETTER:
        if out and out[-1] == Letter(lt.base, -lt.sign, lt.position):
            out.pop()
            return
        out.append(lt)
    else:
        out.append(lt)


def reduce(ctx: WordContext, degree: int, letters: Iterable[Letter], tail: int | None = None) -> EnvelopeWord:
    """Normal form of a letter sequence; idempotent.  Every letter is checked."""
    letters = list(letters)
    for lt in letters:
        _check_letter(ctx, lt, degree)
    return _reduce(ctx, degree, letters, ctx.group.identity if tail is None else tail)


def _reduce(ctx: WordContext, degree: int, letters: Iterable[Letter], tail: int) -> EnvelopeWord:
    """``reduce`` without the letter checks, for letters re-indexed from a checked word."""
    out: list[Letter] = []
    for lt in letters:
        _push(ctx, out, lt)
    return EnvelopeWord(ctx.mode, degree, tuple(out), tail)


def twist(ctx: WordContext, g: int, word: EnvelopeWord) -> EnvelopeWord:
    """Replace every base x by x^(g^-1); the move that carries g left past the word."""
    if g == ctx.group.identity:
        return word
    ginv = ctx.group.inv(g)
    col = ctx.action
    letters = tuple(Letter(col[lt.base][ginv], lt.sign, lt.position) for lt in word.letters)
    return EnvelopeWord(word.mode, word.degree, letters, word.tail)


def multiply(ctx: WordContext, w1: EnvelopeWord, w2: EnvelopeWord) -> EnvelopeWord:
    if w1.mode is not w2.mode or w1.mode is not ctx.mode:
        raise ModeMismatch(f"cannot multiply {w1.mode.name} by {w2.mode.name} in {ctx.mode.name}")
    if w1.degree != w2.degree:
        raise DegreeMismatch(f"degrees {w1.degree} and {w2.degree} differ")
    shifted = twist(
        ctx, w1.tail, EnvelopeWord(w2.mode, w2.degree, w2.letters, ctx.group.identity)
    )
    return reduce(
        ctx,
        w1.degree,
        w1.letters + shifted.letters,
        tail=ctx.group.mul(w1.tail, w2.tail),
    )


def normalize_mixed(ctx: WordContext, degree: int, items, tail: int | None = None) -> EnvelopeWord:
    """Push every interleaved group element to the right, then reduce.

    ``items`` may mix Letter values and group element indices (plain ints).
    """
    letters, g = _push_group_elements(ctx, items, tail)
    return reduce(ctx, degree, letters, tail=g)


def _push_group_elements(ctx: WordContext, items, tail: int | None) -> tuple[list[Letter], int]:
    """Twist each letter by the group elements before it; return the letters and the tail."""
    g = ctx.group.identity
    letters: list[Letter] = []
    for item in items:
        if isinstance(item, Letter):
            if g == ctx.group.identity:
                letters.append(item)
            else:
                ginv = ctx.group.inv(g)
                letters.append(Letter(ctx.action[item.base][ginv], item.sign, item.position))
        else:
            g = ctx.group.mul(g, item)
    if tail is not None:
        g = ctx.group.mul(g, tail)
    return letters, g


def face_word(ctx: WordContext, word: EnvelopeWord, i: int) -> EnvelopeWord:
    """Letterwise face operator on a full word (tail kept).

    A letter at position j in degree k goes to: nothing when i = j = 0, the
    untouched letter when i > j, position j-1 when i <= j and j > 0, and the
    group element pi(base)^sign when j = k-1 and i = k.  Group elements are
    then pushed into the tail.
    """
    k = word.degree
    if k == 0 or not 0 <= i <= k:
        raise IndexOutOfRange(f"face {i} undefined in degree {k}")
    items: list = []
    for lt in word.letters:
        b, s, j = lt
        if j == k - 1 and i == k:
            g = ctx.pi[b]
            items.append(g if s > 0 else ctx.group.inv(g))
        elif i > j:
            items.append(lt)
        elif j == 0:
            continue  # i = j = 0: the letter evaluates to the identity
        else:
            items.append(Letter(b, s, j - 1))
    letters, tail = _push_group_elements(ctx, items, word.tail)
    return _reduce(ctx, k - 1, letters, tail)


def degeneracy_word(ctx: WordContext, word: EnvelopeWord, i: int) -> EnvelopeWord:
    """Letterwise degeneracy: position j becomes j+1 when i <= j, else stays."""
    k = word.degree
    if not 0 <= i <= k:
        raise IndexOutOfRange(f"degeneracy {i} undefined in degree {k}")
    letters = [
        Letter(b, s, j + 1 if i <= j else j) for b, s, j in word.letters
    ]
    return _reduce(ctx, k + 1, letters, word.tail)


def strip_tail(ctx: WordContext, word: EnvelopeWord) -> EnvelopeWord:
    """Coset representative under the free right G-action: forget the tail."""
    if word.tail == ctx.group.identity:
        return word
    return EnvelopeWord(word.mode, word.degree, word.letters, ctx.group.identity)


def encode(ctx: WordContext, word: EnvelopeWord) -> str:
    """Canonical text form: `(x@j)` letters, `(x^-1@j)` for inverses, `|g` tail, `1` if empty."""
    parts = []
    for lt in word.letters:
        if lt.sign >= 0:
            parts.append(f"({ctx.labels[lt.base]}@{lt.position})")
        else:
            parts.append(f"({ctx.labels[lt.base]}^-1@{lt.position})")
    text = "".join(parts) or "1"
    if word.tail != ctx.group.identity:
        text += f"|{ctx.group.label(word.tail)}"
    return text


def sort_key(ctx: WordContext, word: EnvelopeWord) -> tuple[int, str]:
    return (word.length, encode(ctx, word))
