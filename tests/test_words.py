import itertools
import random

import pytest

from precrossed.algebra import (
    conjugation_module,
    cyclic_group,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_augmented_rack,
    validate_precrossed,
)
from precrossed.errors import DegreeMismatch, IndexOutOfRange, ModeMismatch
from precrossed.words import (
    EnvelopeWord,
    Letter,
    WordMode,
    context_from_precrossed,
    context_from_rack,
    encode,
    multiply,
    normalize_mixed,
    reduce,
    twist,
)


def z2_trivial_ctx():
    z2, triv = cyclic_group(2), trivial_group()
    module = validate_precrossed(z2, triv, trivial_action(triv, 2), [0, 0])
    return context_from_precrossed(module)


def one_rack_ctx(mode):
    z2 = cyclic_group(2)
    rack = validate_augmented_rack(["a"], z2, [[0, 0]], [1])
    return context_from_rack(rack, mode)


def s3_ctx():
    return context_from_precrossed(conjugation_module(symmetric_group(3)))


def all_words(ctx, degree, max_len):
    """Every normal-form letter sequence up to a length bound."""
    if ctx.mode is WordMode.GROUP_SYLLABLE:
        alphabet = [
            Letter(b, 1, j)
            for j in range(degree)
            for b in range(ctx.alphabet_size)
            if b != ctx.x_identity
        ]
    elif ctx.mode is WordMode.FREE_LETTER:
        alphabet = [
            Letter(b, s, j)
            for j in range(degree)
            for b in range(ctx.alphabet_size)
            for s in (1, -1)
        ]
    else:
        alphabet = [
            Letter(b, 1, j) for j in range(degree) for b in range(ctx.alphabet_size)
        ]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            w + (lt,)
            for w in frontier
            for lt in alphabet
            if reduce(ctx, degree, w + (lt,)).length == len(w) + 1
        ]
        out.extend(frontier)
    return [EnvelopeWord(ctx.mode, degree, w, ctx.group.identity) for w in out]


def test_reduce_group_syllable_cancels_involution():
    ctx = z2_trivial_ctx()
    w = reduce(ctx, 1, [Letter(1, 1, 0), Letter(1, 1, 0)])
    assert w.letters == ()


def test_reduce_free_letter_cancels_inverse_pair():
    ctx = one_rack_ctx(WordMode.FREE_LETTER)
    w = reduce(ctx, 1, [Letter(0, 1, 0), Letter(0, -1, 0)])
    assert w.letters == ()


def test_reduce_monoid_keeps_repeats():
    ctx = one_rack_ctx(WordMode.MONOID_LETTER)
    w = reduce(ctx, 1, [Letter(0, 1, 0), Letter(0, 1, 0)])
    assert w.length == 2


def test_reduce_is_idempotent_on_random_sequences():
    rng = random.Random(7)
    for ctx in (z2_trivial_ctx(), s3_ctx(), one_rack_ctx(WordMode.FREE_LETTER)):
        for _ in range(200):
            degree = rng.randint(1, 3)
            raw = []
            for _ in range(rng.randint(0, 6)):
                b = rng.randrange(ctx.alphabet_size)
                s = rng.choice((1, -1)) if ctx.mode is WordMode.FREE_LETTER else 1
                raw.append(Letter(b, s, rng.randrange(degree)))
            once = reduce(ctx, degree, raw)
            again = reduce(ctx, degree, once.letters, tail=once.tail)
            assert once == again


def test_multiply_involution_gives_identity_word():
    ctx = z2_trivial_ctx()
    w = reduce(ctx, 1, [Letter(1, 1, 0)])
    assert multiply(ctx, w, w).letters == ()


def test_multiply_tails_compose():
    ctx = s3_ctx()
    g = ctx.group
    for a in range(g.order):
        for b in range(g.order):
            w1 = EnvelopeWord(ctx.mode, 2, (), a)
            w2 = EnvelopeWord(ctx.mode, 2, (), b)
            assert multiply(ctx, w1, w2).tail == g.mul(a, b)


def test_multiply_twists_second_factor_past_tail():
    ctx = s3_ctx()
    g = ctx.group
    for tail in range(g.order):
        for base in range(g.order):
            if base == ctx.x_identity:
                continue
            w1 = EnvelopeWord(ctx.mode, 2, (), tail)
            w2 = reduce(ctx, 2, [Letter(base, 1, 1)])
            prod = multiply(ctx, w1, w2)
            expected = ctx.action[base][g.inv(tail)]
            assert prod.letters == (Letter(expected, 1, 1),)
            assert prod.tail == tail


def test_multiply_rejects_mode_and_degree_mismatch():
    ctx = z2_trivial_ctx()
    free_ctx = one_rack_ctx(WordMode.FREE_LETTER)
    w1 = reduce(ctx, 2, [Letter(1, 1, 0)])
    w2 = reduce(ctx, 1, [Letter(1, 1, 0)])
    with pytest.raises(DegreeMismatch):
        multiply(ctx, w1, w2)
    wf = reduce(free_ctx, 2, [Letter(0, 1, 0)])
    with pytest.raises(ModeMismatch):
        multiply(ctx, w1, wf)


def test_reduce_checks_every_letter():
    ctx = z2_trivial_ctx()
    with pytest.raises(IndexOutOfRange, match="position 2 outside degree 2"):
        reduce(ctx, 2, [Letter(1, 1, 0), Letter(1, 1, 2)])
    with pytest.raises(IndexOutOfRange, match="base 2 outside"):
        reduce(ctx, 2, iter([Letter(2, 1, 0)]))
    with pytest.raises(ModeMismatch, match="sign -1"):
        reduce(ctx, 2, [Letter(1, -1, 1)])
    with pytest.raises(IndexOutOfRange):
        normalize_mixed(ctx, 1, [Letter(1, 1, 1)])


def test_multiply_is_associative_exhaustively_small():
    ctx = z2_trivial_ctx()
    words = all_words(ctx, 3, 3)
    sample = words  # |X| = 2: exhaustive
    for w1, w2, w3 in itertools.product(sample, repeat=3):
        left = multiply(ctx, multiply(ctx, w1, w2), w3)
        right = multiply(ctx, w1, multiply(ctx, w2, w3))
        assert left == right


def test_multiply_is_associative_sampled_nonabelian():
    ctx = s3_ctx()
    rng = random.Random(11)
    words = all_words(ctx, 2, 2)
    with_tails = [
        EnvelopeWord(ctx.mode, 2, w.letters, rng.randrange(6)) for w in words
    ]
    for _ in range(400):
        w1, w2, w3 = (rng.choice(with_tails) for _ in range(3))
        assert multiply(ctx, multiply(ctx, w1, w2), w3) == multiply(
            ctx, w1, multiply(ctx, w2, w3)
        )


def test_twist_trivial_action_is_identity():
    ctx = z2_trivial_ctx()
    w = reduce(ctx, 2, [Letter(1, 1, 0), Letter(1, 1, 1)])
    assert twist(ctx, ctx.group.identity, w) == w


def test_twist_conjugates_bases_in_s3():
    ctx = s3_ctx()
    g = ctx.group
    transposition = next(
        i for i in range(6) if i != g.identity and g.mul(i, i) == g.identity
    )
    rotation = next(i for i in range(6) if g.mul(i, g.mul(i, i)) == g.identity and i != g.identity)
    w = reduce(ctx, 1, [Letter(rotation, 1, 0)])
    tw = twist(ctx, transposition, w)
    # base becomes the conjugate by the inverse twisting element
    expected = g.conj(rotation, g.inv(transposition))
    assert tw.letters == (Letter(expected, 1, 0),)
    assert expected == g.mul(rotation, rotation)  # the other rotation


def test_twist_composes_and_inverts():
    ctx = s3_ctx()
    rng = random.Random(3)
    words = all_words(ctx, 2, 2)
    for _ in range(200):
        w = rng.choice(words)
        g1, g2 = rng.randrange(6), rng.randrange(6)
        assert twist(ctx, g1, twist(ctx, g2, w)) == twist(ctx, ctx.group.mul(g1, g2), w)
        assert twist(ctx, ctx.group.inv(g1), twist(ctx, g1, w)) == w


def test_twist_is_a_bijection_on_each_length():
    ctx = s3_ctx()
    words = all_words(ctx, 2, 2)
    by_length = {}
    for w in words:
        by_length.setdefault(w.length, set()).add(w)
    for g in range(6):
        for length, bucket in by_length.items():
            image = {twist(ctx, g, w) for w in bucket}
            assert image == bucket


def test_normalize_mixed_lone_group_element():
    ctx = s3_ctx()
    w = normalize_mixed(ctx, 2, [4])
    assert w.letters == () and w.tail == 4


def test_normalize_mixed_single_push():
    ctx = s3_ctx()
    g = ctx.group
    for y in range(6):
        for x in range(6):
            if x == ctx.x_identity:
                continue
            py = ctx.pi[y]
            w = normalize_mixed(ctx, 1, [py, Letter(x, 1, 0)])
            assert w.tail == py
            expected = ctx.action[x][g.inv(py)]
            if expected == ctx.x_identity:
                assert w.letters == ()
            else:
                assert w.letters == (Letter(expected, 1, 0),)


def test_normalize_mixed_double_push():
    ctx = s3_ctx()
    g = ctx.group
    x, gelt, y, h = 2, 3, 4, 5
    w = normalize_mixed(ctx, 2, [Letter(x, 1, 0), gelt, Letter(y, 1, 1), h])
    assert w.tail == g.mul(gelt, h)
    assert w.letters == (
        Letter(x, 1, 0),
        Letter(ctx.action[y][g.inv(gelt)], 1, 1),
    )


def test_encode_forms():
    ctx = one_rack_ctx(WordMode.FREE_LETTER)
    empty = EnvelopeWord(ctx.mode, 1, (), 0)
    assert encode(ctx, empty) == "1"
    w = reduce(ctx, 2, [Letter(0, 1, 0), Letter(0, -1, 1)], tail=1)
    assert encode(ctx, w) == "(a@0)(a^-1@1)|1"


def test_group_syllable_context_requires_module():
    z2 = cyclic_group(2)
    rack = validate_augmented_rack(["a"], z2, [[0, 0]], [1])
    with pytest.raises(ModeMismatch):
        context_from_rack(rack, WordMode.GROUP_SYLLABLE)
