"""Word normal forms, and the envelope's group law on the test-side reference.

The package holds a word as the int code of its tail-free normal form, which
``reduce`` folds letters into.  The group law of envelope words with tails --
products, tails composing, the twist x -> x^(g^-1) -- lives only in
``face_oracle.reference_normalize``, the normalization every reference face
goes through; it is checked here, and tied to the package's codes on random
sequences of letters and group elements.
"""

import itertools
import random

import pytest

from face_oracle import reference_normalize, reference_words
from precrossed.algebra import (
    conjugation_module,
    cyclic_group,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_augmented_rack,
    validate_precrossed,
)
from precrossed.errors import IndexOutOfRange, ModeMismatch
from precrossed.simplicial import build_envelope
from precrossed.words import (
    Letter,
    WordMode,
    context_from_precrossed,
    context_from_rack,
    letter_text,
    reduce,
    word_letters,
)


def z2_trivial_module():
    z2, triv = cyclic_group(2), trivial_group()
    return validate_precrossed(z2, triv, trivial_action(triv, 2), [0, 0])


def z2_trivial_ctx():
    return context_from_precrossed(z2_trivial_module())


def one_rack():
    return validate_augmented_rack(["a"], cyclic_group(2), [[0, 0]], [1])


def one_rack_ctx(mode):
    return context_from_rack(one_rack(), mode)


def s3_module():
    return conjugation_module(symmetric_group(3))


def s3_ctx():
    return context_from_precrossed(s3_module())


def all_words(ctx, degree, max_len):
    """Every normal form up to a length bound, as a ``(letters, tail)`` word with no tail."""
    return [(w, ctx.group.identity) for w in reference_words(ctx, degree, max_len)]


def product(ctx, *words):
    """The envelope product of ``(letters, tail)`` words: each word's letters, then its tail."""
    return reference_normalize(ctx, [item for letters, tail in words for item in (*letters, tail)])


def twist(ctx, g, letters):
    """The letters with every base x replaced by x^(g^-1): g carried right past them."""
    return reference_normalize(ctx, [g, *letters])[0]


def test_reduce_group_syllable_cancels_involution():
    ctx = z2_trivial_ctx()
    assert reduce(ctx, 1, [Letter(1, 1, 0), Letter(1, 1, 0)]) == 0


def test_reduce_free_letter_cancels_inverse_pair():
    ctx = one_rack_ctx(WordMode.FREE_LETTER)
    assert reduce(ctx, 1, [Letter(0, 1, 0), Letter(0, -1, 0)]) == 0


def test_reduce_monoid_keeps_repeats():
    ctx = one_rack_ctx(WordMode.MONOID_LETTER)
    w = reduce(ctx, 1, [Letter(0, 1, 0), Letter(0, 1, 0)])
    assert word_letters(ctx, 1, w) == (Letter(0, 1, 0), Letter(0, 1, 0))


def random_letter(rng, ctx, degree):
    b = rng.randrange(ctx.alphabet_size)
    s = rng.choice((1, -1)) if ctx.mode is WordMode.FREE_LETTER else 1
    return Letter(b, s, rng.randrange(degree))


def test_reduce_is_idempotent_on_random_sequences():
    rng = random.Random(7)
    for ctx in (z2_trivial_ctx(), s3_ctx(), one_rack_ctx(WordMode.FREE_LETTER)):
        for _ in range(200):
            degree = rng.randint(1, 3)
            raw = [random_letter(rng, ctx, degree) for _ in range(rng.randint(0, 6))]
            once = reduce(ctx, degree, raw)
            again = reduce(ctx, degree, word_letters(ctx, degree, once))
            assert once == again


def test_reference_letters_are_the_decoded_package_codes():
    # random mixes of letters and group elements: the reference carries every
    # group element into the tail and pushes the letters one by one, and the
    # package folds the same letters, each twisted by the group elements before
    # it, into a code
    rng = random.Random(5)
    specs = (build_envelope(z2_trivial_module()), build_envelope(s3_module()),
             build_envelope(one_rack()))
    for spec in specs:
        ctx, group = spec.ctx, spec.ctx.group
        for _ in range(300):
            k = rng.randint(1, 3)
            items = [rng.randrange(group.order) if rng.random() < 0.3
                     else random_letter(rng, ctx, k) for _ in range(rng.randint(0, 8))]
            letters, tail = reference_normalize(ctx, items)
            g, twisted = group.identity, []
            for item in items:
                if isinstance(item, Letter):
                    twisted.extend(twist(ctx, g, [item]))
                else:
                    g = group.mul(g, item)
            assert letters == spec.letters(k, reduce(ctx, k, twisted)), (spec.describe(), items)
            assert tail == g


def test_multiply_involution_gives_identity_word():
    ctx = z2_trivial_ctx()
    w = ((Letter(1, 1, 0),), ctx.group.identity)
    assert product(ctx, w, w)[0] == ()


def test_multiply_tails_compose():
    ctx = s3_ctx()
    g = ctx.group
    for a in range(g.order):
        for b in range(g.order):
            assert product(ctx, ((), a), ((), b))[1] == g.mul(a, b)


def test_multiply_twists_second_factor_past_tail():
    ctx = s3_ctx()
    g = ctx.group
    for tail in range(g.order):
        for base in range(g.order):
            if base == ctx.x_identity:
                continue
            prod = product(ctx, ((), tail), ((Letter(base, 1, 1),), g.identity))
            expected = ctx.action[base][g.inv(tail)]
            assert prod == ((Letter(expected, 1, 1),), tail)


def test_reduce_checks_every_letter():
    ctx = z2_trivial_ctx()
    with pytest.raises(IndexOutOfRange, match="position 2 outside degree 2"):
        reduce(ctx, 2, [Letter(1, 1, 0), Letter(1, 1, 2)])
    with pytest.raises(IndexOutOfRange, match="base 2 outside"):
        reduce(ctx, 2, iter([Letter(2, 1, 0)]))
    with pytest.raises(ModeMismatch, match="sign -1"):
        reduce(ctx, 2, [Letter(1, -1, 1)])


def test_multiply_is_associative_exhaustively_small():
    ctx = z2_trivial_ctx()
    words = all_words(ctx, 3, 3)  # |X| = 2: exhaustive
    for w1, w2, w3 in itertools.product(words, repeat=3):
        left = product(ctx, product(ctx, w1, w2), w3)
        right = product(ctx, w1, product(ctx, w2, w3))
        assert left == right


def test_multiply_is_associative_sampled_nonabelian():
    ctx = s3_ctx()
    rng = random.Random(11)
    with_tails = [(letters, rng.randrange(6)) for letters, _ in all_words(ctx, 2, 2)]
    for _ in range(400):
        w1, w2, w3 = (rng.choice(with_tails) for _ in range(3))
        assert product(ctx, product(ctx, w1, w2), w3) == product(ctx, w1, product(ctx, w2, w3))


def test_twist_trivial_action_is_identity():
    ctx = z2_trivial_ctx()
    letters = (Letter(1, 1, 0), Letter(1, 1, 1))
    assert twist(ctx, ctx.group.identity, letters) == letters


def test_twist_conjugates_bases_in_s3():
    ctx = s3_ctx()
    g = ctx.group
    transposition = next(
        i for i in range(6) if i != g.identity and g.mul(i, i) == g.identity
    )
    rotation = next(i for i in range(6) if g.mul(i, g.mul(i, i)) == g.identity and i != g.identity)
    tw = twist(ctx, transposition, (Letter(rotation, 1, 0),))
    # base becomes the conjugate by the inverse twisting element
    expected = g.conj(rotation, g.inv(transposition))
    assert tw == (Letter(expected, 1, 0),)
    assert expected == g.mul(rotation, rotation)  # the other rotation


def test_twist_composes_and_inverts():
    ctx = s3_ctx()
    rng = random.Random(3)
    words = [letters for letters, _ in all_words(ctx, 2, 2)]
    for _ in range(200):
        w = rng.choice(words)
        g1, g2 = rng.randrange(6), rng.randrange(6)
        assert twist(ctx, g1, twist(ctx, g2, w)) == twist(ctx, ctx.group.mul(g1, g2), w)
        assert twist(ctx, ctx.group.inv(g1), twist(ctx, g1, w)) == w


def test_twist_is_a_bijection_on_each_length():
    ctx = s3_ctx()
    by_length = {}
    for letters, _ in all_words(ctx, 2, 2):
        by_length.setdefault(len(letters), set()).add(letters)
    for g in range(6):
        for bucket in by_length.values():
            assert {twist(ctx, g, w) for w in bucket} == bucket


def test_normalize_mixed_lone_group_element():
    ctx = s3_ctx()
    assert reference_normalize(ctx, [4]) == ((), 4)


def test_normalize_mixed_single_push():
    ctx = s3_ctx()
    g = ctx.group
    for y in range(6):
        for x in range(6):
            if x == ctx.x_identity:
                continue
            py = ctx.pi[y]
            letters, tail = reference_normalize(ctx, [py, Letter(x, 1, 0)])
            assert tail == py
            expected = ctx.action[x][g.inv(py)]
            if expected == ctx.x_identity:
                assert letters == ()
            else:
                assert letters == (Letter(expected, 1, 0),)


def test_normalize_mixed_double_push():
    ctx = s3_ctx()
    g = ctx.group
    x, gelt, y, h = 2, 3, 4, 5
    letters, tail = reference_normalize(ctx, [Letter(x, 1, 0), gelt, Letter(y, 1, 1), h])
    assert tail == g.mul(gelt, h)
    assert letters == (
        Letter(x, 1, 0),
        Letter(ctx.action[y][g.inv(gelt)], 1, 1),
    )


def test_encode_forms():
    ctx = one_rack_ctx(WordMode.FREE_LETTER)
    assert letter_text(ctx, ()) == "1"
    w = reduce(ctx, 2, [Letter(0, 1, 0), Letter(0, -1, 1)])
    assert letter_text(ctx, word_letters(ctx, 2, w)) == "(a@0)(a^-1@1)"


def test_group_syllable_context_requires_module():
    with pytest.raises(ModeMismatch):
        context_from_rack(one_rack(), WordMode.GROUP_SYLLABLE)
