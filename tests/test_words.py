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
from precrossed.simplicial import build_clauwens, build_envelope
from precrossed.words import Letter, WordMode, letter_text, reduce


def z2_trivial_module():
    z2, triv = cyclic_group(2), trivial_group()
    return validate_precrossed(z2, triv, trivial_action(triv, 2), [0, 0])


def z2_trivial_spec():
    return build_envelope(z2_trivial_module())


def one_rack():
    return validate_augmented_rack(["a"], cyclic_group(2), [[0, 0]], [1])


def s3_module():
    return conjugation_module(symmetric_group(3))


def s3_spec():
    return build_envelope(s3_module())


def all_words(spec, degree, max_len):
    """Every normal form up to a length bound, as a ``(letters, tail)`` word with no tail."""
    return [(w, spec.group.identity) for w in reference_words(spec, degree, max_len)]


def product(spec, *words):
    """The envelope product of ``(letters, tail)`` words: each word's letters, then its tail."""
    return reference_normalize(spec, [item for letters, tail in words for item in (*letters, tail)])


def twist(spec, g, letters):
    """The letters with every base x replaced by x^(g^-1): g carried right past them."""
    return reference_normalize(spec, [g, *letters])[0]


def test_reduce_group_syllable_cancels_involution():
    spec = z2_trivial_spec()
    assert reduce(spec, 1, [Letter(1, 1, 0), Letter(1, 1, 0)]) == 0


def test_reduce_free_letter_cancels_inverse_pair():
    spec = build_envelope(one_rack())
    assert reduce(spec, 1, [Letter(0, 1, 0), Letter(0, -1, 0)]) == 0


def test_reduce_monoid_keeps_repeats():
    spec = build_clauwens(one_rack())
    w = reduce(spec, 1, [Letter(0, 1, 0), Letter(0, 1, 0)])
    assert spec.letters(1, w) == (Letter(0, 1, 0), Letter(0, 1, 0))


def random_letter(rng, spec, degree):
    b = rng.randrange(len(spec.labels))
    s = rng.choice((1, -1)) if spec.mode is WordMode.FREE_LETTER else 1
    return Letter(b, s, rng.randrange(degree))


def test_reduce_is_idempotent_on_random_sequences():
    rng = random.Random(7)
    for spec in (z2_trivial_spec(), s3_spec(), build_envelope(one_rack())):
        for _ in range(200):
            degree = rng.randint(1, 3)
            raw = [random_letter(rng, spec, degree) for _ in range(rng.randint(0, 6))]
            once = reduce(spec, degree, raw)
            again = reduce(spec, degree, spec.letters(degree, once))
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
        group = spec.group
        for _ in range(300):
            k = rng.randint(1, 3)
            items = [rng.randrange(group.order) if rng.random() < 0.3
                     else random_letter(rng, spec, k) for _ in range(rng.randint(0, 8))]
            letters, tail = reference_normalize(spec, items)
            g, twisted = group.identity, []
            for item in items:
                if isinstance(item, Letter):
                    twisted.extend(twist(spec, g, [item]))
                else:
                    g = group.mul(g, item)
            assert letters == spec.letters(k, reduce(spec, k, twisted)), (spec.describe(), items)
            assert tail == g


def test_multiply_involution_gives_identity_word():
    spec = z2_trivial_spec()
    w = ((Letter(1, 1, 0),), spec.group.identity)
    assert product(spec, w, w)[0] == ()


def test_multiply_tails_compose():
    spec = s3_spec()
    g = spec.group
    for a in range(g.order):
        for b in range(g.order):
            assert product(spec, ((), a), ((), b))[1] == g.mul(a, b)


def test_multiply_twists_second_factor_past_tail():
    spec = s3_spec()
    g = spec.group
    for tail in range(g.order):
        for base in range(g.order):
            if base == spec.x_identity:
                continue
            prod = product(spec, ((), tail), ((Letter(base, 1, 1),), g.identity))
            expected = spec.action[base][g.inv(tail)]
            assert prod == ((Letter(expected, 1, 1),), tail)


def test_reduce_checks_every_letter():
    spec = z2_trivial_spec()
    with pytest.raises(IndexOutOfRange, match="position 2 outside degree 2"):
        reduce(spec, 2, [Letter(1, 1, 0), Letter(1, 1, 2)])
    with pytest.raises(IndexOutOfRange, match="base 2 outside"):
        reduce(spec, 2, iter([Letter(2, 1, 0)]))
    with pytest.raises(ModeMismatch, match="sign -1"):
        reduce(spec, 2, [Letter(1, -1, 1)])


def test_multiply_is_associative_exhaustively_small():
    spec = z2_trivial_spec()
    words = all_words(spec, 3, 3)  # |X| = 2: exhaustive
    for w1, w2, w3 in itertools.product(words, repeat=3):
        left = product(spec, product(spec, w1, w2), w3)
        right = product(spec, w1, product(spec, w2, w3))
        assert left == right


def test_multiply_is_associative_sampled_nonabelian():
    spec = s3_spec()
    rng = random.Random(11)
    with_tails = [(letters, rng.randrange(6)) for letters, _ in all_words(spec, 2, 2)]
    for _ in range(400):
        w1, w2, w3 = (rng.choice(with_tails) for _ in range(3))
        assert product(spec, product(spec, w1, w2), w3) == product(spec, w1, product(spec, w2, w3))


def test_twist_trivial_action_is_identity():
    spec = z2_trivial_spec()
    letters = (Letter(1, 1, 0), Letter(1, 1, 1))
    assert twist(spec, spec.group.identity, letters) == letters


def test_twist_conjugates_bases_in_s3():
    spec = s3_spec()
    g = spec.group
    transposition = next(
        i for i in range(6) if i != g.identity and g.mul(i, i) == g.identity
    )
    rotation = next(i for i in range(6) if g.mul(i, g.mul(i, i)) == g.identity and i != g.identity)
    tw = twist(spec, transposition, (Letter(rotation, 1, 0),))
    # base becomes the conjugate by the inverse twisting element
    expected = g.conj(rotation, g.inv(transposition))
    assert tw == (Letter(expected, 1, 0),)
    assert expected == g.mul(rotation, rotation)  # the other rotation


def test_twist_composes_and_inverts():
    spec = s3_spec()
    rng = random.Random(3)
    words = [letters for letters, _ in all_words(spec, 2, 2)]
    for _ in range(200):
        w = rng.choice(words)
        g1, g2 = rng.randrange(6), rng.randrange(6)
        assert twist(spec, g1, twist(spec, g2, w)) == twist(spec, spec.group.mul(g1, g2), w)
        assert twist(spec, spec.group.inv(g1), twist(spec, g1, w)) == w


def test_twist_is_a_bijection_on_each_length():
    spec = s3_spec()
    by_length = {}
    for letters, _ in all_words(spec, 2, 2):
        by_length.setdefault(len(letters), set()).add(letters)
    for g in range(6):
        for bucket in by_length.values():
            assert {twist(spec, g, w) for w in bucket} == bucket


def test_normalize_mixed_lone_group_element():
    spec = s3_spec()
    assert reference_normalize(spec, [4]) == ((), 4)


def test_normalize_mixed_single_push():
    spec = s3_spec()
    g = spec.group
    for y in range(6):
        for x in range(6):
            if x == spec.x_identity:
                continue
            py = spec.pi[y]
            letters, tail = reference_normalize(spec, [py, Letter(x, 1, 0)])
            assert tail == py
            expected = spec.action[x][g.inv(py)]
            if expected == spec.x_identity:
                assert letters == ()
            else:
                assert letters == (Letter(expected, 1, 0),)


def test_normalize_mixed_double_push():
    spec = s3_spec()
    g = spec.group
    x, gelt, y, h = 2, 3, 4, 5
    letters, tail = reference_normalize(spec, [Letter(x, 1, 0), gelt, Letter(y, 1, 1), h])
    assert tail == g.mul(gelt, h)
    assert letters == (
        Letter(x, 1, 0),
        Letter(spec.action[y][g.inv(gelt)], 1, 1),
    )


def test_encode_forms():
    spec = build_envelope(one_rack())
    assert letter_text(spec, ()) == "1"
    w = reduce(spec, 2, [Letter(0, 1, 0), Letter(0, -1, 1)])
    assert letter_text(spec, spec.letters(2, w)) == "(a@0)(a^-1@1)"
