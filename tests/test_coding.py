"""Word codes against letter tuples: round trips, order, decoding and faces.

A word spec's simplex is an int whose digits are the codes of its letters.
On every envelope and Clauwens spec of the bundled registries, in degrees
0..4 at the largest length bound up to 4 with at most 2,000 words, each
enumerated code decodes and re-encodes to itself, each basis is strictly
increasing, the decoded bases equal the brute-force normal forms of
``face_oracle.reference_words`` in (length, text) order, and the decoded
walk faces equal ``reference_face``.
"""

import pytest

from face_oracle import reference_face, reference_words
from precrossed.errors import ResourceBound
from precrossed.homology import chain_complex, homology
from precrossed.simplicial import build_clauwens, build_envelope
from precrossed import words

CAP = 2000


def coding_specs(*registries):
    """Every group envelope, free envelope and Clauwens spec of the registries."""
    specs = []
    for reg in registries:
        for name, module in reg.precrossed.items():
            specs.append((f"{name} group envelope", build_envelope(module)))
        for name, rack in reg.augracks.items():
            specs.append((f"{name} free envelope", build_envelope(rack)))
            specs.append((f"{name} clauwens", build_clauwens(rack)))
    return specs


def largest_bound(spec, k):
    """The largest length bound up to 4 at which degree k has at most CAP words."""
    for bound in range(4, -1, -1):
        try:
            spec.simplices(k, bound, cap=CAP)
        except ResourceBound:
            continue
        return bound
    raise AssertionError(f"{spec.describe()} degree {k} has more than {CAP} words of length 0")


def check_coding(spec, k, bound):
    """Raise AssertionError unless the degree-k codes at ``bound`` pass the four checks;
    return the number of words checked."""
    label = (spec.describe(), k, bound)
    checked = 0
    for nondegenerate in (False, True):
        enumerate_ = spec.nondegenerate if nondegenerate else spec.simplices
        basis = enumerate_(k, bound, cap=CAP)
        decoded = [spec.letters(k, w) for w in basis]
        for w, letters in zip(basis, decoded):
            assert spec.word(k, letters) == w, (label, w, letters)
        assert all(a < b for a, b in zip(basis, basis[1:])), label
        assert decoded == reference_words(spec, k, bound, nondegenerate), (label, nondegenerate)
        checked += len(basis)
    if k:
        for letters, faces in zip(decoded, spec.faces(k, basis)):
            word = (letters, spec.group.identity)
            want = tuple(reference_face(spec, k, word, i)[0] for i in range(k + 1))
            assert tuple(spec.letters(k - 1, f) for f in faces) == want, (label, letters)
    return checked


def test_codes_round_trip_in_text_order_with_the_reference_faces(registry, rack_registry):
    checked = 0
    for label, spec in coding_specs(registry, rack_registry):
        for k in range(5):
            checked += check_coding(spec, k, largest_bound(spec, k))
    assert checked == 83165


def mutation_specs(registry):
    trans = registry.augracks["TRANS"]
    return [build_envelope(registry.precrossed["IDS3"]), build_envelope(trans),
            build_clauwens(trans)]


def test_swapped_codes_in_one_degree_fail_the_checks(registry, monkeypatch):
    # the degree-2 table is built from an alphabet with its first two letters
    # swapped: codes and letters still agree, but not with the text order
    alphabet = words.alphabet

    def swapped(spec, k):
        letters = alphabet(spec, k)
        if k == 2:
            letters[0], letters[1] = letters[1], letters[0]
        return letters

    monkeypatch.setattr(words, "alphabet", swapped)
    for spec in mutation_specs(registry):
        check_coding(spec, 1, 2)
        with pytest.raises(AssertionError):
            check_coding(spec, 2, 2)


def test_swapped_letters_of_two_codes_fail_the_checks(registry):
    # only the decoding side of the built degree-2 table is swapped
    for spec in mutation_specs(registry):
        letters = spec.codings[2].letters
        letters[1], letters[2] = letters[2], letters[1]
        check_coding(spec, 1, 2)
        with pytest.raises(AssertionError):
            check_coding(spec, 2, 2)


def test_a_basis_with_a_code_past_int64_keeps_a_list(registry):
    # Z/2 over the trivial group in degree 2: one letter per position, radix 3,
    # and two nondegenerate words of each length from 2, alternating the
    # positions.  At length 39 every code is below 2^63, at length 40 one is not
    spec = build_envelope(registry.precrossed["Z2TRIV"])
    packed, kept = spec.nondegenerate(2, 39), spec.nondegenerate(2, 40)
    assert type(packed) is memoryview and packed.readonly and max(packed) < 2 ** 63
    assert type(kept) is list and max(kept) >= 2 ** 63
    assert len(kept) == len(packed) + 2 == 78
    assert kept[:76] == list(packed)
    for w in kept[-2:]:
        assert spec.word(2, spec.letters(2, w)) == w
        assert len(spec.letters(2, w)) == 40
    # the complex on the list basis: H_1 = Z/2 at both lengths
    for bound in (39, 40):
        assert homology(chain_complex(spec, 1, bound), 1).render() == "Z/2"
