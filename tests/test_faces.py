"""The table-driven word face against the letterwise reference, and chain assembly on it."""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from face_oracle import reference_boundaries, reference_face
from precrossed.errors import IndexOutOfRange, ResourceBound
from precrossed.homology import chain_complex, gaussian_rank, homology
from precrossed.simplicial import build_clauwens, build_coskeleton, build_envelope, build_nerve
from precrossed.words import Letter, WordMode, reduce, word_faces


def word_specs(registry):
    """Every word spec the bundled registry supports."""
    specs = []
    for name, module in registry.precrossed.items():
        specs.append((f"{name} group envelope", build_envelope(module)))
    for name, rack in registry.augracks.items():
        specs.append((f"{name} free envelope", build_envelope(rack)))
        specs.append((f"{name} clauwens", build_clauwens(rack)))
    return specs


def test_face_matches_the_reference_on_desk_words(registry):
    for label, spec in word_specs(registry):
        tails = sorted({spec.group.identity, spec.group.order - 1})  # and one other, if any
        for bound in range(4):
            for k in range(1, 4):
                for s in spec.simplices(k, bound):
                    letters = spec.letters(k, s)
                    plain = tuple(map(tuple, letters))
                    for i in range(k + 1):
                        got = spec.face(k, s, i)
                        # a tail changes no face's letters
                        for tail in tails:
                            w = (letters, tail)
                            assert spec.letters(k - 1, got) == reference_face(spec, k, w, i)[0], (
                                label, w, i)
                        # a word may be given as plain tuples
                        assert spec.face(k, spec.word(k, plain), i) == got, (label, s, i)


def walk_words(spec, k):
    """Every degree-k word of length <= 4 where there are at most 5,000 of them,
    else every word of length <= 3 (the free envelope of TRANS has 305,281
    words of length <= 4 in degree 4)."""
    try:
        return spec.simplices(k, 4, cap=5000)
    except ResourceBound:
        return spec.simplices(k, 3)


def test_walk_matches_the_single_faces_in_any_order(registry):
    shuffle = random.Random(12)
    for label, spec in word_specs(registry):
        for k in range(1, 5):
            words = walk_words(spec, k)
            want = {}
            for s in words:
                w = (spec.letters(k, s), spec.group.identity)
                want[s] = tuple(reference_face(spec, k, w, i)[0] for i in range(k + 1))
            mixed = list(words)
            shuffle.shuffle(mixed)
            for order in (words, words[::-1], mixed):
                got = list(spec.faces(k, order))
                assert len(got) == len(order), (label, k)
                for s, faces in zip(order, got):
                    assert tuple(spec.letters(k - 1, f) for f in faces) == want[s], (label, s)


def test_walk_repeats_and_restarts(registry):
    spec = build_envelope(registry.precrossed["IDS3"])
    words = spec.simplices(2, 3)
    single = {s: next(word_faces(spec, 2, [s])) for s in words}
    # each word twice in a row, then the empty word, then everything again
    order = [s for s in words for _ in range(2)] + [0] + list(words)
    assert list(word_faces(spec, 2, order)) == [single[s] for s in order]
    assert list(word_faces(spec, 2, [])) == []
    with pytest.raises(IndexOutOfRange):
        list(word_faces(spec, 0, [0]))


def test_default_faces_call_face(registry):
    for spec, top in ((build_coskeleton(registry.precrossed["IDS3"]), 3),
                      (build_nerve(registry.groups["S3"]), 3)):
        for k in range(1, top + 1):
            simplices = spec.nondegenerate(k)
            assert list(spec.faces(k, simplices)) == [
                tuple(spec.face(k, s, i) for i in range(k + 1)) for s in simplices]


def test_assembly_walks_each_degree_once(registry, monkeypatch):
    spec = build_envelope(registry.augracks["TRANS"])
    calls = []
    walk = spec.faces

    def recording(k, simplices):
        calls.append((k, len(simplices)))
        return walk(k, simplices)

    monkeypatch.setattr(spec, "faces", recording)
    monkeypatch.setattr(spec, "face", None)  # assembly takes no single face
    comp = chain_complex(spec, 2, 3)
    assert calls == [(k, comp.dim(k)) for k in range(1, 4)]
    monkeypatch.undo()
    assert comp.boundaries[1:] == reference_boundaries(spec, 2, 3)


def test_boundaries_match_the_reference_assembly(registry):
    for label, spec in word_specs(registry):
        for bound in range(4):
            comp = chain_complex(spec, 2, bound)
            assert comp.boundaries[1:] == reference_boundaries(spec, 2, bound), (label, bound)


def test_field_ranks_are_computed_once_per_boundary(registry, monkeypatch):
    spec = build_envelope(registry.augracks["TRANS"])
    top = 2
    comp = chain_complex(spec, top, 3)
    want = {
        p: [comp.dim(m) - gaussian_rank(comp.boundaries[m], p)[0]
            - gaussian_rank(comp.boundaries[m + 1], p)[0] for m in range(top + 1)]
        for p in (None, 2, 3)
    }
    calls = []

    def counting(mat, p=None, **kwargs):
        calls.append((id(mat), p))
        return gaussian_rank(mat, p, **kwargs)

    # the package re-exports a function named homology, so take the module itself
    monkeypatch.setattr(importlib.import_module("precrossed.homology"), "gaussian_rank", counting)
    for coeff, p in (("Q", None), ("F2", 2), ("F3", 3)):
        for _ in range(2):
            assert [homology(comp, m, coeff).betti for m in range(top + 1)] == want[p]
    assert sorted(calls, key=str) == sorted(
        ((id(mat), p) for p in (None, 2, 3) for mat in comp.boundaries), key=str)
    assert want[None] == [1, 1, 1]


# -- generated words ---------------------------------------------------------------


@pytest.fixture(scope="module")
def specs(registry):
    trans = registry.augracks["TRANS"]
    return {
        "IDS3 group syllables": build_envelope(registry.precrossed["IDS3"]),
        "TRANS free letters": build_envelope(trans),
        "TRANS Clauwens letters": build_clauwens(trans),
    }


@st.composite
def words(draw, spec):
    """``(k, code, tail)``: the code of a reduced word of degree 1..4 from up to
    7 raw letters, and any tail."""
    k = draw(st.integers(1, 4))
    signs = (1, -1) if spec.mode is WordMode.FREE_LETTER else (1,)
    raw = draw(st.lists(
        st.builds(Letter, st.integers(0, len(spec.labels) - 1), st.sampled_from(signs),
                  st.integers(0, k - 1)),
        max_size=7))
    return k, reduce(spec, k, raw), draw(st.integers(0, spec.group.order - 1))


@pytest.mark.parametrize("name", ["IDS3 group syllables", "TRANS free letters",
                                  "TRANS Clauwens letters"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_faces(specs, name, data):
    spec = specs[name]
    k, code, tail = data.draw(words(spec))
    w = (spec.letters(k, code), tail)
    faces = next(word_faces(spec, k, [code]))
    # the walk drops the tail, and a tail changes no face's letters
    assert tuple(spec.letters(k - 1, f) for f in faces) == tuple(
        reference_face(spec, k, w, i)[0] for i in range(k + 1)), w
    if k >= 2:
        # d_i d_j = d_(j-1) d_i, from a second walk over the faces
        again = list(word_faces(spec, k - 1, faces))
        for j in range(1, k + 1):
            for i in range(j):
                assert again[j][i] == again[i][j - 1], (w, i, j)
