"""The one-sweep canonical map and the cached coskeleton edge tables against
the iterated-face and pair-index references of ``face_oracle``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from face_oracle import (
    reference_canonical_rule,
    reference_coskeleton_degeneracy,
    reference_coskeleton_face,
)
from precrossed.simplicial import CoskeletonFamily, build_coskeleton, canonical_to_coskeleton
from precrossed.words import Letter, reduce

# length bound of the envelope words per object: check-coskeleton uses
# max_degree + 1, IDS3 stops one short to keep the reference affordable
LENGTHS = {"Z2TRIV": 4, "IDZ2": 4, "IDZ3": 4, "IDS3": 3}


def test_rule_matches_iterated_faces_on_desk_words(registry):
    checked = 0
    for name, bound in LENGTHS.items():
        module = registry.precrossed[name]
        cmap = canonical_to_coskeleton(module)
        reference = reference_canonical_rule(module, cmap.source)
        for k in range(4):
            for s in cmap.source.simplices(k, bound):  # degenerate words included
                fam = cmap.rule(k, s)
                letters = cmap.source.letters(k, s)
                assert (fam.vertices, fam.edges) == reference(k, letters), (name, k, letters)
                checked += 1
    assert checked == 2676


IDS3_WORDS = st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, k - 1)), max_size=7),
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(IDS3_WORDS)
def test_rule_matches_iterated_faces_on_generated_ids3_words(registry, case):
    k, raw = case
    module = registry.precrossed["IDS3"]
    cmap = canonical_to_coskeleton(module)
    reference = reference_canonical_rule(module, cmap.source)
    code = reduce(cmap.source, k, [Letter(x, 1, j) for x, j in raw])
    word = cmap.source.letters(k, code)
    fam = cmap.rule(k, code)
    assert (fam.vertices, fam.edges) == reference(k, word)
    # the sweep is a product over letters, so it reads an unreduced word the
    # same way: the raw letters' codes as digits, with no push between them
    # (an identity letter has no code; the sweep multiplies it away)
    coding = cmap.source.codings[k]
    unreduced = 0
    for x, j in raw:
        if x != module.x_group.identity:
            unreduced = unreduced * coding.radix + coding.codes[x, 1, j]
    assert cmap.rule(k, unreduced) == fam


def test_coskeleton_edge_tables_match_the_pair_index(registry):
    for name in ("IDZ3", "IDS3"):
        module = registry.precrossed[name]
        spec = build_coskeleton(module)
        for k in range(4):
            for fam in spec.simplices(k):
                for i in range(k + 1):
                    if k >= 1:
                        want = reference_coskeleton_face(module, k, fam.vertices, fam.edges, i)
                        assert spec.face(k, fam, i) == CoskeletonFamily(*want), (name, k, fam, i)
                    want = reference_coskeleton_degeneracy(module, k, fam.vertices, fam.edges, i)
                    assert spec.degeneracy(k, fam, i) == CoskeletonFamily(*want), (name, k, fam, i)
