import pytest

from precrossed.algebra import (
    conjugation_module,
    conjugation_structure,
    cyclic_group,
    precrossed_action,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_augmented_rack,
    validate_precrossed,
)
from precrossed.errors import IndexOutOfRange, ModeMismatch, ResourceBound
from precrossed.simplicial import (
    CoskeletonFamily,
    NerveSpec,
    build_clauwens,
    build_coskeleton,
    build_envelope,
    build_nerve,
    canonical_to_coskeleton,
    is_degenerate,
)
from precrossed import words
from precrossed.words import Letter

from face_oracle import check_commutes, check_simplicial_identities


def z2_trivial_module():
    z2, triv = cyclic_group(2), trivial_group()
    return validate_precrossed(z2, triv, trivial_action(triv, 2), [0, 0])


def one_rack():
    z2 = cyclic_group(2)
    return validate_augmented_rack(["a"], z2, [[0, 0]], [1])


def transposition_rack():
    s3 = symmetric_group(3)
    transpositions = [
        i for i in range(6) if i != s3.identity and s3.mul(i, i) == s3.identity
    ]
    return conjugation_structure(s3, transpositions)


def nondegenerate_encodings(spec, k, length):
    return [
        spec.encode(k, s)
        for s in spec.simplices(k, length)
        if not is_degenerate(spec, k, s)
    ]


def test_envelope_degree_two_nondegenerate_words():
    spec = build_envelope(z2_trivial_module())
    assert nondegenerate_encodings(spec, 2, 2) == ["(1@0)(1@1)", "(1@1)(1@0)"]


def test_envelope_trivial_carrier_is_a_point():
    triv, z2 = trivial_group(), cyclic_group(2)
    module = validate_precrossed(triv, z2, trivial_action(z2, 1), [0])
    spec = build_envelope(module)
    for k in range(1, 4):
        sims = spec.simplices(k, 3)
        assert len(sims) == 1 and is_degenerate(spec, k, sims[0])


def test_free_letter_degree_one_enumeration():
    spec = build_envelope(one_rack())
    assert nondegenerate_encodings(spec, 1, 2) == [
        "(a@0)",
        "(a^-1@0)",
        "(a@0)(a@0)",
        "(a^-1@0)(a^-1@0)",
    ]


def test_clauwens_degree_two_square_cell():
    spec = build_clauwens(one_rack())
    assert nondegenerate_encodings(spec, 2, 2) == ["(a@0)(a@1)", "(a@1)(a@0)"]


def test_clauwens_degree_one_is_the_carrier():
    spec = build_clauwens(transposition_rack())
    assert nondegenerate_encodings(spec, 1, 1) == ["((01)@0)", "((02)@0)", "((12)@0)"]


def test_clauwens_empty_carrier_is_a_point():
    triv = trivial_group()
    empty = validate_augmented_rack([], triv, [], [])
    spec = build_clauwens(empty)
    for k in range(4):
        sims = spec.simplices(k, 3)
        assert [spec.encode(k, s) for s in sims] == ["1"]


def test_face_of_degree_one_word_is_basepoint():
    spec = build_envelope(z2_trivial_module())
    w = spec.word(1, [Letter(1, 1, 0)])
    assert spec.encode(0, spec.face(1, w, 0)) == "1"


def test_face_merges_positions_to_basepoint():
    spec = build_envelope(z2_trivial_module())
    w = spec.word(2, [Letter(1, 1, 0), Letter(1, 1, 1)])
    assert spec.encode(1, spec.face(2, w, 1)) == "1"


def test_top_face_applies_pi_and_twists():
    spec = build_envelope(conjugation_module(symmetric_group(3)))
    g = spec.group
    for y in range(1, 6):
        for x in range(1, 6):
            w = spec.word(2, [Letter(y, 1, 1), Letter(x, 1, 0)])
            result = spec.face(2, w, 2)
            expected = spec.action[x][g.inv(spec.pi[y])]
            want = spec.word(1, [Letter(expected, 1, 0)])
            assert spec.letters(1, result) == spec.letters(1, want)


def test_degeneracies_shift_positions():
    spec = build_envelope(z2_trivial_module())
    w = spec.word(1, [Letter(1, 1, 0)])
    assert spec.encode(2, spec.degeneracy(1, w, 0)) == "(1@1)"
    assert spec.encode(2, spec.degeneracy(1, w, 1)) == "(1@0)"


def test_degeneracy_of_basepoint_is_basepoint():
    spec = build_envelope(z2_trivial_module())
    assert spec.encode(2, spec.degeneracy(1, spec.word(1, ()), 0)) == "1"


def test_is_degenerate_cases():
    spec = build_envelope(z2_trivial_module())
    single = spec.word(2, [Letter(1, 1, 1)])
    assert is_degenerate(spec, 2, single)
    mixed = spec.word(2, [Letter(1, 1, 0), Letter(1, 1, 1)])
    assert not is_degenerate(spec, 2, mixed)
    assert is_degenerate(spec, 3, spec.word(3, ()))


def test_enumeration_counts():
    env = build_envelope(z2_trivial_module())
    assert len(env.simplices(3, 2)) == 10  # 1 + 3 + 3*2
    nerve = build_nerve(cyclic_group(2))
    tuples = nerve.simplices(2)
    assert len(tuples) == 4
    assert sum(not is_degenerate(nerve, 2, s) for s in tuples) == 1
    cosk = build_coskeleton(conjugation_module(cyclic_group(2)))
    assert len(cosk.simplices(2)) == 4


def test_enumeration_resource_bound():
    spec = build_envelope(transposition_rack())
    with pytest.raises(ResourceBound):
        spec.simplices(3, 3, cap=100)
    with pytest.raises(ResourceBound):
        spec.nondegenerate(3, 3, cap=100)


CAP_BUILDERS = [  # (id prefix, builder, length bound); the free envelope keeps the bare ids
    ("", lambda: build_envelope(transposition_rack()), 3),
    ("coskeleton-", lambda: build_coskeleton(conjugation_module(symmetric_group(3))), None),
    ("nerve-", lambda: build_nerve(symmetric_group(3)), None),
]


@pytest.mark.parametrize("make, bound, method", [
    pytest.param(make, bound, method, id=prefix + method)
    for prefix, make, bound in CAP_BUILDERS for method in ("simplices", "nondegenerate")
])
def test_enumeration_cap_is_exact(make, bound, method):
    # both entry points on every builder: the true count passes, one less raises
    enumerate_ = getattr(make(), method)
    for k in (1, 2, 3):
        n = len(enumerate_(k, bound))
        assert len(enumerate_(k, bound, cap=n)) == n
        with pytest.raises(ResourceBound, match=f"degree {k} exceeds {n - 1} "):
            enumerate_(k, bound, cap=n - 1)


def test_nerve_cap_counts_nondegenerate_tuples():
    nerve = build_nerve(symmetric_group(3))
    assert len(nerve.nondegenerate(3, cap=125)) == 125
    with pytest.raises(ResourceBound):
        nerve.nondegenerate(3, cap=124)


def desk_specs(registry):
    """Every builder the bundled registry supports, with its length bound."""
    specs = []
    for name, module in registry.precrossed.items():
        specs.append((f"{name} group envelope", build_envelope(module), 3))
        specs.append((f"{name} coskeleton", build_coskeleton(module), None))
    for name, rack in registry.augracks.items():
        specs.append((f"{name} free envelope", build_envelope(rack), 3))
        specs.append((f"{name} clauwens", build_clauwens(rack), 3))
    for name, group in registry.groups.items():
        specs.append((f"{name} nerve", build_nerve(group), None))
    return specs


def test_nondegenerate_matches_the_degeneracy_filter(registry):
    # two coskeleta go one degree further; Z2TRIV's pi is not injective, so
    # there the edge conditions of the rule decide, not the vertices
    deeper = ("IDS3 coskeleton", "Z2TRIV coskeleton")
    for label, spec, top in desk_specs(registry):
        for bound in [None] if top is None else range(top + 1):
            for k in range(5 if label in deeper else 4):
                want = [s for s in spec.simplices(k, bound) if not is_degenerate(spec, k, s)]
                assert list(spec.nondegenerate(k, bound)) == want, (label, k, bound)


def test_word_bases_come_out_in_length_text_order(registry):
    # the walk emits (length, text) order with no sort; a basis order change
    # moves induced matrices, so it is pinned on every desk word spec
    specs = []
    for module in registry.precrossed.values():
        specs += [build_envelope(module),
                  build_envelope(module.as_augmented_rack()),
                  build_clauwens(module.as_augmented_rack())]
    for rack in registry.augracks.values():
        specs += [build_envelope(rack), build_clauwens(rack)]
    checked = 0
    for spec in specs:
        for k in range(5):
            for bound in range(5):
                for words in (spec.simplices, spec.nondegenerate):
                    try:
                        got = words(k, bound, cap=20000)
                    except ResourceBound:
                        continue
                    checked += 1
                    want = sorted(got, key=lambda s: (len(spec.letters(k, s)), spec.encode(k, s)))
                    assert list(got) == want, (spec.describe(), words.__name__, k, bound)
    assert checked == 973


@pytest.mark.parametrize("name, kept, total", [("IDS3", 625, 1296), ("Z2TRIV", 809, 1024)])
def test_coskeleton_cap_counts_nondegenerate_families(registry, name, kept, total):
    spec = build_coskeleton(registry.precrossed[name])
    assert len(spec.simplices(4)) == total
    assert len(spec.nondegenerate(4, cap=kept)) == kept
    with pytest.raises(ResourceBound, match=f"degree 4 exceeds {kept - 1} nondegenerate"):
        spec.nondegenerate(4, cap=kept - 1)


def test_default_cap_stops_the_enumeration(registry):
    # the degree-2 free envelope of TRANS has 183,888 nondegenerate words at
    # length 5: the default cap trips at word 5,001, before the basis is built
    from precrossed.homology import chain_complex

    spec = build_envelope(registry.augracks["TRANS"])
    with pytest.raises(ResourceBound, match="envelope\\[free\\] degree 2 exceeds 5000 "
                                            "nondegenerate simplices at length 5"):
        chain_complex(spec, 3, 5)


def test_chain_complex_basis_is_the_nondegenerate_simplices(registry):
    from precrossed.homology import chain_complex

    for label, spec, top in desk_specs(registry):
        bound = None if top is None else 2
        comp = chain_complex(spec, 2, bound)
        for k in range(4):
            assert comp.bases[k] == spec.nondegenerate(k, bound), (label, k)


def test_envelope_needs_a_module_or_an_augmented_rack():
    # the object picks the letters, so a group or a plain rack has no envelope
    for obj in (cyclic_group(2), one_rack().induced):
        with pytest.raises(ModeMismatch):
            build_envelope(obj)


def test_face_index_out_of_range():
    spec = build_nerve(cyclic_group(2))
    with pytest.raises(IndexOutOfRange):
        spec.face(1, (1,), 2)
    with pytest.raises(IndexOutOfRange):
        spec.face(0, (), 0)


def test_nerve_bar_face_multiplies():
    nerve = build_nerve(cyclic_group(3))
    s = (1, 2)
    assert nerve.face(2, s, 1) == (0,)
    assert nerve.face(2, s, 0) == (2,)
    assert nerve.face(2, s, 2) == (1,)


def test_nerve_of_trivial_group_is_a_point():
    nerve = build_nerve(trivial_group())
    for k in range(4):
        assert len(nerve.simplices(k)) == 1


def test_coskeleton_degree_one_cosets():
    cosk = build_coskeleton(conjugation_module(cyclic_group(2)))
    sims = cosk.simplices(1)
    assert len(sims) == 2  # |X x| G| / |G|


def test_coskeleton_trivial_carrier_collapses():
    # with X trivial the matching condition forces all vertices equal, so the
    # quotient is a point in every degree and matches the envelope quotient
    triv, z2 = trivial_group(), cyclic_group(2)
    module = validate_precrossed(triv, z2, trivial_action(z2, 1), [0])
    cosk = build_coskeleton(module)
    for k in range(4):
        assert len(cosk.simplices(k)) == 1
    cmap = canonical_to_coskeleton(module)
    check_commutes(cmap, 3, 3)
    for k in range(3):
        assert len(cmap.source.simplices(k, 3)) == 1


def test_coskeleton_faces_renormalize_last_vertex():
    cosk = build_coskeleton(conjugation_module(cyclic_group(2)))
    fam = CoskeletonFamily((0, 1, 0), (1, 0, 1))  # vertices (e,t,e), edges x01,x02,x12
    top = cosk.face(2, fam, 2)  # drops the normalized vertex, renormalizes by t
    assert top == CoskeletonFamily((1, 0), (1,))


def test_identities_hold_on_all_builders():
    cases = [
        (build_envelope(z2_trivial_module()), 3, 3),
        (build_envelope(one_rack()), 3, 2),
        (build_clauwens(one_rack()), 3, 2),
        (build_coskeleton(conjugation_module(cyclic_group(2))), 3, None),
        (build_coskeleton(conjugation_module(symmetric_group(3))), 3, None),  # IDS3
        (build_nerve(symmetric_group(3)), 3, None),
    ]
    for spec, k_max, bound in cases:
        check_simplicial_identities(spec, k_max, bound)


def test_identity_checker_reports_a_corrupted_face():
    class BrokenNerve(NerveSpec):
        def face(self, k, simplex, i):
            good = super().face(k, simplex, i)
            if k == 2 and i == 1:
                return super().face(k, simplex, 0)  # wrong case on purpose
            return good

    broken = BrokenNerve(cyclic_group(3))
    with pytest.raises(AssertionError, match="d_"):
        check_simplicial_identities(broken, 3)


def test_face_never_lengthens_and_degeneracy_preserves_length():
    for spec, bound in (
        (build_envelope(transposition_rack()), 2),
        (build_clauwens(transposition_rack()), 2),
        (build_envelope(conjugation_module(symmetric_group(3))), 2),
    ):
        for k in range(1, 4):
            for s in spec.simplices(k, bound):
                length = len(spec.letters(k, s))
                for i in range(k + 1):
                    assert len(spec.letters(k - 1, spec.face(k, s, i))) <= length
                for i in range(k + 1):
                    assert len(spec.letters(k + 1, spec.degeneracy(k, s, i))) == length


def test_independence_of_base_group():
    for module in (
        conjugation_module(symmetric_group(3)),
        conjugation_module(cyclic_group(3)),
    ):
        reduced = precrossed_action(module).module
        a, b = (
            build_envelope(module),
            build_envelope(reduced),
        )
        for k in range(3):
            left = a.simplices(k, 2)
            right = b.simplices(k, 2)
            assert [a.encode(k, s) for s in left] == [b.encode(k, s) for s in right]
            for sa, sb in zip(left, right):
                for i in range(k + 1):
                    if k >= 1:
                        assert a.encode(k - 1, a.face(k, sa, i)) == b.encode(k - 1, b.face(k, sb, i))
                    assert (a.encode(k + 1, a.degeneracy(k, sa, i))
                            == b.encode(k + 1, b.degeneracy(k, sb, i)))


def test_canonical_map_values():
    module = conjugation_module(cyclic_group(2))
    cmap = canonical_to_coskeleton(module)
    assert cmap.apply(2, cmap.source.word(2, ())) == CoskeletonFamily((0, 0, 0), (0, 0, 0))
    edge = cmap.source.word(1, [Letter(1, 1, 0)])
    assert cmap.apply(1, edge) == CoskeletonFamily((1, 0), (1,))


def test_canonical_map_commutes():
    for group in (cyclic_group(2), cyclic_group(3)):
        cmap = canonical_to_coskeleton(conjugation_module(group))
        check_commutes(cmap, 3, 2)


def test_face_and_degeneracy_indices_outside_0_to_k_raise(registry):
    module, rack = registry.precrossed["IDS3"], registry.augracks["TRANS"]
    specs = [build_envelope(module), build_envelope(rack), build_clauwens(rack),
             build_coskeleton(module), build_nerve(module.group)]
    for spec in specs:
        for k in (1, 2):
            s = spec.simplices(k, 2)[-1]
            for i in (-1, k + 1):
                with pytest.raises(IndexOutOfRange, match=f"face {i} undefined in degree {k}"):
                    spec.face(k, s, i)
                with pytest.raises(IndexOutOfRange,
                                   match=f"degeneracy {i} undefined in degree {k}"):
                    spec.degeneracy(k, s, i)


def test_word_spec_requires_length_bound():
    spec = build_clauwens(one_rack())
    with pytest.raises(ResourceBound):
        spec.simplices(2)


def test_degrees_above_the_length_bound_enumerate_nothing(registry, monkeypatch):
    # no word of at most L letters meets k > L positions, so no alphabet or code table is built
    specs = [build_envelope(registry.augracks["TRANS"]), build_clauwens(registry.augracks["TRANS"]),
             build_envelope(registry.precrossed["IDS3"])]

    def refuse(spec, k):
        raise AssertionError(f"alphabet built in degree {k}")

    monkeypatch.setattr(words, "alphabet", refuse)
    for spec in specs:
        for bound in range(3):
            for k in range(bound + 1, bound + 4):
                assert spec.nondegenerate(k, bound) == [], (spec.describe(), k, bound)


def test_coskeleton_with_multivalued_preimages():
    # pi: Z/4 -> Z/2 is surjective but not injective, so every connecting
    # edge has two choices; the quotient still computes the base group's
    # homology and the comparison map still commutes
    from precrossed.homology import chain_complex, homology

    z4, z2 = cyclic_group(4), cyclic_group(2)
    module = validate_precrossed(z4, z2, trivial_action(z2, 4), [0, 1, 0, 1])
    cosk = build_coskeleton(module)
    assert [len(cosk.simplices(k)) for k in range(3)] == [1, 4, 32]
    check_simplicial_identities(cosk, 3)
    comp = chain_complex(cosk, 2)
    assert [homology(comp, m).render() for m in range(3)] == ["Z", "Z/2", "0"]
    check_commutes(canonical_to_coskeleton(module), 2, 2)
