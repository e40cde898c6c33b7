import itertools

import pytest

from precrossed.algebra import (
    conjugation_module,
    conjugation_structure,
    cyclic_group,
    symmetric_group,
    trivial_group,
    validate_augmented_rack,
)
from precrossed.errors import ModeMismatch, ResourceBound
from precrossed.homology import chain_complex, homology
from precrossed.oracles import group_homology, rack_complex, tensor_algebra_dims
from precrossed.simplicial import build_clauwens, build_envelope

from rack_oracle import (
    RACK_TOPS,
    check_etingof_grana,
    check_quandle_splitting,
    orbit_count,
    reference_rack_boundary,
)


def one_element_rack():
    z2 = cyclic_group(2)
    return validate_augmented_rack(["a"], z2, [[0, 0]], [1])


def trivial_rack(d):
    triv = trivial_group()
    return validate_augmented_rack(
        [f"x{i}" for i in range(d)], triv, [[i] for i in range(d)], [0] * d
    )


def transposition_rack():
    s3 = symmetric_group(3)
    transpositions = [
        i for i in range(6) if i != s3.identity and s3.mul(i, i) == s3.identity
    ]
    return conjugation_structure(s3, transpositions)


def test_one_element_rack_boundaries_vanish():
    comp = rack_complex(one_element_rack(), 3)
    assert all(not comp.boundaries[n].entries for n in range(1, 5))
    for m in range(4):
        h = homology(comp, m)
        assert (h.betti, h.torsion) == (1, ())


def test_trivial_rack_closed_form():
    for d in (2, 3):
        comp = rack_complex(trivial_rack(d), 2)
        assert all(not comp.boundaries[n].entries for n in range(1, 4))
        for m in range(3):
            h = homology(comp, m)
            assert (h.betti, h.torsion) == (d**m, ())


def test_rack_complex_honours_cap():
    comp = rack_complex(trivial_rack(3), 2, cap=27)
    assert [comp.dim(n) for n in range(4)] == [1, 3, 9, 27]
    with pytest.raises(ResourceBound, match="degree 3 basis of size 27 exceeds matrix cap 26"):
        rack_complex(trivial_rack(3), 2, cap=26)


def test_transposition_rack_degree_two_columns():
    rack = transposition_rack()
    comp = rack_complex(rack, 1)
    index = {t: i for i, t in enumerate(itertools.product(range(3), repeat=1))}
    for c, (x, y) in enumerate(itertools.product(range(3), repeat=2)):
        acted = rack.induced.op[x][y]
        expected = ((index[(x,)], 1), (index[(acted,)], -1)) if acted != x else ()
        assert comp.boundaries[2].columns[c] == expected


def test_rack_differential_matches_its_formula(registry, rack_registry):
    # on every rack at hand, the desk modules' racks included; the pi values of
    # S4C, A4C and CYC3 are not involutions, so x^pi(y) and x^(pi(y)^-1) differ
    racks = [*registry.augracks.items(), *rack_registry.augracks.items()]
    racks += [(name, module.as_augmented_rack()) for name, module in registry.precrossed.items()]
    for name, rack in racks:
        comp = rack_complex(rack, 2)
        for n in (1, 2, 3):
            assert comp.boundaries[n].entries == reference_rack_boundary(rack, n), (name, n)


def test_rack_complex_and_chain_complex_share_a_degree_range(registry):
    rack = registry.augracks["TRANS"]
    for m in range(3):
        clauwens = chain_complex(build_clauwens(rack), m, m + 1)
        assert rack_complex(rack, m).max_degree == clauwens.max_degree == m + 1


def test_etingof_grana_over_prime_fields_on_desk_racks(registry):
    # observed identities, not theorems of the package: see tests/rack_oracle.py.
    # The field route and the Smith route both run on rack_complex's columns.
    racks = dict(registry.augracks)
    racks.update((name, module.as_augmented_rack()) for name, module in registry.precrossed.items())
    # name: (|G_X|, #orbits, primes p with p not dividing |G_X|)
    want = {
        "ONE": (1, 1, [2, 3, 5, 7]), "TRANS": (6, 1, [5, 7]), "TR1": (1, 1, [2, 3, 5, 7]),
        "TR2": (1, 2, [2, 3, 5, 7]), "Z2TRIV": (1, 2, [2, 3, 5, 7]),
        "IDZ2": (1, 2, [2, 3, 5, 7]), "IDZ3": (1, 3, [2, 3, 5, 7]), "IDS3": (6, 3, [5, 7]),
    }
    got = {name: check_etingof_grana(rack, 3 if name == "IDS3" else 4)
           for name, rack in racks.items()}
    assert got == want
    # the side condition matters: 3 divides |G_X| of TRANS, and H_3 over F3 is
    # F3^2, not F3^(1^3), by the Z/3 in H_3 over Z
    assert orbit_count(registry.augracks["TRANS"]) ** 3 == 1
    assert homology(rack_complex(registry.augracks["TRANS"], 3), 3, "F3").betti == 2


def test_etingof_grana_over_prime_fields_beyond_the_desk(rack_registry):
    # conjugacy classes of D5, S4 and A4, where |G_X| is 10, 24 and 12, and a
    # cyclic rack; A4C is two orbits, the two classes of 3-cycles in A4
    assert set(rack_registry.augracks) == set(RACK_TOPS)
    want = {
        "R5": (10, 1, [3, 7]), "S4T": (24, 1, [5, 7]), "S4C": (24, 1, [5, 7]),
        "A4C": (12, 2, [5, 7]), "CYC3": (3, 1, [2, 5, 7]),
    }
    got = {name: check_etingof_grana(rack_registry.augracks[name], top)
           for name, top in RACK_TOPS.items()}
    assert got == want


def test_rack_homology_matches_clauwens_pipeline():
    rack = transposition_rack()
    clauwens = chain_complex(build_clauwens(rack), 1, 2)
    direct = homology(rack_complex(rack, 1), 1)
    via_monoid = homology(clauwens, 1)
    assert (direct.betti, direct.torsion) == (via_monoid.betti, via_monoid.torsion)


def test_tensor_algebra_dims_against_composition_enumeration():
    generators = [(1, 1), (2, 2), (3, 1)]
    counts = dict()
    for d, c in generators:
        counts[d] = counts.get(d, 0) + c
    for m in range(7):
        brute = 0
        for r in range(m + 1):
            for comp in itertools.product(sorted(counts), repeat=r):
                if sum(comp) == m:
                    product = 1
                    for part in comp:
                        product *= counts[part]
                    brute += product
        assert tensor_algebra_dims(generators, m) == brute


def test_tensor_algebra_dims_known_values():
    one_per_degree = [(d, 1) for d in range(1, 6)]
    assert [tensor_algebra_dims(one_per_degree, m) for m in range(6)] == [1, 1, 2, 4, 8, 16]
    assert tensor_algebra_dims([(1, 1)], 4) == 1
    assert tensor_algebra_dims([], 3) == 0
    assert tensor_algebra_dims([], 0) == 1


def test_tensor_algebra_dims_rejects_degree_zero_generators():
    with pytest.raises(ValueError):
        tensor_algebra_dims([(0, 1)], 2)


def test_group_homology_cyclic_groups():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    assert [h.render() for h in group_homology(z2, 1)] == ["Z", "Z/2"]
    assert [h.render() for h in group_homology(z3, 2)] == ["Z", "Z/3", "0"]
    assert [h.render() for h in group_homology(trivial_group(), 2)] == ["Z", "0", "0"]


def test_check_tri_builds_one_nerve_complex(desk_path, monkeypatch, capsys):
    import precrossed.oracles as oracles
    from precrossed.cli import main
    from precrossed.simplicial import NerveSpec

    built = []

    def counting(spec, *args, **kwargs):
        built.append(type(spec))
        return chain_complex(spec, *args, **kwargs)

    monkeypatch.setattr(oracles, "chain_complex", counting)
    code = main(["check-tri", desk_path, "--object", "Z3", "--coeff", "F3",
                 "--max-degree", "4", "--lengths", "1..5"])
    assert code == 0 and "verdict: AGREE" in capsys.readouterr().out
    assert built == [NerveSpec]


def test_trivial_two_element_rack_links_to_tensor_algebra():
    # rank 2^m matches the tensor algebra on two degree-one generators
    comp = rack_complex(trivial_rack(2), 2)
    for m in range(3):
        assert homology(comp, m, "Q").betti == tensor_algebra_dims([(1, 2)], m)


def test_quandle_splitting_beyond_the_desk(rack_registry):
    # H^R = H^Q + H^D on the four quandles of racks.txt through H_3; per degree
    # (H^Q, H^D), each as (Betti number, {prime power: count}).  R5 has
    # H_3^Q = Z/5, and every D has homology from degree 2 on
    z, free = (1, {}), (0, {})
    want = {
        "R5": [(z, free), (z, free), (free, z), ((0, {5: 1}), z)],
        "S4T": [(z, free), (z, free), ((0, {2: 1}), z), ((0, {2: 1, 3: 1}), (1, {2: 1}))],
        "S4C": [(z, free), (z, free), ((0, {4: 1}), z), ((0, {8: 1, 3: 1}), (1, {4: 1}))],
        "A4C": [(z, free), ((2, {}), free), ((2, {2: 2}), (2, {})),
                ((2, {2: 6, 4: 2}), (6, {2: 2}))],
    }
    got = {name: [tuple((betti, dict(torsion)) for betti, torsion in pair)
                  for pair in check_quandle_splitting(rack_registry.augracks[name], 3)]
           for name in want}
    assert got == want
    # CYC3 is no quandle (x <| x = x + 1): D is no subcomplex, and the quotient
    # by it is no complex
    with pytest.raises(AssertionError, match="quandle complex: d_2 d_3 is not 0"):
        check_quandle_splitting(rack_registry.augracks["CYC3"], 3)


def test_etingof_grana_matches_rational_rack_homology(registry):
    cases = [(registry.augracks[name], 3) for name in ("ONE", "TRANS", "TR1", "TR2")]
    cases += [(registry.precrossed[name].as_augmented_rack(), 3)
              for name in ("Z2TRIV", "IDZ2", "IDZ3")]
    cases.append((registry.precrossed["IDS3"].as_augmented_rack(), 2))
    found = []
    for rack, top in cases:
        comp = rack_complex(rack, top)
        row = [orbit_count(rack) ** n for n in range(top + 1)]
        assert row == [homology(comp, n, "Q").betti for n in range(top + 1)]
        found.append(row)
    assert found == [
        [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 2, 4, 8],
        [1, 2, 4, 8], [1, 2, 4, 8], [1, 3, 9, 27], [1, 3, 9],
    ]


def test_etingof_grana_matches_the_envelope_and_clauwens_over_q(registry):
    found = []
    for name in ("ONE", "TRANS", "TR1", "TR2"):
        rack = registry.augracks[name]
        row = [orbit_count(rack) ** m for m in range(3)]
        for spec in (build_envelope(rack), build_clauwens(rack)):
            # H_m has stabilized at L = m + 1
            assert row == [homology(chain_complex(spec, m, m + 1), m, "Q").betti
                           for m in range(3)], (name, spec)
        found.append(row)
    assert found == [[1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 2, 4]]


def test_transposition_rack_homology_in_degrees_four_and_five(registry):
    # R3, the dihedral quandle on three elements, one degree past compare-ra's reach:
    # the torsion is pinned on the rack complex alone, and its Q-Betti numbers
    # against the Etingof-Grana closed form
    rack = registry.augracks["TRANS"]
    comp = rack_complex(rack, 5)
    assert [homology(comp, m).render() for m in (4, 5)] == [
        "Z + Z/3 + Z/3", "Z + Z/3 + Z/3 + Z/3 + Z/3"]
    for m in (4, 5):
        assert orbit_count(rack) ** m == homology(comp, m, "Q").betti == 1


@pytest.mark.parametrize("call", [
    lambda obj: rack_complex(obj, 1),
    build_clauwens,
], ids=["rack_complex", "build_clauwens"])
def test_rack_oracles_refuse_a_module(call):
    # the rack routes take augmented racks only: a module becomes a rack at the
    # caller, by module.as_augmented_rack()
    with pytest.raises(ModeMismatch):
        call(conjugation_module(cyclic_group(3)))
