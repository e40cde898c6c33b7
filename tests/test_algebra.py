import itertools

import pytest

from precrossed.algebra import (
    conjugation_action,
    conjugation_module,
    conjugation_structure,
    cyclic_group,
    group_from_permutations,
    precrossed_action,
    restrict_to_image,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_augmented_rack,
    validate_group,
    validate_precrossed,
    validate_rack,
)
from precrossed.errors import (
    ActionInvalid,
    NotAssociative,
    NotBijective,
    NotByAutomorphisms,
    NotClosed,
    NotEquivariant,
    NotHomomorphism,
    NotLatinSquare,
    NotSelfDistributive,
)


def s3_perms():
    return sorted(itertools.permutations(range(3)))


def test_validate_group_z2():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.inverse == (0, 1)


def test_validate_group_rejects_repeated_column():
    with pytest.raises(NotLatinSquare):
        validate_group([[0, 1], [0, 1]])


def test_validate_group_rejects_non_associative():
    # an order-5 loop: Latin square with two-sided identity, (1*1)*2 != 1*(1*2)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAssociative):
        validate_group(table)


def test_closure_of_two_permutations_is_s3():
    g = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    # elements are the sorted full symmetric group; the table composes them
    # in diagram order (p then q)
    perms = s3_perms()
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(q[p[t]] for t in range(3))
            assert g.table[i][j] == perms.index(composed)


def test_validate_rack_single_element():
    assert validate_rack([[0]]).size == 1


def test_validate_rack_dihedral():
    # x <| y = 2y - x mod 3; check both axioms by brute force first
    op = [[(2 * y - x) % 3 for y in range(3)] for x in range(3)]
    for y in range(3):
        assert sorted(op[x][y] for x in range(3)) == [0, 1, 2]
    for x, y, z in itertools.product(range(3), repeat=3):
        assert op[op[x][y]][z] == op[op[x][z]][op[y][z]]
    assert validate_rack(op).op == tuple(tuple(row) for row in op)


def test_validate_rack_rejects_constant_table():
    with pytest.raises(NotBijective):
        validate_rack([[0, 0], [0, 0]])


def test_validate_rack_rejects_non_self_distributive():
    # columns are bijections, so the only axiom left to fail is distributivity
    op = [[1, 0], [0, 1]]
    for y in range(2):
        assert sorted(op[x][y] for x in range(2)) == [0, 1]
    with pytest.raises(NotSelfDistributive):
        validate_rack(op)


def test_augrack_single_element_over_z2():
    z2 = cyclic_group(2)
    ar = validate_augmented_rack(["a"], z2, [[0, 0]], [1])
    assert ar.size == 1
    assert ar.induced.op == ((0,),)


def test_augrack_transpositions_induce_dihedral_rack():
    s3 = symmetric_group(3)
    perms = s3_perms()
    transpositions = sorted(
        i for i, p in enumerate(perms) if p != (0, 1, 2) and tuple(p[p[t]] for t in range(3)) == (0, 1, 2)
    )
    ar = conjugation_structure(s3, transpositions)
    # relabel each transposition by its fixed point; conjugation becomes 2y - x mod 3
    fixed = [next(t for t in range(3) if perms[idx][t] == t) for idx in transpositions]
    for x in range(3):
        for y in range(3):
            assert fixed[ar.induced.op[x][y]] == (2 * fixed[y] - fixed[x]) % 3


def test_augrack_rejects_non_equivariant_pi():
    s3 = symmetric_group(3)
    perms = s3_perms()
    transpositions = sorted(
        i for i, p in enumerate(perms) if p != (0, 1, 2) and tuple(p[p[t]] for t in range(3)) == (0, 1, 2)
    )
    good = conjugation_structure(s3, transpositions)
    # send every transposition to the same one: conjugation moves it, pi does not
    bad_pi = [transpositions[0]] * 3
    with pytest.raises(NotEquivariant):
        validate_augmented_rack(good.carrier, s3, good.action, bad_pi)


def test_precrossed_identity_module_s3():
    s3 = symmetric_group(3)
    module = conjugation_module(s3)
    assert module.pi == tuple(range(6))


def test_precrossed_trivial_pi_and_action():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    module = validate_precrossed(z2, z3, trivial_action(z3, 2), [0, 0])
    assert module.group.order == 3


def test_precrossed_rejects_non_automorphic_action():
    # Z/2 acts on Z/4 by x -> x + 2: a valid action that is not multiplicative
    z4, z2 = cyclic_group(4), cyclic_group(2)
    shift = [[x, (x + 2) % 4] for x in range(4)]
    with pytest.raises(NotByAutomorphisms):
        validate_precrossed(z4, z2, shift, [0, 0, 0, 0])


def test_precrossed_rejects_non_homomorphic_pi():
    z2 = cyclic_group(2)
    with pytest.raises(NotHomomorphism):
        validate_precrossed(z2, z2, trivial_action(z2, 2), [1, 0])


def test_precrossed_rejects_invalid_action_table():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    broken = [[x, (x + 1) % 4] for x in range(4)]  # (x^t)^t = x + 2 != x
    with pytest.raises(ActionInvalid):
        validate_precrossed(z4, z2, broken, [0, 0, 0, 0])


def test_conjugation_structure_identity_singleton():
    s3 = symmetric_group(3)
    ar = conjugation_structure(s3, [s3.identity])
    assert ar.size == 1


def test_conjugation_structure_rejects_unclosed_subset():
    s3 = symmetric_group(3)
    perms = s3_perms()
    one_transposition = next(
        i for i, p in enumerate(perms) if p != (0, 1, 2) and tuple(p[p[t]] for t in range(3)) == (0, 1, 2)
    )
    with pytest.raises(NotClosed):
        conjugation_structure(s3, [one_transposition])


def test_precrossed_action_abelian_is_trivial():
    z3 = cyclic_group(3)
    result = precrossed_action(conjugation_module(z3))
    assert result.image.order == 1
    assert all(p == tuple(range(3)) for p in result.phi)


def test_precrossed_action_s3_gives_inner_automorphisms():
    s3 = symmetric_group(3)
    result = precrossed_action(conjugation_module(s3))
    assert result.image.order == 6
    # independent closure of the permutations phi produces the same count
    gens = set(result.phi)
    closure = {tuple(range(6))} | gens
    while True:
        new = {
            tuple(q[p[i]] for i in range(6)) for p in closure for q in closure
        } - closure
        if not new:
            break
        closure |= new
    assert len(closure) == 6


def test_precrossed_action_trivial_pi():
    z2 = cyclic_group(2)
    module = validate_precrossed(z2, z2, trivial_action(z2, 2), [0, 0])
    assert precrossed_action(module).image.order == 1


def test_reduced_module_revalidates(registry):
    for module in registry.precrossed.values():
        reduced = precrossed_action(module).module
        assert reduced.x_group is module.x_group


def test_restrict_to_image():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    module = validate_precrossed(z2, z4, trivial_action(z4, 2), [0, 2])
    small = restrict_to_image(module)
    assert small.group.order == 2
    assert small.pi == (0, 1)


def test_induced_rack_validates_on_all_fixtures(registry):
    for ar in registry.augracks.values():
        assert validate_rack(ar.induced.op).op == ar.induced.op
    for module in registry.precrossed.values():
        view = module.as_augmented_rack()
        assert validate_rack(view.induced.op).op == view.induced.op


def test_conjugation_action_matches_group_conj():
    s3 = symmetric_group(3)
    act = conjugation_action(s3)
    for x in range(6):
        for g in range(6):
            assert act[x][g] == s3.conj(x, g)


def test_trivial_group_helper():
    assert trivial_group().order == 1
