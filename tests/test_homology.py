import hashlib
import math
import pathlib
import random

import pytest

from precrossed.algebra import (
    conjugation_module,
    cyclic_group,
    restrict_to_image,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_augmented_rack,
    validate_precrossed,
)
from precrossed.cli import parse_input
from precrossed.errors import DegreeOutOfRange, NotChainMap
from precrossed.homology import (
    ChainComplex,
    HomologyGroup,
    InducedMap,
    _Smith,
    _kernel_coords,
    _replay,
    SparseIntMatrix,
    chain_complex,
    classify_cycle,
    gaussian_rank,
    homology,
    homology_generators,
    induced_map,
    smith_normal_form,
)
from precrossed.oracles import rack_complex
from precrossed.simplicial import (
    SimplicialMap,
    build_clauwens,
    build_coskeleton,
    build_envelope,
    build_nerve,
    canonical_to_coskeleton,
)

from face_oracle import check_commutes
from rack_oracle import RACK_TOPS, reference_rack_boundary
from snf_oracle import (
    dense_det,
    dense_rank,
    dense_smith,
    cokernel_invariants,
    dense_transforms,
    first_column_basis,
    from_dense,
    from_entries,
    image_invariants,
    matmul,
    unit_heavy_matrix,
)


def random_matrix(rng, max_dim=20, bound=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [
        [rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def z2_trivial_complex(length=2, m_max=1):
    z2, triv = cyclic_group(2), trivial_group()
    module = validate_precrossed(z2, triv, trivial_action(triv, 2), [0, 0])
    spec = build_envelope(module)
    return chain_complex(spec, m_max, length)


def test_chain_complex_of_involution_envelope():
    comp = z2_trivial_complex()
    assert [len(b) for b in comp.bases] == [1, 1, 2]
    # both degree-2 words have boundary 2 * (t@0)
    assert comp.boundaries[2].entries == {(0, 0): 2, (0, 1): 2}
    assert comp.boundaries[1].entries == {}


def test_homology_of_involution_envelope():
    comp = z2_trivial_complex()
    h0, h1 = homology(comp, 0), homology(comp, 1)
    assert (h0.betti, h0.torsion) == (1, ())
    assert (h1.betti, h1.torsion) == (0, (2,))
    assert h1.render() == "Z/2"
    assert h1.machine() == "1;Z;0;2"


def test_homology_degree_out_of_range():
    comp = z2_trivial_complex()
    with pytest.raises(DegreeOutOfRange):
        homology(comp, 2)


def test_smith_example_matrix():
    snf = smith_normal_form(from_dense(2, 2, [[2, 4], [6, 8]]))
    assert snf.diag == (2, 4)
    assert dense_smith([[2, 4], [6, 8]]) == [2, 4]


def test_smith_zero_and_identity():
    assert smith_normal_form(from_dense(3, 2, [[0, 0]] * 3)).diag == ()
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert smith_normal_form(from_dense(4, 4, eye)).diag == (1, 1, 1, 1)


def test_smith_matches_dense_oracle_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(150):
        dense = random_matrix(rng, max_dim=8)
        got = smith_normal_form(from_dense(len(dense), len(dense[0]), dense)).diag
        assert list(got) == dense_smith(dense)
    rng = random.Random(2025)
    for _ in range(150):
        dense = unit_heavy_matrix(rng)
        got = smith_normal_form(from_dense(len(dense), len(dense[0]), dense)).diag
        assert list(got) == dense_smith(dense)


def logged_transforms(mat):
    """The rows-logged Smith form of ``mat`` and its dense U, U^-1, V and
    V^-1; V and V^-1 come from a second run, logged on columns."""
    rows_run = smith_normal_form(mat, log="rows")
    return (rows_run, *dense_transforms(rows_run, smith_normal_form(mat, log="cols")))


def test_smith_transforms_are_unimodular_and_exact():
    rng = random.Random(99)
    unit_rng = random.Random(100)
    inputs = [random_matrix(rng, max_dim=7) for _ in range(60)]
    inputs += [unit_heavy_matrix(unit_rng) for _ in range(60)]
    for dense in inputs:
        rows, cols = len(dense), len(dense[0])
        snf, u, uinv, v, vinv = logged_transforms(from_dense(rows, cols, dense))
        product = matmul(matmul(u, dense), v)
        for i in range(rows):
            for j in range(cols):
                want = snf.diag[i] if i == j and i < len(snf.diag) else 0
                assert product[i][j] == want
        assert abs(dense_det(u)) == 1
        assert abs(dense_det(v)) == 1
        # the tracked inverses really invert
        assert matmul(u, uinv) == [
            [int(i == j) for j in range(rows)] for i in range(rows)
        ]
        assert matmul(v, vinv) == [
            [int(i == j) for j in range(cols)] for i in range(cols)
        ]


def test_logged_smith_matches_unlogged():
    # a run logged on either side has the pivots of an unlogged run, and only its own log
    rng = random.Random(31)
    unit_rng = random.Random(32)
    inputs = [random_matrix(rng, max_dim=9) for _ in range(60)]
    inputs += [unit_heavy_matrix(unit_rng) for _ in range(60)]
    for dense in inputs:
        mat = from_dense(len(dense), len(dense[0]), dense)
        plain = smith_normal_form(mat)
        # the pivot orders of an unlogged elimination
        state = _Smith(mat, None)
        state.run()
        orders = [[p[side] for p in state.pivots] for side in (0, 1)]
        orders = [lines + sorted(set(range(n)).difference(lines))
                  for lines, n in zip(orders, (mat.rows, mat.cols))]
        rows_run, cols_run = smith_normal_form(mat, log="rows"), smith_normal_form(mat, log="cols")
        for run in (rows_run, cols_run):
            assert (run.diag, [run.row_order, run.col_order], run.unit_cols) == (
                plain.diag, orders, plain.unit_cols)
        assert rows_run.col_ops is None and cols_run.row_ops is None
        assert type(rows_run.row_ops) is list and type(cols_run.col_ops) is list


def test_smith_refuses_an_unknown_log_side():
    mat = from_dense(2, 2, [[2, 0], [0, 3]])
    for log in (True, "both", ""):
        with pytest.raises(ValueError, match="log must be"):
            smith_normal_form(mat, log=log)


def test_smith_unit_block_beside_torsion():
    # a unimodular +-1 block coupled to [[2, 0], [0, 3]]: units first, then 2 and 3 merge into 6
    dense = [
        [1, -1, 0, 0, 1],
        [0, 1, 1, 2, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 2, 0],
        [0, 0, 0, 0, 3],
    ]
    snf, u, uinv, v, vinv = logged_transforms(from_dense(5, 5, dense))
    assert snf.diag == (1, 1, 1, 1, 6) and list(snf.diag) == dense_smith(dense)
    product = matmul(matmul(u, dense), v)
    assert product == [[snf.diag[i] if i == j else 0 for j in range(5)] for i in range(5)]
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert matmul(u, uinv) == eye and matmul(v, vinv) == eye


def test_smith_without_transforms_tracks_none():
    snf = smith_normal_form(from_dense(2, 2, [[2, 0], [0, 3]]))
    assert snf == ((1, 6), None, None, None, None, ())


def test_divisibility_chain_on_random_matrices():
    rng = random.Random(5)
    unit_rng = random.Random(6)
    inputs = [random_matrix(rng, max_dim=10) for _ in range(100)]
    inputs += [unit_heavy_matrix(unit_rng) for _ in range(100)]
    for dense in inputs:
        diag = smith_normal_form(from_dense(len(dense), len(dense[0]), dense)).diag
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_gaussian_rank_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(100):
        dense = random_matrix(rng, max_dim=10)
        mat = from_dense(len(dense), len(dense[0]), dense)
        assert gaussian_rank(mat)[0] == dense_rank(dense)
        assert gaussian_rank(mat, 2)[0] == len(
            dense_smith([[v % 2 for v in row] for row in dense])
        ) - sum(
            1 for d in dense_smith([[v % 2 for v in row] for row in dense]) if d % 2 == 0
        )


def test_gaussian_rank_pivots_are_the_first_column_basis():
    # entries up to 9 in size make the fraction-free steps over Q divide by a gcd
    rng = random.Random(17)
    for _ in range(60):
        dense = random_matrix(rng, max_dim=10)
        rows = len(dense)
        drop = set(rng.sample(range(rows), rng.randint(0, rows // 2)))
        kept = [[0] * len(row) if i in drop else row for i, row in enumerate(dense)]
        mat = from_dense(rows, len(dense[0]), dense)
        for p in (None, 2, 3, 5):
            want = first_column_basis(kept, p)
            assert gaussian_rank(mat, p, drop_rows=drop) == (len(want), want), (dense, drop, p)


def test_gaussian_rank_refuses_drop_rows_out_of_range():
    mat = from_dense(2, 2, [[1, 0], [0, 1]])
    for row in (-1, mat.rows):
        with pytest.raises(ValueError, match="outside range"):
            gaussian_rank(mat, 3, drop_rows=[row])
        with pytest.raises(ValueError, match="outside range"):
            gaussian_rank(mat, drop_rows=[row])


def shuffled_bases(comp: ChainComplex, rng) -> ChainComplex:
    """The same complex, spec kept, with every basis permuted by ``rng`` and the
    boundaries permuted to match."""
    perms = []
    for basis in comp.bases:
        perm = list(range(len(basis)))
        rng.shuffle(perm)
        perms.append(perm)
    bases = []
    for basis, perm in zip(comp.bases, perms):
        moved = [None] * len(basis)
        for i, s in enumerate(basis):
            moved[perm[i]] = s
        bases.append(moved)
    boundaries = [from_entries(0, len(bases[0]), {})] + [
        from_entries(len(bases[k - 1]), len(bases[k]), {
            (perms[k - 1][r], perms[k][c]): v for (r, c), v in comp.boundaries[k].entries.items()})
        for k in range(1, len(bases))
    ]
    return ChainComplex(bases, boundaries, comp.spec)


def test_homology_invariant_under_basis_shuffle():
    comp = z2_trivial_complex(length=3, m_max=1)
    shuffled = shuffled_bases(comp, random.Random(12))
    for m in range(2):
        a, b = homology(comp, m), homology(shuffled, m)
        assert (a.betti, a.torsion) == (b.betti, b.torsion)


DESK = pathlib.Path(__file__).parent / "data" / "desk.txt"


def fixture_complexes():
    """Small complexes; the last two have boundaries that leave a block for the
    residual phase of the Smith form once the +-1 pivots are gone: the IDZ3
    envelope at L = 4 (H_3 = Z/3 + Z/3 + Z/3) and the TRANS Clauwens complex at
    L = 4 (H_3 = Z + Z/3, the torsion of the dihedral quandle R3)."""
    idz3 = build_envelope(conjugation_module(cyclic_group(3)))
    trans = parse_input(str(DESK)).augracks["TRANS"]
    return [
        z2_trivial_complex(length=3, m_max=1),
        chain_complex(build_coskeleton(conjugation_module(cyclic_group(2))), 2),
        chain_complex(build_coskeleton(conjugation_module(cyclic_group(3))), 2),
        chain_complex(build_nerve(cyclic_group(3)), 2),
        chain_complex(idz3, 3, 4),
        chain_complex(build_clauwens(trans), 3, 4),
    ]


def test_field_betti_relations_on_fixtures(registry, rack_registry):
    # universal coefficients: the field route against the Smith route, which
    # share no code; on the rack complexes p divides |G_X| for some p below
    racks = {name: rack_complex(rack_registry.augracks[name], top)
             for name, top in RACK_TOPS.items()}
    for comp in fixture_complexes() + desk_complexes(registry) + list(racks.values()):
        for m in range(comp.max_degree):
            hz = homology(comp, m)
            assert homology(comp, m, "Q").betti == hz.betti
            torsion = hz.torsion + (homology(comp, m - 1).torsion if m else ())
            for p in (2, 3, 5, 7):
                jumps = sum(1 for t in torsion if t % p == 0)
                assert homology(comp, m, f"F{p}").betti == hz.betti + jumps, (comp.spec, m, p)
    r5, a4c = racks["R5"], racks["A4C"]
    assert [homology(r5, m).render() for m in (3, 4)] == ["Z + Z/5", "Z + Z/5 + Z/5"]
    assert [homology(r5, m, "F5").render() for m in (3, 4)] == ["F5^2", "F5^4"]
    assert homology(a4c, 2).render() == "Z^4 + Z/2 + Z/2"
    assert homology(a4c, 3).render() == "Z^8 + " + " + ".join(["Z/2"] * 8 + ["Z/4"] * 2)
    assert [homology(a4c, m, "F2").render() for m in (2, 3)] == ["F2^6", "F2^20"]


def tri_z3_complex():
    """The check-tri Z3 envelope at L = 5: Z/3 over the trivial group, degrees 0..5."""
    z3 = cyclic_group(3)
    base = trivial_group()
    module = validate_precrossed(z3, base, trivial_action(base, 3), [base.identity] * 3)
    return chain_complex(build_envelope(module), 4, 5)


def columns(mat: SparseIntMatrix, keep) -> SparseIntMatrix:
    keep = set(keep)
    return SparseIntMatrix.from_columns(
        mat.rows, mat.cols, [col if c in keep else () for c, col in enumerate(mat.columns)])


def test_tri_z3_boundary_columns_are_pinned():
    # the 47,556 nonzeros of the check-tri complex, column by column and in
    # stored pair order: how a word is stored must leave them as they are
    tri = tri_z3_complex()
    assert sum(len(col) for mat in tri.boundaries for col in mat.columns) == 47556
    digest = hashlib.sha256(repr([(mat.rows, mat.cols, mat.columns)
                                  for mat in tri.boundaries]).encode()).hexdigest()
    assert digest == "58a92569f0fb0f8c82cbe3a93929ebd14ebbe3e55b2487a4d4193f56cb1fd0c4"


def test_compressed_field_ranks_match_plain_ranks():
    tri = tri_z3_complex()
    complexes = fixture_complexes() + [tri]
    stored = [list(mat.columns) for comp in complexes for mat in comp.boundaries]
    for comp in complexes:
        for p in (None, 2, 3, 5):
            for k, mat in enumerate(comp.boundaries):
                rank = comp.field_rank(k, p)
                assert rank == gaussian_rank(mat, p)[0], (comp.spec, k, p)
                # the recorded pivot columns are a column basis of the whole d_k
                _, pivots = comp._rank_cache[k, p]
                assert len(pivots) == rank
                assert gaussian_rank(columns(mat, pivots), p)[0] == rank, (comp.spec, k, p)
    # no rank writes into a stored boundary column
    assert [mat.columns for comp in complexes for mat in comp.boundaries] == stored
    assert [tri.dim(k) for k in range(6)] == [1, 2, 120, 1680, 4992, 3840]
    assert [tri.field_rank(k, 3) for k in range(6)] == [0, 0, 1, 117, 1559, 3425]


def dense_of(mat: SparseIntMatrix) -> list[list[int]]:
    dense = [[0] * mat.cols for _ in range(mat.rows)]
    for c, col in enumerate(mat.columns):
        for r, v in col:
            dense[r][c] = v
    return dense


def assert_compressed_smith_is_plain(comp: ChainComplex, oracle_entries: int = 40_000) -> int:
    """Every compressed diagonal of ``comp`` equals the plain one, and the
    dense oracle's up to ``oracle_entries`` matrix entries; returns the number
    of rows compression dropped."""
    dropped = 0
    for k, mat in enumerate(comp.boundaries):
        plain = smith_normal_form(mat).diag
        assert comp.snf(k).diag == plain, (comp.spec, k)
        if 0 < mat.rows * mat.cols <= oracle_entries:
            assert list(plain) == dense_smith(dense_of(mat)), (comp.spec, k)
        dropped += len(comp.snf(k - 1).unit_cols) if k else 0
    return dropped


def unit_heavy_chain(rng) -> ChainComplex:
    """0 <- Z^n <- Z^(m+q) <- Z^(q+s) <- Z^s from unit-heavy X (n x m), Y (m x q)
    and W (q x s): d_1 = [X | XY], d_2 = [Y YW; -I -W] and d_3 = [W; -I], so
    d o d = 0, with the two middle bases shuffled.  The planted 2s and 3s,
    and the products, leave residual blocks beside the unit pivots."""
    x = unit_heavy_matrix(rng, max_dim=8)
    y = unit_heavy_matrix(rng, max_dim=8, rows=len(x[0]))
    w = unit_heavy_matrix(rng, max_dim=8, rows=len(y[0]))
    n, m, q, s = len(x), len(y), len(w), len(w[0])
    xy, yw = matmul(x, y), matmul(y, w)
    eye = [[-int(i == j) for j in range(q)] for i in range(q)]
    d1 = [a + b for a, b in zip(x, xy)]
    d2 = [a + b for a, b in zip(y, yw)] + [a + [-v for v in b] for a, b in zip(eye, w)]
    d3 = w + [[-int(i == j) for j in range(s)] for i in range(s)]
    p1, p2 = list(range(m + q)), list(range(q + s))
    rng.shuffle(p1)
    rng.shuffle(p2)
    boundaries = [
        from_entries(0, n, {}),
        from_entries(n, m + q, {(r, p1[c]): v for r, row in enumerate(d1) for c, v in enumerate(row)}),
        from_entries(m + q, q + s, {(p1[r], p2[c]): v for r, row in enumerate(d2)
                                    for c, v in enumerate(row)}),
        from_entries(q + s, s, {(p2[r], c): v for r, row in enumerate(d3) for c, v in enumerate(row)}),
    ]
    return ChainComplex([list(range(d)) for d in (n, m + q, q + s, s)], boundaries)


def test_compressed_smith_matches_plain_smith_and_the_dense_oracle(registry):
    # d_1 = (2 3), d_2 = (3 -2)^T has no unit pivot: nothing may be dropped
    readme = ChainComplex([[0], [0, 1], [0]], [from_entries(0, 1, {}), from_dense(1, 2, [[2, 3]]),
                                                from_dense(2, 1, [[3], [-2]])])
    assert assert_compressed_smith_is_plain(readme) == 0
    assert [homology(readme, m).render() for m in (0, 1)] == ["0", "0"]
    dropped = sum(assert_compressed_smith_is_plain(comp)
                  for comp in fixture_complexes() + desk_complexes(registry))
    rng = random.Random(2801)
    chains = [assert_compressed_smith_is_plain(unit_heavy_chain(rng)) for _ in range(150)]
    # compression was at work: 1689 rows on the fixtures and the desk, some in every chain
    assert dropped > 1000 and min(chains) > 0


def test_compressed_smith_on_rack_complexes_matches_the_formula(rack_registry):
    for name, rack in rack_registry.augracks.items():
        comp = rack_complex(rack, 3)
        for n in range(1, 5):
            formula = from_entries(rack.size ** (n - 1), rack.size ** n,
                                   reference_rack_boundary(rack, n))
            want = smith_normal_form(formula).diag
            assert comp.snf(n).diag == smith_normal_form(comp.boundaries[n]).diag == want, (name, n)
    assert homology(comp, 3).render() == "Z"  # CYC3, the last rack


def test_smith_refuses_drop_rows_out_of_range():
    mat = from_dense(2, 2, [[1, 0], [0, 1]])
    for row in (-1, mat.rows):
        with pytest.raises(ValueError, match="outside range"):
            smith_normal_form(mat, drop_rows=[row])
    assert smith_normal_form(mat, drop_rows=[1]).diag == (1,)


def test_homology_generators_match_group():
    comp = chain_complex(build_coskeleton(conjugation_module(cyclic_group(2))), 2)
    basis = homology_generators(comp, 1)
    assert HomologyGroup.from_orders(1, basis.orders) == (1, "Z", 0, (2,))
    # the generator really is a cycle of order two
    chain = basis.chains[0]
    assert classify_cycle(basis, chain) == (1,)
    doubled = {k: 2 * v for k, v in chain.items()}
    assert classify_cycle(basis, doubled) == (0,)


def test_induced_map_h0_identity():
    module = conjugation_module(cyclic_group(2))
    cmap = canonical_to_coskeleton(module)
    env = chain_complex(cmap.source, 1, 2)
    cosk = chain_complex(build_coskeleton(module), 1)
    imap = induced_map(cmap, env, cosk, 0)
    assert imap.matrix == [[1]]
    assert imap.is_isomorphism()


@pytest.mark.parametrize("matrix, orders, want", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [3, 3, 3], True),  # the identity on (Z/3)^3
    ([[1, 0], [0, 1]], [2, 0], True),  # the identity on Z + Z/2
    ([[1, 1], [0, 1]], [2, 2], True),
    ([[1, 1], [1, 1]], [2, 2], False),
    ([[1, 0], [0, 2]], [2, 0], False),
])
def test_is_isomorphism_with_several_factors(matrix, orders, want):
    assert InducedMap(0, matrix, orders, orders).is_isomorphism() is want


def test_is_isomorphism_needs_equal_orders():
    assert not InducedMap(0, [[1]], [2], [3]).is_isomorphism()
    assert not InducedMap(0, [[1, 0]], [0, 0], [0]).is_isomorphism()
    assert InducedMap(0, [], [], []).is_isomorphism()


def test_is_isomorphism_keeps_the_free_and_single_cyclic_answers():
    # there the former rule was exact: |det M| = 1 on Z^n, gcd(a, d) = 1 on Z/d
    rng = random.Random(11)
    answers = []
    for _ in range(300):
        n = rng.randint(1, 3)
        matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        want = abs(dense_det(matrix)) == 1
        assert InducedMap(0, matrix, [0] * n, [0] * n).is_isomorphism() is want, matrix
        answers.append(want)
    assert any(answers) and not all(answers)
    for d in range(2, 13):
        for a in range(-d, 2 * d):
            assert InducedMap(0, [[a]], [d], [d]).is_isomorphism() is (math.gcd(a, d) == 1)


def test_induced_map_trivial_carrier_all_degrees():
    triv, z2 = trivial_group(), cyclic_group(2)
    module = validate_precrossed(triv, z2, trivial_action(z2, 1), [0])
    cmap = canonical_to_coskeleton(module)
    env = chain_complex(cmap.source, 2, 3)
    cosk = chain_complex(build_coskeleton(module), 2)
    for m in range(3):
        imap = induced_map(cmap, env, cosk, m)
        assert imap.source_orders == imap.target_orders
        assert imap.is_isomorphism()


def test_induced_map_rejects_non_chain_rule():
    module = conjugation_module(cyclic_group(2))
    good = canonical_to_coskeleton(module)
    env = chain_complex(good.source, 1, 2)
    cosk = chain_complex(build_coskeleton(module), 1)

    def scramble(k, simplex):
        image = good.apply(k, simplex)
        if k == 1 and simplex:
            return good.target.degeneracy(0, good.target.face(1, image, 0), 0)
        return image

    bad = SimplicialMap(good.source, good.target, scramble)
    with pytest.raises(NotChainMap):
        induced_map(bad, env, cosk, 1)
    with pytest.raises(NotChainMap, match=r"map fails s_0 on degree 1 simplex \(1@0\)"):
        check_commutes(bad, 2, 2)


def test_induced_map_checks_each_face_once(registry, monkeypatch):
    from precrossed.simplicial import CoskeletonSpec, WordSpec

    module = registry.precrossed["IDS3"]
    cmap = canonical_to_coskeleton(module)
    env = chain_complex(cmap.source, 2, 3)
    cosk = chain_complex(build_coskeleton(module), 2)
    compared = []
    face = CoskeletonSpec.face

    def counted(self, k, s, i):
        compared.append((k, s, i))
        return face(self, k, s, i)

    walked = []
    faces = WordSpec.faces

    def walk(self, k, simplices):
        walked.append((k, len(simplices)))
        return faces(self, k, simplices)

    monkeypatch.setattr(CoskeletonSpec, "face", counted)
    monkeypatch.setattr(WordSpec, "faces", walk)
    monkeypatch.setattr(WordSpec, "face", None)  # the source side takes no single face
    for m in range(3):  # as check-coskeleton IDS3 --max-degree 2 calls it
        induced_map(cmap, env, cosk, m)
    # every (k, s, i) of degrees 1..3 once; checking every degree on each call ran 4830
    assert len(compared) == sum((k + 1) * env.dim(k) for k in range(1, 4)) == 3910
    assert walked == [(k, env.dim(k)) for k in range(1, 4)]
    induced_map(cmap, env, cosk, 2)
    assert len(compared) == 3910
    assert len(walked) == 3


def test_induced_map_checks_the_degree_above_on_every_call():
    module = conjugation_module(cyclic_group(3))
    good = canonical_to_coskeleton(module)
    env = chain_complex(good.source, 2, 3)
    cosk = chain_complex(build_coskeleton(module), 2)

    def break_degree_3(k, simplex):
        image = good.apply(k, simplex)
        if k == 3:
            return good.target.degeneracy(2, good.target.face(3, image, 0), 0)
        return image

    bad = SimplicialMap(good.source, good.target, break_degree_3)
    induced_map(bad, env, cosk, 0)
    induced_map(bad, env, cosk, 1)  # faces of degrees 1 and 2 pass, and are not checked again
    with pytest.raises(NotChainMap, match="degree-3"):
        induced_map(bad, env, cosk, 2)
    with pytest.raises(NotChainMap, match="degree-3"):
        induced_map(bad, env, cosk, 2)


@pytest.mark.parametrize("name, top", [
    ("IDS3", 2), ("IDZ3", 2), ("IDZ2", 2), ("Z2TRIV", 2), ("IDZ3", 3), ("IDZ2", 3),
])
def test_induced_maps_agree_on_invariants_under_basis_shuffle(registry, name, top):
    # as check-coskeleton NAME --max-degree TOP builds them; the printed matrices
    # depend on the bases, the cokernel, the image and is_isomorphism do not
    obj = registry.precrossed[name]
    module = obj if set(obj.pi) == set(range(obj.group.order)) else restrict_to_image(obj)
    cmap = canonical_to_coskeleton(module)
    env = chain_complex(cmap.source, top, top + 1)
    cosk = chain_complex(build_coskeleton(module), top)
    rng = random.Random(2)
    env_s, cosk_s = shuffled_bases(env, rng), shuffled_bases(cosk, rng)
    matrices_moved = 0
    for m in range(top + 1):
        plain = induced_map(cmap, env, cosk, m)
        moved = induced_map(cmap, env_s, cosk_s, m)
        assert (moved.source_orders, moved.target_orders) == (
            plain.source_orders, plain.target_orders)
        for f in (plain, moved):
            assert len(f.matrix) == len(f.target_orders)
        assert (cokernel_invariants(moved.matrix, moved.target_orders)
                == cokernel_invariants(plain.matrix, plain.target_orders)), m
        assert (image_invariants(moved.matrix, moved.target_orders)
                == image_invariants(plain.matrix, plain.target_orders)), m
        assert moved.is_isomorphism() is plain.is_isomorphism()
        matrices_moved += moved.matrix != plain.matrix
    if name == "IDZ3":
        # the H_1 generator of Z/3 is picked as the other unit: [[2]] on one route, [[1]] on the other
        assert matrices_moved


def test_induced_map_target_orders_give_the_coskeleton_homology(registry):
    # check-coskeleton reads its coskeleton column off target_orders instead of
    # a second Smith form: 0 counts a free generator, d > 1 is torsion
    compared = 0
    for name, obj in registry.precrossed.items():
        module = obj if set(obj.pi) == set(range(obj.group.order)) else restrict_to_image(obj)
        cmap = canonical_to_coskeleton(module)
        for top in range(1, 3 if name == "IDS3" else 4):  # IDS3 at 3 is over the default cap
            env = chain_complex(cmap.source, top, top + 1)
            cosk = chain_complex(build_coskeleton(module), top)
            for m in range(top + 1):
                orders = induced_map(cmap, env, cosk, m).target_orders
                h = homology(cosk, m)
                assert (orders.count(0), tuple(d for d in orders if d > 1)) == (
                    h.betti, h.torsion), (name, top, m)
                compared += 1
    assert compared == 32


def test_image_and_cokernel_oracles_on_small_maps():
    # Z/4 -> Z/4 by 2: image Z/2, cokernel Z/2; Z -> Z by 2: image Z, cokernel Z/2
    assert image_invariants([[2]], [4]) == (0, [2])
    assert cokernel_invariants([[2]], [4]) == (0, [2])
    assert image_invariants([[2]], [0]) == (1, [])
    assert cokernel_invariants([[2]], [0]) == (0, [2])
    # into Z/2 + Z/4 by (0, 1): image Z/4 and cokernel Z/2; by (1, 2): image Z/2, cokernel Z/4
    assert image_invariants([[0], [1]], [2, 4]) == (0, [4])
    assert cokernel_invariants([[0], [1]], [2, 4]) == (0, [2])
    assert image_invariants([[1], [2]], [2, 4]) == (0, [2])
    assert cokernel_invariants([[1], [2]], [2, 4]) == (0, [4])
    assert image_invariants([[], []], [0, 3]) == (0, [])
    assert cokernel_invariants([[], []], [0, 3]) == (1, [3])


def test_induced_map_needs_spec_built_complexes():
    module = conjugation_module(cyclic_group(2))
    cmap = canonical_to_coskeleton(module)
    env = chain_complex(cmap.source, 1, 2)
    cosk = chain_complex(build_coskeleton(module), 1)
    racks = rack_complex(module.as_augmented_rack(), 1)
    with pytest.raises(NotChainMap, match="spec-built"):
        induced_map(cmap, racks, cosk, 1)
    with pytest.raises(NotChainMap, match="spec-built"):
        induced_map(cmap, env, racks, 1)


def test_field_characteristic_parsing():
    from precrossed.homology import field_characteristic

    assert field_characteristic("Q") is None
    assert field_characteristic("F5") == 5
    with pytest.raises(ValueError):
        field_characteristic("F4")
    with pytest.raises(ValueError):
        field_characteristic("GF2")


def test_chain_complex_rejects_broken_boundaries():
    good = z2_trivial_complex()
    tampered = from_entries(1, 1, {(0, 0): 1})
    with pytest.raises(AssertionError):
        ChainComplex(good.bases, [good.boundaries[0], tampered, good.boundaries[2]])


def desk_complexes(registry):
    """A small complex of every desk object through every pipeline that takes it."""
    out = []
    for rack in registry.augracks.values():
        out += [chain_complex(build_envelope(rack), 2, 3),
                chain_complex(build_clauwens(rack), 2, 3), rack_complex(rack, 2)]
    for module in registry.precrossed.values():
        out += [chain_complex(build_envelope(module), 2, 3),
                chain_complex(build_coskeleton(module), 2),
                rack_complex(module.as_augmented_rack(), 2)]
    out += [chain_complex(build_nerve(group), 2) for group in registry.groups.values()]
    return out


def test_boundaries_are_packed(registry):
    racks = rack_complex(registry.augracks["TRANS"], 2)
    for comp in fixture_complexes() + desk_complexes(registry) + [racks]:
        for mat in comp.boundaries:
            assert all(type(field) is bytes for field in (mat.starts, mat.index, mat.values))
            starts = memoryview(mat.starts).cast("i").tolist()
            assert len(starts) == mat.cols + 1 and starts[0] == 0
            assert all(a <= b for a, b in zip(starts, starts[1:]))
            assert starts[-1] == len(memoryview(mat.index).cast("i")) == len(mat.values)
            assert len(mat.columns) == mat.cols
            for col in mat.columns:
                rows = [r for r, _ in col]
                assert len(set(rows)) == len(rows)
                assert all(0 <= r < mat.rows for r in rows)
                assert all(v != 0 for _, v in col)
            assert SparseIntMatrix.from_columns(mat.rows, mat.cols, mat.columns) == mat
    assert sum(len(col) for col in racks.boundaries[3].columns) == 60


def test_entries_past_a_byte_and_past_int64_stay_exact():
    # +-200 fit no byte and +-2^70 no machine int: the values are kept as a
    # tuple, and the Smith form, its logs and the Q rank read them exactly
    big = 2 ** 70
    dense = [[big, 200, 0, 1], [-big, 3, 1, 0], [0, -200, big + 1, -big]]
    mat = from_dense(3, 4, dense)
    assert type(mat.values) is tuple and type(mat.index) is bytes
    assert dense_of(mat) == dense
    assert SparseIntMatrix.from_columns(3, 4, mat.columns) == mat
    assert mat.entries == {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v}
    snf, u, _, v, _ = logged_transforms(mat)
    assert list(snf.diag) == dense_smith(dense)
    product = matmul(matmul(u, dense), v)
    assert product == [[snf.diag[i] if i == j else 0 for j in range(4)] for i in range(3)]
    assert gaussian_rank(mat)[0] == dense_rank(dense) == 3
    assert gaussian_rank(mat, 2)[0] == dense_rank(dense, 2)
    # the byte range itself packs
    edge = from_dense(2, 2, [[127, -128], [-127, 0]])
    assert type(edge.values) is bytes
    assert dense_of(edge) == [[127, -128], [-127, 0]]


def test_no_faces_are_taken_of_an_empty_basis(registry):
    # one-letter words meet one position, and the trivial group's nerve has no
    # nondegenerate simplex above degree 0: every higher degree is empty
    cases = [(build_envelope(registry.augracks["TRANS"]), 1), (build_nerve(trivial_group()), None)]
    for spec, bound in cases:
        walked = []
        faces = spec.faces

        def spy(k, simplices, faces=faces, walked=walked):
            assert simplices, f"faces of an empty degree-{k} basis"
            walked.append(k)
            return faces(k, simplices)

        spec.faces = spy
        comp = chain_complex(spec, 6, bound)
        assert walked == [k for k in range(1, 8) if comp.dim(k)]
        assert [homology(comp, m).render() for m in range(2, 7)] == ["0"] * 5


def test_composition_check_fires_on_a_broken_boundary(registry):
    spec = build_envelope(registry.precrossed["IDS3"])
    env = chain_complex(spec, 2, 3)
    # d_3 sending basis element 0 to a simplex with a nonzero boundary breaks d_2 d_3
    r = next(c for _, c in env.boundaries[2].entries)
    broken = env.boundaries[:3] + [from_entries(env.dim(2), env.dim(3), {(r, 0): 1})]
    with pytest.raises(AssertionError, match="degree 3 is nonzero"):
        ChainComplex(env.bases, broken)


def generator_complexes():
    """The fixture complexes plus the envelope of id: S3 -> S3 at length 3."""
    s3_envelope = build_envelope(conjugation_module(symmetric_group(3)))
    return fixture_complexes() + [chain_complex(s3_envelope, 2, 3)]


def test_kernel_coordinates_rebuild_every_boundary_column():
    def rows_of(mat):
        lines = {}
        for c, col in enumerate(mat.columns):
            for r, v in col:
                lines.setdefault(r, {})[c] = v
        return lines

    for comp in generator_complexes():
        for m in range(comp.max_degree):
            snf = homology_generators(comp, m).snf
            coords = _kernel_coords(snf, rows_of(comp.boundaries[m + 1]))
            # V[:, r:] times the coordinates, with V replayed from the log
            rebuilt = {snf.col_order[snf.rank + k]: row for k, row in coords.items()}
            _replay(snf.col_ops, rebuilt, transpose=True)
            assert {r: row for r, row in rebuilt.items() if row} == rows_of(comp.boundaries[m + 1])


def test_generators_classify_as_unit_vectors():
    for comp in generator_complexes():
        for m in range(comp.max_degree):
            basis = homology_generators(comp, m)
            for i, chain in enumerate(basis.chains):
                unit = tuple(
                    int(i == k) % d if d else int(i == k) for k, d in enumerate(basis.orders)
                )
                assert classify_cycle(basis, chain) == unit


# homology_generators on generator_complexes(), degree by degree: (orders, rows,
# the first 16 hex digits of the sha256 of repr([sorted(chain.items()) ...]))
GENERATOR_PINS = [
    [([0], [0], "262e139c97fa9ad9"), ([2], [0], "262e139c97fa9ad9")],
    [([0], [0], "262e139c97fa9ad9"), ([2], [0], "262e139c97fa9ad9"), ([], [], "4f53cda18c2baa0c")],
    [([0], [0], "262e139c97fa9ad9"), ([3], [1], "89b6fe3ecc2b1204"), ([], [], "4f53cda18c2baa0c")],
    [([0], [0], "262e139c97fa9ad9"), ([3], [1], "262e139c97fa9ad9"), ([], [], "4f53cda18c2baa0c")],
    [([0], [0], "262e139c97fa9ad9"), ([3], [1], "262e139c97fa9ad9"), ([3], [53], "50991901eb2847a3"),
     ([3, 3, 3], [280, 279, 281], "8af73b112308b0d2")],
    [([0], [0], "262e139c97fa9ad9"), ([0], [119], "8ad7c04eecaad059"), ([0], [1194], "0e46c2351c917a6c"),
     ([3, 0], [1882, 1883], "40af5782b965d8a3")],
    [([0], [0], "262e139c97fa9ad9"), ([2], [4], "8ad7c04eecaad059"), ([2], [294], "81f8c058a4e1ee5e")],
]


def test_generators_are_pinned():
    # the generator route's pivots fix every printed induced matrix
    got = []
    for comp in generator_complexes():
        row = []
        for m in range(comp.max_degree):
            basis = homology_generators(comp, m)
            chains = repr([sorted(chain.items()) for chain in basis.chains]).encode()
            row.append((basis.orders, basis.rows, hashlib.sha256(chains).hexdigest()[:16]))
            # each Smith form keeps only the log the route reads
            assert basis.snf.row_ops is None and basis.asnf.col_ops is None
        got.append(row)
    assert got == GENERATOR_PINS


def test_classify_cycle_rejects_a_non_cycle():
    comp = chain_complex(build_coskeleton(conjugation_module(cyclic_group(3))), 2)
    basis = homology_generators(comp, 2)
    j = next(c for (_, c) in sorted(comp.boundaries[2].entries))
    not_a_cycle = {j: 1}
    with pytest.raises(AssertionError, match="outside the kernel"):
        classify_cycle(basis, not_a_cycle)
