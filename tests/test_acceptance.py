"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every expected value is pinned here, nothing is calibrated later.
"""

import random
import re
import time

from precrossed.algebra import precrossed_action
from precrossed.cli import (
    cmd_check_coskeleton,
    cmd_check_tri,
    cmd_compare_ra,
    cmd_homology,
)
from precrossed.homology import chain_complex, homology, smith_normal_form
from precrossed.simplicial import (
    build_clauwens,
    build_coskeleton,
    build_envelope,
    build_nerve,
)

from face_oracle import check_simplicial_identities
from snf_oracle import (
    dense_det,
    dense_smith,
    dense_transforms,
    from_dense,
    matmul,
    unit_heavy_matrix,
)

COMPARE_RA_TRANS_2_3 = """\
command: compare-ra
object: TRANS
max-degree: 2
max-length: 3
cap: 200000
degree envelope clauwens rackcomplex
0 Z Z Z
1 Z Z Z
2 Z Z Z
verdict: AGREE
"""


def _passed(criterion, detail, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: PASS — {detail}{stamp}")


def _homology_table(report):
    """degree -> (envelope, clauwens, rackcomplex) rendered groups."""
    rows = {}
    for line in report.lines:
        match = re.match(r"^(\d+) (\S+) (\S+) (\S+)$", line)
        if match:
            rows[int(match.group(1))] = match.groups()[1:]
    return rows


def test_criterion_1_three_pipeline_agreement(registry):
    for name in ("ONE", "TRANS"):
        start = time.perf_counter()
        report = cmd_compare_ra(registry, name, 2, 3)
        elapsed = time.perf_counter() - start
        assert report.verdict == "AGREE", report.lines
        assert elapsed < 300.0
        if name == "ONE":
            table = _homology_table(report)
            assert all(table[m] == ("Z", "Z", "Z") for m in range(3))
        else:
            assert report.render() == COMPARE_RA_TRANS_2_3
        _passed(1, f"compare-ra {name}: three pipelines agree in degrees 0..2 at L=3", elapsed)


def test_criterion_1_three_pipeline_agreement_beyond_the_desk(rack_registry):
    # the racks of tests/data/racks.txt, with H_2 pinned as read at degree 2, L = 3
    want = {"R5": "Z", "S4T": "Z + Z/2", "S4C": "Z + Z/4", "A4C": "Z^4 + Z/2 + Z/2", "CYC3": "Z"}
    assert set(rack_registry.augracks) == set(want)
    start = time.perf_counter()
    for name, h2 in want.items():
        report = cmd_compare_ra(rack_registry, name, 2, 3, cap=50000)
        assert report.verdict == "AGREE", (name, report.lines)
        assert report.lines[-1] == f"2 {h2} {h2} {h2}", (name, report.lines)
    elapsed = time.perf_counter() - start
    _passed(1, "compare-ra on the racks of racks.txt: three pipelines agree to degree 2", elapsed)


def test_criterion_2_trivial_rack_closed_form(registry):
    start = time.perf_counter()
    for name, d in (("TR1", 1), ("TR2", 2)):
        report = cmd_compare_ra(registry, name, 2, 3)
        assert report.verdict == "AGREE", report.lines
        table = _homology_table(report)
        for m in range(3):
            want = "Z" if d**m == 1 else f"Z^{d ** m}"
            assert table[m] == (want, want, want), (name, m, table[m])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(2, "trivial racks (d=1,2): every pipeline is free of rank d^m for m<=2", elapsed)


def test_criterion_3_tensor_algebra_mod_two(registry):
    start = time.perf_counter()
    report = cmd_check_tri(registry, "Z2", 3, "F2", [1, 2, 3, 4])
    elapsed = time.perf_counter() - start
    assert report.verdict == "AGREE", report.lines
    expected = {0: 1, 1: 1, 2: 2, 3: 4}
    for line in report.lines:
        match = re.match(r"^(\d+) (\d+) ", line)
        if match:
            m = int(match.group(1))
            assert int(match.group(2)) == expected[m]
            # the compared cell sits at L = m + 1 (column m+1 of the row)
            cells = line.split()
            assert int(cells[2 + m]) == expected[m]
    assert elapsed < 300.0
    _passed(3, "mod-2 envelope of Z/2 -> 1 realizes tensor-algebra dims 1,1,2,4", elapsed)


def test_criterion_4_rational_vanishing(registry):
    start = time.perf_counter()
    report = cmd_check_tri(registry, "Z2", 3, "Q", [1, 2, 3, 4])
    elapsed = time.perf_counter() - start
    assert report.verdict == "AGREE", report.lines
    for line in report.lines:
        match = re.match(r"^(\d+) (\d+) ", line)
        if match:
            m = int(match.group(1))
            assert int(match.group(2)) == (1 if m == 0 else 0)
    assert elapsed < 300.0
    _passed(4, "rational envelope homology of Z/2 -> 1 vanishes in degrees 1..3", elapsed)


def test_criterion_5_coskeleton_computes_group_homology(registry):
    expectations = {"IDZ2": ["Z", "Z/2", "0"], "IDZ3": ["Z", "Z/3", "0"]}
    start = time.perf_counter()
    for name, want in expectations.items():
        report = cmd_check_coskeleton(registry, name, 2)
        assert report.verdict == "AGREE", report.lines
        for m in range(3):
            assert f"{m} {want[m]} {want[m]}" in report.lines
        assert "induced H_0 isomorphism: yes" in report.lines
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(5, "coskeleton quotients of id:Z/2 and id:Z/3 match the bar complex; H_0 map iso", elapsed)


def test_criterion_6a_simplicial_identities(registry):
    start = time.perf_counter()
    cases = [
        build_envelope(registry.precrossed["Z2TRIV"]),
        build_envelope(registry.augracks["ONE"]),
        build_clauwens(registry.augracks["ONE"]),
        build_clauwens(registry.augracks["TR2"]),
        build_coskeleton(registry.precrossed["IDZ2"]),
        build_coskeleton(registry.precrossed["IDZ3"]),
        build_nerve(registry.groups["S3"]),
    ]
    total = 0
    for spec in cases:
        total += check_simplicial_identities(spec, 4, 3)
    elapsed = time.perf_counter() - start
    _passed(6, f"(a) simplicial identities exhaustively on all builders: {total} relations", elapsed)


def test_criterion_6b_boundary_squares_to_zero(registry):
    # construction itself raises when the composite is nonzero; build them all
    built = [
        chain_complex(build_envelope(registry.precrossed["Z2TRIV"]), 2, 3),
        chain_complex(build_envelope(registry.augracks["ONE"]), 2, 3),
        chain_complex(build_clauwens(registry.augracks["TRANS"]), 2, 3),
        chain_complex(build_coskeleton(registry.precrossed["IDZ3"]), 2),
        chain_complex(build_nerve(registry.groups["Z3"]), 2),
    ]
    for comp in built:
        for k in range(2, comp.max_degree + 1):
            # through the (row, col) entries, apart from the stored columns the check reads
            lower = {}
            for (r, mid), w in comp.boundaries[k - 1].entries.items():
                lower.setdefault(mid, []).append((r, w))
            acc = {}
            for (mid, j), v in comp.boundaries[k].entries.items():
                for r, w in lower.get(mid, ()):
                    acc[r, j] = acc.get((r, j), 0) + v * w
            assert not any(acc.values())
    _passed(6, "(b) boundary composites vanish on every constructed complex")


def test_criterion_6c_smith_contracts_against_dense_oracle():
    rng = random.Random(20240811)
    start = time.perf_counter()
    inputs = []
    for _ in range(1000):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        inputs.append([
            [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(cols)]
            for _ in range(rows)
        ])
    unit_rng = random.Random(20240812)
    inputs += [unit_heavy_matrix(unit_rng, max_dim=20) for _ in range(300)]
    for dense in inputs:
        rows, cols = len(dense), len(dense[0])
        mat = from_dense(rows, cols, dense)
        snf = smith_normal_form(mat, log="rows")
        assert list(snf.diag) == dense_smith(dense)
        for a, b in zip(snf.diag, snf.diag[1:]):
            assert b % a == 0
        u, _, v, _ = dense_transforms(snf, smith_normal_form(mat, log="cols"))
        product = matmul(matmul(u, dense), v)
        for i in range(rows):
            for j in range(cols):
                want = snf.diag[i] if i == j and i < len(snf.diag) else 0
                assert product[i][j] == want
        assert abs(dense_det(u)) == 1
        assert abs(dense_det(v)) == 1
    elapsed = time.perf_counter() - start
    _passed(6, "(c) Smith normal form contracts on 1000 random and 300 unit-heavy matrices"
               " vs dense oracle", elapsed)


def test_criterion_6d_independence_of_base_group(registry):
    start = time.perf_counter()
    for name in ("IDS3", "IDZ3"):
        module = registry.precrossed[name]
        reduced = precrossed_action(module).module
        a = build_envelope(module)
        b = build_envelope(reduced)
        for k in range(3):
            left = a.simplices(k, 2)
            right = b.simplices(k, 2)
            assert [a.encode(s) for s in left] == [b.encode(s) for s in right]
            for sa, sb in zip(left, right):
                for i in range(k + 1):
                    if k >= 1:
                        assert a.encode(a.face(k, sa, i)) == b.encode(b.face(k, sb, i))
                    assert a.encode(a.degeneracy(k, sa, i)) == b.encode(b.degeneracy(k, sb, i))
    elapsed = time.perf_counter() - start
    _passed(6, "(d) envelope of a module and of its self-action reduction coincide", elapsed)


def test_criterion_6e_truncation_stabilization(registry):
    start = time.perf_counter()
    fixtures = [
        ("Z2TRIV", build_envelope(registry.precrossed["Z2TRIV"])),
        ("ONE", build_envelope(registry.augracks["ONE"])),
        ("TR2", build_envelope(registry.augracks["TR2"])),
        ("TRANS", build_envelope(registry.augracks["TRANS"])),
    ]
    for name, spec in fixtures:
        at_two = homology(chain_complex(spec, 1, 2), 1)
        at_three = homology(chain_complex(spec, 1, 3), 1)
        assert at_two == at_three, (name, at_two, at_three)
    elapsed = time.perf_counter() - start
    _passed(6, "(e) H_1 of the envelope fixtures is identical at L=2 and L=3", elapsed)


def test_criterion_7_determinism(registry):
    start = time.perf_counter()
    runs = []
    for _ in range(2):
        chunks = [
            cmd_compare_ra(registry, "ONE", 2, 3).render(),
            cmd_check_tri(registry, "Z2", 3, "F2", [1, 2, 3, 4]).render(),
            cmd_check_coskeleton(registry, "IDZ2", 2).render(),
            cmd_homology(registry, "TRANS", "envelope", 2, 3, "Z").render(),
            cmd_homology(registry, "TRANS", "envelope", 2, 3, "Z").render(machine=True),
        ]
        runs.append("".join(chunks))
    assert runs[0] == runs[1]
    elapsed = time.perf_counter() - start
    _passed(7, "repeated acceptance commands render byte-identical reports", elapsed)
