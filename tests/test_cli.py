import contextlib
import importlib
import io
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precrossed.algebra import trivial_action, trivial_group, validate_precrossed
from precrossed.cli import (
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_RESOURCE,
    cmd_check_tri,
    main,
    parse_text,
)
from precrossed.errors import (
    ActionInvalid,
    NoIdentity,
    NotBijective,
    NotEquivariant,
    NotHomomorphism,
    NotLatinSquare,
    ParseError,
    PrecrossedError,
)
from precrossed.homology import chain_complex, homology
from precrossed.simplicial import build_envelope


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_minimal_group():
    reg = parse_text("group Z2\n  table: 0,1 / 1,0\n")
    assert reg.groups["Z2"].order == 2


def test_parse_precrossed_block():
    text = (
        "group Z2\n  table: 0,1 / 1,0\n"
        "precrossed P\n  x: Z2\n  g: Z2\n  pi: id\n  action: trivial\n"
    )
    reg = parse_text(text)
    assert reg.precrossed["P"].pi == (0, 1)


def test_parse_reports_undeclared_reference():
    text = "precrossed P\n  x: NOPE\n  g: NOPE\n  pi: id\n  action: trivial\n"
    with pytest.raises(ParseError, match="NOPE"):
        parse_text(text)


def test_parse_rejects_duplicate_names():
    text = "group A\n  table: 0\n\ngroup A\n  table: 0\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_text(text)


def test_parse_rejects_stray_key_line():
    with pytest.raises(ParseError, match="outside a block"):
        parse_text("  table: 0\n")


def test_parse_rejects_non_integer_size():
    text = (
        "group Z2\n  table: 0,1 / 1,0\n"
        "augrack A\n  group: Z2\n  size: two\n  pi: 1\n  action: trivial\n"
    )
    with pytest.raises(ParseError, match="size: expected an integer, got 'two'"):
        parse_text(text)


def test_non_integer_size_exits_one(capsys, tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("group Z2\n  table: 0,1 / 1,0\naugrack A\n  group: Z2\n  size: two\n"
                    "  pi: 1\n  action: trivial\n")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "error: size: expected an integer, got 'two'\n"


def test_registry_that_is_not_utf8_exits_one(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_bytes(b"\xff\xfe group G")
    src = pathlib.Path(__file__).parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "precrossed.cli", "validate", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=60, check=False)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot read {path}: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("perms", ["", "/", "1,0 / "])
def test_parse_rejects_an_empty_permutation(perms):
    with pytest.raises(ParseError, match="group 'G' has an empty permutation"):
        parse_text(f"group G\n  perms: {perms}\n")


def test_empty_permutation_exits_one(capsys, tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("group G\n  perms: \n")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "error: line 1: group 'G' has an empty permutation\n"


# Registries that parse but fail a validation rule of their objects, each with
# the error class that parse_text raises and the one line that validate prints
INVALID = {
    "latin-square-without-identity": (
        "group G\n  table: 0,2,1 / 2,1,0 / 1,0,2\n",
        NoIdentity, "group G: no two-sided identity element"),
    "group-row-with-a-repeat": (
        "group G\n  table: 0,0 / 1,0\n", NotLatinSquare, "group G: row 0 is not a permutation"),
    "augrack-action-outside-the-carrier": (
        "group Z2\n  table: 0,1 / 1,0\naugrack A\n  group: Z2\n  size: 1\n  pi: 1\n"
        "  action: 0,1\n",
        ActionInvalid, "augrack A: row 0 has an entry outside the carrier"),
    "rack-entry-outside": (
        "rack R\n  table: 0,3 / 1,0\n", NotBijective, "rack R: row 0 has an entry outside 0..1"),
    "precrossed-pi-outside-g": (
        "group Z2\n  table: 0,1 / 1,0\nprecrossed P\n  x: Z2\n  g: Z2\n  pi: 0,2\n"
        "  action: trivial\n",
        NotHomomorphism, "precrossed P: pi has a value outside the group"),
    "identity-pi-with-trivial-action": (
        "group S3\n  perms: 1,0,2 / 1,2,0\n"
        "precrossed P\n  x: S3\n  g: S3\n  pi: id\n  action: trivial\n",
        NotEquivariant, "precrossed P: pi(1^2) != pi(1)^2"),
}


@pytest.mark.parametrize("text, error, message", list(INVALID.values()), ids=list(INVALID))
def test_invalid_registries_raise_and_exit_one(capsys, tmp_path, text, error, message):
    with pytest.raises(error) as raised:
        parse_text(text)
    assert type(raised.value) is error and str(raised.value) == message
    path = tmp_path / "reg.txt"
    path.write_text(text)
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_INPUT, "", f"error: {message}\n")


# the desk's S3, R3, TRANS and IDS3 spelled out with a group table and with
# explicit pi and action rows, where the desk writes perms, a subset, 'id' and
# 'conjugation'
SPELLED = """
group S3
  table: 0,1,2,3,4,5 / 1,0,3,2,5,4 / 2,4,0,5,1,3 / 3,5,1,4,0,2 / 4,2,5,0,3,1 / 5,3,4,1,2,0

rack R3
  table: 0,2,1 / 2,1,0 / 1,0,2

augrack TRANS
  group: S3
  size: 3
  pi: 1,2,5
  action: 0,0,2,2,1,1 / 1,2,1,0,2,0 / 2,1,0,1,0,2

precrossed IDS3
  x: S3
  g: S3
  pi: 0,1,2,3,4,5
  action: 0,0,0,0,0,0 / 1,1,5,5,2,2 / 2,5,2,1,5,1 / 3,4,4,3,3,4 / 4,3,3,4,4,3 / 5,2,1,2,1,5
"""


def test_spelled_tables_parse_to_the_desk_objects(registry):
    spelled = parse_text(SPELLED)
    assert spelled.groups["S3"].table == registry.groups["S3"].table
    assert spelled.racks["R3"].op == registry.racks["R3"].op
    got, want = spelled.augracks["TRANS"], registry.augracks["TRANS"]
    assert got.pi == want.pi
    assert got.action == want.action
    assert got.induced.op == want.induced.op
    got, want = spelled.precrossed["IDS3"], registry.precrossed["IDS3"]
    assert got.pi == want.pi
    assert got.action == want.action


# pieces of the registry grammar, so that edits reach past the header check
FRAGMENTS = ["0", "1", "2", "5", "-1", ",", " / ", "/", ":", " ", "  ", "\n", "\n  ", "#",
             "id", "trivial", "conjugation", "table", "perms", "subset", "size", "pi",
             "action", "group", "x", "g", "group S3", "augrack", "precrossed", "rack"]


@st.composite
def edited_desk(draw, text):
    """The desk registry after one to four deletions, insertions or replacements."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 6))
        new = draw(st.sampled_from(FRAGMENTS)) if draw(st.booleans()) else ""
        text = text[:at] + new + text[at + cut:]
    return text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_edited_registries_raise_only_package_errors(desk_path, data):
    with open(desk_path, encoding="utf-8") as handle:
        text = data.draw(edited_desk(handle.read()))
    try:
        parse_text(text)
    except PrecrossedError:
        pass


REGISTRY_LINES = {name: (pathlib.Path(__file__).parent / "data" / name).read_text(
    encoding="utf-8").splitlines() for name in ("desk.txt", "racks.txt")}
BAD_ENTRIES = ["x", "two", "1.5", "-", "0x1", "1e2", " "]


@st.composite
def mutated_registry(draw):
    """A bundled registry with one key line dropped, repeated or given a bad value:
    a non-integer entry, another small integer (which can break equivariance of
    ``pi:``), a row one entry short or long, an empty row, or two entries of one
    row swapped."""
    lines = list(REGISTRY_LINES[draw(st.sampled_from(sorted(REGISTRY_LINES)))])
    at = draw(st.sampled_from([n for n, line in enumerate(lines)
                               if line.startswith("  ") and ": " in line]))
    key, value = lines[at].split(": ", 1)
    kind = draw(st.sampled_from(["drop", "repeat", "non-integer", "integer", "short", "long",
                                 "empty row", "swap"]))
    if kind == "drop":
        del lines[at]
    elif kind == "repeat":
        lines.insert(at, lines[at])
    else:
        rows = [row.split(",") for row in value.split(" / ")]
        r = draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        c = draw(st.integers(0, len(row) - 1))
        if kind == "non-integer":
            row[c] = draw(st.sampled_from(BAD_ENTRIES))
        elif kind == "integer":
            row[c] = str(draw(st.integers(0, 5)))
        elif kind == "short":
            del row[c]
        elif kind == "long":
            row.insert(c, row[c])
        elif kind == "empty row":
            rows[r] = []
        else:
            d = draw(st.integers(0, len(row) - 1))
            row[c], row[d] = row[d], row[c]
        lines[at] = key + ": " + " / ".join(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=mutated_registry())
def test_mutated_registries_validate_or_fail_in_one_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("registry") / "mutated.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])  # a traceback would raise here
    if code == 0:
        assert out.getvalue().startswith("command: validate\n")
    else:
        assert code == EXIT_INPUT
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_validate_command(desk_path, capsys):
    code, out = run(["validate", desk_path], capsys)
    assert code == 0
    assert "group S3: order 6" in out


def test_homology_command_output(desk_path, capsys):
    code, out = run(
        [
            "homology", desk_path, "--object", "Z2TRIV", "--pipeline", "envelope",
            "--max-degree", "1", "--max-length", "2", "--coeff", "Z",
        ],
        capsys,
    )
    assert code == 0
    assert "H_0 = Z\nH_1 = Z/2\n" in out
    assert "max-length: 2" in out


def test_homology_machine_output(desk_path, capsys):
    code, out = run(
        [
            "homology", desk_path, "--object", "Z2TRIV", "--pipeline", "envelope",
            "--max-degree", "1", "--max-length", "2", "--coeff", "Z", "--machine",
        ],
        capsys,
    )
    assert code == 0
    assert out == "0;Z;1;\n1;Z;0;2\n"


def test_homology_rackcomplex_pipeline(desk_path, capsys):
    code, out = run(
        [
            "homology", desk_path, "--object", "TR1", "--pipeline", "rackcomplex",
            "--max-degree", "3", "--max-length", "3",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("= Z\n") == 4


def test_homology_nerve_pipeline(desk_path, capsys):
    code, out = run(
        [
            "homology", desk_path, "--object", "Z3", "--pipeline", "nerve",
            "--max-degree", "1", "--max-length", "1",
        ],
        capsys,
    )
    assert code == 0
    assert "H_1 = Z/3" in out


def test_homology_incompatible_pipeline(desk_path, capsys):
    code, _ = run(
        [
            "homology", desk_path, "--object", "Z3", "--pipeline", "envelope",
            "--max-degree", "1", "--max-length", "1",
        ],
        capsys,
    )
    assert code == EXIT_INPUT


def test_unknown_object_exits_one(desk_path, capsys):
    code, _ = run(
        [
            "homology", desk_path, "--object", "MISSING", "--pipeline", "nerve",
            "--max-degree", "1", "--max-length", "1",
        ],
        capsys,
    )
    assert code == EXIT_INPUT


def test_resource_bound_exits_three(desk_path, capsys):
    code, _ = run(
        [
            "homology", desk_path, "--object", "TRANS", "--pipeline", "envelope",
            "--max-degree", "2", "--max-length", "3", "--cap", "50",
        ],
        capsys,
    )
    assert code == EXIT_RESOURCE


def test_out_of_memory_exits_three_with_one_line(desk_path, capsys, monkeypatch):
    # a run no cap stopped: one stderr line, nothing on stdout, no traceback
    import precrossed.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "chain_complex", exhausted)
    code = main(["homology", desk_path, "--object", "TRANS", "--pipeline", "envelope",
                 "--max-degree", "2", "--max-length", "3", "--coeff", "Q"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_RESOURCE, "")
    assert captured.err == "error: resource bound exceeded: out of memory\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the address-space limit is set with Linux RLIMIT_AS")
def test_real_out_of_memory_exits_three_with_one_line(desk_path):
    # one child, its address space capped at 200 MiB, runs out of memory for
    # real: the free envelope of TRANS at length 7 outgrows it under a cap no
    # run reaches
    import resource

    limit = 200 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = pathlib.Path(__file__).parents[1] / "src"
    argv = ["homology", desk_path, "--object", "TRANS", "--pipeline", "envelope",
            "--max-degree", "3", "--max-length", "7", "--cap", "1000000000"]
    proc = subprocess.run([sys.executable, "-m", "precrossed.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          preexec_fn=cap_address_space, capture_output=True, text=True,
                          timeout=120, check=False)
    assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
    assert proc.stderr == "error: resource bound exceeded: out of memory\n"


def test_cap_counts_nondegenerate_words(desk_path, capsys):
    # the degree-3 envelope of IDZ3 at L=3 has 48 nondegenerate words among
    # 127 normal-form words; the cap counts only the former
    argv = [
        "homology", desk_path, "--object", "IDZ3", "--pipeline", "envelope",
        "--max-degree", "2", "--max-length", "3",
    ]
    assert run(argv + ["--cap", "48"], capsys)[0] == 0
    code = main(argv + ["--cap", "47"])
    assert code == EXIT_RESOURCE
    assert "envelope[group] degree 3 exceeds 47 nondegenerate simplices" in capsys.readouterr().err


@pytest.mark.parametrize("obj, pipeline, builder, degree, size", [
    ("IDZ3", "envelope", "envelope[group]", 3, 48),
    ("IDS3", "coskeleton", "coskeleton", 3, 125),
])
def test_matrix_cap_names_builder_and_degree(desk_path, capsys, monkeypatch,
                                             obj, pipeline, builder, degree, size):
    # without --cap the enumeration stops at the matrix cap, before the basis is built;
    # word builders also name the length
    length = " at length 3" if pipeline == "envelope" else ""
    monkeypatch.setattr(importlib.import_module("precrossed.homology"), "MATRIX_CAP", size - 1)
    code = main(["homology", desk_path, "--object", obj, "--pipeline", pipeline,
                 "--max-degree", "2", "--max-length", "3"])
    out, err = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == (f"error: resource bound exceeded: {builder} degree {degree} exceeds "
                   f"{size - 1} nondegenerate simplices{length}\n")


def test_rack_complex_resource_bound_exits_three(desk_path, capsys):
    code = main(
        [
            "homology", desk_path, "--object", "TRANS", "--pipeline", "rackcomplex",
            "--max-degree", "2", "--max-length", "1", "--cap", "5",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert captured.err.startswith("error: resource bound exceeded: rackcomplex degree 2")


def test_check_tri_cap_reaches_the_nerve(desk_path, capsys):
    # S3 has 5^6 = 15625 nondegenerate degree-6 nerve tuples: --cap bounds the
    # nerve as it bounds the envelopes, so 15625 suffices and 15624 exits 3
    argv = ["check-tri", desk_path, "--object", "S3", "--coeff", "F2", "--max-degree", "5",
            "--lengths", "1"]
    code, out = run(argv + ["--cap", "15625"], capsys)
    assert code == EXIT_DISAGREE
    assert ("generators: degree 1 x1, degree 2 x1, degree 3 x1, degree 4 x1, degree 5 x1\n"
            in out)
    assert "\n5 16 0\n" in out
    code = main(argv + ["--cap", "15624"])
    out, err = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == ("error: resource bound exceeded: nerve degree 6 exceeds 15624 "
                   "nondegenerate simplices\n")


def test_check_tri_cap_names_the_longest_length(desk_path, capsys):
    # check-tri enumerates at the longest length alone, so that is the length named
    code = main(["check-tri", desk_path, "--object", "Z3", "--coeff", "F3", "--max-degree", "4",
                 "--lengths", "1..7"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == ("error: resource bound exceeded: envelope[group] degree 3 exceeds 5000 "
                   "nondegenerate simplices at length 7\n")


@pytest.mark.parametrize("name, max_degree", [("TRIV", 4), ("Z2", 4), ("Z3", 4), ("S3", 1)])
def test_check_tri_table_is_the_homology_at_each_length(registry, name, max_degree):
    # the table is read off the leading blocks of one complex: each cell must
    # equal the Betti number of the complex built at its own length
    group, base = registry.groups[name], trivial_group()
    module = validate_precrossed(group, base, trivial_action(base, group.order),
                                 [base.identity] * group.order)
    spec = build_envelope(module)
    complexes = {length: chain_complex(spec, max_degree, length, cap=20_000)
                 for length in range(6)}
    for coeff in ("Q", "F2", "F3"):
        for lengths in ([1, 2, 3, 4, 5], [5, 3, 3, 0]):
            report = cmd_check_tri(registry, name, max_degree, coeff, lengths, cap=20_000)
            rows = [line.split() for line in report.lines[2:]][:max_degree + 1]
            assert [row[2:] for row in rows] == [
                [str(homology(complexes[length], m, coeff).betti) for length in lengths]
                for m in range(max_degree + 1)], (name, coeff, lengths)


def test_compare_ra_agree(desk_path, capsys):
    code, out = run(
        ["compare-ra", desk_path, "--object", "ONE", "--max-degree", "2", "--max-length", "3"],
        capsys,
    )
    assert code == 0
    assert "verdict: AGREE" in out


def test_compare_ra_disagrees_when_truncated_to_nothing(desk_path, capsys):
    code, out = run(
        ["compare-ra", desk_path, "--object", "ONE", "--max-degree", "2", "--max-length", "0"],
        capsys,
    )
    assert code == EXIT_DISAGREE
    assert "verdict: DISAGREE" in out


def test_check_tri_field_guard(desk_path, capsys):
    code, out = run(
        [
            "check-tri", desk_path, "--object", "Z2", "--max-degree", "2",
            "--coeff", "F2", "--lengths", "1,2,3",
        ],
        capsys,
    )
    assert code == 0
    assert "verdict: AGREE" in out


def test_check_coskeleton_replaces_non_surjective_base(capsys, tmp_path):
    text = (
        "group Z2\n  table: 0,1 / 1,0\n"
        "group Z4\n  table: 0,1,2,3 / 1,2,3,0 / 2,3,0,1 / 3,0,1,2\n"
        "precrossed P\n  x: Z2\n  g: Z4\n  pi: 0,2\n  action: trivial\n"
    )
    path = tmp_path / "reg.txt"
    path.write_text(text)
    code, out = run(["check-coskeleton", str(path), "--object", "P", "--max-degree", "1"], capsys)
    assert code == 0
    assert "pi-surjective: no" in out
    assert "verdict: AGREE" in out


def test_sweep_stabilization_and_warning(desk_path, capsys):
    code, out = run(
        [
            "sweep", desk_path, "--object", "Z2TRIV", "--pipeline", "envelope",
            "--degree", "1", "--lengths", "0..3",
        ],
        capsys,
    )
    assert code == 0
    assert "L=0: H_1 = 0 (warning: empty basis)" in out
    assert "L=2: H_1 = Z/2" in out
    assert "stabilized-at: L=2" in out


def test_sweep_does_not_stabilize_over_empty_bases(desk_path, capsys):
    code, out = run(
        [
            "sweep", desk_path, "--object", "IDZ3", "--pipeline", "envelope",
            "--degree", "3", "--lengths", "1..4",
        ],
        capsys,
    )
    assert code == 0
    assert "L=3: H_3 = Z^26\nL=4: H_3 = Z/3 + Z/3 + Z/3\n" in out
    assert "stabilized-at: none" in out


HOMOLOGY = ["homology", "--object", "Z2TRIV", "--pipeline", "envelope"]
SWEEP = ["sweep", "--object", "Z2TRIV", "--pipeline", "envelope"]
BAD_NUMERIC = {
    "max-degree": (HOMOLOGY + ["--max-degree", "-1", "--max-length", "2"], "--max-degree"),
    "max-length": (HOMOLOGY + ["--max-degree", "1", "--max-length", "-3"], "--max-length"),
    "sweep-degree": (SWEEP + ["--degree", "-1", "--lengths", "1..2"], "--degree"),
    "cap-zero": (HOMOLOGY + ["--max-degree", "1", "--max-length", "2", "--cap", "0"], "--cap"),
    "cap-negative": (
        HOMOLOGY + ["--max-degree", "1", "--max-length", "2", "--cap", "-5"], "--cap"
    ),
    "length-range": (SWEEP + ["--degree", "1", "--lengths=-2..1"], "length range"),
    "length-list-separate": (
        ["check-tri", "--object", "Z2", "--max-degree", "2", "--coeff", "F2", "--lengths", "-1,2"],
        "--lengths",
    ),
    "missing-object": (
        ["homology", "--pipeline", "nerve", "--max-degree", "1", "--max-length", "1"],
        "--object",
    ),
}


@pytest.mark.parametrize("argv, flag", list(BAD_NUMERIC.values()), ids=list(BAD_NUMERIC))
def test_bad_numeric_parameters_exit_one(desk_path, capsys, argv, flag):
    code = main(argv[:1] + [desk_path] + argv[1:])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.err.count("\n") == 1


Z2_Z3 = "group Z2\n  table: 0,1 / 1,0\ngroup Z3\n  table: 0,1,2 / 1,2,0 / 2,0,1\n"
# one line per refusal: (argv with the registry path left out, registry text or None
# for the desk, the whole stderr)
REFUSED = {
    "group-to-rack-pipeline": (
        ["homology", "--object", "S3", "--pipeline", "clauwens",
         "--max-degree", "1", "--max-length", "1"],
        None, "error: a group cannot feed a rack pipeline\n",
    ),
    "coskeleton-of-augrack": (
        ["check-coskeleton", "--object", "TRANS", "--max-degree", "1"],
        None, "error: check-coskeleton needs a pre-crossed module, got augrack\n",
    ),
    "check-tri-of-augrack": (
        ["check-tri", "--object", "TRANS", "--max-degree", "1", "--coeff", "F2",
         "--lengths", "1"],
        None, "error: check-tri needs a group, got augrack\n",
    ),
    "length-list": (
        ["check-tri", "--object", "Z2", "--max-degree", "1", "--coeff", "F2",
         "--lengths", "1,x"],
        None, "error: bad length list '1,x'\n",
    ),
    "length-range": (
        ["check-tri", "--object", "Z2", "--max-degree", "1", "--coeff", "F2",
         "--lengths", "3..x"],
        None, "error: bad length range '3..x'\n",
    ),
    "duplicate-key": (
        ["validate"], "group Z2\n  table: 0,1 / 1,0\n  table: 0,1 / 1,0\n",
        "error: line 3: duplicate key 'table'\n",
    ),
    "unexpected-key": (
        ["validate"], "group Z2\n  table: 0,1 / 1,0\n  size: 2\n",
        "error: line 1: unexpected key 'size' in 'Z2'\n",
    ),
    "pi-id-across-orders": (
        ["validate"],
        Z2_Z3 + "precrossed P\n  x: Z2\n  g: Z3\n  pi: id\n  action: trivial\n",
        "error: line 5: pi 'id' needs matching groups\n",
    ),
    "conjugation-across-groups": (
        ["validate"],
        Z2_Z3 + "precrossed P\n  x: Z2\n  g: Z3\n  pi: trivial\n  action: conjugation\n",
        "error: line 5: 'conjugation' action needs x and g to be the same group\n",
    ),
}


@pytest.mark.parametrize("argv, text, err", list(REFUSED.values()), ids=list(REFUSED))
def test_refusals_exit_one_with_one_line(desk_path, capsys, tmp_path, argv, text, err):
    path = desk_path
    if text is not None:
        path = tmp_path / "reg.txt"
        path.write_text(text)
    code = main(argv[:1] + [str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_INPUT, "", err)


COSKELETON_IDS3_2 = """\
command: check-coskeleton
object: IDS3
max-degree: 2
max-length: 3
pi-surjective: yes
cap: 200000
degree coskeleton nerve
0 Z Z
1 Z/2 Z/2
2 0 0
induced H_0 matrix: [[1]]
induced H_1 matrix: [[1]]
induced H_2 matrix: []
induced H_0 isomorphism: yes
verdict: AGREE
"""


def test_check_coskeleton_s3_report_is_pinned(desk_path, capsys):
    code, out = run(
        ["check-coskeleton", desk_path, "--object", "IDS3", "--max-degree", "2"], capsys
    )
    assert code == 0
    assert out == COSKELETON_IDS3_2


def test_canonical_map_evaluates_each_simplex_once(desk_path, capsys, monkeypatch):
    import precrossed.cli as cli
    from precrossed.simplicial import SimplicialMap

    evaluated = []

    def counted(module):
        cmap = canonical_to_coskeleton(module)

        def rule(k, s):
            evaluated.append((k, s))
            return cmap.rule(k, s)

        return SimplicialMap(cmap.source, cmap.target, rule)

    canonical_to_coskeleton = cli.canonical_to_coskeleton
    monkeypatch.setattr(cli, "canonical_to_coskeleton", counted)
    code, out = run(
        ["check-coskeleton", desk_path, "--object", "IDS3", "--max-degree", "2"], capsys
    )
    assert (code, out) == (0, COSKELETON_IDS3_2)
    # one map serves the three induced maps; uncached, the rule ran 6200 times
    assert len(evaluated) == len(set(evaluated)) == 1067


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-tri", "--help"])
    assert exc.value.code == 0
    assert "--lengths" in capsys.readouterr().out


def test_top_level_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    for name in ("validate", "homology", "compare-ra", "check-tri", "check-coskeleton", "sweep"):
        assert name in out


# The usage errors of the command line, each with its whole stderr; FILE stands
# for the desk registry.
Z2TRIV = ["homology", "FILE", "--object", "Z2TRIV", "--pipeline", "envelope", "--max-length", "2"]
USAGE_ERRORS = {
    "no-command": ([], "the following arguments are required: cmd"),
    "unknown-command": (
        ["bogus"],
        "argument cmd: invalid choice: 'bogus' (choose from 'validate', 'homology', "
        "'compare-ra', 'check-tri', 'check-coskeleton', 'sweep')",
    ),
    "no-file": (["validate"], "the following arguments are required: file"),
    "two-files": (["validate", "FILE", "FILE"], "unrecognized arguments: FILE"),
    "unknown-option": (["validate", "FILE", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    "trailing-option": (Z2TRIV + ["--max-degree"], "argument --max-degree: expected one argument"),
    "bad-choice": (
        ["homology", "FILE", "--object", "Z2TRIV", "--pipeline", "nerv", "--max-degree", "1",
         "--max-length", "2"],
        "argument --pipeline: invalid choice: 'nerv' (choose from 'envelope', 'clauwens', "
        "'rackcomplex', 'coskeleton', 'nerve')",
    ),
    "bad-int": (Z2TRIV + ["--max-degree", "x"], "argument --max-degree: invalid int value: 'x'"),
    "flag-with-value": (
        Z2TRIV + ["--max-degree", "1", "--machine=1"],
        "argument --machine: ignored explicit argument '1'",
    ),
    "missing-option": (
        ["homology", "FILE", "--pipeline", "envelope", "--max-degree", "1", "--max-length", "2"],
        "the following arguments are required: --object",
    ),
    "ambiguous-prefix": (
        Z2TRIV + ["--m", "2"],
        "ambiguous option: --m could match --max-degree, --max-length, --machine",
    ),
}


@pytest.mark.parametrize("argv, message", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_exit_one_with_one_line(desk_path, capsys, argv, message):
    code = main([desk_path if token == "FILE" else token for token in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT, "")
    assert captured.err == f"error: {message.replace('FILE', desk_path)}\n"


# Spellings of PINNED["homology"] below: `=`, unique prefixes, the last of a
# repeated option, and options before FILE.
ACCEPTED = {
    "equals": ["homology", "FILE", "--object=Z2TRIV", "--pipeline=envelope", "--max-degree=1",
               "--max-length=2", "--coeff=Z"],
    "prefixes": ["homology", "FILE", "--obj", "Z2TRIV", "--pipe", "envelope", "--max-deg", "1",
                 "--max-len", "2", "--co", "Z"],
    "last-wins": Z2TRIV + ["--max-degree", "3", "--coeff", "F2", "--max-degree", "1",
                           "--coeff", "Z"],
    "file-last": ["homology", "--object", "Z2TRIV", "--pipeline", "envelope", "--max-degree", "1",
                  "--max-length", "2", "FILE"],
}


@pytest.mark.parametrize("argv", list(ACCEPTED.values()), ids=list(ACCEPTED))
def test_accepted_spellings_give_the_pinned_report(desk_path, capsys, argv):
    code, out = run([desk_path if token == "FILE" else token for token in argv], capsys)
    assert (code, out) == (0, PINNED["homology"][1])


# Valid command lines at L <= 2, and tokens to put into them: no mutation can
# ask for a larger problem.
VALID_ARGVS = [
    ["check-tri", "FILE", "--object", "Z2", "--max-degree", "2", "--coeff", "F2",
     "--lengths", "1,2"],
    Z2TRIV + ["--max-degree", "1"],
]
GARBAGE = ["x", "", "-", "-x", "--x", "--", "=", "--m", "--max", "1,,2", "F7", "0", "-1", "-2"]


@st.composite
def mutated_argv(draw):
    """A valid command line after one to three token edits."""
    argv = list(draw(st.sampled_from(VALID_ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(argv) - 1, 0)))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "garbage", "split", "join"]))
        if edit == "garbage" or not argv:
            argv.insert(at, draw(st.sampled_from(GARBAGE)))
        elif edit == "drop":
            del argv[at]
        elif edit == "repeat":
            argv.insert(at, argv[at])
        elif edit == "swap":
            other = draw(st.integers(0, len(argv) - 1))
            argv[at], argv[other] = argv[other], argv[at]
        elif edit == "split" and "=" in argv[at]:
            argv[at:at + 1] = argv[at].split("=", 1)
        elif edit == "join" and at + 1 < len(argv):
            argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
    return argv


def last_values(argv):
    """The last value each ``--name`` token is given, as ``--name V`` or ``--name=V``."""
    values = {}
    for i, token in enumerate(argv):
        name, equals, value = token.partition("=")
        if name.startswith("--"):
            values[name] = value if equals else (argv[i + 1] if i + 1 < len(argv) else None)
    return values


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=mutated_argv())
def test_mutated_command_lines_exit_cleanly(desk_path, argv):
    argv = [desk_path if token == "FILE" else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert len([line for line in err.splitlines() if not line.startswith("elapsed: ")]) <= 1
    if code in (0, 2):
        header = dict(line.split(": ", 1) for line in out.splitlines()
                      if line.split(": ", 1)[0] in ("command", "object", "pipeline", "coeff",
                                                    "max-degree", "max-length", "lengths"))
        given_values = last_values(argv)
        assert header.pop("command") == argv[0]
        for key, value in header.items():
            if key != "coeff" or "--coeff" in given_values:  # homology's coeff has a default
                assert given_values["--" + key] == value
    else:
        assert out == "" and err.startswith("error: ")


def test_check_tri_accepts_a_length_range(desk_path, capsys):
    argv = ["check-tri", desk_path, "--object", "Z2", "--max-degree", "2", "--coeff", "F2"]
    listed = run(argv + ["--lengths", "1,2,3"], capsys)
    ranged = run(argv + ["--lengths", "1..3"], capsys)
    assert listed == ranged
    assert listed[0] == 0 and "lengths: 1,2,3\n" in listed[1]


# Full reports of the README examples and of one cheap invocation per command
# (compare-ra TRANS is pinned in the acceptance suite, check-coskeleton above).
PINNED = {
    "validate": (
        ["validate"],
        """\
command: validate
group TRIV: order 1
group Z2: order 2
group Z3: order 3
group S3: order 6
rack R3: size 3
augrack ONE: carrier 1 over group of order 2
augrack TRANS: carrier 3 over group of order 6
augrack TR1: carrier 1 over group of order 1
augrack TR2: carrier 2 over group of order 1
precrossed Z2TRIV: |X| = 2, |G| = 1
precrossed IDZ2: |X| = 2, |G| = 2
precrossed IDZ3: |X| = 3, |G| = 3
precrossed IDS3: |X| = 6, |G| = 6
""",
    ),
    "homology": (
        HOMOLOGY + ["--max-degree", "1", "--max-length", "2", "--coeff", "Z"],
        """\
command: homology
object: Z2TRIV
pipeline: envelope
coeff: Z
max-degree: 1
max-length: 2
cap: 200000
H_0 = Z
H_1 = Z/2
""",
    ),
    "compare-ra": (
        ["compare-ra", "--object", "ONE", "--max-degree", "2", "--max-length", "3"],
        """\
command: compare-ra
object: ONE
max-degree: 2
max-length: 3
cap: 200000
degree envelope clauwens rackcomplex
0 Z Z Z
1 Z Z Z
2 Z Z Z
verdict: AGREE
""",
    ),
    "check-tri": (
        ["check-tri", "--object", "Z2", "--max-degree", "3", "--coeff", "F2",
         "--lengths", "1,2,3,4"],
        """\
command: check-tri
object: Z2
coeff: F2
max-degree: 3
lengths: 1,2,3,4
cap: 200000
generators: degree 1 x1, degree 2 x1, degree 3 x1
m expected L=1 L=2 L=3 L=4
0 1 1 1 1 1
1 1 1 1 1 1
2 2 0 2 2 2
3 4 0 0 4 4
compared: m=0@L=1, m=1@L=2, m=2@L=3, m=3@L=4
verdict: AGREE
""",
    ),
    "check-tri Z3": (
        ["check-tri", "--object", "Z3", "--coeff", "F3", "--max-degree", "4",
         "--lengths", "1,2,3,4,5"],
        """\
command: check-tri
object: Z3
coeff: F3
max-degree: 4
lengths: 1,2,3,4,5
cap: 200000
generators: degree 1 x1, degree 2 x1, degree 3 x1, degree 4 x1
m expected L=1 L=2 L=3 L=4 L=5
0 1 1 1 1 1 1
1 1 2 1 1 1 1
2 2 0 7 2 2 2
3 4 0 0 27 4 4
4 8 0 0 0 105 8
compared: m=0@L=1, m=1@L=2, m=2@L=3, m=3@L=4, m=4@L=5
verdict: AGREE
""",
    ),
    # three Z/2 generators on the envelope side, so the matrix pins their choice
    "check-coskeleton IDZ2": (
        ["check-coskeleton", "--object", "IDZ2", "--max-degree", "3"],
        """\
command: check-coskeleton
object: IDZ2
max-degree: 3
max-length: 4
pi-surjective: yes
cap: 200000
degree coskeleton nerve
0 Z Z
1 Z/2 Z/2
2 0 0
3 Z/2 Z/2
induced H_0 matrix: [[1]]
induced H_1 matrix: [[1]]
induced H_2 matrix: []
induced H_3 matrix: [[1, 1, 0]]
induced H_0 isomorphism: yes
verdict: AGREE
""",
    ),
    # [[2]] and [[1, 0, 0]] depend on the word basis order of the envelope
    "check-coskeleton IDZ3": (
        ["check-coskeleton", "--object", "IDZ3", "--max-degree", "3"],
        """\
command: check-coskeleton
object: IDZ3
max-degree: 3
max-length: 4
pi-surjective: yes
cap: 200000
degree coskeleton nerve
0 Z Z
1 Z/3 Z/3
2 0 0
3 Z/3 Z/3
induced H_0 matrix: [[1]]
induced H_1 matrix: [[2]]
induced H_2 matrix: []
induced H_3 matrix: [[1, 0, 0]]
induced H_0 isomorphism: yes
verdict: AGREE
""",
    ),
    # the generator route at its largest in tier-1: degree 4 replays the Smith
    # logs of d_4 and of d_5's kernel coordinates
    "check-coskeleton IDZ3 degree 4": (
        ["check-coskeleton", "--object", "IDZ3", "--max-degree", "4", "--cap", "200000"],
        """\
command: check-coskeleton
object: IDZ3
max-degree: 4
max-length: 5
pi-surjective: yes
cap: 200000
degree coskeleton nerve
0 Z Z
1 Z/3 Z/3
2 0 0
3 Z/3 Z/3
4 0 0
induced H_0 matrix: [[1]]
induced H_1 matrix: [[2]]
induced H_2 matrix: []
induced H_3 matrix: [[1, 0, 0]]
induced H_4 matrix: []
induced H_0 isomorphism: yes
verdict: AGREE
""",
    ),
    # the envelope's three H_3 generators go to 3, 3 and 1 in the coskeleton's Z/6
    "check-coskeleton IDS3 degree 3": (
        ["check-coskeleton", "--object", "IDS3", "--max-degree", "3", "--cap", "20000"],
        """\
command: check-coskeleton
object: IDS3
max-degree: 3
max-length: 4
pi-surjective: yes
cap: 20000
degree coskeleton nerve
0 Z Z
1 Z/2 Z/2
2 0 0
3 Z/6 Z/6
induced H_0 matrix: [[1]]
induced H_1 matrix: [[1]]
induced H_2 matrix: []
induced H_3 matrix: [[3, 3, 1]]
induced H_0 isomorphism: yes
verdict: AGREE
""",
    ),
    "sweep": (
        SWEEP + ["--degree", "1", "--lengths", "1..3"],
        """\
command: sweep
object: Z2TRIV
pipeline: envelope
degree: 1
lengths: 1,2,3
cap: 200000
L=1: H_1 = Z
L=2: H_1 = Z/2
L=3: H_1 = Z/2
stabilized-at: L=2
""",
    ),
    # a pre-crossed module on the rack pipelines: the free envelope of its underlying rack
    "compare-ra-module": (
        ["compare-ra", "--object", "IDZ2", "--max-degree", "2", "--max-length", "3"],
        """\
command: compare-ra
object: IDZ2
max-degree: 2
max-length: 3
cap: 200000
degree envelope clauwens rackcomplex
0 Z Z Z
1 Z^2 Z^2 Z^2
2 Z^4 Z^4 Z^4
verdict: AGREE
""",
    ),
}


@pytest.mark.parametrize("argv, expected", list(PINNED.values()), ids=list(PINNED))
def test_report_is_pinned(desk_path, capsys, argv, expected):
    code, out = run(argv[:1] + [desk_path] + argv[1:], capsys)
    assert code == 0
    assert out == expected


def test_reports_are_deterministic(desk_path, capsys):
    argv = [
        "compare-ra", desk_path, "--object", "ONE", "--max-degree", "2", "--max-length", "3",
    ]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
