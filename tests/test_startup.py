"""Start-up cost: what `import precrossed.cli` loads, and the value types that keep it small."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from precrossed.algebra import (
    conjugation_module,
    conjugation_structure,
    cyclic_group,
    precrossed_action,
    symmetric_group,
)
from precrossed.homology import (
    InducedMap,
    SparseIntMatrix,
    chain_complex,
    homology,
    homology_generators,
    smith_normal_form,
)
from precrossed.simplicial import build_coskeleton, build_envelope
from precrossed.words import Letter, WordMode, context_from_precrossed, reduce

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src"

# Standard-library modules no command needs: dataclasses and typing with what they
# pull in, and the number tower: the Q route ranks on integers.
FORBIDDEN = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}
# what argparse and enum pull in: the command table parses every command line
# without them, so neither the import nor a command run loads any of these
NOT_LOADED = {"argparse", "re", "gettext", "locale", "shutil", "enum"}

# json loads re, so the probe imports it only once the command has run
PROBE = """
import sys
before = set(sys.modules)
import precrossed.cli
imported = set(sys.modules) - before
import contextlib, io
mid = set(sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = precrossed.cli.main(sys.argv[1:])
ran = set(sys.modules) - mid
import json
print(json.dumps({"imported": sorted(imported), "ran": sorted(ran),
                  "code": code, "report": out.getvalue()}))
"""

Q_REPORT = """\
command: homology
object: TRANS
pipeline: envelope
coeff: Q
max-degree: 2
max-length: 3
cap: 200000
H_0 = Q
H_1 = Q
H_2 = Q
"""


def test_cli_import_loads_no_unneeded_module(desk_path):
    argv = ["homology", desk_path, "--object", "TRANS", "--pipeline", "envelope",
            "--max-degree", "2", "--max-length", "3", "--coeff", "Q"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert FORBIDDEN.isdisjoint(got["imported"])
    assert NOT_LOADED.isdisjoint(got["imported"])
    assert NOT_LOADED.isdisjoint(got["ran"])
    assert (got["code"], got["report"]) == (0, Q_REPORT)
    assert "fractions" not in got["ran"]


def _module():
    return conjugation_module(cyclic_group(3))


def _complex():
    return chain_complex(build_envelope(_module()), 2, 3)


# each converted value type: how to build one, and its field names in order
VALUE_TYPES = {
    "FiniteGroup": (lambda: cyclic_group(3), ("elements", "table", "identity", "inverse")),
    "Rack": (lambda: conjugation_structure(symmetric_group(3), [1, 2, 5]).induced,
             ("size", "op")),
    "AugmentedRack": (lambda: conjugation_structure(symmetric_group(3), [1, 2, 5]),
                      ("carrier", "group", "action", "pi", "induced")),
    "PreCrossedModule": (_module, ("x_group", "group", "action", "pi")),
    "PrecrossedAction": (lambda: precrossed_action(_module()), ("phi", "image", "module")),
    "SparseIntMatrix": (lambda: SparseIntMatrix(1, 2, [((0, 2),), ((0, 2),)]),
                        ("rows", "cols", "columns")),
    "SNFResult": (lambda: smith_normal_form(SparseIntMatrix(2, 2, [((0, 2),), ((1, 3),)]),
                                            log="rows"),
                  ("diag", "row_order", "col_order", "row_ops", "col_ops", "unit_cols")),
    "HomologyGroup": (lambda: homology(_complex(), 1), ("degree", "coeff", "betti", "torsion")),
    "HomologyBasis": (lambda: homology_generators(_complex(), 1),
                      ("degree", "orders", "chains", "snf", "asnf", "rows")),
    "InducedMap": (lambda: InducedMap(1, [[2]], [3], [3]),
                   ("degree", "matrix", "source_orders", "target_orders")),
    "CoskeletonFamily": (lambda: build_coskeleton(_module()).nondegenerate(2)[-1],
                         ("vertices", "edges")),
    "EnvelopeWord": (lambda: reduce(context_from_precrossed(_module()), 2,
                                    [Letter(1, 1, 0), Letter(2, 1, 1)], 1),
                     ("mode", "degree", "letters", "tail")),
    "Letter": (lambda: Letter(1, 1, 0), ("base", "sign", "position")),
    "WordMode": (lambda: WordMode(*WordMode.FREE_LETTER), ("name", "value")),
}


@pytest.mark.parametrize("make, fields", list(VALUE_TYPES.values()), ids=list(VALUE_TYPES))
def test_value_type_contract(make, fields):
    a, b = make(), make()
    assert a is not b and a == b
    assert type(a)._fields == fields
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{type(a).__name__}({shown})"
    try:
        hash(tuple(a))
    except TypeError:
        pass  # a list or dict field: unhashable, as the frozen value always was
    else:
        assert hash(a) == hash(b)
    # no per-instance dict: there are thousands of families and letters
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(a, fields[0]))
    with pytest.raises(AttributeError):
        a.note = 1


def test_readme_library_example_repr():
    assert repr(homology(_complex(), 1)) == (
        "HomologyGroup(degree=1, coeff='Z', betti=0, torsion=(3,))")


def test_the_benchmark_tracer_installs():
    # perfbench/tracer.py binds package names at install; a rename fails here
    # before the traced benchmark run would
    code = "import precrossed.cli; from tracer import Tracer; Tracer().install()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
