"""Start-up cost: what `import precrossed.cli` loads, and the value types that keep it small."""

import ast
import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys
import types

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
from precrossed.words import Letter, WordMode

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src"

# Standard-library modules no command needs: dataclasses and typing with what they
# pull in, and the number tower: the Q route ranks on integers.
FORBIDDEN = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}
# what argparse and enum pull in, and what namedtuple and functools.cache did: the
# command table parses every command line without them, and the value types and
# memo tables need neither, so neither the import nor a command run loads any of these.
# array loads collections: boundaries and word bases are packed with struct instead
NOT_LOADED = {"argparse", "re", "gettext", "locale", "shutil", "enum",
              "collections", "collections.abc", "functools", "keyword", "reprlib", "array"}
# loaded on the first pack of a boundary or a basis, not by the import
PACKING = {"struct", "_struct"}

# contextlib and json load collections, functools and re, so the probe swaps the
# standard streams by hand and imports json only once the command has run
PROBE = """
import sys
before = set(sys.modules)
import precrossed.cli
imported = set(sys.modules) - before
import io
mid = set(sys.modules)
out, streams = io.StringIO(), (sys.stdout, sys.stderr)
sys.stdout, sys.stderr = out, io.StringIO()
try:
    code = precrossed.cli.main(sys.argv[1:])
finally:
    sys.stdout, sys.stderr = streams
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

# one small run of each command, on the desk registry
COMMAND_RUNS = {
    "homology": ["--object", "TRANS", "--pipeline", "envelope", "--max-degree", "2",
                 "--max-length", "3", "--coeff", "Q"],
    "compare-ra": ["--object", "TRANS", "--max-degree", "1", "--max-length", "2"],
    "check-tri": ["--object", "Z3", "--coeff", "F3", "--max-degree", "2", "--lengths", "1..3"],
    "check-coskeleton": ["--object", "IDS3", "--max-degree", "2"],
    "sweep": ["--object", "Z2TRIV", "--pipeline", "envelope", "--degree", "1",
              "--lengths", "1..3"],
    "validate": [],
}


def test_cli_import_loads_no_unneeded_module(desk_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command, options in COMMAND_RUNS.items():
        proc = subprocess.run([sys.executable, "-S", "-c", PROBE, command, desk_path, *options],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        got = json.loads(proc.stdout)
        assert FORBIDDEN.isdisjoint(got["imported"])
        assert NOT_LOADED.isdisjoint(got["imported"])
        assert PACKING.isdisjoint(got["imported"])
        assert NOT_LOADED.isdisjoint(got["ran"]), command
        assert "fractions" not in got["ran"]
        assert got["code"] == 0, command
        if command == "homology":
            assert got["report"] == Q_REPORT


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
    "SparseIntMatrix": (lambda: SparseIntMatrix.from_columns(1, 2, [((0, 2),), ((0, 2),)]),
                        ("rows", "cols", "starts", "index", "values")),
    "SNFResult": (lambda: smith_normal_form(
                      SparseIntMatrix.from_columns(2, 2, [((0, 2),), ((1, 3),)]), log="rows"),
                  ("diag", "row_order", "col_order", "row_ops", "col_ops", "unit_cols")),
    "HomologyGroup": (lambda: homology(_complex(), 1), ("degree", "coeff", "betti", "torsion")),
    "HomologyBasis": (lambda: homology_generators(_complex(), 1),
                      ("degree", "orders", "chains", "snf", "asnf", "rows")),
    "InducedMap": (lambda: InducedMap(1, [[2]], [3], [3]),
                   ("degree", "matrix", "source_orders", "target_orders")),
    "CoskeletonFamily": (lambda: build_coskeleton(_module()).nondegenerate(2)[-1],
                         ("vertices", "edges")),
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
    assert isinstance(a, tuple)
    made = type(a)._make(list(a))
    assert type(made) is type(a) and made == a
    # copy and pickle rebuild the value from its fields
    for twin in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a
    with pytest.raises(TypeError):
        type(a)(*a, None)
    with pytest.raises(TypeError):
        type(a)(*a[:-1])


# the package's names: an export added or removed shows here
PUBLIC = [
    "AugmentedRack", "ChainComplex", "FiniteGroup", "HomologyGroup", "Letter",
    "PreCrossedModule", "PrecrossedAction", "Rack", "SimplicialMap", "SparseIntMatrix",
    "WordMode", "build_clauwens", "build_coskeleton", "build_envelope",
    "build_nerve", "canonical_to_coskeleton", "chain_complex", "classify_cycle",
    "conjugation_action", "conjugation_module", "conjugation_structure", "cyclic_group",
    "gaussian_rank", "group_from_permutations", "group_homology", "homology",
    "homology_generators", "induced_map", "is_degenerate", "precrossed_action",
    "rack_complex", "reduce", "restrict_to_image", "smith_normal_form",
    "symmetric_group", "tensor_algebra_dims", "trivial_action", "trivial_group",
    "validate_augmented_rack", "validate_group", "validate_precrossed", "validate_rack",
]


def test_public_names_are_pinned_and_the_readme_lists_their_value_types():
    import precrossed

    assert sorted(precrossed.__all__) == PUBLIC
    # the submodules bound by the package's own imports are not exported
    assert not any(isinstance(getattr(precrossed, name), types.ModuleType)
                   for name in precrossed.__all__)
    namespace = {}
    exec("from precrossed import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(library.split("The value types (", 1)[1].split(")", 1)[0].split("`")[1::2])
    exported = {name for name in PUBLIC if hasattr(getattr(precrossed, name), "_fields")}
    # every exported value type is documented, and a documented one is a value
    # type of the package: one removed from it cannot stay in the list
    assert "Letter" in exported and exported <= documented
    assert documented == set(VALUE_TYPES)


# each module of the package: the sibling modules it imports
IMPORTS = {
    "__init__": {"algebra", "homology", "oracles", "simplicial", "words"},
    "_values": set(),
    "algebra": {"_values", "errors"},
    "cli": {"algebra", "errors", "homology", "oracles", "simplicial"},
    "errors": set(),
    "homology": {"_values", "errors"},
    "oracles": {"algebra", "errors", "homology", "simplicial"},
    "simplicial": {"_values", "algebra", "errors", "words"},
    "words": {"_values", "errors"},
}


def sibling_imports(path):
    """The package modules that the source at ``path`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("precrossed."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("precrossed."))
    return found


def test_the_module_import_graph_is_pinned():
    graph = {path.stem: sibling_imports(path) for path in (SRC / "precrossed").glob("*.py")}
    assert graph == IMPORTS
    # the word layer stands on the value types and errors alone; the linear
    # algebra imports no builder; the reference computations build no words
    assert graph["words"] == {"_values", "errors"}
    assert not graph["homology"] & {"words", "simplicial", "oracles"}
    assert "words" not in graph["oracles"]


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
