"""Command-line interface: registry parsing, pipelines, and theorem checks.

Input files are line-oriented: a block header ``group NAME`` / ``rack NAME`` /
``augrack NAME`` / ``precrossed NAME`` followed by indented ``key: value``
lines, with ``#`` starting a comment and tables written as comma-separated
index rows joined by ``/``.  Reports are deterministic byte-for-byte; timing
goes to stderr only.

Command lines are read from one table, ``COMMANDS``, with argparse's rules and
wording but without argparse: ``--opt value`` or ``--opt=value`` with FILE
anywhere, unique prefixes, the last repeat winning, and ``-h`` at both levels.
"""

from __future__ import annotations

import sys
import time

from .algebra import (
    AugmentedRack,
    FiniteGroup,
    PreCrossedModule,
    Rack,
    conjugation_action,
    conjugation_structure,
    group_from_permutations,
    restrict_to_image,
    trivial_action,
    trivial_group,
    validate_augmented_rack,
    validate_group,
    validate_precrossed,
    validate_rack,
)
from .errors import Incompatible, ParseError, PrecrossedError, ResourceBound
from .homology import HomologyGroup, chain_complex, homology, induced_map
from .oracles import group_homology, rack_complex, tensor_algebra_dims
from .simplicial import (
    SIMPLEX_CAP,
    build_clauwens,
    build_coskeleton,
    build_envelope,
    build_nerve,
    canonical_to_coskeleton,
)

PIPELINES = ("envelope", "clauwens", "rackcomplex", "coskeleton", "nerve")
COEFFS = ("Z", "Q", "F2", "F3", "F5")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2
EXIT_RESOURCE = 3


class Registry:
    """The named objects of one input file, one name-to-object table per kind."""

    def __init__(self):
        self.groups: dict[str, FiniteGroup] = {}
        self.racks: dict[str, Rack] = {}
        self.augracks: dict[str, AugmentedRack] = {}
        self.precrossed: dict[str, PreCrossedModule] = {}

    def tables(self) -> dict[str, dict]:
        """Object kind -> the name-to-object table of that kind."""
        return {"group": self.groups, "rack": self.racks, "augrack": self.augracks,
                "precrossed": self.precrossed}

    def lookup(self, name: str) -> tuple[str, object]:
        for kind, table in self.tables().items():
            if name in table:
                return kind, table[name]
        raise ParseError(f"unknown object {name!r}")


def _ints(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"{what}: expected comma-separated integers, got {text!r}") from exc


def _rows(text: str, what: str) -> list[list[int]]:
    return [_ints(part, what) for part in text.split("/")]


class _Parser:
    def __init__(self, text: str):
        self.registry = Registry()
        self.block_kind: str | None = None
        self.block_name: str | None = None
        self.block_line = 0
        self.keys: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if line[0] in " \t":
                self._key_line(line.strip(), lineno)
            else:
                self._finish()
                self._header(line, lineno)
        self._finish()

    def _header(self, line: str, lineno: int) -> None:
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("group", "rack", "augrack", "precrossed"):
            raise ParseError(f"line {lineno}: expected 'group|rack|augrack|precrossed NAME'")
        kind, name = parts
        if any(name in table for table in self.registry.tables().values()):
            raise ParseError(f"line {lineno}: duplicate name {name!r}")
        self.block_kind, self.block_name, self.block_line = kind, name, lineno
        self.keys = {}

    def _key_line(self, line: str, lineno: int) -> None:
        if self.block_kind is None:
            raise ParseError(f"line {lineno}: key line outside a block")
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in self.keys:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        self.keys[key] = value.strip()

    def _group_ref(self, name: str) -> FiniteGroup:
        if name not in self.registry.groups:
            raise ParseError(f"line {self.block_line}: undeclared group {name!r}")
        return self.registry.groups[name]

    def _need(self, *keys: str) -> None:
        for key in keys:
            if key not in self.keys:
                raise ParseError(
                    f"line {self.block_line}: {self.block_kind} {self.block_name!r} needs key {key!r}"
                )
        extra = set(self.keys) - set(keys)
        if extra:
            raise ParseError(
                f"line {self.block_line}: unexpected key {sorted(extra)[0]!r} in {self.block_name!r}"
            )

    def _finish(self) -> None:
        if self.block_kind is None:
            return
        kind, name, keys = self.block_kind, self.block_name, self.keys
        if kind == "group":
            if "perms" in keys:
                self._need("perms")
                perms = _rows(keys["perms"], "perms")
                if not all(perms):
                    raise ParseError(
                        f"line {self.block_line}: group {name!r} has an empty permutation"
                    )
                obj = group_from_permutations(perms)
            else:
                self._need("table")
                obj = validate_group(_rows(keys["table"], "table"))
        elif kind == "rack":
            self._need("table")
            obj = validate_rack(_rows(keys["table"], "table"))
        elif kind == "augrack":
            if "subset" in keys:
                self._need("group", "subset")
                group = self._group_ref(keys["group"])
                obj = conjugation_structure(group, _ints(keys["subset"], "subset"))
            else:
                self._need("group", "size", "pi", "action")
                group = self._group_ref(keys["group"])
                if not keys["size"].isdecimal():
                    raise ParseError(f"size: expected an integer, got {keys['size']!r}")
                size = int(keys["size"])
                pi = _ints(keys["pi"], "pi")
                action = self._action(keys["action"], group, size, None)
                labels = [f"x{i}" for i in range(size)]
                obj = validate_augmented_rack(labels, group, action, pi)
        elif kind == "precrossed":
            self._need("x", "g", "pi", "action")
            xg = self._group_ref(keys["x"])
            g = self._group_ref(keys["g"])
            pi = self._pi(keys["pi"], xg, g)
            action = self._action(keys["action"], g, xg.order, xg)
            obj = validate_precrossed(xg, g, action, pi)
        self.registry.tables()[kind][name] = obj
        self.block_kind = None

    def _pi(self, value: str, xg: FiniteGroup, g: FiniteGroup) -> list[int]:
        if value == "id":
            if xg.order != g.order:
                raise ParseError(f"line {self.block_line}: pi 'id' needs matching groups")
            return list(range(xg.order))
        if value == "trivial":
            return [g.identity] * xg.order
        return _ints(value, "pi")

    def _action(self, value: str, group: FiniteGroup, size: int, xg: FiniteGroup | None):
        if value == "trivial":
            return trivial_action(group, size)
        if value == "conjugation":
            if xg is None or xg.order != group.order:
                raise ParseError(
                    f"line {self.block_line}: 'conjugation' action needs x and g to be the same group"
                )
            return conjugation_action(group)
        return _rows(value, "action")


def parse_input(path: str) -> Registry:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_text(text)


def parse_text(text: str) -> Registry:
    return _Parser(text).registry


class Report:
    """A command's parameters, result lines, verdict and ``--machine`` lines."""

    def __init__(self, command: str, params: dict[str, str]):
        self.command = command
        self.params = params
        self.lines: list[str] = []
        self.verdict: str | None = None
        self.machine: list[str] = []

    def render(self, machine: bool = False) -> str:
        if machine:
            return "\n".join(self.machine) + ("\n" if self.machine else "")
        out = [f"command: {self.command}"]
        out.extend(f"{key}: {value}" for key, value in self.params.items())
        out.extend(self.lines)
        if self.verdict is not None:
            out.append(f"verdict: {self.verdict}")
        return "\n".join(out) + "\n"


def _capped_report(command: str, params: dict[str, str], cap: int | None) -> Report:
    return Report(command, {**params, "cap": str(SIMPLEX_CAP if cap is None else cap)})


def _as_rack(kind: str, obj) -> AugmentedRack:
    if kind == "augrack":
        return obj
    if kind == "precrossed":
        return obj.as_augmented_rack()
    raise Incompatible(f"a {kind} cannot feed a rack pipeline")


def _pipeline_complex(kind, obj, pipeline, max_degree, length, cap):
    """Chain complex of an object through one pipeline, in degrees 0..max_degree+1."""
    if pipeline == "rackcomplex":
        return rack_complex(_as_rack(kind, obj), max_degree, cap=cap)
    if pipeline == "clauwens":
        spec = build_clauwens(_as_rack(kind, obj))
    elif pipeline == "envelope" and kind in ("precrossed", "augrack"):
        spec = build_envelope(obj)
    elif (pipeline, kind) == ("coskeleton", "precrossed"):
        spec = build_coskeleton(obj)
    elif (pipeline, kind) == ("nerve", "group"):
        spec = build_nerve(obj)
    else:
        raise Incompatible(f"the {pipeline} pipeline does not take a {kind} object")
    return chain_complex(spec, max_degree, length, cap=cap)


def _homology_at(kind, obj, pipeline, degrees, length, cap, coeff="Z"):
    """(H_m, degree-m basis size) per ascending m in ``degrees``; the complex goes on return."""
    comp = _pipeline_complex(kind, obj, pipeline, degrees[-1], length, cap)
    return [(homology(comp, m, coeff), comp.dim(m)) for m in degrees]


def cmd_homology(reg: Registry, name: str, pipeline: str, max_degree: int, max_length: int,
                 coeff: str, cap: int | None = None) -> Report:
    kind, obj = reg.lookup(name)
    groups = [h for h, _ in _homology_at(kind, obj, pipeline, range(max_degree + 1), max_length,
                                         cap, coeff)]
    report = _capped_report(
        "homology",
        {
            "object": name,
            "pipeline": pipeline,
            "coeff": coeff,
            "max-degree": str(max_degree),
            "max-length": str(max_length),
        },
        cap,
    )
    report.lines = [f"H_{h.degree} = {h.render()}" for h in groups]
    report.machine = [h.machine() for h in groups]
    return report


def cmd_compare_ra(reg: Registry, name: str, max_degree: int, max_length: int,
                   cap: int | None = None) -> Report:
    kind, obj = reg.lookup(name)
    rack = _as_rack(kind, obj)
    columns = {}
    for pipeline in ("envelope", "clauwens", "rackcomplex"):
        columns[pipeline] = [h for h, _ in _homology_at("augrack", rack, pipeline,
                                                        range(max_degree + 1), max_length, cap)]
    agree = all(
        columns["envelope"][m] == columns[other][m]
        for other in ("clauwens", "rackcomplex") for m in range(max_degree + 1)
    )
    report = _capped_report(
        "compare-ra",
        {
            "object": name,
            "max-degree": str(max_degree),
            "max-length": str(max_length),
        },
        cap,
    )
    report.lines.append("degree envelope clauwens rackcomplex")
    for m in range(max_degree + 1):
        report.lines.append(
            f"{m} {columns['envelope'][m].render()} {columns['clauwens'][m].render()} "
            f"{columns['rackcomplex'][m].render()}"
        )
    report.verdict = "AGREE" if agree else "DISAGREE"
    return report


def cmd_check_tri(reg: Registry, name: str, max_degree: int, coeff: str, lengths: list[int],
                  cap: int | None = None) -> Report:
    kind, obj = reg.lookup(name)
    if kind != "group":
        raise Incompatible(f"check-tri needs a group, got {kind}")
    if coeff == "Z":
        raise Incompatible("check-tri needs field coefficients")
    base = trivial_group()
    module = validate_precrossed(
        obj, base, trivial_action(base, obj.order), [base.identity] * obj.order
    )
    generators = [(m, h.betti) for m, h in enumerate(group_homology(obj, max_degree, coeff, cap))
                  if m and h.betti]
    expected = [tensor_algebra_dims(generators, m) for m in range(max_degree + 1)]
    table = {length: [h.betti for h, _ in _homology_at("precrossed", module, "envelope",
                                                       range(max_degree + 1), length, cap, coeff)]
             for length in lengths}
    compare_at = {m: (m + 1 if m + 1 in lengths else max(lengths)) for m in range(max_degree + 1)}
    agree = all(table[compare_at[m]][m] == expected[m] for m in range(max_degree + 1))
    report = _capped_report(
        "check-tri",
        {
            "object": name,
            "coeff": coeff,
            "max-degree": str(max_degree),
            "lengths": ",".join(map(str, lengths)),
        },
        cap,
    )
    report.lines.append(
        "generators: " + (", ".join(f"degree {d} x{c}" for d, c in generators) or "none")
    )
    report.lines.append("m expected " + " ".join(f"L={length}" for length in lengths))
    for m in range(max_degree + 1):
        cells = " ".join(str(table[length][m]) for length in lengths)
        report.lines.append(f"{m} {expected[m]} {cells}")
    report.lines.append(
        "compared: " + ", ".join(f"m={m}@L={compare_at[m]}" for m in range(max_degree + 1))
    )
    report.verdict = "AGREE" if agree else "DISAGREE"
    return report


def cmd_check_coskeleton(reg: Registry, name: str, max_degree: int,
                         cap: int | None = None) -> Report:
    kind, obj = reg.lookup(name)
    if kind != "precrossed":
        raise Incompatible(f"check-coskeleton needs a pre-crossed module, got {kind}")
    surjective = set(obj.pi) == set(range(obj.group.order))
    module = obj if surjective else restrict_to_image(obj)
    cmap = canonical_to_coskeleton(module)  # enumerates nothing
    cosk = chain_complex(cmap.target, max_degree, cap=cap)
    nerve_h = group_homology(module.group, max_degree, cap=cap)
    env = chain_complex(cmap.source, max_degree, max_degree + 1, cap=cap)
    maps = [induced_map(cmap, env, cosk, m) for m in range(max_degree + 1)]
    # H_m(coskeleton) from induced_map's generators, with no second Smith form
    cosk_h = [HomologyGroup.from_orders(m, f.target_orders) for m, f in enumerate(maps)]
    agree = cosk_h == nerve_h
    h0_iso = maps[0].is_isomorphism()
    report = _capped_report(
        "check-coskeleton",
        {
            "object": name,
            "max-degree": str(max_degree),
            "max-length": str(max_degree + 1),
            "pi-surjective": "yes" if surjective else "no (base group replaced by image)",
        },
        cap,
    )
    report.lines.append("degree coskeleton nerve")
    for m in range(max_degree + 1):
        report.lines.append(f"{m} {cosk_h[m].render()} {nerve_h[m].render()}")
    for m, imap in enumerate(maps):
        report.lines.append(f"induced H_{m} matrix: {imap.matrix}")
    report.lines.append(f"induced H_0 isomorphism: {'yes' if h0_iso else 'no'}")
    report.verdict = "AGREE" if agree and h0_iso else "DISAGREE"
    return report


def cmd_sweep(reg: Registry, name: str, pipeline: str, degree: int, lengths: list[int],
              cap: int | None = None) -> Report:
    kind, obj = reg.lookup(name)
    values = [(length, *_homology_at(kind, obj, pipeline, [degree], length, cap)[0])
              for length in lengths]
    stabilized = None
    for (l1, h1, n1), (_, h2, n2) in zip(values, values[1:]):
        if n1 and n2 and h1 == h2:  # an empty basis shows nothing yet
            stabilized = l1
            break
    report = _capped_report(
        "sweep",
        {
            "object": name,
            "pipeline": pipeline,
            "degree": str(degree),
            "lengths": ",".join(map(str, lengths)),
        },
        cap,
    )
    for length, h, dim in values:
        warn = "" if dim else " (warning: empty basis)"
        report.lines.append(f"L={length}: H_{degree} = {h.render()}{warn}")
    report.lines.append(
        f"stabilized-at: L={stabilized}" if stabilized is not None else "stabilized-at: none"
    )
    return report


def cmd_validate(reg: Registry) -> Report:
    report = Report("validate", {})
    for name, group in reg.groups.items():
        report.lines.append(f"group {name}: order {group.order}")
    for name, rack in reg.racks.items():
        report.lines.append(f"rack {name}: size {rack.size}")
    for name, ar in reg.augracks.items():
        report.lines.append(
            f"augrack {name}: carrier {ar.size} over group of order {ar.group.order}"
        )
    for name, pm in reg.precrossed.items():
        report.lines.append(
            f"precrossed {name}: |X| = {pm.x_group.order}, |G| = {pm.group.order}"
        )
    return report


def _parse_lengths(text: str) -> list[int]:
    """Truncation lengths, as a list L1,L2,.. or an inclusive range lo..hi."""
    kind = "range" if ".." in text else "list"
    try:
        if kind == "range":
            lo, hi = (int(v) for v in text.split("..", 1))
            values = list(range(lo, hi + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 0:
        raise ParseError(f"bad length {kind} {text!r}")
    return values


_REQUIRED = object()  # the default of an option every command line gives
_HELP = ("--help", "help", None, None, False)
_OBJECT = (("--object", "name", str, None, _REQUIRED), ("--cap", "cap", int, None, None))
_MAX_DEGREE = ("--max-degree", "max_degree", int, None, _REQUIRED)
_MAX_LENGTH = ("--max-length", "max_length", int, None, _REQUIRED)
_PIPELINE = ("--pipeline", "pipeline", str, PIPELINES, _REQUIRED)
_LENGTHS = ("--lengths", "lengths", _parse_lengths, None, _REQUIRED)

# name -> (run function, help line, options); an option is (name, dest, converter,
# choices, default), and a flag has converter None
COMMANDS = {
    "validate": (cmd_validate, "parse and validate a registry file", ()),
    "homology": (cmd_homology, "homology of one object through one pipeline", (
        *_OBJECT, _PIPELINE, _MAX_DEGREE, _MAX_LENGTH, ("--coeff", "coeff", str, COEFFS, "Z"),
        ("--machine", "machine", None, None, False))),
    "compare-ra": (cmd_compare_ra, "envelope vs Clauwens vs rack complex",
                   (*_OBJECT, _MAX_DEGREE, _MAX_LENGTH)),
    "check-tri": (cmd_check_tri, "trivial-action envelope vs tensor algebra", (
        *_OBJECT, _MAX_DEGREE, ("--coeff", "coeff", str, COEFFS[1:], _REQUIRED), _LENGTHS)),
    "check-coskeleton": (cmd_check_coskeleton, "coskeleton vs nerve plus induced map",
                         (*_OBJECT, _MAX_DEGREE)),
    "sweep": (cmd_sweep, "one homology degree across truncation lengths",
              (*_OBJECT, _PIPELINE, ("--degree", "degree", int, None, _REQUIRED), _LENGTHS)),
}


def _option(token: str, options):
    """The option a token names, in full or by a unique prefix; None for a value; "?" if unknown."""
    if token[:1] != "-" or token == "-" or token[1:].isdecimal():  # -2 is a value
        return None
    name, table = token.split("=", 1)[0], (_HELP, *options)
    found = [o for o in table if o[0] == ("--help" if name == "-h" else name)] or [
        o for o in table if len(name) > 2 and name[:2] == "--" and o[0].startswith(name)]
    if len(found) > 1:
        raise ParseError(f"ambiguous option: {token} could match {', '.join(o[0] for o in found)}")
    return found[0] if found else "?"


def _scan(tokens: list[str], options, usage: str):
    """(values by dest, FILE or None, unknown tokens) of one command's tokens, left to right."""
    kinds = [_option(token, options) for token in tokens]
    values, path, extras, i = {o[1]: o[4] for o in options}, None, [], 0
    while i < len(tokens):
        token, option, i = tokens[i], kinds[i], i + 1
        _, explicit, value = token.partition("=")
        if option is None and path is None:
            path = token
        elif option is None or option == "?":
            extras.append(token)
        elif option[2] is None and explicit:  # a flag given a value
            what = "-h/--help" if option is _HELP else option[0]
            raise ParseError(f"argument {what}: ignored explicit argument {value!r}")
        elif option is _HELP:
            print(usage)
            raise SystemExit(0)
        elif option[2] is None:
            values[option[1]] = True
        elif not explicit and (i == len(tokens) or kinds[i] is not None):
            raise ParseError(f"argument {option[0]}: expected one argument")
        else:
            if not explicit:
                value, i = tokens[i], i + 1
            values[option[1]] = _converted(option, value)
    return values, path, extras


def _converted(option, value: str):
    """An option's value, converted and checked against its choices."""
    name, _, convert, choices, _ = option
    try:
        value = convert(value)
    except ValueError:
        raise ParseError(f"argument {name}: invalid {convert.__name__} value: {value!r}") from None
    if choices and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise ParseError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _usage(command: str) -> str:
    """A command's usage line and help line; an option in brackets has a default."""
    words = [f"usage: precrossed {command} FILE"]
    for name, dest, convert, choices, default in COMMANDS[command][2]:
        word = name if convert is None else f"{name} {'|'.join(choices or [dest.upper()])}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words) + "\n  " + COMMANDS[command][1]


def parse_args(argv: list[str]):
    """(run function, FILE, keyword arguments) of a command line, read as argparse read it."""
    at = next((i for i, token in enumerate(argv) if _option(token, ()) is None), len(argv))
    extras = _scan(argv[:at], (), "\n".join(map(_usage, COMMANDS)))[2]
    if at == len(argv):
        raise ParseError("the following arguments are required: cmd")
    run, _, options = COMMANDS[_converted(("cmd", "cmd", str, COMMANDS, None), argv[at])]
    values, path, more = _scan(argv[at + 1:], options, _usage(argv[at]))
    missing = ["file"] * (path is None) + [o[0] for o in options if values[o[1]] is _REQUIRED]
    if missing:
        raise ParseError("the following arguments are required: " + ", ".join(missing))
    if extras + more:
        raise ParseError("unrecognized arguments: " + " ".join(extras + more))
    return run, path, values


def main(argv=None) -> int:
    try:
        command, path, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        machine = args.pop("machine", False)
        for name, low in (("max_degree", 0), ("max_length", 0), ("degree", 0), ("cap", 1)):
            value = args.get(name)
            if value is not None and value < low:
                raise ParseError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
        reg = parse_input(path)
        start = time.perf_counter()
        report = command(reg, **args)
        elapsed = time.perf_counter() - start
    except ResourceBound as exc:
        print(f"error: resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        # a run that no cap stopped: the bad-input code and a traceback would misreport it
        print("error: resource bound exceeded: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except PrecrossedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(report.render(machine=machine))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_DISAGREE if report.verdict == "DISAGREE" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
