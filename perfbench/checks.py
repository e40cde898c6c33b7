"""Workload definitions and report checks against independently computed values.

Nothing here imports ``precrossed``: the expected values come from the
registry text, small dense computations and closed forms, so a report that
passes these checks agrees with something the program did not compute.
"""

from __future__ import annotations

import itertools

DESK = "tests/data/desk.txt"

# Each workload is one CLI command, run through precrossed.cli.main.
WORKLOADS = {
    "ra-trans": ["compare-ra", DESK, "--object", "TRANS", "--max-degree", "2",
                 "--max-length", "3"],
    "tri-z3": ["check-tri", DESK, "--object", "Z3", "--coeff", "F3", "--max-degree", "4",
               "--lengths", "1,2,3,4,5"],
    "cosk-s3": ["check-coskeleton", DESK, "--object", "IDS3", "--max-degree", "2"],
}


class CheckFailed(Exception):
    """A report disagrees with the independently computed values."""


# -- the registry, read without the program ------------------------------------

def read_blocks(path: str) -> dict[str, dict[str, str]]:
    """Map 'kind NAME' headers to their key/value lines."""
    blocks: dict[str, dict[str, str]] = {}
    current = None
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if line[0] in " \t":
                key, value = line.strip().split(":", 1)
                current[key.strip()] = value.strip()
            else:
                current = blocks.setdefault(" ".join(line.split()), {})
    return blocks


def _rows(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(v) for v in part.split(",")) for part in text.split("/")]


def permutation_closure(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All products of the generators, sorted by image tuple.

    Element indices in the registry, such as a ``subset:`` line, number the
    elements of a ``perms:`` group in this order.
    """
    n = len(gens[0])
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(q[p[i]] for i in range(n))
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return sorted(seen)


def compose(p, q):
    """Diagram order: first p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


# -- dense integer homology ------------------------------------------------------

def invariant_factors(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a dense integer matrix (Euclid on a copy)."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    out = []
    t = 0
    while t < min(rows, cols):
        nz = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not nz:
            break
        _, i, j = min(nz)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        done = False
        while not done:
            done = True
            for i in range(t + 1, rows):
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    done = False
            for j in range(t + 1, cols):
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    done = False
            if done:
                d = a[t][t]
                bad = next((i for i in range(t + 1, rows)
                            if any(a[i][j] % d for j in range(t + 1, cols))), None)
                if bad is not None:
                    a[t] = [x + y for x, y in zip(a[t], a[bad])]
                    done = False
        out.append(abs(a[t][t]))
        t += 1
    return out


def render_group(betti: int, torsion: list[int]) -> str:
    parts = ["Z" if betti == 1 else f"Z^{betti}"] if betti else []
    parts += [f"Z/{t}" for t in torsion]
    return " + ".join(parts) or "0"


# -- expected values per workload ------------------------------------------------

def rack_complex_homology(perms: list[tuple[int, ...]], m_max: int) -> list[str]:
    """H_0..H_m_max of the rack complex on a conjugation-closed set of permutations.

    Degree n is free on n-tuples; the action of x_i on the prefix is right
    conjugation y^(x_i) = x_i^-1 y x_i, and
    d(x_1..x_n) = sum_i (-1)^i [(x_1..^x_i..x_n) - (x_1^x_i..x_(i-1)^x_i, x_(i+1)..x_n)].
    """
    size = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    act = [[index[compose(compose(inverse(perms[g]), perms[x]), perms[g])]
            for g in range(size)] for x in range(size)]
    tuples = [list(itertools.product(range(size), repeat=n)) for n in range(m_max + 2)]
    boundaries = [None]
    for n in range(1, m_max + 2):
        where = {t: r for r, t in enumerate(tuples[n - 1])}
        mat = [[0] * len(tuples[n]) for _ in tuples[n - 1]]
        for c, t in enumerate(tuples[n]):
            for i in range(1, n + 1):
                sign = 1 if i % 2 == 0 else -1
                g = t[i - 1]
                mat[where[t[: i - 1] + t[i:]]][c] += sign
                mat[where[tuple(act[x][g] for x in t[: i - 1]) + t[i:]]][c] -= sign
        boundaries.append(mat)
    for n in range(2, m_max + 2):
        a, b = boundaries[n - 1], boundaries[n]
        for c in range(len(b[0])):
            if any(sum(a[r][k] * b[k][c] for k in range(len(b))) for r in range(len(a))):
                raise CheckFailed(f"reference rack complex: d_{n - 1} d_{n} != 0")
    orbits = len({frozenset(_orbit(act, x)) for x in range(size)})
    out = []
    for m in range(m_max + 1):
        rank_in = len(invariant_factors(boundaries[m])) if m else 0
        factors = invariant_factors(boundaries[m + 1])
        betti = len(tuples[m]) - rank_in - len(factors)
        if betti != orbits**m:  # Etingof-Grana: Betti numbers of rack homology
            raise CheckFailed(f"reference rack complex: b_{m} = {betti}, orbits^m = {orbits**m}")
        out.append(render_group(betti, [f for f in factors if f > 1]))
    return out


def _orbit(act: list[list[int]], x: int) -> set[int]:
    seen, frontier = {x}, [x]
    while frontier:
        for y in act[frontier.pop()]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def expected(workload: str, root: str) -> dict:
    """The values each report of a workload must show, computed apart from the program."""
    blocks = read_blocks(f"{root}/{DESK}")
    if workload == "ra-trans":
        aug = blocks["augrack TRANS"]
        group = permutation_closure(_rows(blocks["group " + aug["group"]]["perms"]))
        perms = [group[int(i)] for i in aug["subset"].split(",")]
        return {"columns": rack_complex_homology(perms, 2)}
    if workload == "tri-z3":
        order = len(_rows(blocks["group Z3"]["table"]))
        p = 3
        # H_n(Z/order; F_p) = F_p for every n >= 1 when p divides the order,
        # so the tensor algebra has one generator in each positive degree and
        # its degree-m dimension counts the compositions of m: 2^(m-1).
        gens = [1 if order % p == 0 else 0 for _ in range(4)]
        dims = [1] + [2 ** (m - 1) if all(gens) else 0 for m in range(1, 5)]
        return {"generators": gens, "dims": dims}
    if workload == "cosk-s3":
        mod = blocks["precrossed IDS3"]
        group = permutation_closure(_rows(blocks["group " + mod["g"]]["perms"]))
        commutators = {compose(compose(inverse(a), inverse(b)), compose(a, b))
                       for a in group for b in group}
        derived = permutation_closure(sorted(commutators))
        ab = len(group) // len(derived)
        # H_0 = Z, H_1 = G/[G,G] (cyclic of order 2 for S3), and H_2 is the
        # Schur multiplier, trivial for S3 since its Sylow subgroups are cyclic.
        return {"columns": ["Z", render_group(0, [ab] if ab > 1 else []), "0"]}
    raise KeyError(workload)


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_report(workload: str, report: str, want: dict) -> None:
    """Raise CheckFailed unless the report shows the expected values."""
    try:
        _check_lines(workload, report.splitlines(), want)
    except (ValueError, IndexError) as exc:  # a line missing or malformed
        raise CheckFailed(f"malformed report: {exc}") from exc


def _check_lines(workload: str, lines: list[str], want: dict) -> None:
    _need(lines[-1:] == ["verdict: AGREE"], f"verdict line {lines[-1:]}")
    if workload == "ra-trans":
        start = lines.index("degree envelope clauwens rackcomplex") + 1
        for m, cell in enumerate(want["columns"]):
            _need(lines[start + m] == f"{m} {cell} {cell} {cell}",
                  f"degree {m}: {lines[start + m]!r}, want {cell} in all three columns")
    elif workload == "tri-z3":
        gens = ", ".join(f"degree {d} x{c}" for d, c in enumerate(want["generators"], 1) if c)
        _need(f"generators: {gens}" in lines, f"generators line, want {gens!r}")
        header = lines.index("m expected L=1 L=2 L=3 L=4 L=5")
        for m, dim in enumerate(want["dims"]):
            cells = [int(v) for v in lines[header + 1 + m].split()]
            _need(cells[0] == m and cells[1] == dim and cells[2 + m] == dim,
                  f"degree {m}: {cells}, want expected and L={m + 1} cell {dim}")
        compared = ", ".join(f"m={m}@L={m + 1}" for m in range(5))
        _need(f"compared: {compared}" in lines, "compared line")
    elif workload == "cosk-s3":
        start = lines.index("degree coskeleton nerve") + 1
        for m, cell in enumerate(want["columns"]):
            _need(lines[start + m] == f"{m} {cell} {cell}",
                  f"degree {m}: {lines[start + m]!r}, want {cell} in both columns")
        _need("induced H_0 matrix: [[1]]" in lines, "induced H_0 matrix")
        _need("induced H_0 isomorphism: yes" in lines, "H_0 isomorphism")
    else:
        raise KeyError(workload)
