"""Mutation gate: each mutant of a named function of `bek.identities` must
fail a check that the test suite makes.

    python tools/mutants.py                # every left-side builder and its displays
    python tools/mutants.py _jet_lhs ...   # the named functions only

Run from the root of a source checkout; `src` and `tests` are put on the
import path.  It is not part of the test suite; the default functions
(465 mutants) take 40-75 s on a 2-core host.

A mutant changes one site of one function's syntax tree: a `+` becomes
`-` and a `-` becomes `+` (in an augmented assignment too), a `*` becomes
`/` and a `/` becomes `*`, an integer literal grows by 1, or a unary minus
is dropped.  The mutated function is compiled into a copy of the module's
namespace and installed in the module, and a display function in the
registry entries that declare it as well.  The entries whose displays
reach the function (by name, through the module's functions) are then
checked, and the mutant is killed when one of these fails:

- `verify` on the entry's default grid: a report that fails or errors;
- the statement checks (`tests/statements.py`, as `TestStatements` makes
  them): each display's sides at every default point, and at the point
  off the grid one step past its top with every rational parameter
  raised by 1/7, equal the stated ones.

A mutant that raises, or runs past TIMEOUT_S seconds, is killed too.  The
mutants that survive must be declared equivalent in EQUIVALENT, as
(function, site, reason); the run exits 1 when a survivor is not declared
or a declared one is killed, and 0 otherwise.
"""

from __future__ import annotations

import __future__
import ast
import copy
import dataclasses
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bek import identities  # noqa: E402
from bek.identities import REGISTRY, build_points, verify  # noqa: E402
from statements import STATEMENTS  # noqa: E402

# The left-side builders and their helpers, every display with a
# convolution left side, and the number helpers of those displays' right
# sides.
DEFAULT_FUNCTIONS = (
    "_jet_lhs", "_leibniz_terms", "_reciprocals", "_harmonic_reciprocals", "_harmonic_pair_sums",
    "_slot_product", "_theorem_lhs", "_exponential_lhs",
    "_theorem1", "_theorem2", "_theorem3", "_theorem4", "_corollary1", "_eq_4_0a", "_eq_6_9", "_eq_2_15",
    "_corollary8",
    "_corollary3", "_corollary4_first", "_corollary4_second", "_eq_2_12", "_corollary7",
    "_corollary10_first", "_corollary10_second", "_corollary11_first", "_corollary11_second",
    "_subset_series_rhs", "_appell_numbers", "_plus_numbers", "_number_series", "_over_lcm",
)

TIMEOUT_S = 20

# The survivors that are equivalent to their function: (function, site, reason).
EQUIVALENT = {
    ('_appell_numbers', 'int 1 -> 2 in `top + 1` of the `return`',
     'one more Appell number, 0 past the product cut after top, which no n of a line reads'),
    ('_corollary10_first', 'int 1 -> 2 in `_number_series(.. 1 ..)` of the assignment to `s`',
     'the series from l = 2: its l = 1 term has the factor H_0 = 0'),
    ('_corollary10_second', 'int 1 -> 2 in `_number_series(.. 1 ..)` of the assignment to `s`',
     'the series from l = 2: its l = 1 term has the factor H_0^2 + 3 H^(2)_0 = 0'),
    ('_corollary10_second', 'int 1 -> 2 in `max(ns) + 1` of the assignment to `(nums, den)`',
     'one more Appell number, which no n of the line reads'),
    ('_corollary10_second', 'int 1 -> 2 in `max(ns) + 1` of the assignment to `s`',
     'one more series term, which the product cut after max(ns) + 1 drops'),
    ('_corollary11_first', 'int 1 -> 2 in `top + 1` of the assignment to `numbers`',
     'one more series term, which the product cut after top drops'),
    ('_corollary11_second', 'int 1 -> 2 in `_number_series(.. 1 ..)` of the assignment to `h`',
     'the series from m = 2: its m = 1 term has the factor H_0 = 0'),
    ('_corollary11_second', 'int 1 -> 2 in `top + 1` of the assignment to `s`',
     'one more series term, which the product cut after top drops'),
    ('_harmonic_reciprocals', 'int 1 -> 2 in `n + 1` of the `return`',
     'one more weight, which the zip with P_0(0)..P_top(0) drops'),
    ('_jet_lhs', '- -> + in `top - r` of the assignment to `u`',
     'the jets of j > top - r grow too, which no n of the line reads'),
    ('_jet_lhs', 'int 1 -> 2 in `depth + 1` of the assignment to `weights.setdefault(rest, [0] * (depth + 1))'
     '[depth - sum(m)]`',
     'a weight slot for E^(D+1) that stays 0 and that the zip with the rows of the jets drops'),
    ('_jet_lhs', 'int 1 -> 2 in `top + 1` of the `for` header `range(top + 1)`',
     'one more step, r = top + 1, whose jets are empty and which no n of the line reads'),
    ('_jet_lhs', 'int 1 -> 2 in `top + 1` of the assignment to `dens`',
     'one more denominator, which no coefficient reads'),
    ('_jet_lhs', 'int 1 -> 2 in `top + 1` of the assignment to `jets`',
     'a column of zeros at j = top + 1, read at r = 0 by no n of the line and dropped by the zip with u'),
    ('_number_series', 'int 1 -> 2 in `top + 1` of the `return`',
     'one more term, l = top + 1, which every product cut after top drops and no caller indexes'),
    ('_plus_numbers', '- -> + in `len(nums) - 1` of the assignment to `(p_nums, p_den)`',
     'two more numbers, which the zip with the line numbers drops; their lcm may grow the denominator, '
     'which leaves each value as it is'),
    ('_reciprocals', 'int 1 -> 2 in `n + 1` of the `return`',
     'one more weight, which the zip with P_0(0)..P_top(0) drops'),
    ('_slot_product', 'int 1 -> 2 in `top + 1` of the assignment to `at_zero`',
     'one more P_l(0), which the zips with the weights drop'),
    ('_subset_series_rhs', 'int 1 -> 2 in `top + 1` of the assignment to `(nums, den)`',
     'one more series term, 0 past the cut of q, which the product cut after top drops'),
    ('_theorem3', 'int 1 -> 2 in `max(ns) + 1` of the assignment to `(nums, den)`',
     'one more Appell number, which no n of the line reads'),
    ('_theorem3', 'int 1 -> 2 in `max(ns) + 1` of the assignment to `s`',
     'one more series term, which the product cut after max(ns) + 1 drops'),
}

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class Timeout(Exception):
    pass


def _parents(tree: ast.AST) -> dict[int, ast.AST]:
    return {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _context(node: ast.AST, parents: dict[int, ast.AST]) -> str:
    """The statement that holds node, named by what it assigns or does: a
    compound statement (a loop, an `if`) by the header part that holds it."""
    while not isinstance(parents[id(node)], ast.stmt):
        node = parents[id(node)]
    stmt = parents[id(node)]
    if isinstance(stmt, (ast.For, ast.While, ast.If)):
        return f"`{type(stmt).__name__.lower()}` header `{ast.unparse(node)}`"
    if isinstance(stmt, (ast.Assign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return f"assignment to `{', '.join(map(ast.unparse, targets))}`"
    return f"`{type(stmt).__name__.lower()}`"


def _sites(fn: ast.FunctionDef) -> list[tuple[str, int]]:
    """(site, index) for each mutable node of fn, the index its place in
    `ast.walk` order.  A site names the change, the expression it changes
    and the statement that holds it; a repeated name is numbered in walk
    order."""
    parents = _parents(fn)
    sites, seen = [], {}
    for index, node in enumerate(ast.walk(fn)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            change = f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[_SWAPS[type(node.op)]]}"
            where = node.target if isinstance(node, ast.AugAssign) else node
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            change, where = f"int {node.value} -> {node.value + 1}", parents[id(node)]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            change, where = "drop unary -", parents[id(node)]
        else:
            continue
        if isinstance(where, ast.Call):  # the call's name and the argument that holds the site
            held = next(arg for arg in (*where.args, *(kw.value for kw in where.keywords))
                        if any(sub is node for sub in ast.walk(arg)))
            where = f"{ast.unparse(where.func)}(.. {ast.unparse(held)} ..)"
        else:
            where = ast.unparse(where)
        site = f"{change} in `{where}` of the {_context(node, parents)}"
        seen[site] = seen.get(site, 0) + 1
        sites.append((site if seen[site] == 1 else f"{site} #{seen[site]}", index))
    return sites


def _mutate(fn: ast.FunctionDef, index: int) -> ast.FunctionDef:
    """A copy of fn with the node at `ast.walk` index `index` mutated."""
    fn = copy.deepcopy(fn)
    node = list(ast.walk(fn))[index]
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = _SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        parent = _parents(fn)[id(node)]
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
            elif isinstance(value, list):
                value[:] = [node.operand if item is node else item for item in value]
    return fn


def _compile(fn: ast.FunctionDef):
    """The function fn defines, compiled into a copy of the module's names."""
    module = ast.fix_missing_locations(ast.Module(body=[fn], type_ignores=[]))
    code = compile(module, identities.__file__, "exec", flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = dict(vars(identities))
    exec(code, namespace)
    return namespace[fn.name]


def _callees(functions: dict[str, ast.FunctionDef]) -> dict[str, set[str]]:
    """For each module function, the module functions it reaches by name."""
    direct = {name: {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)} & set(functions)
              for name, fn in functions.items()}
    reach = {}
    for name in functions:
        seen, todo = set(), [name]
        while todo:
            for callee in direct[todo.pop()] - seen:
                seen.add(callee)
                todo.append(callee)
        reach[name] = seen | {name}
    return reach


def _off_grid_point(entry) -> dict:
    """The statement tests' point off the default grid: the first default
    point, n one step past the top of its line, each rational parameter
    raised by 1/7."""
    pt = build_points(entry)[0]
    pt["n"] = max(entry.default_n(pt.get("k"))) + entry.n_step
    for key in entry.param_names:
        pt[key] = tuple(v + Fraction(1, 7) for v in pt[key]) if key == "a_vec" else pt[key] + Fraction(1, 7)
    return pt


def _lines(entry) -> list[list[dict]]:
    """The default grid as lines, points that differ only in n, and the off-grid point."""
    lines: list[list[dict]] = []
    for pt in build_points(entry):
        if lines and {**lines[-1][-1], "n": None} == {**pt, "n": None}:
            lines[-1].append(pt)
        else:
            lines.append([pt])
    return [*lines, [_off_grid_point(entry)]]


class Gate:
    """The checks of the entries a function reaches, with the stated sides
    formed once."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.stated = {name: {label: [[STATEMENTS[name, label](pt) for pt in line] for line in _lines(REGISTRY[name])]
                              for label, _ in REGISTRY[name].displays}
                       for name in names}

    def failure(self, registry) -> str:
        """What the entries fail under the registry, or "" if nothing."""
        for name in self.names:
            bad = [r for r in verify(name, registry=registry) if not r.passed]
            if bad:
                return f"verify {name}: {bad[0].status} at {bad[0].inputs}"
            entry = registry[name]
            for label, fn in entry.displays:
                for line, stated in zip(_lines(entry), self.stated[name][label]):
                    sides = [tuple(map(identities._as_poly, s)) for s in entry.sides(fn, line)]
                    if sides != [tuple(map(identities._as_poly, s)) for s in stated]:
                        return f"statement {name} {label!r} on n = {[pt['n'] for pt in line]}"
        return ""


def _run_mutant(gate: Gate, name: str, mutated) -> str:
    """Install the mutant, run the gate, restore; what killed it, or ""."""
    original = getattr(identities, name)
    registry = {key: dataclasses.replace(entry, displays=tuple(
        (label, mutated if fn is original else fn) for label, fn in entry.displays)) for key, entry in REGISTRY.items()}
    setattr(identities, name, mutated)
    identities._number_form.cache_clear()

    def alarm(signum, frame):
        raise Timeout()

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(TIMEOUT_S)
    try:
        return gate.failure(registry)
    except Timeout:
        return "timeout"
    except Exception as exc:  # a mutant that raises is caught
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        setattr(identities, name, original)
        identities._number_form.cache_clear()


def main(argv: list[str]) -> int:
    names = argv or list(DEFAULT_FUNCTIONS)
    tree = ast.parse(Path(identities.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unknown = [name for name in names if name not in functions]
    if unknown:
        print(f"no module function named {', '.join(unknown)}", file=sys.stderr)
        return 2
    reach = _callees(functions)
    survivors, total, start = set(), 0, time.perf_counter()
    for name in names:
        entries = [key for key, entry in REGISTRY.items()
                   if any(name in reach[fn.__name__] for _, fn in entry.displays)]
        gate = Gate(entries)
        if unmutated := gate.failure(REGISTRY):
            print(f"the unmutated checks of {name} fail: {unmutated}", file=sys.stderr)
            return 2
        killed = 0
        for site, index in _sites(functions[name]):
            total += 1
            try:
                mutated = _compile(_mutate(functions[name], index))
            except Exception as exc:  # a mutant that does not compile is no mutant
                print(f"  {name}: {site}: not compiled ({type(exc).__name__})")
                continue
            if _run_mutant(gate, name, mutated):
                killed += 1
            else:
                survivors.add((name, site))
                print(f"  survived {name}: {site}")
        print(f"{name}: {killed} killed of {len(_sites(functions[name]))} on {', '.join(entries)}")
    declared = {(fn, site) for fn, site, _ in EQUIVALENT if fn in names}
    new, stale = survivors - declared, declared - survivors
    print(f"{total} mutants, {len(survivors)} survived ({len(survivors & declared)} declared equivalent), "
          f"{time.perf_counter() - start:.0f} s")
    for fn, site in sorted(new):
        print(f"NEW SURVIVOR {fn}: {site}")
    for fn, site in sorted(stale):
        print(f"DECLARED SURVIVOR KILLED {fn}: {site}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
