"""Single-operator mutation sweep of one `src` module against its test files.

    PYTHONPATH=src python tests/mutation_sweep.py cachecast.lp tests/test_lp.py \\
        --report sweep-lp.txt

Walks the module's syntax tree (stdlib `ast`) and makes one mutant per
operator: a binary or augmented arithmetic operator swapped (+ and -, * and
//, ...), a comparison flipped (< and <=, == and !=, in and not in, ...),
`and` and `or` swapped, a `not` or unary minus dropped, an integer constant
raised by 1, True and False swapped.  Annotations and string constants are
left alone.  Each mutant is written over a copy of `src` and the test files
run against it by `tests/test_mutants.py`'s `run_killers`, as a catalogued
mutant's killers are.  The report lists every mutant the tests did not fail,
with its line and the expression before and after, and counts the rest.  A
survivor is then a catalogued mutant with a new killer, a recorded equivalent
in `tests/mutants.py`, or a known fault.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import copy
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_mutants import ROOT, module_path, run_killers  # noqa: E402

OPERATORS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
}


def _annotations(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation (never evaluated here)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _variants(node: ast.AST):
    """Each single-operator mutation of the node itself, as a new node."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in OPERATORS:
        yield _replace(node, op=OPERATORS[type(node.op)]())
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in OPERATORS:
                ops = list(node.ops)
                ops[i] = OPERATORS[type(op)]()
                yield _replace(node, ops=ops)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        yield node.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        yield _replace(node, value=not node.value if type(node.value) is bool else node.value + 1)


def _replace(node: ast.AST, **fields) -> ast.AST:
    new = copy.copy(node)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


def mutants(source: str):
    """(line, old text, new text, mutated source) for every mutation site, in source order."""
    tree = ast.parse(source)
    skip = _annotations(tree)
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    nodes = [n for n in ast.walk(tree) if hasattr(n, "lineno") and id(n) not in skip]
    for node in sorted(nodes, key=lambda n: (n.lineno, n.col_offset)):
        for new in _variants(node):
            begin = starts[node.lineno - 1] + len(lines[node.lineno - 1].encode()[: node.col_offset].decode())
            end = starts[node.end_lineno - 1] + len(
                lines[node.end_lineno - 1].encode()[: node.end_col_offset].decode())
            old = source[begin:end]
            text = ast.unparse(new)
            if isinstance(node, ast.expr):
                text = f"({text})"
            elif "\n" in old:
                continue  # a statement over several lines: no one-line replacement
            yield node.lineno, old, text, source[:begin] + text + source[end:]


def run(module: str, tests: list[str], mutated: str) -> str:
    """'killed', 'survived', 'timeout' or 'error' (the tests could not run)."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            proc, imported = run_killers(Path(tmp), module, mutated, tests)
        except subprocess.TimeoutExpired:
            return "timeout"
    if not imported:
        return "error"
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="dotted module name under src/, e.g. cachecast.lp")
    parser.add_argument("tests", nargs="+", help="test files or node ids that should kill each mutant")
    parser.add_argument("--report", required=True, help="file the survivors report is written to")
    args = parser.parse_args(argv)
    source = module_path(ROOT / "src", args.module).read_text()
    counts: dict[str, int] = {}
    survivors = []
    for line, old, new, mutated in mutants(source):
        outcome = run(args.module, args.tests, mutated)
        counts[outcome] = counts.get(outcome, 0) + 1
        print(f"{args.module}:{line}  {old!r} -> {new!r}  {outcome}", flush=True)
        if outcome != "killed":
            survivors.append(f"{outcome}  {args.module}:{line}\n    - {old}\n    + {new}\n")
    summary = ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items()))
    Path(args.report).write_text(
        f"{args.module} against {' '.join(args.tests)}: {sum(counts.values())} mutants, {summary}\n\n"
        + "\n".join(survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
