"""Every per-row sum over the nodes goes through ``paths.row_dot``.

``row_dot`` sums each row in an order that depends on that row alone, so a
row's bits do not depend on the block it is drawn in; a BLAS product
(``dot``, ``matmul``, ``@``) or a direct ``einsum`` elsewhere would let them
depend on the block.  The one other contraction is ``drift_second_moment``'s
quadrature over the node values of m, which holds no paths.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "insiderlab"

CONTRACTIONS = {"einsum", "dot", "vdot", "inner", "matmul", "tensordot"}
ALLOWED = {("paths.py", "row_dot"), ("enlargement.py", "drift_second_moment")}


def _contractions(tree: ast.AST):
    """(function, line) of every contraction in ``tree``, the function being
    the innermost enclosing ``def`` (None at module level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in CONTRACTIONS:
                found.append((func, node.lineno))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_contraction_outside_row_dot():
    stray = [(path.name, func, line)
             for path in sorted(SRC.glob("*.py"))
             for func, line in _contractions(ast.parse(path.read_text()))
             if (path.name, func) not in ALLOWED]
    assert stray == []


def test_the_guard_sees_each_form():
    code = ("def f(a, b):\n"
            "    np.einsum('i,i', a, b); a.dot(b); np.matmul(a, b)\n"
            "    c = a @ b\n"
            "    c @= b\n")
    assert [line for _, line in _contractions(ast.parse(code))] == [
        2, 2, 2, 3, 4]
