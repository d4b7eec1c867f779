"""One pricing path and one divergence rule, pinned in the source.

Every per-path functional of an estimator is a ``controlled_sde.NodeSum``,
so ``paths.row_dot`` is called only by ``NodeSum.rows``, by the forward
integral's one contraction, by the reference kernel ``wealth_paths_chunk``
and by the head carrier's two sums per block
(``enlargement.DriftSetup.head_sums``).  Two builders make every such sum: a policy's
cost (``cost_sum``) and the window sum that is both the perturbation's c1
and the martingale's N_u increment (``sweep_window``).  A row diverges
exactly when a value that its estimate reads is not finite, and in
``optimality`` only ``collect_samples`` and ``EstimateWithError`` test for
that: no reducer returns a mask of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "insiderlab"

ROW_DOT_CALLERS = {("controlled_sde.py", "NodeSum.rows"),
                   ("controlled_sde.py", "wealth_paths_chunk"),
                   ("enlargement.py", "DriftSetup.head_sums"),
                   ("forward_integral.py", "_contract")}
NODE_SUM_CALLERS = {("controlled_sde.py", "cost_sum"),
                    ("optimality.py", "sweep_window")}
FINITE_TESTS = {"isfinite", "isinf", "isnan"}
FINITE_OWNERS = {"collect_samples", "EstimateWithError"}


def _uses(tree: ast.AST, names: set[str]):
    """(owner, line) of every name or attribute in ``names``, the owner
    being the dotted path of the enclosing classes and functions (None at
    module level)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = node.name if owner is None else f"{owner}.{node.name}"
        name = getattr(node, "attr", None) if isinstance(
            node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in names:
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _callers(name: str) -> set[tuple[str, str | None]]:
    """(file, owner) of every use of ``name`` in the package."""
    return {(path.name, owner)
            for path in sorted(SRC.glob("*.py"))
            for owner, _ in _uses(ast.parse(path.read_text()), {name})}


def test_row_dot_is_called_by_the_node_sum_forward_sum_and_reference():
    assert _callers("row_dot") == ROW_DOT_CALLERS


def test_node_sum_is_called_by_the_cost_sum_and_the_window_sum_alone():
    assert _callers("node_sum") == NODE_SUM_CALLERS


def test_only_the_sample_collector_and_the_estimate_test_for_finite_values():
    tree = ast.parse((SRC / "optimality.py").read_text())
    owners = {str(owner).split(".")[0] for owner, _ in _uses(tree, FINITE_TESTS)}
    assert owners == FINITE_OWNERS


def test_the_guard_sees_methods_and_attributes():
    code = ("import numpy as np\n"
            "class A:\n"
            "    def f(self, x):\n"
            "        return np.isfinite(x)\n"
            "def g(x):\n"
            "    return isnan(x)\n")
    assert _uses(ast.parse(code), FINITE_TESTS) == [("A.f", 4), ("g", 6)]
