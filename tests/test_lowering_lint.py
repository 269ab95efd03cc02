"""Lowering lint: one lowered form per expression, one kernel fallback.

An expression compiles to one :class:`~repro.expr.compile.CompiledExpr`
whose only executable form is its numpy kernel, lowered on first use.
The choice between that kernel and the per-row interpreter — try the
kernel, evaluate the batch row by row on
:class:`~repro.expr.vector.VectorFallback` — is made in one place,
``repro.expr.vector``; the executor used to copy it into three modules
and look kernels up in a second cache by expression.  This test walks
every module under ``src/repro`` and fails when

* a module outside ``repro/expr/`` reaches for the kernel API
  (``VectorFallback``, ``compile_vector``, ``filter_indices``) by import
  or attribute;
* ``src/`` has anything but exactly one ``except VectorFallback``;
* :class:`~repro.expr.compile.CompiledExpr` grows a row or batch
  closure again.

Tests may still use the kernel API directly.
"""

import ast
import pathlib

from repro.expr.compile import CompiledExpr

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
HOME = "expr/"
KERNEL_API = {"VectorFallback", "compile_vector", "filter_indices"}


def kernel_api_uses(tree):
    """Line numbers where a module imports or reaches the kernel API."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if KERNEL_API & {alias.name for alias in node.names}:
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_API:
            lines.append(node.lineno)
    return lines


def fallback_handlers(tree):
    """Line numbers of ``except`` clauses that catch ``VectorFallback``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            names = {
                getattr(caught_type, "id", getattr(caught_type, "attr", None))
                for caught_type in caught
            }
            if "VectorFallback" in names:
                lines.append(node.lineno)
    return lines


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        yield name, ast.parse(path.read_text(), filename=str(path))


def test_only_repro_expr_touches_the_kernel_api():
    offenders = [
        f"src/repro/{name}:{line}"
        for name, tree in _modules()
        if not name.startswith(HOME)
        for line in kernel_api_uses(tree)
    ]
    assert not offenders, (
        "run kernels through repro.expr.vector.select_rows / value_columns "
        "instead of:\n  " + "\n  ".join(offenders)
    )


def test_exactly_one_kernel_fallback():
    handlers = [
        f"src/repro/{name}:{line}"
        for name, tree in _modules()
        for line in fallback_handlers(tree)
    ]
    assert len(handlers) == 1, handlers
    assert handlers[0].startswith("src/repro/expr/vector.py:"), handlers


def test_compiled_expr_has_no_row_closure():
    assert "row" not in CompiledExpr.__slots__
    assert not hasattr(CompiledExpr, "row")
    # No batch closure either: the kernel is the only compiled form.
    assert set(CompiledExpr.__slots__) == {
        "expression", "children", "constant", "value", "kernel"
    }
    assert not hasattr(CompiledExpr, "batch")


def test_the_lint_sees_every_spelling():
    probe = ast.parse(
        "from repro.expr.vector import VectorFallback\n"
        "from repro.expr.vector import filter_indices as pick\n"
        "kernel = vector.compile_vector(e)\n"
        "from repro.expr.vector import select_rows\n"
        "try:\n"
        "    pass\n"
        "except (KeyError, vector.VectorFallback):\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except VectorFallback:\n"
        "    pass\n"
    )
    assert kernel_api_uses(probe) == [1, 2, 3, 7]
    assert fallback_handlers(probe) == [7, 11]
