"""SC-kind lint: only :mod:`repro.softcon` may tell soft-constraint kinds apart.

Each kind answers for itself through the methods of
:class:`~repro.softcon.base.SoftConstraint` — its record fields, its
synchronous check and repair, its selection utility, and the data the
rewrite rules consume.  Code elsewhere iterates those methods; it used to
test classes instead, at 35 sites in nine modules, so adding a kind meant
editing all nine.  This test walks the AST of every module under
``src/repro`` outside ``softcon/`` and fails on a dispatch on a kind:
``isinstance`` / ``issubclass`` against an SC class, ``type(x) is`` (or
``==``) an SC class, or a comparison against an SC class name or an
SC-only ``kind`` string.  Constructing SCs (the miners, ``workload/tpc.py``,
``api.py``) stays allowed.

``"check"`` is also the ``kind`` of a hard CHECK constraint, which the
durability codec legitimately branches on, so it is not in the string set.
"""

import ast
import pathlib

import repro.softcon  # noqa: F401  (defines every kind)
from repro.engine.constraints import Constraint
from repro.softcon.base import SoftConstraint

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
HOME = "softcon/"


def _subclasses(root):
    found, stack = {root}, [root]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return found


KIND_CLASSES = {cls.__name__ for cls in _subclasses(SoftConstraint)} | {
    "LinearBand"
}
HARD_KINDS = {cls.kind for cls in _subclasses(Constraint)}
KIND_STRINGS = (
    {cls.kind for cls in _subclasses(SoftConstraint)} - HARD_KINDS
) | KIND_CLASSES


def _names(node):
    """Class names a node spells: ``X``, ``mod.X``, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in _names(element)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _is_type_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
    )


def kind_dispatches(tree):
    """Line numbers where the module branches on a soft-constraint kind."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
            and KIND_CLASSES & set(_names(node.args[1]))
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            typed = any(_is_type_call(operand) for operand in operands)
            spelled = {
                name
                for operand in operands
                for name in _names(operand)
                if typed
            }
            strings = {
                operand.value
                for operand in ast.walk(node)
                if isinstance(operand, ast.Constant)
                and isinstance(operand.value, str)
            }
            if (typed and KIND_CLASSES & spelled) or KIND_STRINGS & strings:
                lines.append(node.lineno)
    return lines


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        yield name, ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_no_module_outside_softcon_dispatches_on_a_kind():
    offenders = [
        f"src/repro/{name}:{line}"
        for name, tree in _modules()
        if not name.startswith(HOME)
        for line in kind_dispatches(tree)
    ]
    assert not offenders, (
        "only repro.softcon may tell soft-constraint kinds apart; give "
        "SoftConstraint a method (with a neutral default) instead of:\n  "
        + "\n  ".join(offenders)
    )


def test_the_lint_sees_every_spelling():
    probe = ast.parse(
        "isinstance(sc, MinMaxSC)\n"
        "issubclass(cls, (CheckSoftConstraint, object))\n"
        "type(sc) is softcon.JoinHolesSC\n"
        "sc.kind == 'join_linear'\n"
        "type(sc).__name__ in ('FunctionalDependencySC',)\n"
        "constraint.kind == 'check'\n"
        "MinMaxSC('mm', 't', 'a', 0, 1)\n"
    )
    assert kind_dispatches(probe) == [1, 2, 3, 4, 5]


def test_softcon_and_the_rules_stay_apart():
    """The kinds never reach into the optimizer, and the shared rewrite
    helpers never reach into a kind."""
    for name, tree in _modules():
        if name.startswith(HOME):
            assert not any(
                module.startswith("repro.optimizer") for module in _imports(tree)
            ), name
    derive = ast.parse((SRC / "optimizer/rewrite/derive.py").read_text())
    assert not any(m.startswith("repro.softcon") for m in _imports(derive))
