"""Error-taxonomy lint: core layers raise only typed ``ReproError``s.

Callers of the engine, executors, optimizer, expression system and
resilience layer are promised one catchable base class
(:class:`repro.errors.ReproError`) — the property the chaos harness
leans on when it asserts "oracle answer or *typed* error, never silently
wrong".  A stray ``raise ValueError`` would silently break that
contract, so this test walks the AST of every module in the scoped
packages and rejects any ``raise`` of a builtin exception.

Scope: the query path and storage path.  The softcon/sql/discovery
front-layers keep their own conventions (``NotImplementedError`` for
abstract methods, value validation at the user-facing boundary) and are
not linted here.
"""

import ast
import pathlib

from repro.errors import ReproError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages whose raise sites must use the typed hierarchy.
SCOPED = (
    "concurrency",
    "durability",
    "engine",
    "executor",
    "expr",
    "replication",
    "optimizer",
    "resilience",
    "stats",
)

#: Builtin exceptions that must never be raised directly in scope.
FORBIDDEN = {
    "ArithmeticError",
    "AttributeError",
    "BaseException",
    "Exception",
    "IndexError",
    "KeyError",
    "LookupError",
    "NotImplementedError",
    "OSError",
    "RuntimeError",
    "StopIteration",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
}


def _exception_name(node: ast.Raise):
    """The raised callable/class name, or None for re-raise / dynamic."""
    target = node.exc
    if isinstance(target, ast.Call):
        target = target.func
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _scoped_files():
    for package in SCOPED:
        root = SRC / package
        assert root.is_dir(), f"scoped package missing: {root}"
        yield from sorted(root.rglob("*.py"))


def test_scoped_raise_sites_use_typed_errors():
    offenders = []
    for path in _scoped_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            name = _exception_name(node)
            if name in FORBIDDEN:
                offenders.append(
                    f"{path.relative_to(SRC.parent.parent)}:{node.lineno} "
                    f"raises builtin {name}"
                )
    assert not offenders, (
        "core layers must raise ReproError subclasses, found:\n  "
        + "\n  ".join(offenders)
    )


def test_typed_errors_share_one_base():
    """Every class defined in repro.errors derives from ReproError."""
    import inspect

    from repro import errors

    for name, obj in vars(errors).items():
        if inspect.isclass(obj) and obj.__module__ == "repro.errors":
            assert issubclass(obj, ReproError), name


def test_failover_errors_slot_under_replication():
    """The failover additions extend the replication branch: one catch
    of ReplicationError covers fencing rejections and failed
    promotions, and FencedError carries both epochs so a client can log
    exactly how stale the deposed node was."""
    from repro.errors import (
        FencedError,
        PromotionError,
        ReplicationError,
    )

    for exc in (FencedError, PromotionError):
        assert issubclass(exc, ReplicationError)
    fenced = FencedError("stale", epoch=3, cluster_epoch=5)
    assert fenced.epoch == 3
    assert fenced.cluster_epoch == 5


def test_guard_errors_are_catchable_as_execution_errors():
    """The resource-governance errors slot under ExecutionError so
    existing catch-alls for runtime failures keep working."""
    from repro.errors import (
        BudgetExceededError,
        ExecutionError,
        QueryCancelledError,
        QueryGuardError,
        QueryTimeoutError,
    )

    for exc in (QueryTimeoutError, BudgetExceededError, QueryCancelledError):
        assert issubclass(exc, QueryGuardError)
    assert issubclass(QueryGuardError, ExecutionError)
