"""Rule-switch lint: only the rewrite engine reads the configuration.

Which rewrites run is one decision, ``OptimizerConfig.disabled_rules``,
taken in one place, :meth:`RewriteEngine.rewrite
<repro.optimizer.rewrite.engine.RewriteEngine.rewrite>`.  The rules used
to read seven booleans of their own, one per module, beside an unused
rule list meant for the same job.  This test walks the AST of every
module under ``src/repro/optimizer/rewrite/`` other than ``engine.py``
and fails on any read of a ``config`` attribute.  The one exception is
hole trimming: it is a step inside predicate introduction whose position
must not move, so that module keeps exactly one check,
``"hole_trimming" in context.config.disabled_rules``.
"""

import ast
import pathlib

from repro.optimizer.rewrite.engine import RULES

RULES_DIR = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "repro" / "optimizer" / "rewrite"
)
HOME = "engine.py"
EXCEPTION = ("predicate_introduction.py", "hole_trimming")


def _allowed_check(node, rule):
    """``"<rule>" in context.config.disabled_rules``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant)
        and node.left.value == rule
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.In)
        and ast.dump(node.comparators[0])
        == ast.dump(
            ast.parse("context.config.disabled_rules", mode="eval").body
        )
    )


def config_reads(tree, allowed_rule=None):
    """Line numbers where a module reads a configuration, skipping one
    ``allowed_rule`` membership check."""
    exempt = set()
    if allowed_rule is not None:
        checks = [n for n in ast.walk(tree) if _allowed_check(n, allowed_rule)]
        for check in checks[:1]:
            exempt.update(id(n) for n in ast.walk(check))
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "config":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and any(
                isinstance(arg, ast.Constant) and arg.value == "config"
                for arg in node.args
            )
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_engine_reads_the_config():
    offenders = []
    for path in sorted(RULES_DIR.glob("*.py")):
        if path.name == HOME:
            continue
        allowed = EXCEPTION[1] if path.name == EXCEPTION[0] else None
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"optimizer/rewrite/{path.name}:{line}"
            for line in config_reads(tree, allowed)
        ]
    assert not offenders, (
        "a rewrite rule is switched off by naming it in "
        "OptimizerConfig.disabled_rules, which RewriteEngine.rewrite "
        "reads; add the rule to RULES and the engine's pipeline instead "
        "of reading the config at:\n  " + "\n  ".join(offenders)
    )


def test_the_exception_names_a_rule():
    assert EXCEPTION[1] in RULES


def test_the_lint_sees_every_spelling():
    probe = ast.parse(
        "if 'hole_trimming' in context.config.disabled_rules:\n    pass\n"
        "if 'hole_trimming' in context.config.disabled_rules:\n    pass\n"
        "flag = context.config.batch_size\n"
        "config = getattr(context, 'config')\n"
        "context.registry.rewrite_usable()\n"
    )
    assert config_reads(probe, "hole_trimming") == [3, 5, 6]
    assert config_reads(probe) == [1, 3, 5, 6]
