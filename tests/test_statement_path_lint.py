"""Statement-path lint: one dispatch on DML kinds, one place a DML WHERE
is compiled, victims read only from the planned access path, DML plans
only from the plan cache, and one transaction context.

The paper's contract — maintenance synchronous with every update, a
rewrite never changing an answer — has to hold on every copy of "find
the rows a DML statement touches, then write them".  There is one copy
(:mod:`repro.dml`, reached through the handler table in
:mod:`repro.api`); there used to be five, and they had drifted.  This
test walks the AST of every module under ``src/repro`` so that a sixth
cannot be added unnoticed.

``repro.sql`` is out of scope: it defines, builds and prints the nodes.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

DML_KINDS = {"Insert", "Delete", "Update"}

#: The one module that may branch on a DML statement's kind.
DISPATCHER = "api.py"
#: The one module that may turn a DML statement's WHERE into a predicate.
APPLIER = "dml.py"
#: Every module that compiles a row predicate at all, and what from.  A
#: new entry here is a new place predicates are evaluated: check that it
#: is not a DML WHERE before adding it.
PREDICATE_COMPILERS = {
    APPLIER: "a DML statement's WHERE",
    "api.py": "a CHECK constraint's condition, at CREATE TABLE",
    "durability/codec.py": "a CHECK constraint's condition, at recovery",
    "softcon/checksc.py": "a check soft constraint's condition",
    "expr/eval.py": "the definition",
    "expr/__init__.py": "the re-export",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if not name.startswith("sql/"):
            yield name, ast.parse(path.read_text(), filename=str(path))


def _annotation_nodes(tree):
    """ids of every node inside a type annotation (not executable)."""
    inside = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [arguments.vararg, arguments.kwarg]
            annotations = [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if annotation is not None:
                inside.update(id(child) for child in ast.walk(annotation))
    return inside


def _dml_kind_references(tree):
    """Line numbers where ``ast.Insert`` / ``Delete`` / ``Update`` is named
    in executable code (an isinstance, a table key, a comparison, an
    import): anything but a type annotation."""
    annotations = _annotation_nodes(tree)
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in DML_KINDS
            and isinstance(node.value, ast.Name)
            and node.value.id == "ast"
            and id(node) not in annotations
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.sql.ast":
            lines.extend(
                node.lineno for alias in node.names if alias.name in DML_KINDS
            )
    return lines


def _compile_predicate_calls(tree):
    """(line, argument mentions a ``where``) per ``compile_predicate`` call."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = getattr(callee, "id", None) or getattr(callee, "attr", None)
        if name != "compile_predicate":
            continue
        mentions_where = any(
            getattr(child, "attr", None) == "where"
            or getattr(child, "id", None) == "where"
            for argument in node.args
            for child in ast.walk(argument)
        )
        calls.append((node.lineno, mentions_where))
    return calls


def _calls(tree):
    """(name, line) of every call: the function's or the method's name."""
    return [
        (getattr(node.func, "id", None) or getattr(node.func, "attr", None),
         node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]


def test_dml_kinds_are_dispatched_on_in_one_module():
    offenders = [
        f"src/repro/{name}:{line}"
        for name, tree in _modules()
        if name != DISPATCHER
        for line in _dml_kind_references(tree)
    ]
    assert not offenders, (
        f"only {DISPATCHER}'s handler table may branch on a DML statement's "
        "kind; route through SoftDB.run_statement instead of:\n  "
        + "\n  ".join(offenders)
    )
    dispatcher = ast.parse((SRC / DISPATCHER).read_text())
    assert _dml_kind_references(dispatcher), "the lint lost sight of the table"


def test_dml_where_is_compiled_in_the_applier_only():
    offenders = []
    for name, tree in _modules():
        for line, mentions_where in _compile_predicate_calls(tree):
            if name not in PREDICATE_COMPILERS:
                offenders.append(
                    f"src/repro/{name}:{line} compiles a predicate; if it "
                    f"is a DML WHERE use repro.dml.locate, else list the "
                    f"module in PREDICATE_COMPILERS"
                )
            elif mentions_where and name != APPLIER:
                offenders.append(
                    f"src/repro/{name}:{line} compiles a WHERE outside "
                    f"repro.dml; use repro.dml.locate"
                )
    assert not offenders, "\n  ".join(offenders)
    applier = ast.parse((SRC / APPLIER).read_text())
    assert any(
        where for _, where in _compile_predicate_calls(applier)
    ), "the lint lost sight of the applier's compile"


#: Heap scans a DML statement could locate its victims with instead of
#: the access path the optimizer planned.
HEAP_SCANS = {"scan", "visible_scan"}


def test_dml_victims_come_only_from_the_planned_stream():
    calls = _calls(ast.parse((SRC / APPLIER).read_text()))
    offenders = [
        f"src/repro/{APPLIER}:{line} calls {name}()"
        for name, line in calls
        if name in HEAP_SCANS
    ]
    assert not offenders, (
        "repro.dml must read victims from the planned rid stream "
        "(executor.scans.scan_rids), not a heap scan:\n  "
        + "\n  ".join(offenders)
    )
    assert any(name == "scan_rids" for name, _ in calls), (
        "the lint lost sight of the planned stream"
    )


PLANNER = "optimizer/planner.py"


def _optimizer_methods():
    planner = ast.parse((SRC / PLANNER).read_text())
    (optimizer,) = [
        node for node in planner.body
        if isinstance(node, ast.ClassDef) and node.name == "Optimizer"
    ]
    return {
        node.name for node in optimizer.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_dml_plans_only_through_the_plan_cache():
    methods = _optimizer_methods()
    assert "optimize" in methods, "the lint lost sight of the optimizer"
    calls = _calls(ast.parse((SRC / APPLIER).read_text()))
    offenders = [
        f"src/repro/{APPLIER}:{line} calls Optimizer.{name}()"
        for name, line in calls
        if name in methods
    ]
    assert not offenders, (
        "repro.dml must plan a WHERE through PlanCache.get_plan, so the "
        "plan is cached per shape and guarded like a SELECT's:\n  "
        + "\n  ".join(offenders)
    )
    assert any(name == "get_plan" for name, _ in calls), (
        "the lint lost sight of the plan cache"
    )


#: Every Python tree of the repository that may plan a statement.
TREES = ("src", "tests", "benchmarks", "bench", "examples")


def test_choose_plan_is_gone():
    root = SRC.parent.parent
    offenders = []
    for tree_name in TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            names = [
                (node.name, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ] + _calls(tree)
            offenders.extend(
                f"{path.relative_to(root).as_posix()}:{line}"
                for name, line in names
                if name == "choose_plan"
            )
    assert not offenders, (
        "Optimizer.choose_plan was folded into optimize; plan a SELECT "
        "or a DML WHERE through PlanCache.get_plan instead of:\n  "
        + "\n  ".join(offenders)
    )
    probe = ast.parse("optimizer.choose_plan(query)")
    assert _calls(probe) == [("choose_plan", 1)], "the lint lost sight of calls"


def _none_checks_on_concurrency(tree):
    """Line numbers of ``<...>concurrency is None`` / ``is not None``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            continue
        names = {
            getattr(operand, "id", None) or getattr(operand, "attr", None)
            for operand in operands
        }
        nones = [
            operand for operand in operands
            if isinstance(operand, ast.Constant) and operand.value is None
        ]
        if "concurrency" in names and nones:
            lines.append(node.lineno)
    return lines


def test_every_database_has_its_concurrency_engine():
    offenders = [
        f"src/repro/{name}:{line}"
        for name, tree in _modules()
        for line in _none_checks_on_concurrency(tree)
    ]
    assert not offenders, (
        "Database.concurrency is never None; drop the fork at:\n  "
        + "\n  ".join(offenders)
    )
    probe = ast.parse("if database.concurrency is not None: pass")
    assert _none_checks_on_concurrency(probe), "the lint lost sight of forks"


#: The transaction context a statement runs in is a Session; the facade
#: runs its statements through one instead of being a second kind.
SESSION_ONLY = {"_read_scope", "_begin", "_commit", "_rollback", "_run_dml"}


def test_the_facade_is_not_a_second_transaction_context():
    api = ast.parse((SRC / DISPATCHER).read_text())
    (facade,) = [
        node for node in api.body
        if isinstance(node, ast.ClassDef) and node.name == "SoftDB"
    ]
    defined = {
        node.name for node in facade.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not defined & SESSION_ONLY, (
        f"SoftDB defines {sorted(defined & SESSION_ONLY)}; run the "
        "statement through its session instead"
    )
