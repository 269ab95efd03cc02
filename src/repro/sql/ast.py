"""Abstract syntax tree for the SQL dialect.

Expression and statement nodes are plain dataclasses.  Column references
and table names are stored lower-cased (identifiers are case-insensitive).
Date literals are stored in internal day-number form (see
:mod:`repro.engine.types`) with ``is_date`` set so the printer can
round-trip them.  A lifted statement's literals are :class:`Slot` runtime
parameters that read the calling context's :class:`Binding`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set,
    Tuple, Union,
)


class Node:
    """Marker base class for every AST node."""


class Expression(Node):
    """Marker base class for expression nodes."""


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Literal(Expression):
    """A constant: int, float, str, bool, None, or a date (day number)."""

    value: Any
    is_date: bool = False

    def __hash__(self) -> int:
        return hash((type(self.value), self.value, self.is_date))


@dataclass(eq=True)
class ColumnRef(Expression):
    """A possibly-qualified column reference, e.g. ``t.a`` or ``a``."""

    column: str
    table: Optional[str] = None

    def __post_init__(self) -> None:
        self.column = self.column.lower()
        if self.table is not None:
            self.table = self.table.lower()

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    def __hash__(self) -> int:
        return hash((self.table, self.column))


@dataclass(eq=True)
class UnaryOp(Expression):
    """``-expr`` or ``NOT expr``."""

    op: str  # "-" | "not"
    operand: Expression

    def __hash__(self) -> int:
        return hash((self.op, self.operand))


@dataclass(eq=True)
class BinaryOp(Expression):
    """Arithmetic (+,-,*,/,%), comparison (=,<>,<,<=,>,>=), AND, OR."""

    op: str
    left: Expression
    right: Expression

    def __hash__(self) -> int:
        return hash((self.op, self.left, self.right))


@dataclass(eq=True)
class BetweenExpr(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def __hash__(self) -> int:
        return hash((self.operand, self.low, self.high, self.negated))


@dataclass(eq=True)
class InExpr(Expression):
    """``expr [NOT] IN (item, ...)`` over a literal/expression list."""

    operand: Expression
    items: Tuple[Expression, ...] = ()
    negated: bool = False

    def __hash__(self) -> int:
        return hash((self.operand, self.items, self.negated))


@dataclass(eq=True)
class IsNullExpr(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def __hash__(self) -> int:
        return hash((self.operand, self.negated))


@dataclass(eq=False)
class RuntimeParameter(Expression):
    """A plan parameter whose value is read at run time, never planned in.

    Paper Section 4.2 (runtime optimization): "The actual values in the
    ASC are not important ... Rather, the availability of this
    information (of the ASC) at runtime is important."  A plan built with
    runtime parameters survives value-changing repairs (e.g. min/max
    widening): every evaluation reads the *current* value.

    ``source`` holds the value and ``attribute`` names the field to read:
    a live soft constraint (``"low"`` / ``"high"`` of a
    :class:`~repro.softcon.minmax.MinMaxSC`), a :class:`Slot` of the
    statement binding (a lifted literal, see :mod:`repro.sql.lifting`),
    or an interval the optimizer derives from slots.  A source with a
    true ``per_statement`` attribute follows the binding: planning may
    peek it, but a plan must read it, never copy it.  Compares by
    identity.
    """

    source: Any
    attribute: str

    def current_value(self) -> Any:
        return getattr(self.source, self.attribute)

    @property
    def per_statement(self) -> bool:
        return getattr(self.source, "per_statement", False)

    def slots(self) -> FrozenSet[int]:
        """The binding slots the value is a function of."""
        return self.source.slots() if self.per_statement else frozenset()

    def __repr__(self) -> str:
        if isinstance(self.source, Slot):
            return f"?{self.source.index + 1}"
        name = getattr(self.source, "name", "?")
        return f"PARAM({name}.{self.attribute})"


class Binding:
    """The values one execution binds to a lifted statement's slots.

    Planning under a binding also records here what the plan it builds
    assumed of them: ``pins`` are slots whose values the plan holds only
    for, ``guards`` are checks a rewrite's outcome holds under (see
    :class:`~repro.optimizer.planner.PlanCache`), and ``memo`` keeps each
    derived value once per execution.
    """

    __slots__ = ("values", "pins", "guards", "memo")

    def __init__(self, values: Tuple[Any, ...]) -> None:
        self.values = values
        self.pins: Set[int] = set()
        self.guards: List[Callable[[], bool]] = []
        self.memo: Dict[Any, Any] = {}


_BINDING: ContextVar[Optional[Binding]] = ContextVar(
    "repro_binding", default=None
)


def bind(values: Tuple[Any, ...]) -> Binding:
    """Make ``values`` the calling context's binding until the next bind."""
    binding = Binding(values)
    _BINDING.set(binding)
    return binding


def current_binding() -> Optional[Binding]:
    return _BINDING.get()


@contextmanager
def binding_scope(values: Tuple[Any, ...]) -> Iterator[Binding]:
    """Bind ``values`` for a block; what planning records there is dropped."""
    token = _BINDING.set(Binding(values))
    try:
        yield _BINDING.get()
    finally:
        _BINDING.reset(token)


def pin(slots: Iterable[int]) -> None:
    """Record that the plan being built holds only for these slots'
    current values (it copied them, or a choice turned on them)."""
    binding = _BINDING.get()
    if binding is not None:
        binding.pins.update(slots)


def guard(check: Callable[[], bool]) -> None:
    """Record a check the plan being built is correct under."""
    binding = _BINDING.get()
    if binding is not None:
        binding.guards.append(check)


class Slot:
    """A lifted literal's place in the statement binding."""

    __slots__ = ("index", "is_date")
    per_statement = True

    def __init__(self, index: int, is_date: bool = False) -> None:
        self.index = index
        self.is_date = is_date

    @property
    def value(self) -> Any:
        binding = _BINDING.get()
        if binding is None:
            raise LookupError(f"statement parameter ?{self.index + 1} is unbound")
        return binding.values[self.index]

    def slots(self) -> FrozenSet[int]:
        return frozenset((self.index,))


@dataclass(eq=True)
class FunctionCall(Expression):
    """A function application; aggregates set ``is_aggregate``.

    ``star`` marks ``COUNT(*)``.
    """

    name: str
    args: Tuple[Expression, ...] = ()
    distinct: bool = False
    star: bool = False

    AGGREGATES = frozenset(["count", "sum", "avg", "min", "max"])

    def __post_init__(self) -> None:
        self.name = self.name.lower()

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATES

    def __hash__(self) -> int:
        return hash((self.name, self.args, self.distinct, self.star))


# --------------------------------------------------------------------------
# Query structure
# --------------------------------------------------------------------------


@dataclass(eq=True)
class SelectItem(Node):
    """One item of the select list; ``star`` marks ``*`` / ``t.*``."""

    expression: Optional[Expression] = None
    alias: Optional[str] = None
    star: bool = False
    star_table: Optional[str] = None

    def __post_init__(self) -> None:
        if self.alias is not None:
            self.alias = self.alias.lower()
        if self.star_table is not None:
            self.star_table = self.star_table.lower()


@dataclass(eq=True)
class TableRef(Node):
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        if self.alias is not None:
            self.alias = self.alias.lower()

    @property
    def binding(self) -> str:
        """The name this table is visible as within the query."""
        return self.alias or self.name


@dataclass(eq=True)
class Join(Node):
    """An explicit join between two table expressions."""

    kind: str  # "inner" | "cross" | "left"
    left: Union["TableRef", "Join"]
    right: Union["TableRef", "Join"]
    condition: Optional[Expression] = None


@dataclass(eq=True)
class OrderItem(Node):
    """One ORDER BY key."""

    expression: Expression
    ascending: bool = True


@dataclass(eq=True)
class SelectStatement(Node):
    """A single SELECT block (no set operations)."""

    select_items: List[SelectItem] = field(default_factory=list)
    from_clause: List[Union[TableRef, Join]] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(eq=True)
class UnionAll(Node):
    """``select UNION ALL select [UNION ALL ...]``."""

    branches: List[SelectStatement] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None


# --------------------------------------------------------------------------
# DDL
# --------------------------------------------------------------------------


@dataclass(eq=True)
class ColumnDef(Node):
    """A column in CREATE TABLE."""

    name: str
    type_name: str
    length: Optional[int] = None
    not_null: bool = False
    primary_key: bool = False

    def __post_init__(self) -> None:
        self.name = self.name.lower()


@dataclass(eq=True)
class PrimaryKeyDef(Node):
    columns: List[str] = field(default_factory=list)
    name: Optional[str] = None
    enforced: bool = True


@dataclass(eq=True)
class UniqueDef(Node):
    columns: List[str] = field(default_factory=list)
    name: Optional[str] = None
    enforced: bool = True


@dataclass(eq=True)
class ForeignKeyDef(Node):
    columns: List[str] = field(default_factory=list)
    parent_table: str = ""
    parent_columns: List[str] = field(default_factory=list)
    name: Optional[str] = None
    enforced: bool = True


@dataclass(eq=True)
class CheckDef(Node):
    expression: Optional[Expression] = None
    sql_text: str = ""
    name: Optional[str] = None
    enforced: bool = True


ConstraintDef = Union[PrimaryKeyDef, UniqueDef, ForeignKeyDef, CheckDef]


@dataclass(eq=True)
class CreateTable(Node):
    name: str = ""
    columns: List[ColumnDef] = field(default_factory=list)
    constraints: List[ConstraintDef] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.name = self.name.lower()


@dataclass(eq=True)
class CreateIndex(Node):
    name: str = ""
    table: str = ""
    columns: List[str] = field(default_factory=list)
    unique: bool = False

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        self.table = self.table.lower()


@dataclass(eq=True)
class CreateSummaryTable(Node):
    """DB2-style AST: ``CREATE SUMMARY TABLE name AS (select ...)``."""

    name: str = ""
    select: Optional[SelectStatement] = None

    def __post_init__(self) -> None:
        self.name = self.name.lower()


@dataclass(eq=True)
class DropTable(Node):
    name: str = ""

    def __post_init__(self) -> None:
        self.name = self.name.lower()


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Insert(Node):
    table: str = ""
    columns: List[str] = field(default_factory=list)
    rows: List[List[Expression]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.table = self.table.lower()
        self.columns = [c.lower() for c in self.columns]


@dataclass(eq=True)
class Delete(Node):
    table: str = ""
    where: Optional[Expression] = None

    def __post_init__(self) -> None:
        self.table = self.table.lower()


@dataclass(eq=True)
class Update(Node):
    table: str = ""
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None

    def __post_init__(self) -> None:
        self.table = self.table.lower()
        self.assignments = [(c.lower(), e) for c, e in self.assignments]


# --------------------------------------------------------------------------
# Transaction control
# --------------------------------------------------------------------------


@dataclass(eq=True)
class BeginTransaction(Node):
    """``BEGIN [WORK | TRANSACTION]`` / ``START TRANSACTION``."""


@dataclass(eq=True)
class CommitTransaction(Node):
    """``COMMIT [WORK | TRANSACTION]``."""


@dataclass(eq=True)
class RollbackTransaction(Node):
    """``ROLLBACK [WORK | TRANSACTION]``."""


Statement = Union[
    SelectStatement,
    UnionAll,
    CreateTable,
    CreateIndex,
    CreateSummaryTable,
    DropTable,
    Insert,
    Delete,
    Update,
    BeginTransaction,
    CommitTransaction,
    RollbackTransaction,
]


def is_query(statement: Statement) -> bool:
    """True for the statements that read and return rows: the ones the
    optimizer plans, a plan cache may hold and a read replica may serve."""
    return isinstance(statement, (SelectStatement, UnionAll))
