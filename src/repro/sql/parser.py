"""Recursive-descent parser for the SQL dialect.

Entry points: :func:`parse_statement` for a full statement and
:func:`parse_expression` for a bare scalar/boolean expression (used when
compiling CHECK constraint text and soft-constraint statements).

**The shape cache.**  A parsed statement is a function of its text
alone, and statements that differ only in their literals parse to the
same tree with different :class:`~repro.sql.ast.Literal` leaves.
:func:`parse_statement` therefore keeps one bounded, thread-safe
:class:`~repro.expr.cache.LoweringCache` of statement *shapes*:

* **The key** comes from one pass of :data:`_PIECES` over the text, with
  no tokens built: numbers and ``'...'`` strings (``''`` escapes) are
  the literal pieces, and the key is the rest of the text exactly, each
  piece replaced by a marker of its kind.  Words, ``"quoted"``
  identifiers and comments are never literals (``t1``, ``"x1"``,
  ``-- 5``).  A text holding a NUL or, outside its string literals, any
  non-ASCII character is not keyed and always parses.
* **A miss** runs the lexer and :class:`_Parser`.  The shape is kept
  only if the key pass and the lexer agree on every literal token (a
  number's spelling, a string's value).  Its *holes* are the literals the parser put into a
  ``Literal`` holding their own value and type, each into exactly one,
  matched in text order among literals of equal value.  The rest stay
  *fixed*, and a later text hits only with the same fixed pieces: a
  ``DATE '...'`` string (the parser turns it into a day number),
  ``LIMIT n``, ``VARCHAR(n)``, anything inside a CHECK clause (whose
  text the parser also keeps), and any literal of equal value to one of
  those.  Finding the holes walks the tree, so it waits for the shape's
  first lookup: a text whose key never comes back pays only the key
  pass, the agreement check and an insert.  A text that differs in a
  fixed piece parses and replaces the shape, keeping where its holes
  sit.  A lex or parse error raises as it always did and caches
  nothing.
* **A hit** converts each hole's text to its value and rebuilds only the
  spine from the root to each hole; every literal-free subtree is the
  cached template's own, as :func:`~repro.sql.lifting.lift` shares what
  it does not touch.  The result is ``==`` to a fresh parse, so nothing
  may mutate a parsed statement (nothing does: the optimizer copies what
  it rewrites).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.engine.types import parse_date_literal
from repro.errors import ParseError
from repro.expr.cache import LoweringCache
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import (
    EOF,
    FLOAT_LIT,
    IDENT,
    INTEGER_LIT,
    KEYWORD,
    OPERATOR,
    PUNCT,
    STRING_LIT,
    Token,
)

# Keywords that may also appear as ordinary identifiers (column/table
# names) when the grammar position demands a name.
_NONRESERVED = frozenset(
    ["count", "sum", "avg", "min", "max", "abs", "date", "key", "index",
     "summary", "view", "check", "set", "all", "asc", "desc", "left",
     "right", "year", "month", "work", "transaction", "start"]
)

_COMPARISONS = frozenset(["=", "<>", "!=", "<", "<=", ">", ">="])
_AGG_NAMES = ast.FunctionCall.AGGREGATES | frozenset(["abs"])


def parse_statement(sql: str) -> ast.Statement:
    """Parse one SQL statement (a trailing ``;`` is allowed).

    A text whose shape was parsed before skips the parser (see the
    module docstring); the statement returned is shared with the cache
    and must not be mutated.
    """
    keyed = _shape_key(sql)
    shape = None
    if keyed is not None:
        key, pieces = keyed
        shape = _SHAPES.get(key)
        if shape is not None:
            statement = shape.instantiate(pieces)
            if statement is not None:
                return statement
    tokens = tokenize(sql)
    parser = _Parser(tokens)
    statement = parser.statement()
    parser.accept_punct(";")
    parser.expect_eof()
    if keyed is not None:
        shape = _Shape.derive(statement, tokens, pieces, shape)
        if shape is not None:
            _SHAPES.put(key, shape)
    return statement


def parse_expression(sql: str) -> ast.Expression:
    """Parse a bare expression, e.g. a CHECK condition."""
    parser = _Parser(tokenize(sql))
    expression = parser.expression()
    parser.expect_eof()
    return expression


# ------------------------------------------------------------- shape cache

#: Statement shapes kept.  A shape costs about 3.3 KB (template, key and
#: spine, measured over the 106-query corpus); a full cache added 3.4 MB
#: to a process's peak RSS, 7 % of the benchmark's ``template_point``
#: peak, while the corpus, the DML scripts and the benchmark's workloads
#: need under a hundred shapes.  As many as a plan cache keeps.
SHAPE_CAPACITY = 1024

_SHAPES = LoweringCache(SHAPE_CAPACITY)

#: The key pass.  Every piece starts with one of a few characters, which
#: the regex engine skips to; a match with no group (a comment or a
#: ``"identifier"``) stays in the key whole, group 1 is a string literal
#: and group 2 a number.  A digit right after a word character belongs to
#: that word (``t1``); ``.5`` always starts a number, as for the lexer.
#: An unterminated block comment runs to the end of the text (the lexer
#: then raises), so the pass stays linear however many ``/*`` follow.
_PIECES = re.compile(
    r"""[-/"'.0-9](?:
          (?<=-)-[^\n]*
        | (?<=/)\*.*?(?:\*/|\Z)
        | (?<=")[^"]*"
        | (?<=')((?:[^']|'')*')
        | ((?:(?<=\.)[0-9]+|(?<=[0-9])(?<![A-Za-z0-9_][0-9])[0-9]*\.?[0-9]*)
           (?:[eE][+-]?[0-9]+)?))""",
    re.VERBOSE | re.DOTALL,
)

_LITERAL_KINDS = frozenset([INTEGER_LIT, FLOAT_LIT, STRING_LIT])


def _shape_key(sql: str) -> Optional[Tuple[str, List[str]]]:
    """``(key, literal pieces in text order)``, or ``None`` for a text
    that is not keyed."""
    if "\0" in sql:
        return None
    pieces: List[str] = []

    def literal(match: "re.Match[str]") -> str:
        kind = match.lastindex
        if kind is None:
            return match.group()
        pieces.append(match.group())
        return "\0'" if kind == 1 else "\0#"

    key = _PIECES.sub(literal, sql)
    if not key.isascii():
        return None
    return key, pieces


def _value(piece: str) -> Any:
    """A literal piece's value, as the lexer computes it."""
    if piece[0] == "'":
        return piece[1:-1].replace("''", "'")
    return int(piece) if piece.isdigit() else float(piece)


class _Shape:
    """A cached statement and the literal pieces of the text that made it.

    Where its holes sit (its *layout*) is worked out on the shape's first
    lookup, not when it is made: a text whose shape never comes back pays
    its miss the key pass, the agreement check and an insert, but no walk
    of its tree.  A shape that replaces one of the same key whose fixed
    pieces differed (``LIMIT n`` changing) keeps that one's layout, so
    such a key is walked once, not once per change: the parser puts a
    literal where its token sequence says, whatever the literals' values,
    which is what every hit relies on too.
    """

    __slots__ = ("template", "pieces", "_layout")

    def __init__(self, template: Any, pieces: List[str],
                 layout: Optional[tuple]) -> None:
        self.template = template
        self.pieces = pieces
        self._layout = layout

    @classmethod
    def derive(cls, statement: Any, tokens: List[Token], pieces: List[str],
               replaced: Optional["_Shape"]) -> Optional["_Shape"]:
        """The shape of a freshly parsed statement, or ``None`` when the key
        pass and the lexer disagree on its literals.  ``replaced`` is the
        shape its text missed on, if any."""
        literals = [token for token in tokens if token.kind in _LITERAL_KINDS]
        if len(literals) != len(pieces):
            return None
        for token, piece in zip(literals, pieces):
            if token.kind == STRING_LIT:
                if _value(piece) != token.value:
                    return None
            elif token.text != piece:
                return None
        return cls(statement, pieces, replaced and replaced._layout)

    def layout(self) -> Tuple[List[int], List[int], dict]:
        """``(holes, fixed, spine)``: ``holes`` and ``fixed`` are piece
        indices in text order; ``spine`` nests dicts keyed by attribute
        name or list index down to each hole's ordinal.  Two threads may
        both work it out; the results are equal."""
        layout = self._layout
        if layout is None:
            layout = self._layout = _locate(self.template, self.pieces)
        return layout

    def instantiate(self, pieces: List[str]) -> Any:
        """The statement of a text of this shape, or ``None`` when the
        text's fixed pieces differ."""
        holes, fixed, spine = self.layout()
        mine = self.pieces
        for index in fixed:
            if pieces[index] != mine[index]:
                return None
        if not holes:
            return self.template
        values = [_value(pieces[index]) for index in holes]
        return _rebuild(self.template, spine, values)


def _locate(statement: Any, pieces: List[str]) -> tuple:
    """:meth:`_Shape.layout` of ``statement`` parsed from a text whose
    literal pieces are ``pieces``."""
    values = [(type(value), value) for value in map(_value, pieces)]
    paths: Dict[Any, List[Tuple[Any, ...]]] = {}
    _find_literals(statement, (), paths)
    counts = Counter(values)
    taken: Counter = Counter()
    holes: List[int] = []
    fixed: List[int] = []
    spine: dict = {}
    for index, value in enumerate(values):
        found = paths.get(value, ())
        if len(found) != counts[value]:
            fixed.append(index)
            continue
        path = found[taken[value]]
        taken[value] += 1
        below = spine
        for step in path[:-1]:
            below = below.setdefault(step, {})
        below[path[-1]] = len(holes)
        holes.append(index)
    return holes, fixed, spine


def _find_literals(node: Any, path: Tuple[Any, ...],
                   paths: Dict[Any, List[Tuple[Any, ...]]]) -> None:
    """Note the path to every hole-able ``Literal`` under ``node``, by
    ``(type, value)`` in text order (every node's fields are in the order
    their text comes in).  A CHECK clause is skipped: its text repeats its
    literals."""
    if type(node) is ast.Literal:
        kind = type(node.value)
        if not node.is_date and kind in (int, float, str):
            paths.setdefault((kind, node.value), []).append(path)
    elif isinstance(node, (list, tuple)):
        for index, item in enumerate(node):
            _find_literals(item, path + (index,), paths)
    elif isinstance(node, ast.Node) and not isinstance(node, ast.CheckDef):
        for name, item in vars(node).items():
            _find_literals(item, path + (name,), paths)


def _rebuild(node: Any, spine: Any, values: List[Any]) -> Any:
    """``node`` with each hole under ``spine`` holding its new value;
    nothing off the path to a hole is copied."""
    if type(spine) is int:
        return ast.Literal(values[spine])
    if isinstance(node, (list, tuple)):
        items = list(node)
        for step, below in spine.items():
            items[step] = _rebuild(items[step], below, values)
        return items if type(node) is list else tuple(items)
    clone = object.__new__(type(node))
    fields = clone.__dict__
    fields.update(vars(node))
    for step, below in spine.items():
        fields[step] = _rebuild(fields[step], below, values)
    return clone


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._at = 0

    # ------------------------------------------------------------- plumbing

    @property
    def current(self) -> Token:
        return self._tokens[self._at]

    def advance(self) -> Token:
        token = self._tokens[self._at]
        if token.kind != EOF:
            self._at += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.current
        where = f" near {token.text!r}" if token.text else " at end of input"
        return ParseError(message + where, token.position)

    def accept_keyword(self, *words: str) -> Optional[Token]:
        if self.current.is_keyword(*words):
            return self.advance()
        return None

    def expect_keyword(self, *words: str) -> Token:
        token = self.accept_keyword(*words)
        if token is None:
            raise self.error(f"expected {'/'.join(w.upper() for w in words)}")
        return token

    def accept_punct(self, punct: str) -> Optional[Token]:
        if self.current.kind == PUNCT and self.current.value == punct:
            return self.advance()
        return None

    def expect_punct(self, punct: str) -> Token:
        token = self.accept_punct(punct)
        if token is None:
            raise self.error(f"expected {punct!r}")
        return token

    def accept_operator(self, *ops: str) -> Optional[Token]:
        if self.current.kind == OPERATOR and self.current.value in ops:
            return self.advance()
        return None

    def expect_eof(self) -> None:
        if self.current.kind != EOF:
            raise self.error("unexpected trailing input")

    def identifier(self) -> str:
        """An identifier, allowing the non-reserved keyword set."""
        token = self.current
        if token.kind == IDENT:
            return self.advance().value
        if token.kind == KEYWORD and token.value in _NONRESERVED:
            return self.advance().value
        raise self.error("expected identifier")

    # ------------------------------------------------------------ statements

    def statement(self) -> ast.Statement:
        token = self.current
        if token.is_keyword("select") or (
            token.kind == PUNCT and token.value == "("
        ):
            return self.select_or_union()
        if token.is_keyword("create"):
            return self.create_statement()
        if token.is_keyword("insert"):
            return self.insert_statement()
        if token.is_keyword("delete"):
            return self.delete_statement()
        if token.is_keyword("update"):
            return self.update_statement()
        if token.is_keyword("drop"):
            return self.drop_statement()
        if token.is_keyword("begin", "start"):
            return self.begin_statement()
        if token.is_keyword("commit"):
            self.advance()
            self.accept_keyword("work") or self.accept_keyword("transaction")
            return ast.CommitTransaction()
        if token.is_keyword("rollback"):
            self.advance()
            self.accept_keyword("work") or self.accept_keyword("transaction")
            return ast.RollbackTransaction()
        raise self.error("expected a statement")

    def begin_statement(self) -> ast.BeginTransaction:
        """``BEGIN [WORK | TRANSACTION]`` or ``START TRANSACTION``."""
        if self.accept_keyword("start"):
            self.expect_keyword("transaction")
        else:
            self.expect_keyword("begin")
            self.accept_keyword("work") or self.accept_keyword("transaction")
        return ast.BeginTransaction()

    # -- SELECT / UNION ALL ------------------------------------------------

    def select_or_union(self) -> Union[ast.SelectStatement, ast.UnionAll]:
        if self.accept_punct("("):
            first = self.select_statement(allow_tail=True)
            self.expect_punct(")")
        else:
            first = self.select_statement(allow_tail=True)
        branches = [first]
        while self.accept_keyword("union"):
            self.expect_keyword("all")
            if self.accept_punct("("):
                branch = self.select_statement(allow_tail=True)
                self.expect_punct(")")
            else:
                branch = self.select_statement(allow_tail=False)
            branches.append(branch)
        if len(branches) == 1:
            return first
        union = ast.UnionAll(branches=branches)
        union.order_by = self.order_by_clause()
        union.limit = self.limit_clause()
        return union

    def select_statement(self, allow_tail: bool = True) -> ast.SelectStatement:
        self.expect_keyword("select")
        statement = ast.SelectStatement()
        statement.distinct = self.accept_keyword("distinct") is not None
        statement.select_items = self.select_items()
        if self.accept_keyword("from"):
            statement.from_clause = self.from_clause()
        if self.accept_keyword("where"):
            statement.where = self.expression()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            statement.group_by = self.expression_list()
            if self.accept_keyword("having"):
                statement.having = self.expression()
        if allow_tail:
            statement.order_by = self.order_by_clause()
            statement.limit = self.limit_clause()
        return statement

    def select_items(self) -> List[ast.SelectItem]:
        items = [self.select_item()]
        while self.accept_punct(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> ast.SelectItem:
        if self.current.kind == OPERATOR and self.current.value == "*":
            self.advance()
            return ast.SelectItem(star=True)
        # "t.*" needs two tokens of lookahead
        if self.current.kind in (IDENT, KEYWORD):
            nxt = self._tokens[self._at + 1 : self._at + 3]
            if (
                len(nxt) == 2
                and nxt[0].kind == PUNCT
                and nxt[0].value == "."
                and nxt[1].kind == OPERATOR
                and nxt[1].value == "*"
            ):
                table = self.identifier()
                self.expect_punct(".")
                self.advance()  # the *
                return ast.SelectItem(star=True, star_table=table)
        expression = self.expression()
        alias = None
        if self.accept_keyword("as"):
            alias = self.identifier()
        elif self.current.kind == IDENT:
            alias = self.advance().value
        return ast.SelectItem(expression=expression, alias=alias)

    def from_clause(self) -> List[Union[ast.TableRef, ast.Join]]:
        refs = [self.table_expression()]
        while self.accept_punct(","):
            refs.append(self.table_expression())
        return refs

    def table_expression(self) -> Union[ast.TableRef, ast.Join]:
        left: Union[ast.TableRef, ast.Join] = self.table_primary()
        while True:
            kind = None
            if self.accept_keyword("inner"):
                kind = "inner"
                self.expect_keyword("join")
            elif self.accept_keyword("cross"):
                kind = "cross"
                self.expect_keyword("join")
            elif self.accept_keyword("left"):
                kind = "left"
                self.accept_keyword("outer")
                self.expect_keyword("join")
            elif self.accept_keyword("join"):
                kind = "inner"
            if kind is None:
                return left
            right = self.table_primary()
            condition = None
            if kind != "cross":
                self.expect_keyword("on")
                condition = self.expression()
            left = ast.Join(kind=kind, left=left, right=right, condition=condition)

    def table_primary(self) -> ast.TableRef:
        name = self.identifier()
        alias = None
        if self.accept_keyword("as"):
            alias = self.identifier()
        elif self.current.kind == IDENT:
            alias = self.advance().value
        return ast.TableRef(name=name, alias=alias)

    def order_by_clause(self) -> List[ast.OrderItem]:
        if not self.accept_keyword("order"):
            return []
        self.expect_keyword("by")
        items = [self.order_item()]
        while self.accept_punct(","):
            items.append(self.order_item())
        return items

    def order_item(self) -> ast.OrderItem:
        expression = self.expression()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expression=expression, ascending=ascending)

    def limit_clause(self) -> Optional[int]:
        if not self.accept_keyword("limit"):
            return None
        token = self.current
        if token.kind != INTEGER_LIT:
            raise self.error("expected integer after LIMIT")
        self.advance()
        return token.value

    # -- CREATE ----------------------------------------------------------------

    def create_statement(self) -> ast.Statement:
        self.expect_keyword("create")
        if self.accept_keyword("summary"):
            self.expect_keyword("table")
            return self.create_summary_table()
        if self.accept_keyword("unique"):
            self.expect_keyword("index")
            return self.create_index(unique=True)
        if self.accept_keyword("index"):
            return self.create_index(unique=False)
        self.expect_keyword("table")
        return self.create_table()

    def create_table(self) -> ast.CreateTable:
        name = self.identifier()
        self.expect_punct("(")
        node = ast.CreateTable(name=name)
        while True:
            if self.current.is_keyword(
                "primary", "unique", "foreign", "check", "constraint"
            ) and not self._looks_like_column_def():
                node.constraints.append(self.table_constraint())
            else:
                column, inline = self.column_def()
                node.columns.append(column)
                node.constraints.extend(inline)
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return node

    def _looks_like_column_def(self) -> bool:
        """Disambiguate e.g. a column named ``check`` from a CHECK clause."""
        token = self.current
        if token.kind != KEYWORD or token.value not in _NONRESERVED:
            return False
        nxt = self._tokens[self._at + 1]
        return nxt.kind in (IDENT, KEYWORD) and not nxt.is_keyword("key")

    def column_def(self) -> Tuple[ast.ColumnDef, List[ast.ConstraintDef]]:
        name = self.identifier()
        type_token = self.current
        if type_token.kind not in (KEYWORD, IDENT):
            raise self.error("expected a type name")
        self.advance()
        length = None
        if self.accept_punct("("):
            size_token = self.current
            if size_token.kind != INTEGER_LIT:
                raise self.error("expected a length")
            self.advance()
            length = size_token.value
            self.expect_punct(")")
        column = ast.ColumnDef(
            name=name, type_name=type_token.value, length=length
        )
        inline: List[ast.ConstraintDef] = []
        while True:
            if self.accept_keyword("not"):
                if self.accept_keyword("null"):
                    column.not_null = True
                    continue
                if self.accept_keyword("enforced"):
                    # NOT ENFORCED trailing a previous inline constraint
                    if inline:
                        _set_enforced(inline[-1], False)
                        continue
                    raise self.error("NOT ENFORCED without a constraint")
                raise self.error("expected NULL or ENFORCED after NOT")
            if self.accept_keyword("primary"):
                self.expect_keyword("key")
                column.primary_key = True
                inline.append(ast.PrimaryKeyDef(columns=[column.name]))
                continue
            if self.accept_keyword("unique"):
                inline.append(ast.UniqueDef(columns=[column.name]))
                continue
            if self.accept_keyword("references"):
                parent = self.identifier()
                parent_columns: List[str] = []
                if self.accept_punct("("):
                    parent_columns = self.identifier_list()
                    self.expect_punct(")")
                inline.append(
                    ast.ForeignKeyDef(
                        columns=[column.name],
                        parent_table=parent,
                        parent_columns=parent_columns,
                    )
                )
                continue
            if self.current.is_keyword("check"):
                inline.append(self.check_clause())
                continue
            if self.accept_keyword("enforced"):
                if inline:
                    _set_enforced(inline[-1], True)
                    continue
                raise self.error("ENFORCED without a constraint")
            break
        return column, inline

    def table_constraint(self) -> ast.ConstraintDef:
        name = None
        if self.accept_keyword("constraint"):
            name = self.identifier()
        if self.accept_keyword("primary"):
            self.expect_keyword("key")
            self.expect_punct("(")
            columns = self.identifier_list()
            self.expect_punct(")")
            definition: ast.ConstraintDef = ast.PrimaryKeyDef(
                columns=columns, name=name
            )
        elif self.accept_keyword("unique"):
            self.expect_punct("(")
            columns = self.identifier_list()
            self.expect_punct(")")
            definition = ast.UniqueDef(columns=columns, name=name)
        elif self.accept_keyword("foreign"):
            self.expect_keyword("key")
            self.expect_punct("(")
            columns = self.identifier_list()
            self.expect_punct(")")
            self.expect_keyword("references")
            parent = self.identifier()
            parent_columns: List[str] = []
            if self.accept_punct("("):
                parent_columns = self.identifier_list()
                self.expect_punct(")")
            definition = ast.ForeignKeyDef(
                columns=columns,
                parent_table=parent,
                parent_columns=parent_columns,
                name=name,
            )
        elif self.current.is_keyword("check"):
            definition = self.check_clause()
            definition.name = name
        else:
            raise self.error("expected a table constraint")
        self.enforcement_suffix(definition)
        return definition

    def check_clause(self) -> ast.CheckDef:
        self.expect_keyword("check")
        self.expect_punct("(")
        start = self.current.position
        expression = self.expression()
        end = self.current.position
        self.expect_punct(")")
        # Reconstruct the original text span for catalog display.
        sql_text = _source_slice(self._tokens, start, end)
        return ast.CheckDef(expression=expression, sql_text=sql_text)

    def enforcement_suffix(self, definition: ast.ConstraintDef) -> None:
        if self.accept_keyword("not"):
            self.expect_keyword("enforced")
            _set_enforced(definition, False)
        elif self.accept_keyword("enforced"):
            _set_enforced(definition, True)

    def create_index(self, unique: bool) -> ast.CreateIndex:
        name = self.identifier()
        self.expect_keyword("on")
        table = self.identifier()
        self.expect_punct("(")
        columns = self.identifier_list()
        self.expect_punct(")")
        return ast.CreateIndex(
            name=name, table=table, columns=columns, unique=unique
        )

    def create_summary_table(self) -> ast.CreateSummaryTable:
        name = self.identifier()
        self.expect_keyword("as")
        self.expect_punct("(")
        select = self.select_statement(allow_tail=False)
        self.expect_punct(")")
        return ast.CreateSummaryTable(name=name, select=select)

    def drop_statement(self) -> ast.DropTable:
        self.expect_keyword("drop")
        self.expect_keyword("table")
        return ast.DropTable(name=self.identifier())

    # -- DML ----------------------------------------------------------------------

    def insert_statement(self) -> ast.Insert:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.identifier()
        columns: List[str] = []
        if self.accept_punct("("):
            columns = self.identifier_list()
            self.expect_punct(")")
        self.expect_keyword("values")
        rows: List[List[ast.Expression]] = []
        while True:
            self.expect_punct("(")
            rows.append(self.expression_list())
            self.expect_punct(")")
            if not self.accept_punct(","):
                break
        return ast.Insert(table=table, columns=columns, rows=rows)

    def delete_statement(self) -> ast.Delete:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.identifier()
        where = None
        if self.accept_keyword("where"):
            where = self.expression()
        return ast.Delete(table=table, where=where)

    def update_statement(self) -> ast.Update:
        self.expect_keyword("update")
        table = self.identifier()
        self.expect_keyword("set")
        assignments: List[Tuple[str, ast.Expression]] = []
        while True:
            column = self.identifier()
            if self.accept_operator("=") is None:
                raise self.error("expected '=' in SET")
            assignments.append((column, self.expression()))
            if not self.accept_punct(","):
                break
        where = None
        if self.accept_keyword("where"):
            where = self.expression()
        return ast.Update(table=table, assignments=assignments, where=where)

    # ------------------------------------------------------------ expressions

    def expression_list(self) -> List[ast.Expression]:
        items = [self.expression()]
        while self.accept_punct(","):
            items.append(self.expression())
        return items

    def identifier_list(self) -> List[str]:
        items = [self.identifier()]
        while self.accept_punct(","):
            items.append(self.identifier())
        return items

    def expression(self) -> ast.Expression:
        return self.or_expression()

    def or_expression(self) -> ast.Expression:
        left = self.and_expression()
        while self.accept_keyword("or"):
            left = ast.BinaryOp("or", left, self.and_expression())
        return left

    def and_expression(self) -> ast.Expression:
        left = self.not_expression()
        while self.accept_keyword("and"):
            left = ast.BinaryOp("and", left, self.not_expression())
        return left

    def not_expression(self) -> ast.Expression:
        if self.accept_keyword("not"):
            return ast.UnaryOp("not", self.not_expression())
        return self.predicate()

    def predicate(self) -> ast.Expression:
        left = self.additive()
        token = self.accept_operator(*_COMPARISONS)
        if token is not None:
            op = "<>" if token.value == "!=" else token.value
            return ast.BinaryOp(op, left, self.additive())
        negated = False
        if self.current.is_keyword("not"):
            nxt = self._tokens[self._at + 1]
            if nxt.is_keyword("between", "in", "like"):
                self.advance()
                negated = True
        if self.accept_keyword("between"):
            low = self.additive()
            self.expect_keyword("and")
            high = self.additive()
            return ast.BetweenExpr(left, low, high, negated=negated)
        if self.accept_keyword("in"):
            self.expect_punct("(")
            items = tuple(self.expression_list())
            self.expect_punct(")")
            return ast.InExpr(left, items, negated=negated)
        if self.accept_keyword("like"):
            pattern = self.additive()
            node: ast.Expression = ast.BinaryOp("like", left, pattern)
            if negated:
                node = ast.UnaryOp("not", node)
            return node
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not") is not None
            self.expect_keyword("null")
            return ast.IsNullExpr(left, negated=is_negated)
        return left

    def additive(self) -> ast.Expression:
        left = self.multiplicative()
        while True:
            token = self.accept_operator("+", "-")
            if token is None:
                return left
            left = ast.BinaryOp(token.value, left, self.multiplicative())

    def multiplicative(self) -> ast.Expression:
        left = self.unary()
        while True:
            token = self.accept_operator("*", "/", "%")
            if token is None:
                return left
            left = ast.BinaryOp(token.value, left, self.unary())

    def unary(self) -> ast.Expression:
        if self.accept_operator("-"):
            return ast.UnaryOp("-", self.unary())
        if self.accept_operator("+"):
            return self.unary()
        return self.primary()

    def primary(self) -> ast.Expression:
        token = self.current
        if token.kind == INTEGER_LIT or token.kind == FLOAT_LIT:
            self.advance()
            return ast.Literal(token.value)
        if token.kind == STRING_LIT:
            self.advance()
            return ast.Literal(token.value)
        if token.is_keyword("true"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("null"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("date"):
            nxt = self._tokens[self._at + 1]
            if nxt.kind == STRING_LIT:
                self.advance()
                self.advance()
                return ast.Literal(parse_date_literal(nxt.value), is_date=True)
        if self.accept_punct("("):
            expression = self.expression()
            self.expect_punct(")")
            return expression
        if token.kind in (IDENT, KEYWORD):
            # function call?
            nxt = self._tokens[self._at + 1]
            is_function = (
                nxt.kind == PUNCT
                and nxt.value == "("
                and (token.kind == IDENT or token.value in _AGG_NAMES)
            )
            if is_function:
                return self.function_call()
            return self.column_reference()
        raise self.error("expected an expression")

    def function_call(self) -> ast.FunctionCall:
        name = self.advance().value
        self.expect_punct("(")
        if self.current.kind == OPERATOR and self.current.value == "*":
            self.advance()
            self.expect_punct(")")
            return ast.FunctionCall(name=name, star=True)
        distinct = self.accept_keyword("distinct") is not None
        args: List[ast.Expression] = []
        if not (self.current.kind == PUNCT and self.current.value == ")"):
            args = self.expression_list()
        self.expect_punct(")")
        return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct)

    def column_reference(self) -> ast.ColumnRef:
        first = self.identifier()
        if self.accept_punct("."):
            second = self.identifier()
            return ast.ColumnRef(column=second, table=first)
        return ast.ColumnRef(column=first)


def _set_enforced(definition: ast.ConstraintDef, enforced: bool) -> None:
    definition.enforced = enforced


def _source_slice(tokens: List[Token], start: int, end: int) -> str:
    """Reassemble the token texts covering [start, end) for display."""
    parts: List[str] = []
    for token in tokens:
        if token.position < start or token.kind == EOF:
            continue
        if token.position >= end:
            break
        text = token.text
        if token.kind == STRING_LIT:
            text = "'" + text.replace("'", "''") + "'"
        parts.append(text)
    return " ".join(parts)
