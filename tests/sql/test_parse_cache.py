"""The parse cache: a statement of a known shape skips the parser, and
what it returns is ``==`` to a fresh parse of its text.

Every check compares :func:`repro.sql.parser.parse_statement` against a
fresh run of the lexer and ``_Parser`` (``repr`` too, so ``5`` and
``5.0`` differ), and counts the parser's runs: the first statement of a
shape runs it once, a statement whose fixed literals (``LIMIT n``,
``DATE '...'``, ...) match the cached shape's runs it zero times.
"""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sql.parser as parser
from repro import SoftDB
from repro.corpus.generator import generate_corpus
from repro.errors import LexError, ReproError, SqlError
from repro.sql.lexer import tokenize
from repro.sql.tokens import FLOAT_LIT, INTEGER_LIT, STRING_LIT
from repro.workload import queries
from repro.workload.tpc import build_tpc_db
from tests.test_statement_path import SCRIPT, SETUP

pytestmark = pytest.mark.differential

_RUN_PARSER = parser._Parser.statement
_LITERAL_KINDS = (INTEGER_LIT, FLOAT_LIT, STRING_LIT)


@pytest.fixture(autouse=True)
def runs(monkeypatch):
    """Counts runs of the parser; every test starts with no cached shape."""
    counted = [0]

    def statement(self):
        counted[0] += 1
        return _RUN_PARSER(self)

    monkeypatch.setattr(parser._Parser, "statement", statement)
    parser._SHAPES.clear()
    yield counted
    parser._SHAPES.clear()


def fresh(sql):
    """``sql`` through the lexer and the parser, no cache, not counted."""
    state = parser._Parser(tokenize(sql))
    statement = _RUN_PARSER(state)
    state.accept_punct(";")
    state.expect_eof()
    return statement


def parsed_as_fresh(sql):
    got = parser.parse_statement(sql)
    want = fresh(sql)
    assert got == want, sql
    assert repr(got) == repr(want), sql
    return got


def parse_runs(runs, sql):
    """How many times the parser ran for ``sql``; checks the result."""
    before = runs[0]
    parsed_as_fresh(sql)
    return runs[0] - before


def literal_spans(sql):
    """``(position, raw text, token, follows DATE)`` of each literal token
    the lexer finds."""
    spans = []
    tokens = tokenize(sql)
    for index, token in enumerate(tokens):
        if token.kind not in _LITERAL_KINDS:
            continue
        if token.kind == STRING_LIT:
            raw = "'" + token.value.replace("'", "''") + "'"
        else:
            raw = token.text
        assert sql[token.position : token.position + len(raw)] == raw
        after_date = index > 0 and tokens[index - 1].is_keyword("date")
        spans.append((token.position, raw, token, after_date))
    return spans


def twin(sql, bump=1):
    """``sql`` with every literal changed, kind kept (a ``DATE`` string too)."""
    out = []
    at = 0
    for position, raw, token, after_date in literal_spans(sql):
        out.append(sql[at:position])
        if after_date:
            year, rest = token.value.split("-", 1)
            new = f"'{int(year) + bump}-{rest}'"
        elif token.kind == STRING_LIT:
            new = "'" + (token.value + f"z'{bump}").replace("'", "''") + "'"
        elif token.kind == FLOAT_LIT:
            new = repr(token.value * 1.5 + 0.25 * bump)
        else:
            new = str(token.value * 3 + bump)
        out.append(new)
        at = position + len(raw)
    out.append(sql[at:])
    return "".join(out)


def shape_of(sql):
    key, pieces = parser._shape_key(sql)
    return parser._SHAPES.get(key), pieces


# ------------------------------------------------------------------ corpus

WORKLOAD_QUERIES = [
    query.sql
    for workload in (
        queries.correlated_workload(),
        queries.star_workload(),
    )
    for query in workload.queries
] + [queries.monthly_union_sql(["m1", "m2", "m3"], 10, 20)]

CORPUS = sorted(
    set(WORKLOAD_QUERIES)
    | {query.sql for seed in (0, 1) for query in generate_corpus(seed)}
)


def test_corpus_is_large_and_has_literals():
    assert len(CORPUS) > 150
    assert sum(1 for sql in CORPUS if literal_spans(sql)) > 150


@pytest.mark.parametrize("sql", CORPUS)
def test_corpus_query_parses_as_fresh_cold_and_after_a_twin(runs, sql):
    assert parse_runs(runs, sql) == 1
    shape, _ = shape_of(sql)
    other = twin(sql)
    _, other_pieces = parser._shape_key(other)
    _, fixed, _ = shape.layout()
    changed_fixed = any(other_pieces[i] != shape.pieces[i] for i in fixed)
    assert parse_runs(runs, other) == (1 if changed_fixed else 0)
    # The original again, after its twin: a hit on whichever shape is kept.
    assert parse_runs(runs, sql) == (1 if changed_fixed else 0)


def test_most_corpus_twins_skip_the_parser(runs):
    skipped = 0
    for sql in CORPUS:
        parsed_as_fresh(sql)
        skipped += parse_runs(runs, twin(sql)) == 0
    assert skipped >= 0.9 * len(CORPUS)


# -------------------------------------------------------------- edge cases

#: (first, second, whether the second hits the first's shape).
EDGE_CASES = [
    # A date's string becomes a day number: fixed, the shape still caches.
    ("SELECT a FROM t WHERE d = DATE '2001-02-03' AND a = 1",
     "SELECT a FROM t WHERE d = DATE '2001-02-03' AND a = 7", True),
    ("SELECT a FROM t WHERE d = DATE '2001-02-03'",
     "SELECT a FROM t WHERE d = DATE '2001-02-04'", False),
    ("SELECT a FROM t WHERE a = 1 LIMIT 5",
     "SELECT a FROM t WHERE a = 2 LIMIT 5", True),
    ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 6", False),
    ("CREATE TABLE v (a VARCHAR(10), b INT)",
     "CREATE TABLE v (a VARCHAR(20), b INT)", False),
    ("CREATE TABLE v (a INT, CHECK (a > 5))",
     "CREATE TABLE v (a INT, CHECK (a > 6))", False),
    ("SELECT a FROM t WHERE a = -5", "SELECT a FROM t WHERE a = -70", True),
    ("SELECT a FROM t WHERE a > 1.", "SELECT a FROM t WHERE a > .5", True),
    ("SELECT a FROM t WHERE a > 1e5", "SELECT a FROM t WHERE a > 1.e5", True),
    ("SELECT a FROM t WHERE a > 2.5E-3", "SELECT a FROM t WHERE a > 7", True),
    ("SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = 5.0", True),
    ("SELECT a FROM t WHERE s = 'it''s'",
     "SELECT a FROM t WHERE s = 'a''''b'''", True),
    ("SELECT a FROM t WHERE s = ''", "SELECT a FROM t WHERE s = '5'", True),
    ("SELECT a FROM t WHERE s = '5'", "SELECT a FROM t WHERE s = 5", False),
    ("SELECT a FROM t -- 5 'x\n WHERE a = 1",
     "SELECT a FROM t -- 5 'x\n WHERE a = 2", True),
    ("SELECT a FROM t -- 5 'x\n WHERE a = 1",
     "SELECT a FROM t -- 6 'x\n WHERE a = 1", False),
    ("SELECT a /* 5 '' \"q\" */ FROM t WHERE a = 1",
     "SELECT a /* 5 '' \"q\" */ FROM t WHERE a = 9", True),
    ("SELECT t1.c2 FROM t1 WHERE \"x1\" = 1",
     "SELECT t1.c2 FROM t1 WHERE \"x1\" = 2", True),
    ("SELECT t1.c2 FROM t1 WHERE \"x1\" = 1",
     "SELECT t2.c2 FROM t2 WHERE \"x1\" = 1", False),
    ("SELECT a FROM t WHERE a = 1", "select a from t where a = 2", False),
    ("SeLeCt a FrOm t WhErE a = 1", "SeLeCt a FrOm t WhErE a = 2", True),
    ("SELECT a FROM t WHERE a IN (1, 2)",
     "SELECT a FROM t WHERE a IN (3, 4)", True),
    ("SELECT a FROM t WHERE a IN (1, 2)",
     "SELECT a FROM t WHERE a IN (1, 2, 3)", False),
    # Equal values are holes in text order.
    ("UPDATE u SET b = b + 1 WHERE a = 1", "UPDATE u SET b = b + 2 WHERE a = 3", True),
    ("INSERT INTO u VALUES (1, 'x', 1.5), (1, 'x', 1.5)",
     "INSERT INTO u VALUES (2, 'y', 2.5), (3, 'z', 3.5)", True),
    # A value shared with a fixed literal is fixed too.
    ("SELECT a FROM t WHERE a = 5 LIMIT 5", "SELECT a FROM t WHERE a = 6 LIMIT 5", False),
    ("SELECT 1, 'a' FROM t UNION ALL SELECT 2, 'b' FROM u ORDER BY 1 LIMIT 3",
     "SELECT 4, 'c' FROM t UNION ALL SELECT 5, 'd' FROM u ORDER BY 6 LIMIT 3", True),
    ("SELECT a FROM t;", "SELECT a FROM t;", True),
    ("BEGIN", "BEGIN", True),
]


@pytest.mark.parametrize("first, second, hits", EDGE_CASES)
def test_edge_case_parses_as_fresh(runs, first, second, hits):
    assert parse_runs(runs, first) == 1
    assert parse_runs(runs, second) == (0 if hits else 1)
    assert parse_runs(runs, second) == 0


def test_words_quoted_identifiers_and_comments_hold_no_literals():
    key, pieces = parser._shape_key(
        'SELECT t1.c2, "x1" FROM t1 -- 5 \'x\n/* 6 */ WHERE c2 = 3'
    )
    assert pieces == ["3"]
    assert "t1.c2" in key and '"x1"' in key and "-- 5 'x" in key


def test_no_shape_where_the_key_pass_and_the_lexer_read_literals_apart():
    # The property below finds no text they read apart; this is the guard.
    sql = "SELECT a FROM t WHERE a = 5.0 AND s = 'x''y'"
    tokens = tokenize(sql)
    statement = fresh(sql)
    assert parser._Shape.derive(statement, tokens, ["5.0", "'x''y'"], None)
    for pieces in (["5.00", "'x''y'"], ["5", "'x''y'"], ["'5.0'", "'x''y'"],
                   ["5.0", "'x'"], ["5.0", "'xy'"], ["5.0"]):
        assert parser._Shape.derive(statement, tokens, pieces, None) is None


def test_a_text_the_key_pass_cannot_key_always_parses(runs):
    for sql in ('SELECT "é" FROM t WHERE a = 1',
                "SELECT a FROM t WHERE ü = 1",
                "SELECT a FROM t -- é\n",
                "SELECT a FROM t WHERE a = 1 -- \0"):
        assert parser._shape_key(sql) is None
        assert parse_runs(runs, sql) == 1
        assert parse_runs(runs, sql) == 1
    # Non-ASCII inside a string literal is the literal's business.
    assert parse_runs(runs, "SELECT a FROM t WHERE s = 'é'") == 1
    assert parse_runs(runs, "SELECT a FROM t WHERE s = 'ü'") == 0


@pytest.mark.parametrize(
    "sql", ["SELECT a FROM t WHERE", "SELECT a FROM t WHERE a = 'open",
            "SELECT a FROM t LIMIT 1.5", "SELECT a FROM t WHERE d = DATE 'x'"]
)
def test_errors_raise_every_time_and_cache_nothing(sql):
    for _ in range(3):
        with pytest.raises(ReproError) as raised:
            parser.parse_statement(sql)
        with pytest.raises(type(raised.value)):
            fresh(sql)
    assert len(parser._SHAPES) == 0


@pytest.mark.parametrize(
    "sql", ["SELECT 1 " + "/* " * 50000, "SELECT 1 '" + "/* " * 50000,
            'SELECT 1 "' + "/* " * 50000, "SELECT 1 " + "'/* " * 50000],
    ids=["comment", "string", "identifier", "strings"],
)
def test_a_long_unterminated_text_fails_in_linear_time(sql):
    # The key pass runs before the lexer on every text; an unterminated
    # comment, string or identifier must cost it one scan, not one per
    # ``/*`` (quadratic: about a minute for this text).
    started = time.perf_counter()
    with pytest.raises(LexError):
        parser.parse_statement(sql)
    assert time.perf_counter() - started < 1.0
    assert len(parser._SHAPES) == 0


def test_a_fixed_literal_that_stops_a_hit_still_errors_as_fresh():
    parsed_as_fresh("SELECT a FROM t LIMIT 1")
    with pytest.raises(SqlError):
        parser.parse_statement("SELECT a FROM t LIMIT 1.5")
    parsed_as_fresh("SELECT a FROM t WHERE d = DATE '2001-01-01'")
    with pytest.raises(ReproError):
        parser.parse_statement("SELECT a FROM t WHERE d = DATE '2001-13-01'")


# ------------------------------------------------- key pass = lexer (property)

_WORDS = st.sampled_from(
    ["a", "t1", "c_2", "x1e5", "_9", '"x1"', '"a\'b"', "date", "e", "E5"]
)
_NUMBERS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.tuples(st.integers(0, 999), st.integers(0, 999), st.integers(0, 30)).flatmap(
        lambda t: st.sampled_from([
            f"{t[0]}.", f".{t[1]}", f"{t[0]}e{t[2]}", f"{t[0]}.e{t[2]}",
            f"{t[0]}.{t[1]}E-{t[2]}", f"{t[0]}.{t[1]}", f"{t[0]}e+{t[2]}",
        ])
    ),
)
_STRINGS = st.text(alphabet="ab5'-/*\". ", max_size=6).map(
    lambda value: "'" + value.replace("'", "''") + "'"
)
_NOISE = st.sampled_from(
    [" ", "\n", "-- 5 'x\n", "/* 7 '' \"q\" */", ".", "-", "/", "*", "(", ")",
     ",", "=", "'", '"', "e", "+", ";", "--", "/*"]
)
_SOUP = st.lists(st.one_of(_WORDS, _NUMBERS, _STRINGS, _NOISE), max_size=14).map(
    "".join
)


@settings(max_examples=400, deadline=None)
@given(text=_SOUP)
def test_key_pass_finds_the_literals_the_lexer_finds(text):
    """On any text the lexer accepts, the key pass's literal pieces are the
    lexer's literal tokens: same places, same spellings."""
    try:
        spans = literal_spans(text)
    except (SqlError, ValueError):
        return
    pieces = [
        (match.start(), match.group())
        for match in parser._PIECES.finditer(text)
        if match.lastindex
    ]
    assert pieces == [(position, raw) for position, raw, _, _ in spans]


_CASES = st.sampled_from([str.lower, str.upper, str.title])
_LITERALS = st.one_of(_NUMBERS, _STRINGS, _NUMBERS.map(lambda n: "-" + n))


@st.composite
def statement_pairs(draw):
    """Two texts of one key: the same words, comments and case, with
    literals (a ``LIMIT``'s too) drawn independently."""
    case = draw(_CASES)
    gap = draw(st.sampled_from([" ", "  ", "\n", " -- 5 'x\n", " /* 6 */ "]))
    count = draw(st.integers(1, 3))
    columns = draw(st.lists(_WORDS.filter(lambda w: w not in ("date",)),
                            min_size=count, max_size=count))
    operators = draw(st.lists(st.sampled_from(["=", "<", ">=", "<>"]),
                              min_size=count, max_size=count))
    tail = draw(st.sampled_from(["", " LIMIT {}", " ORDER BY a", " LIMIT {};"]))
    limits = draw(st.lists(st.integers(0, 9), min_size=2, max_size=2))
    in_size = draw(st.integers(0, 3))

    def render(literals, limit):
        select = case("select") + gap + "a, " + literals[0]
        where = " and ".join(
            f"{column} {op} {literal}"
            for column, op, literal in zip(columns, operators, literals[1:])
        )
        sql = f"{select} {case('from')}{gap}t1 {case('where')} {where}"
        if in_size:
            listed = ", ".join(literals[1 + count:])
            sql += f" {case('and')} b {case('in')} ({listed})"
        return sql + tail.format(limit)

    needed = 1 + count + in_size
    first = draw(st.lists(_LITERALS, min_size=needed, max_size=needed))
    second = draw(st.lists(_LITERALS, min_size=needed, max_size=needed))
    return render(first, limits[0]), render(second, limits[1])


def _outcome(parse, sql):
    try:
        return parse(sql)
    except (ReproError, ValueError) as error:
        return type(error)


@settings(max_examples=300, deadline=None)
@given(pair=statement_pairs())
def test_generated_pairs_parse_as_fresh_and_cached_shapes_agree(pair):
    parser._SHAPES.clear()
    for sql in pair + pair:
        got = _outcome(parser.parse_statement, sql)
        want = _outcome(fresh, sql)
        assert got == want and repr(got) == repr(want), sql
        key, pieces = parser._shape_key(sql)
        shape = parser._SHAPES.get(key)
        if shape is not None and shape.instantiate(pieces) is not None:
            found = [
                (match.start(), match.group())
                for match in parser._PIECES.finditer(sql)
                if match.lastindex
            ]
            spans = literal_spans(sql)
            assert found == [(position, raw) for position, raw, _, _ in spans]


# --------------------------------------------------------------- no mutation


def test_executing_statements_leaves_their_cached_templates_as_parsed():
    """Every corpus query on a small warehouse and the DML script, each
    through the facade: the template each shape cached still equals a
    fresh parse of the text that made it."""
    templates = []

    def cold_then_execute(db, sql):
        parser._SHAPES.clear()
        template = parser.parse_statement(sql)
        shape, _ = shape_of(sql)
        assert shape.template is template
        templates.append((sql, template, repr(template)))
        for text in (sql, twin(sql, bump=2)):
            try:
                db.execute(text)
            except ReproError:
                pass  # the script's failing statements fail as they should

    warehouse = build_tpc_db(scale_factor=0.05)
    for query in generate_corpus(0):
        cold_then_execute(warehouse, query.sql)
    db = SoftDB()
    for sql in SETUP:
        cold_then_execute(db, sql)
    for sql, _ in SCRIPT:
        cold_then_execute(db, sql)
    assert len(templates) == 106 + len(SETUP) + len(SCRIPT)
    for sql, template, text in templates:
        assert template == fresh(sql), sql
        assert repr(template) == text, sql


# ------------------------------------------------------------ threads, bound


def test_threads_parsing_interleaved_shapes_get_their_own_statements():
    shapes = [
        "SELECT a FROM t WHERE a = {0} AND s = '{0}x'",
        "SELECT b FROM u WHERE b BETWEEN {0} AND {0}.5",
        "UPDATE t SET a = {0} WHERE b = -{0}",
    ]
    wrong = []

    def worker(offset):
        for i in range(300):
            sql = shapes[(i + offset) % len(shapes)].format(i * 2 + offset)
            got = parser.parse_statement(sql)
            if got != fresh(sql) or repr(got) != repr(fresh(sql)):
                wrong.append(sql)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(parser._SHAPES) == len(shapes)


def test_a_shape_is_walked_on_its_first_lookup_not_its_miss(runs):
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 1 AND b = 'x'") == 1
    shape, _ = shape_of("SELECT a FROM t WHERE a = 1 AND b = 'x'")
    assert shape._layout is None
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 2 AND b = 'y'") == 0
    assert shape.layout()[0] == [0, 1]


def test_a_changed_limit_keeps_the_layout_it_replaces(runs):
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 1 LIMIT 5") == 1
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 2 LIMIT 5") == 0
    first, _ = shape_of("SELECT a FROM t WHERE a = 2 LIMIT 5")
    # Another LIMIT parses; its shape is not walked again.
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 3 LIMIT 6") == 1
    second, _ = shape_of("SELECT a FROM t WHERE a = 3 LIMIT 6")
    assert second is not first and second._layout is first._layout
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 4 LIMIT 6") == 0
    # A value equal to the LIMIT is still a hole under the kept layout.
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 6 LIMIT 6") == 0
    assert parse_runs(runs, "SELECT a FROM t WHERE a = 5 LIMIT 5") == 1


def test_the_cache_stays_within_its_capacity_under_a_flood_of_shapes(runs):
    capacity = parser.SHAPE_CAPACITY
    for i in range(capacity + 300):
        parser.parse_statement(f"SELECT c{i} FROM t WHERE c{i} = {i}")
        assert len(parser._SHAPES) <= capacity
    assert len(parser._SHAPES) == capacity
    # The latest shapes are still kept.
    last = capacity + 299
    assert parse_runs(runs, f"SELECT c{last} FROM t WHERE c{last} = 1") == 0
