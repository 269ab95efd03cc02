"""Tests for the optimizer facade, EXPLAIN, and the plan cache."""

import pytest

from repro.errors import OptimizerError
from repro.optimizer.explain import explain
from repro.optimizer.planner import Optimizer, OptimizerConfig, PlanCache
from repro.softcon.checksc import CheckSoftConstraint
from repro.softcon.maintenance import DropPolicy


class TestOptimizeBasics:
    def test_accepts_sql_text(self, sales_softdb):
        plan = sales_softdb.optimizer.optimize("SELECT id FROM sale")
        assert plan.output_names == ["id"]

    def test_accepts_parsed_statement(self, sales_softdb):
        from repro.sql.parser import parse_statement

        statement = parse_statement("SELECT id FROM sale")
        plan = sales_softdb.optimizer.optimize(statement)
        assert plan.output_names == ["id"]

    def test_rejects_dml(self, sales_softdb):
        with pytest.raises(OptimizerError):
            sales_softdb.optimizer.optimize("DELETE FROM sale")

    def test_estimates_populated(self, sales_softdb):
        plan = sales_softdb.optimizer.optimize(
            "SELECT id FROM sale WHERE day = 7"
        )
        assert plan.estimated_rows > 0
        assert plan.estimated_cost > 0

    def test_explain_renders_tree_and_provenance(self, sales_softdb):
        text = sales_softdb.explain(
            "SELECT region, count(*) AS n FROM sale WHERE day < 10 "
            "GROUP BY region ORDER BY n DESC LIMIT 2"
        )
        assert "GroupBy" in text
        assert "Sort" in text
        assert "Limit" in text
        assert "rows~" in text

    def test_union_compilation(self, sales_softdb):
        plan = sales_softdb.optimizer.optimize(
            "SELECT id FROM sale WHERE day = 1 "
            "UNION ALL SELECT id FROM sale WHERE day = 2"
        )
        from repro.optimizer.physical import UnionAll

        assert isinstance(plan.root, UnionAll)


class TestPlanCache:
    def test_hit_returns_same_object(self, sales_softdb):
        cache = PlanCache(sales_softdb.optimizer)
        first = cache.get_plan("SELECT id FROM sale")
        second = cache.get_plan("SELECT id FROM sale")
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidation_on_sc_overturn(self, sales_softdb):
        sc = CheckSoftConstraint("day_cap", "sale", "day <= 49")
        sales_softdb.add_soft_constraint(sc, policy=DropPolicy())
        # Force a plan that depends on the SC (min/max style knockout on
        # an out-of-range query uses it via branch logic; simplest: depend
        # through twinning/introduction is fiddly here, so register the
        # dependency path via a real query below).
        cache = PlanCache(sales_softdb.optimizer)
        plan = cache.get_plan("SELECT id FROM sale WHERE day = 7")
        # Manually register a dependency to exercise the eviction path.
        plan.sc_dependencies.add("day_cap")
        sales_softdb.database.catalog.on_invalidate(
            "softconstraint:day_cap",
            lambda _dep: cache._evict(plan),
        )
        sales_softdb.execute("INSERT INTO sale VALUES (9999, 99, 1.0, 'east')")
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_automatic_dependency_registration(self):
        """End to end: a plan using an ASC is evicted when it overturns."""
        from repro.workload.schemas import build_correlated_table
        from repro.discovery.linear_miner import mine_linear_correlations

        db = build_correlated_table(rows=1500, noise=5.0, seed=5)
        (asc,) = mine_linear_correlations(
            db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
        )
        db.add_soft_constraint(asc, policy=DropPolicy(), verify_first=True)
        cache = PlanCache(db.optimizer)
        plan = cache.get_plan("SELECT id FROM meas WHERE b = 500.0")
        assert asc.name in plan.sc_dependencies
        assert len(cache) == 1
        # An insert far off the correlation line overturns the ASC...
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")
        # ...and the dependent plan is gone.
        assert cache.invalidations == 1
        assert len(cache) == 0
        # Recompiling yields a plan without the (now overturned) rewrite.
        fresh = cache.get_plan("SELECT id FROM meas WHERE b = 500.0")
        assert asc.name not in fresh.sc_dependencies

    def test_clear(self, sales_softdb):
        cache = PlanCache(sales_softdb.optimizer)
        cache.get_plan("SELECT id FROM sale")
        cache.clear()
        assert len(cache) == 0
        assert cache.backups == 0

    def test_no_duplicate_hooks_across_recompiles(self):
        """Repeated miss/recompile cycles for one SQL keep exactly one
        live catalog hook per (channel, sql) instead of accumulating."""
        from repro.workload.schemas import build_correlated_table
        from repro.discovery.linear_miner import mine_linear_correlations

        db = build_correlated_table(rows=1500, noise=5.0, seed=5)
        (asc,) = mine_linear_correlations(
            db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
        )
        db.add_soft_constraint(asc, policy=DropPolicy(), verify_first=True)
        cache = PlanCache(db.optimizer)
        sql = "SELECT id FROM meas WHERE b = 500.0"
        channel = f"softconstraint:{asc.name}"
        hooks = db.database.catalog._invalidation_hooks
        for _ in range(4):
            plan = cache.get_plan(sql)
            assert asc.name in plan.sc_dependencies
            assert len(hooks.get(channel, [])) == 1
            # Drop the entry directly (no hook fires) and recompile: the
            # live hook must be reused, not re-registered.
            cache.clear()
        # A real invalidation fires the single hook and evicts the entry.
        cache.get_plan(sql)
        fired = db.database.catalog.fire_invalidation(channel)
        assert fired == 1
        assert cache.invalidations == 1
        assert len(cache) == 0
        assert channel not in hooks

    def test_hook_reregistered_after_firing(self):
        """After an overturn pops the hook, a recompile hooks up again."""
        from repro.workload.schemas import build_correlated_table
        from repro.discovery.linear_miner import mine_linear_correlations

        db = build_correlated_table(rows=1500, noise=5.0, seed=5)
        (asc,) = mine_linear_correlations(
            db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
        )
        db.add_soft_constraint(asc, policy=DropPolicy(), verify_first=True)
        cache = PlanCache(db.optimizer)
        sql = "SELECT id FROM meas WHERE b = 500.0"
        cache.get_plan(sql)
        # Overturn: hook fires, plan evicted, pair unregistered.
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")
        assert cache.invalidations == 1 and len(cache) == 0
        # Recompile: the new plan no longer depends on the dropped ASC,
        # so no hook; the tracking set must not block future SQL either.
        fresh = cache.get_plan(sql)
        assert asc.name not in fresh.sc_dependencies


class TestExpressionCompilation:
    @staticmethod
    def _nodes(plan):
        out = []
        stack = [plan.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children())
        return out

    def test_plans_compiled_by_default(self, sales_softdb):
        plan = sales_softdb.optimizer.optimize(
            "SELECT region, count(*) AS n FROM sale WHERE day < 10 "
            "GROUP BY region ORDER BY n DESC"
        )
        assert plan.compiled
        attached = [
            node
            for node in self._nodes(plan)
            if any(
                getattr(node, name) is not None
                for name in dir(node)
                if name.startswith("compiled_")
            )
        ]
        assert attached, "no node carries a compiled closure"

    def test_escape_hatch_restores_interpreted(self, sales_softdb):
        config = OptimizerConfig(compile_expressions=False)
        optimizer = Optimizer(
            sales_softdb.database, sales_softdb.registry, config
        )
        plan = optimizer.optimize(
            "SELECT region, count(*) AS n FROM sale WHERE day < 10 "
            "GROUP BY region ORDER BY n DESC"
        )
        assert not plan.compiled
        assert plan.compile_cache_hits == 0
        assert plan.compile_cache_misses == 0
        for node in self._nodes(plan):
            for name in dir(node):
                if name.startswith("compiled_"):
                    assert getattr(node, name) is None, (node, name)

    def test_explain_reports_compilation_mode(self, sales_softdb):
        compiled_plan = sales_softdb.optimizer.optimize(
            "SELECT id FROM sale WHERE day = 7"
        )
        text = explain(compiled_plan)
        assert "compiled=yes" in text
        assert "compile cache" in text
        interpreted = Optimizer(
            sales_softdb.database,
            sales_softdb.registry,
            OptimizerConfig(compile_expressions=False),
        ).optimize("SELECT id FROM sale WHERE day = 7")
        assert "compiled=no (interpreted)" in explain(interpreted)

    def test_identical_predicates_hit_the_compile_cache(self, sales_softdb):
        from repro.expr.compile import clear_cache

        clear_cache()
        sql = "SELECT id FROM sale WHERE day = 7 AND amount > 3.0"
        first = sales_softdb.optimizer.optimize(sql)
        second = sales_softdb.optimizer.optimize(sql)
        assert first.compile_cache_misses > 0
        # The recompile's expressions are all structurally identical, so
        # every lookup hits the shared cache.
        assert second.compile_cache_misses == 0
        assert second.compile_cache_hits > 0


class TestConfigSwitches:
    def test_all_switches_independent(self, sales_softdb):
        config = OptimizerConfig(
            enable_twinning=False, enable_join_elimination=False
        )
        optimizer = Optimizer(
            sales_softdb.database, sales_softdb.registry, config
        )
        plan = optimizer.optimize("SELECT id FROM sale")
        assert plan.rewrites_applied == []
