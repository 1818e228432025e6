"""The COBRA optimizer: cost-based rewriting of database application programs.

Pipeline (Sections IV-VI of the paper):

1. **Region analysis** — parse the program source and build its region tree.
2. **Region DAG** — insert the region tree into an AND-OR DAG (the memo).
3. **Transformation** — for every group, apply the region rules (which in turn
   apply the F-IR rules T1-T5 / N1 / N2 to cursor loops) and add every
   generated alternative to the DAG, reusing duplicate nodes.  New
   alternatives are themselves transformed until a fixpoint, so compositions
   of rules are explored; duplicate detection guarantees termination.
4. **Costing and extraction** — compute the minimum cost of the root group
   with the Section-VI cost model and extract the corresponding program.

The result carries the rewritten Python source (runnable against
:class:`repro.appsim.runtime.AppRuntime`), the estimated cost of the chosen
program and of the original program, and the strategy chosen for every region.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.cost_model import CostModel, CostParameters
from repro.core.dag import AndNode, Group, RegionDag
from repro.core.plans import (
    DagCostCalculator,
    Plan,
    PlanExtractor,
    cost_based_chooser,
    heuristic_chooser,
    region_cost,
)
from repro.core.region_analysis import ProgramInfo, analyze_program
from repro.core.regions import Region
from repro.core.rules import (
    DEFAULT_REGION_RULES,
    RegionRule,
    TransformationContext,
    make_context,
)
from repro.db.database import Database
from repro.fir.rules import FIRRule
from repro.orm.mapping import MappingRegistry


@dataclass
class OptimizationResult:
    """Outcome of one COBRA optimization run."""

    program: ProgramInfo
    dag: RegionDag
    best_plan: Plan
    original_cost: float
    optimization_seconds: float
    alternatives_added: int
    strategies: dict[str, str] = field(default_factory=dict)

    @property
    def best_cost(self) -> float:
        return self.best_plan.cost

    @property
    def rewritten_source(self) -> str:
        return self.best_plan.source

    @property
    def chosen_strategies(self) -> set[str]:
        return self.best_plan.chosen_strategies

    @property
    def estimated_speedup(self) -> float:
        """Original cost divided by best cost (>= 1 when rewriting helps)."""
        if self.best_plan.cost <= 0:
            return 1.0
        return self.original_cost / self.best_plan.cost

    def primary_choice(self) -> str:
        """The strategy chosen for the most significant rewritten region.

        Returns ``"original"`` when COBRA kept the program unchanged.
        """
        chosen = self.chosen_strategies
        for strategy in (
            "sql-join",
            "prefetch",
            "prefetch-join",
            "sql-aggregate",
            "sql-filter",
            "sql-translation",
            "sql-aggregate-extra",
        ):
            if strategy in chosen:
                return strategy
        return "original"


class CobraOptimizer:
    """Cost-based optimizer for database application programs."""

    def __init__(
        self,
        database: Database,
        parameters: CostParameters,
        registry: Optional[MappingRegistry] = None,
        region_rules: Optional[Sequence[RegionRule]] = None,
        fir_rules: Optional[Sequence[FIRRule]] = None,
        max_passes: int = 4,
    ) -> None:
        self.database = database
        self.parameters = parameters
        self.registry = registry
        self.region_rules = (
            tuple(region_rules) if region_rules is not None else DEFAULT_REGION_RULES
        )
        self.fir_rules = fir_rules
        self.max_passes = max_passes

    # -- public API ----------------------------------------------------------

    def optimize(
        self, source: str, function_name: Optional[str] = None
    ) -> OptimizationResult:
        """Optimize the program in ``source`` and return the best plan."""
        started = time.perf_counter()
        program = analyze_program(
            source, registry=self.registry, function_name=function_name
        )
        dag = RegionDag()
        dag.build(program.region)
        context = make_context(
            program, fir_rules=self.fir_rules, schema=self.database.schema
        )
        added = self._expand(dag, context)

        cost_model = CostModel(self.database, self.parameters)
        calculator = DagCostCalculator(dag, cost_model)
        # The original program is the region tree as analysed; price it
        # directly instead of re-extracting it from the DAG.
        original_cost = region_cost(program.region, cost_model)
        best_cost = calculator.group_cost(dag.root)
        extractor = PlanExtractor(dag, cost_based_chooser(calculator))
        region = extractor.extract()
        plan = Plan(
            region=region,
            cost=best_cost,
            strategies=dict(extractor.strategies),
            source=region.to_source(),
        )
        elapsed = time.perf_counter() - started
        return OptimizationResult(
            program=program,
            dag=dag,
            best_plan=plan,
            original_cost=original_cost,
            optimization_seconds=elapsed,
            alternatives_added=added,
            strategies=dict(extractor.strategies),
        )

    def extract_heuristic_plan(self, result: OptimizationResult) -> Plan:
        """Extract the plan the heuristic optimizer (max SQL pushing) picks.

        Uses the same expanded DAG, so the comparison in Experiment 4 is
        between selection policies, not between different search spaces.
        """
        cost_model = CostModel(self.database, self.parameters)
        calculator = DagCostCalculator(result.dag, cost_model)
        extractor = PlanExtractor(result.dag, heuristic_chooser())
        region = extractor.extract()
        # Price the heuristic's chosen program with the same cost model.
        cost = self._plan_cost(region, calculator)
        return Plan(
            region=region,
            cost=cost,
            strategies=dict(extractor.strategies),
            source=region.to_source(),
        )

    def estimate_cost(self, source: str, function_name: Optional[str] = None) -> float:
        """Cost of a program as written (no transformation)."""
        program = analyze_program(
            source, registry=self.registry, function_name=function_name
        )
        cost_model = CostModel(self.database, self.parameters)
        return region_cost(program.region, cost_model)

    # -- expansion -------------------------------------------------------------

    def _expand(self, dag: RegionDag, context: TransformationContext) -> int:
        """Apply rules to a fixpoint with a dirty worklist.

        Instead of re-scanning every DAG node on every pass, the worklist
        holds exactly the (group, node) memberships that have not had the
        rules applied yet: the seed nodes from building the DAG, plus every
        alternative (and shared sub-region) a rule application adds.  Rules
        are pure functions of the node payload, so re-firing them on an
        unchanged node can only reproduce duplicates the memo rejects —
        skipping the re-scan leaves the reachable fixpoint identical.

        Each membership carries a generation: seed nodes are generation 0 and
        alternatives produced by a generation-``g`` node are generation
        ``g + 1``.  Memberships at generation ``max_passes`` or deeper are not
        expanded, bounding rule composition depth exactly as the old
        ``max_passes`` whole-DAG passes did.
        """
        total_added = 0
        worklist = deque(
            (group, node, 0) for group, node in dag.drain_new_memberships()
        )
        while worklist:
            group, node, generation = worklist.popleft()
            if generation >= self.max_passes:
                continue
            total_added += self._apply_rules_to_node(dag, group, node, context)
            for new_group, new_node in dag.drain_new_memberships():
                worklist.append((new_group, new_node, generation + 1))
        return total_added

    def _apply_rules_to_node(
        self,
        dag: RegionDag,
        group: Group,
        node: AndNode,
        context: TransformationContext,
    ) -> int:
        added = 0
        for rule in self.region_rules:
            try:
                alternatives = rule.apply(node.payload, context)
            except Exception:
                # A failing rule must not abort optimization of the program.
                continue
            for alternative in alternatives:
                inserted = dag.add_alternative(
                    group,
                    alternative.region,
                    strategy=alternative.strategy,
                    rule=alternative.rule,
                    description=alternative.description,
                )
                if inserted is not None:
                    added += 1
        return added

    # -- costing helpers --------------------------------------------------------

    def _plan_cost(self, region: Region, calculator: DagCostCalculator) -> float:
        """Cost a concrete region tree with the same model (no alternatives)."""
        return region_cost(region, calculator.cost_model)
