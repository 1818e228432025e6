"""Region-level transformation rules.

The Volcano/Cascades-style rule engine of COBRA works on the Region DAG: a
rule looks at one group (a region), produces zero or more alternative region
implementations, and the optimizer adds each alternative to the group.  For
database applications the interesting rules all concern cursor loops, and are
driven by the F-IR layer:

1. build the fold representation of the loop (:func:`repro.fir.builder.build_fold`),
2. apply the F-IR rules T1-T5 / N1 / N2 (:mod:`repro.fir.rules`), each of
   which yields replacement Python source for the loop region,
3. parse the replacement source back into a region tree
   (:func:`region_from_source`), so the alternative enters the DAG through
   the exact same region machinery as the original program.

The rule set is extensible: any object with an ``apply(region, program, context)``
method returning :class:`RegionAlternative` instances can be registered.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.region_analysis import (
    AnalysisContext,
    ProgramInfo,
    analyze_program,
)
from repro.core.regions import LoopRegion, Region
from repro.db.schema import Schema
from repro.fir.builder import build_fold
from repro.fir.rules import DEFAULT_RULES, FIRRule, RuleContext


@dataclass
class RegionAlternative:
    """One alternative implementation of a region, produced by a rule."""

    strategy: str
    region: Region
    rule: str
    description: str = ""
    source: str = ""


@dataclass
class TransformationContext:
    """Context shared by all region rules during one optimization run."""

    program: ProgramInfo
    analysis: AnalysisContext
    fir_rules: Sequence[FIRRule]
    #: the database schema the join rules name their row keys by.
    schema: Optional[Schema] = None

    @property
    def runtime_parameter(self) -> str:
        return self.analysis.runtime_parameter or "rt"


def region_from_source(
    source: str, context: TransformationContext
) -> Region:
    """Parse replacement statements into a region tree.

    The statements are wrapped in a synthetic function whose parameter list
    matches the original program, so the analysis classifies data accesses
    exactly as it would in the original.
    """
    parameters = ", ".join(context.program.parameters) or "rt"
    wrapped = (
        f"def __rewritten__({parameters}):\n"
        + textwrap.indent(textwrap.dedent(source).strip("\n"), "    ")
        + "\n"
    )
    info = analyze_program(wrapped, registry=context.analysis.registry)
    return info.region.body


class RegionRule:
    """Base class of region-level transformation rules."""

    name = "region-rule"

    def apply(
        self, region: Region, context: TransformationContext
    ) -> list[RegionAlternative]:
        """Return alternatives for ``region`` (possibly empty)."""
        raise NotImplementedError


class CursorLoopRule(RegionRule):
    """Apply the F-IR rule set to every cursor loop region."""

    name = "cursor-loop transformations"

    def apply(
        self, region: Region, context: TransformationContext
    ) -> list[RegionAlternative]:
        if not isinstance(region, LoopRegion) or not region.is_cursor_loop:
            return []
        fold = build_fold(region, context.analysis)
        if fold is None:
            return []
        rule_context = RuleContext(
            runtime_parameter=context.runtime_parameter, schema=context.schema
        )
        alternatives: list[RegionAlternative] = []
        for fir_rule in context.fir_rules:
            for rewrite in fir_rule.apply(fold, rule_context):
                try:
                    replacement = region_from_source(rewrite.source, context)
                except Exception:
                    # A rule produced unparsable source; skip the alternative
                    # rather than failing the whole optimization.
                    continue
                alternatives.append(
                    RegionAlternative(
                        strategy=rewrite.strategy,
                        region=replacement,
                        rule=rewrite.rule,
                        description=rewrite.description,
                        source=rewrite.source,
                    )
                )
        return alternatives


#: Default region-level rule set.
DEFAULT_REGION_RULES: tuple[RegionRule, ...] = (CursorLoopRule(),)


def make_context(
    program: ProgramInfo,
    fir_rules: Optional[Sequence[FIRRule]] = None,
    schema: Optional[Schema] = None,
) -> TransformationContext:
    """Build the transformation context for one program."""
    return TransformationContext(
        program=program,
        analysis=program.context,
        fir_rules=tuple(fir_rules) if fir_rules is not None else DEFAULT_RULES,
        schema=schema,
    )
