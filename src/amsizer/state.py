"""Shared state of a sizing workflow run.

The orchestrator owns one WorkflowState per run; agents receive
rendered snapshots of it, never the object itself.  The sizing history
is an ordered list of every parameter point ever proposed or evaluated,
with whatever simulation results exist for it; the budget ledger counts
every LLM call, simulation, and optimizer call the run spends.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from .metrics import MetricReport, Spec
from .mosfet import MosModelCard
from .netlist import Circuit, MatchingGroup, ParameterSpace
from .simulator import DcSolution, Topology

REGION_GOALS = ("cutoff", "triode", "saturation")


@dataclass
class AcPlan:
    input_source: str
    output_net: str
    f_lo: float = 1.0
    f_hi: float = 1e9
    pts_per_decade: int = 20


@dataclass
class TranPlan:
    source: str
    step_v: float
    t_stop: float
    dt: float


@dataclass
class BudgetLedger:
    """Spent budget, one field per counter of the trace's `budget` events."""

    llm_calls: int = 0
    opt_calls: int = 0
    dc_sims: int = 0
    full_sims_llm: int = 0
    full_sims_opt: int = 0

    def add(self, counter: str, delta: int = 1) -> int:
        """Add `delta` to the named counter; returns its new total."""
        if counter not in _LEDGER_FIELDS:
            raise ValueError(f"unknown budget counter {counter!r}")
        total = getattr(self, counter) + delta
        setattr(self, counter, total)
        return total

    def as_dict(self) -> dict[str, int]:
        return {**asdict(self), "full_sims_total": self.full_sims_llm + self.full_sims_opt}


_LEDGER_FIELDS = frozenset(f.name for f in fields(BudgetLedger))


@dataclass
class HistoryEntry:
    point: dict[str, float]
    source: str  # agent name | "optimizer"
    dc: DcSolution | None = None
    report: MetricReport | None = None
    note: str = ""

    @property
    def fom(self) -> float | None:
        return self.report.fom if self.report is not None else None


@dataclass
class WorkflowState:
    circuit: Circuit
    space: ParameterSpace
    specs: list[Spec]
    model_cards: dict[str, MosModelCard]
    ac_plan: AcPlan
    tran_plan: TranPlan | None = None
    matching_groups: list[MatchingGroup] = field(default_factory=list)
    circuit_explanation: str = ""
    dc_goals: dict[str, str] = field(default_factory=dict)
    sizing_history: list[HistoryEntry] = field(default_factory=list)
    budgets: BudgetLedger = field(default_factory=BudgetLedger)
    phase: int = 1
    history_tail: int = 10
    # computed once per run from the fields above: the compiled circuit
    # (topology()) and the prompt sections context.assemble_context keeps
    _topology: Topology | None = field(default=None, init=False, repr=False, compare=False)
    rendered: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def topology(self) -> Topology:
        """The circuit compiled with the model cards, once per run (again
        only if `circuit` or `model_cards` is replaced)."""
        topo = self._topology
        if topo is None or topo.circuit is not self.circuit or topo.models is not self.model_cards:
            self._topology = Topology(self.circuit, self.model_cards)
        return self._topology

    @property
    def current_point(self) -> dict[str, float] | None:
        return dict(self.sizing_history[-1].point) if self.sizing_history else None

    def best_entry(self) -> HistoryEntry | None:
        scored = [e for e in self.sizing_history if e.fom is not None]
        if not scored:
            return None
        return max(scored, key=lambda e: e.fom)

    def best_fom(self) -> float | None:
        e = self.best_entry()
        return e.fom if e is not None else None

    def scored_foms(self) -> list[float]:
        return [e.fom for e in self.sizing_history if e.fom is not None]

    def top_scored(self, k: int) -> list[HistoryEntry]:
        scored = [e for e in self.sizing_history if e.fom is not None]
        return sorted(scored, key=lambda e: -e.fom)[:k]
