"""Budgeted black-box optimizers over a ParameterSpace.

Two algorithms behind one request/result interface: Bayesian
optimization (GP surrogate with expected improvement) and differential
evolution.  Both run in the normalized unit cube (log-scaled dimensions
are normalized in log space), project every candidate through the
matching groups and bounds before evaluation, spend exactly the
requested simulation budget, and are deterministic under a fixed seed.

The objective is called with a real-valued parameter dict and returns a
figure of merit to maximize.  Objective exceptions score 0 for that
point: a non-convergent circuit is a valid bad outcome, not a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .gp import GpError, GpHyper, gp_fit, gp_predict
from .netlist import FeasibleSet, MatchingGroup, ParameterSpace

ALGORITHMS = ("bo", "de")
EI_CANDIDATES = 1024
EI_REFINE_ITERS = 20
EI_REFINE_TOP = 4
DE_F_WEIGHT = 0.7
DE_CROSSOVER = 0.9
DE_MAX_POP = 16
_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass(frozen=True)
class Evaluation:
    point: dict[str, float]
    fom: float
    error: str | None = None


@dataclass(frozen=True)
class OptimizerResult:
    best_point: dict[str, float]
    best_fom: float
    evaluations: tuple[Evaluation, ...]
    budget_used: int


class _Codec:
    """Dict <-> unit-cube vector conversion for a ParameterSpace."""

    def __init__(self, space: ParameterSpace):
        self.names = list(space.names)
        self.dim = len(self.names)
        self.log = np.array([e.scale == "log" for e in space.entries])
        lo = np.array([e.lo for e in space.entries])
        hi = np.array([e.hi for e in space.entries])
        self.lo = np.where(self.log, np.log(np.where(self.log, lo, 1.0)), lo)
        self.hi = np.where(self.log, np.log(np.where(self.log, hi, 1.0)), hi)

    def decode_matrix(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        u = self.lo + z * (self.hi - self.lo)
        return np.where(self.log, np.exp(u), u)

    def encode_matrix(self, v: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(v)
        u = np.where(self.log, np.log(np.maximum(v, 1e-300)), v)
        return (u - self.lo) / (self.hi - self.lo)

    def to_dict(self, row: np.ndarray) -> dict[str, float]:
        return {n: float(row[i]) for i, n in enumerate(self.names)}

    def from_dict(self, point: dict[str, float]) -> np.ndarray:
        return np.array([float(point[n]) for n in self.names])


@dataclass(frozen=True)
class OptimizerRequest:
    space: ParameterSpace
    matching: tuple[MatchingGroup, ...] = ()
    initial_points: tuple[tuple[dict[str, float], float], ...] = ()
    budget: int = 20
    algorithm: str = "bo"
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        feasible = FeasibleSet(self.space, self.matching)  # validates the groups
        for point, fom in self.initial_points:
            missing = [n for n in self.space.names if n not in point]
            if missing:
                raise ValueError(f"initial point is missing parameters {missing}")
            for name, v in feasible.project(point).items():
                if v != point[name]:
                    raise ValueError(
                        f"initial point is not feasible: {name} = {point[name]} "
                        f"projects to {v} under matching and bounds"
                    )
            if not math.isfinite(fom):
                raise ValueError("initial point fom must be finite")


class _BudgetedObjective:
    def __init__(self, objective, budget, on_evaluation):
        self.objective = objective
        self.budget = budget
        self.on_evaluation = on_evaluation
        self.evaluations: list[Evaluation] = []

    @property
    def remaining(self) -> int:
        return self.budget - len(self.evaluations)

    def _call_one(self, point):
        try:
            fom = float(self.objective(point))
            if math.isnan(fom):
                return 0.0, "objective returned NaN"
            return fom, None
        except Exception as exc:
            return 0.0, f"{type(exc).__name__}: {exc}"

    def eval_batch(self, points: list[dict[str, float]]) -> list[float]:
        foms = []
        for point in points[: self.remaining]:
            fom, error = self._call_one(point)
            ev = Evaluation(point=dict(point), fom=fom, error=error)
            self.evaluations.append(ev)
            if self.on_evaluation is not None:
                self.on_evaluation(ev)
            foms.append(fom)
        return foms


def _ei_terms(gain: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The closed-form EI for sigma > 0, before clipping at 0."""
    z = gain / sigma
    # the normal pdf in scipy.stats.norm.pdf's operations keeps EI bit-identical to it
    return gain * ndtr(z) + sigma * (np.exp(-z**2 / 2.0) / _SQRT_2PI)


def expected_improvement(
    mean: np.ndarray, var: np.ndarray, best_so_far: float
) -> np.ndarray:
    """EI for maximization; 0 when there is no variance and no gain."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    gain = mean - best_so_far
    pos = sigma > 0.0
    if pos.all():  # the usual case: no boolean masks to pay for
        return np.maximum(_ei_terms(gain, sigma), 0.0)
    ei = np.where(pos, 0.0, np.maximum(gain, 0.0))
    ei[pos] = _ei_terms(gain[pos], sigma[pos])
    return np.maximum(ei, 0.0)


def de_step(
    population: np.ndarray,
    f_weight: float,
    crossover_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One DE/rand/1/bin trial generation in the unit cube, clipped."""
    pop = np.atleast_2d(population)
    n, d = pop.shape
    if n < 4:
        raise ValueError("differential evolution needs a population of at least 4")
    trials = pop.copy()
    for i in range(n):
        others = [j for j in range(n) if j != i]
        r1, r2, r3 = rng.choice(others, size=3, replace=False)
        mutant = pop[r1] + f_weight * (pop[r2] - pop[r3])
        cross = rng.random(d) < crossover_rate
        cross[rng.integers(d)] = True
        trials[i] = np.where(cross, mutant, pop[i])
    return np.clip(trials, 0.0, 1.0)


def optimize(
    req: OptimizerRequest,
    objective,
    on_evaluation=None,
) -> OptimizerResult:
    """Run the requested algorithm for exactly `req.budget` objective calls.

    `on_evaluation(ev)`, if given, runs right after each objective call,
    before the next one."""
    codec = _Codec(req.space)
    feasible = FeasibleSet(req.space, req.matching)
    run = _BudgetedObjective(objective, req.budget, on_evaluation)
    rng = np.random.default_rng(req.seed)

    # the request guarantees its initial points are already feasible
    init_pts = list(req.initial_points)
    if req.algorithm == "bo":
        _run_bo(req, run, codec, feasible, rng, init_pts)
    else:
        _run_de(req, run, codec, feasible, rng, init_pts)

    best_point: dict[str, float] | None = None
    best_fom = -math.inf
    for p, f in req.initial_points:
        if f > best_fom:
            best_point, best_fom = dict(p), f
    for ev in run.evaluations:
        if ev.fom > best_fom:
            best_point, best_fom = dict(ev.point), ev.fom
    assert best_point is not None
    return OptimizerResult(
        best_point=best_point,
        best_fom=best_fom,
        evaluations=tuple(run.evaluations),
        budget_used=len(run.evaluations),
    )


def _random_points(
    rng: np.random.Generator, n: int, codec: _Codec, feasible: FeasibleSet
) -> np.ndarray:
    return feasible.project_matrix(codec.decode_matrix(rng.random((n, codec.dim))))


def _run_bo(req, run, codec, feasible, rng, init_pts):
    xs: list[np.ndarray] = []
    ys: list[float] = []
    for p, f in init_pts:
        xs.append(codec.encode_matrix(codec.from_dict(p))[0])
        ys.append(f)
    if not xs and run.remaining > 0:
        n_seed = min(run.remaining, max(3, 2 * codec.dim))
        seeds = _random_points(rng, n_seed, codec, feasible)
        foms = run.eval_batch([codec.to_dict(r) for r in seeds])
        for r, f in zip(codec.encode_matrix(seeds), foms):
            xs.append(r)
            ys.append(f)

    while run.remaining > 0:
        proposal_v = None
        try:
            # standardize targets so the fixed unit signal variance is
            # calibrated to the observed fom spread (EI ranking is
            # invariant under this affine rescale)
            y = np.array(ys)
            scale = float(np.std(y))
            if scale < 1e-9:
                scale = 1.0
            model = gp_fit(np.array(xs), y / scale, GpHyper())
            f_star = float(np.max(y)) / scale
            cand_v = _random_points(rng, EI_CANDIDATES, codec, feasible)
            cand_z = codec.encode_matrix(cand_v)
            mean, var = gp_predict(model, cand_z)
            ei = expected_improvement(mean, var, f_star)
            top = np.argsort(-ei)[:EI_REFINE_TOP]
            best_z, best_ei = None, -1.0
            for z, e in zip(*_refine_ei(cand_z[top], model, f_star, codec, feasible)):
                if e > best_ei:
                    best_z, best_ei = z, e
            # a proposal on top of known data adds nothing: explore instead
            if xs and float(np.min(np.sum((np.array(xs) - best_z) ** 2, axis=1))) < 1e-16:
                proposal_v = _random_points(rng, 1, codec, feasible)[0]
            else:
                proposal_v = feasible.project_matrix(codec.decode_matrix(best_z))[0]
        except GpError:
            proposal_v = _random_points(rng, 1, codec, feasible)[0]
        fom = run.eval_batch([codec.to_dict(proposal_v)])
        if not fom:
            break
        xs.append(codec.encode_matrix(proposal_v)[0])
        ys.append(fom[0])


def _refine_ei(z0, model, f_star, codec, feasible):
    """Coordinate-descent polish of EI candidates (rows), derivative-free.

    The rows are refined in lockstep: each takes exactly the steps it
    would take alone, but each round projects all +step trials in one
    call, then all -step trials. Returns the polished rows and their EI."""
    # Many trial steps project onto a point already scored: a step clipped at
    # a face of the cube, or a step on a follower of an equal matching group,
    # which projects back onto its leader. gp_predict is deterministic, so
    # the EI memoized under the projected point's bytes is exactly what a
    # fresh call would return. gp_predict keeps one row per call, since a
    # row of a batched call may differ in its last bits; projection and EI
    # work row by row, so their batched rows equal one-row calls bit for bit.
    scored: dict[bytes, float] = {}

    def ei_at(z):
        # C order: a strided row of the projection's F-ordered result would
        # take another matmul path in gp_predict than a one-row call does
        zp = np.ascontiguousarray(
            codec.encode_matrix(feasible.project_matrix(codec.decode_matrix(z))))
        keys = [row.tobytes() for row in zp]
        new = {k: row for k, row in zip(keys, zp) if k not in scored}
        if new:
            mean, var = zip(*(gp_predict(model, row) for row in new.values()))
            ei = expected_improvement(np.concatenate(mean), np.concatenate(var), f_star)
            scored.update(zip(new, ei.tolist()))
        return np.array([scored[k] for k in keys]), zp

    cur_ei, z = ei_at(z0)
    step = np.full(len(z), 0.25)
    for it in range(EI_REFINE_ITERS):
        j = it % codec.dim
        improved = np.zeros(len(z), dtype=bool)
        for sign in (1.0, -1.0):
            z_try = z.copy()
            z_try[:, j] = np.clip(z[:, j] + sign * step, 0.0, 1.0)
            e, zp = ei_at(z_try)
            better = e > cur_ei
            cur_ei[better], z[better] = e[better], zp[better]
            improved |= better
        step[~improved] *= 0.5
    return z, cur_ei


def _run_de(req, run, codec, feasible, rng, init_pts):
    pop_size = max(4, min(DE_MAX_POP, req.budget))
    seeded = sorted(init_pts, key=lambda pf: -pf[1])[:pop_size]
    pop_v = [codec.from_dict(p) for p, _ in seeded]
    pop_f = [f for _, f in seeded]
    n_fill = pop_size - len(pop_v)
    if n_fill > 0:
        fill = _random_points(rng, n_fill, codec, feasible)
        # eval_batch stops at the budget, and zip at the last evaluated row
        foms = run.eval_batch([codec.to_dict(r) for r in fill])
        for r, f in zip(fill, foms):
            pop_v.append(r)
            pop_f.append(f)
    pop_z = codec.encode_matrix(np.array(pop_v))
    pop_f = np.array(pop_f)
    while run.remaining > 0:
        trials_z = de_step(pop_z, DE_F_WEIGHT, DE_CROSSOVER, rng)
        trials_v = feasible.project_matrix(codec.decode_matrix(trials_z))
        k = min(len(trials_v), run.remaining)
        foms = run.eval_batch([codec.to_dict(r) for r in trials_v[:k]])
        trials_zp = codec.encode_matrix(trials_v)
        for i, f in enumerate(foms):
            # greedy one-to-one selection keeps the population elite
            if f >= pop_f[i]:
                pop_z[i] = trials_zp[i]
                pop_f[i] = f
