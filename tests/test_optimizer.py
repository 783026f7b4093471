import math

import numpy as np
import pytest

import amsizer.optimizer
from amsizer.gp import gp_fit, gp_predict
from amsizer.netlist import FeasibleSet, MatchingGroup, ParameterSpace, SpaceEntry
from amsizer.optimizer import (
    EI_REFINE_ITERS,
    OptimizerRequest,
    _Codec,
    _refine_ei,
    de_step,
    expected_improvement,
    optimize,
)


def _space(d=4, lo=0.0, hi=1.0):
    return ParameterSpace(tuple(SpaceEntry(f"x{i}", lo, hi) for i in range(d)))


def _quadratic(center):
    d = len(center)

    def objective(p):
        err = sum((p[f"x{i}"] - center[i]) ** 2 for i in range(d))
        return 1.0 - err / d

    return objective


def test_budget_one_single_evaluation():
    space = _space(2)
    req = OptimizerRequest(space=space, budget=1, algorithm="bo", seed=3)
    res = optimize(req, _quadratic([0.5, 0.5]))
    assert res.budget_used == 1
    assert len(res.evaluations) == 1
    assert res.best_fom == res.evaluations[0].fom


def test_budget_one_with_better_initial_point():
    space = _space(2)
    init = (({"x0": 0.5, "x1": 0.5}, 1.0),)
    req = OptimizerRequest(space=space, initial_points=init, budget=1, algorithm="bo", seed=3)
    res = optimize(req, lambda p: 0.0)
    assert res.budget_used == 1
    assert res.best_fom == 1.0
    assert res.best_point == {"x0": 0.5, "x1": 0.5}


@pytest.mark.parametrize("n_init", [0, 1])
@pytest.mark.parametrize("budget", [1, 2, 3])
def test_de_below_a_population_evaluates_seeded_draws(budget, n_init):
    # the random fill of a population of four is cut at the budget: the
    # evaluated rows are the seeded generator's first draws, in order
    space = _space(3)
    init = (({"x0": 0.5, "x1": 0.5, "x2": 0.5}, 2.0),)[:n_init]
    req = OptimizerRequest(
        space=space, initial_points=init, budget=budget, algorithm="de", seed=5
    )
    res = optimize(req, _quadratic([0.3, 0.6, 0.2]))
    codec, feasible = _Codec(space), FeasibleSet(space, ())
    draws = np.random.default_rng(5).random((budget, 3))
    expected = feasible.project_matrix(codec.decode_matrix(draws))
    assert [ev.point for ev in res.evaluations] == [codec.to_dict(r) for r in expected]
    assert res.budget_used == budget
    assert res.best_fom == (2.0 if n_init else max(ev.fom for ev in res.evaluations))


@pytest.mark.parametrize("algo", ["bo", "de"])
def test_budget_honesty(algo):
    space = _space(3)
    for budget in (1, 2, 5, 17):
        req = OptimizerRequest(space=space, budget=budget, algorithm=algo, seed=1)
        res = optimize(req, _quadratic([0.3, 0.6, 0.2]))
        assert res.budget_used == budget
        assert len(res.evaluations) == budget


@pytest.mark.parametrize("algo", ["bo", "de"])
def test_determinism_same_seed(algo):
    space = _space(3)
    req = OptimizerRequest(space=space, budget=12, algorithm=algo, seed=7)
    obj = _quadratic([0.2, 0.9, 0.4])
    r1 = optimize(req, obj)
    r2 = optimize(req, obj)
    assert len(r1.evaluations) == len(r2.evaluations)
    for a, b in zip(r1.evaluations, r2.evaluations):
        assert a.point == b.point
        assert a.fom == b.fom
    assert r1.best_fom == r2.best_fom


@pytest.mark.parametrize("algo", ["bo", "de"])
def test_matching_and_bounds_preserved(algo):
    space = ParameterSpace(
        (
            SpaceEntry("w1", 1.0, 10.0),
            SpaceEntry("w2", 1.0, 10.0),
            SpaceEntry("w3", 2.0, 40.0),
            SpaceEntry("w4", 2.0, 40.0),
            SpaceEntry("r", 0.1, 5.0),
        )
    )
    matching = (
        MatchingGroup("equal", ("w1", "w2")),
        MatchingGroup("ratio", ("w3", "w4"), ratios=(1.0, 2.0)),
    )
    req = OptimizerRequest(space=space, matching=matching, budget=20, algorithm=algo, seed=2)
    seen = []
    res = optimize(req, lambda p: seen.append(dict(p)) or p["r"] / 5.0)
    assert len(seen) == 20
    feasible = FeasibleSet(space, matching)
    for p in seen:
        assert feasible.project(p) == p
        for e in space.entries:
            assert e.lo - 1e-12 <= p[e.name] <= e.hi + 1e-12
        assert p["w4"] == pytest.approx(2 * p["w3"])


def test_objective_failure_scores_zero():
    space = _space(2)

    def flaky(p):
        if p["x0"] > 0.5:
            raise RuntimeError("no convergence")
        return 0.7

    req = OptimizerRequest(space=space, budget=10, algorithm="de", seed=0)
    res = optimize(req, flaky)
    failed = [e for e in res.evaluations if e.error is not None]
    ok = [e for e in res.evaluations if e.error is None]
    assert failed and ok
    assert all(e.fom == 0.0 for e in failed)
    assert all("no convergence" in e.error for e in failed)
    assert res.best_fom == pytest.approx(0.7)


def test_bo_never_below_best_initial():
    space = _space(4)
    init = (({"x0": 0.9, "x1": 0.9, "x2": 0.9, "x3": 0.9}, 0.42),)
    req = OptimizerRequest(space=space, initial_points=init, budget=8, algorithm="bo", seed=11)
    res = optimize(req, lambda p: 0.1)
    assert res.best_fom >= 0.42


def test_bo_quadratic_4d_budget_60():
    center = [0.37, 0.61, 0.52, 0.44]
    req = OptimizerRequest(space=_space(4), budget=60, algorithm="bo", seed=0)
    res = optimize(req, _quadratic(center))
    assert res.best_fom >= 0.95


def test_bo_beats_random_search_on_quadratic():
    center = [0.37, 0.61, 0.52, 0.44]
    obj = _quadratic(center)
    space = _space(4)
    for seed in (0, 1, 2):
        req = OptimizerRequest(space=space, budget=40, algorithm="bo", seed=seed)
        res = optimize(req, obj)
        rng = np.random.default_rng(seed + 10_000)
        rand_best = max(
            obj({f"x{i}": v for i, v in enumerate(rng.random(4))}) for _ in range(40)
        )
        assert res.best_fom > rand_best


def test_de_sphere_beats_random_at_equal_budget():
    center = [0.5, 0.5, 0.5, 0.5, 0.5]
    obj = _quadratic(center)
    space = _space(5)
    budget = 16 * 30
    req = OptimizerRequest(space=space, budget=budget, algorithm="de", seed=4)
    res = optimize(req, obj)
    assert res.best_fom >= 0.99
    rng = np.random.default_rng(123)
    rand_best = max(
        obj({f"x{i}": v for i, v in enumerate(rng.random(5))}) for _ in range(budget)
    )
    assert res.best_fom > rand_best


def test_log_scaled_dimension_respects_bounds():
    space = ParameterSpace(
        (SpaceEntry("c", 1e-13, 1e-9, scale="log"), SpaceEntry("w", 1.0, 100.0))
    )
    req = OptimizerRequest(space=space, budget=15, algorithm="de", seed=9)
    seen = []
    optimize(req, lambda p: seen.append(dict(p)) or 0.0)
    assert len(seen) == 15
    for p in seen:
        assert 1e-13 <= p["c"] <= 1e-9
        assert 1.0 <= p["w"] <= 100.0
    # log sampling should actually explore the decades, not pile up at the top
    logs = [math.log10(p["c"]) for p in seen]
    assert max(logs) - min(logs) > 1.0


# ---------------------------------------------------------------------------
# de_step

def test_de_step_identical_population_is_fixed_point():
    pop = np.tile(np.array([0.25, 0.75]), (6, 1))
    rng = np.random.default_rng(0)
    trials = de_step(pop, 0.7, 0.9, rng)
    assert np.array_equal(trials, pop)


def test_de_step_zero_crossover_changes_one_coordinate():
    rng = np.random.default_rng(1)
    pop = rng.random((8, 5))
    trials = de_step(pop, 0.7, 0.0, rng)
    diffs = np.sum(~np.isclose(trials, pop), axis=1)
    assert np.all(diffs <= 1)
    assert np.any(diffs == 1)


def test_de_step_clips_to_unit_cube():
    rng = np.random.default_rng(2)
    pop = np.vstack([np.zeros(3), np.ones(3), rng.random((6, 3))])
    for _ in range(20):
        trials = de_step(pop, 0.9, 1.0, rng)
        assert np.all(trials >= 0.0) and np.all(trials <= 1.0)
        pop = trials


def test_de_step_requires_four_members():
    with pytest.raises(ValueError):
        de_step(np.zeros((3, 2)), 0.7, 0.9, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# request validation

def test_request_validation():
    space = _space(2)
    with pytest.raises(ValueError):
        OptimizerRequest(space=space, budget=0)
    with pytest.raises(ValueError):
        OptimizerRequest(space=space, budget=5, algorithm="annealing")
    with pytest.raises(ValueError):
        OptimizerRequest(
            space=space, budget=5, initial_points=(({"x0": 0.5}, 0.1),)
        )
    with pytest.raises(ValueError):
        OptimizerRequest(
            space=space, budget=5, initial_points=(({"x0": 2.0, "x1": 0.0}, 0.1),)
        )


def test_request_rejects_initial_point_outside_after_matching():
    # b = 2 * a = 1.8 would leave b's range; projection moves the point
    space = ParameterSpace((SpaceEntry("a", 0.0, 1.0), SpaceEntry("b", 0.0, 1.0)))
    groups = (MatchingGroup("ratio", ("a", "b"), ratios=(1.0, 2.0)),)
    with pytest.raises(ValueError, match="initial point is not feasible: a = 0.9 projects to 0.5"):
        OptimizerRequest(
            space=space,
            matching=groups,
            budget=3,
            initial_points=(({"a": 0.9, "b": 1.0}, 0.5),),
        )


def test_request_rejects_infeasible_ratio_group():
    space = ParameterSpace((SpaceEntry("a", 1.0, 2.0), SpaceEntry("b", 10.0, 20.0)))
    groups = (MatchingGroup("ratio", ("a", "b"), ratios=(1.0, 2.0)),)
    with pytest.raises(ValueError, match="cannot be satisfied inside the bounds"):
        OptimizerRequest(space=space, matching=groups, budget=3)


def test_request_rejects_overlapping_groups():
    space = _space(3)
    groups = (
        MatchingGroup("equal", ("x0", "x1")),
        MatchingGroup("equal", ("x1", "x2")),
    )
    with pytest.raises(ValueError, match="already in another group"):
        OptimizerRequest(space=space, matching=groups, budget=3)


@pytest.mark.parametrize("algo", ["bo", "de"])
def test_scaled_member_never_rounds_past_its_bound(algo):
    # hi / 2.5 * 2.5 == 5.000000000000001e-06: one ulp above b's bound
    space = ParameterSpace(
        (SpaceEntry("a", 5e-9, 5e-6, scale="log"), SpaceEntry("b", 5e-9, 5e-6, scale="log"))
    )
    groups = (MatchingGroup("ratio", ("a", "b"), ratios=(1.0, 2.5)),)

    def in_bounds(p):
        for e in space.entries:
            if not e.lo <= p[e.name] <= e.hi:
                raise ValueError(f"{e.name} = {p[e.name]!r} outside [{e.lo}, {e.hi}]")
        return p["a"] * 1e6

    req = OptimizerRequest(space=space, matching=groups, budget=24, algorithm=algo, seed=0)
    res = optimize(req, in_bounds)
    assert [ev.error for ev in res.evaluations] == [None] * 24
    assert max(ev.point["b"] for ev in res.evaluations) == 5e-6


def _refine_ei_unmemoized(z0, model, f_star, codec, feasible, predict):
    """The EI refinement loop with no memo: every trial step calls `predict`."""

    def ei_at(z):
        zp = codec.encode_matrix(feasible.project_matrix(codec.decode_matrix(z)))[0]
        mean, var = predict(model, zp)
        return float(expected_improvement(mean, var, f_star)[0]), zp

    cur_ei, z = ei_at(z0)
    step = 0.25
    d = codec.dim
    for it in range(EI_REFINE_ITERS):
        j = it % d
        improved = False
        for delta in (step, -step):
            z_try = z.copy()
            z_try[j] = min(max(z_try[j] + delta, 0.0), 1.0)
            e, zp = ei_at(z_try)
            if e > cur_ei:
                cur_ei, z = e, zp
                improved = True
        if not improved:
            step *= 0.5
    return z, cur_ei


def test_refine_ei_memo_matches_unmemoized_loop(monkeypatch):
    space = ParameterSpace(
        (
            SpaceEntry("w1", 1.0, 10.0),
            SpaceEntry("w2", 1.0, 10.0),
            SpaceEntry("w3", 1e-6, 1e-4, scale="log"),
            SpaceEntry("w4", 1e-6, 1e-4, scale="log"),
            SpaceEntry("r", 0.1, 5.0),
            SpaceEntry("c", 1e-12, 1e-9, scale="log"),
        )
    )
    matching = (
        MatchingGroup("equal", ("w1", "w2")),
        MatchingGroup("ratio", ("w3", "w4"), ratios=(1.0, 3.0)),
    )
    codec, feasible = _Codec(space), FeasibleSet(space, matching)
    memo_calls, solo_calls, reference_calls = [], [], []

    def counted(calls):
        def predict(model, x):
            calls.append(1)
            return gp_predict(model, x)
        return predict

    rng = np.random.default_rng(17)
    moved = 0
    for _ in range(8):
        n = int(rng.integers(2, 30))
        xs = codec.encode_matrix(
            feasible.project_matrix(codec.decode_matrix(rng.random((n, codec.dim))))
        )
        ys = rng.normal(size=n)
        model = gp_fit(xs, ys)
        f_star = float(np.max(ys))
        # starts on and near the faces of the cube, so trial steps clip at 0 and 1,
        # and two starts that differ only in the follower w2, so they project onto
        # one point and the second is served from the first's memo entries
        twin = rng.random(codec.dim)
        starts = np.concatenate(
            [np.zeros((1, codec.dim)), np.ones((1, codec.dim)),
             rng.choice([0.05, 0.9, 1.0], size=(1, codec.dim)), rng.random((3, codec.dim)),
             twin[None], np.where(np.arange(codec.dim) == 1, 1.0 - twin, twin)[None]]
        )
        monkeypatch.setattr(amsizer.optimizer, "gp_predict", counted(memo_calls))
        zs, es = _refine_ei(starts, model, f_star, codec, feasible)
        monkeypatch.setattr(amsizer.optimizer, "gp_predict", counted(solo_calls))
        for z0 in starts:
            _refine_ei(z0[None], model, f_star, codec, feasible)
        assert zs.shape == starts.shape and es.shape == (len(starts),)
        for z0, z, e in zip(starts, zs, es):
            z_ref, e_ref = _refine_ei_unmemoized(
                z0, model, f_star, codec, feasible, counted(reference_calls)
            )
            assert z.tobytes() == z_ref.tobytes()
            assert np.float64(e).tobytes() == np.float64(e_ref).tobytes()
            moved += not np.array_equal(z, codec.encode_matrix(feasible.project_matrix(
                codec.decode_matrix(z0)))[0])
    assert moved > 0
    assert len(reference_calls) == 8 * 8 * (1 + 2 * EI_REFINE_ITERS)
    assert len(memo_calls) < len(solo_calls) < len(reference_calls)
