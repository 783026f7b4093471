"""Black-box optimizers on a known landscape: Bayesian optimization vs
differential evolution vs plain random search, plus matched-parameter groups.

Run:  python3 demos/03_optimizers.py
"""

import numpy as np

from amsizer.netlist import FeasibleSet, MatchingGroup, ParameterSpace, SpaceEntry
from amsizer.optimizer import OptimizerRequest, optimize

SPACE = ParameterSpace(tuple(SpaceEntry(f"x{i}", 0.0, 1.0) for i in range(4)))
CENTER = [0.37, 0.61, 0.52, 0.44]


def objective(point: dict[str, float]) -> float:
    """Concave quadratic with its maximum (1.0) at CENTER."""
    return 1.0 - sum((point[f"x{i}"] - CENTER[i]) ** 2 for i in range(4)) / 4


def run(algorithm: str, budget: int) -> None:
    req = OptimizerRequest(space=SPACE, budget=budget, algorithm=algorithm, seed=0)
    res = optimize(req, objective)
    point = ", ".join(f"{k}={v:.3f}" for k, v in sorted(res.best_point.items()))
    print(f"  {algorithm:<3} budget {budget:>3}: best {res.best_fom:.5f}  at {point}")


def main() -> None:
    print(f"maximizing a 4-D quadratic, optimum 1.0 at {CENTER}\n")

    print("random search baseline:")
    rng = np.random.default_rng(0)
    best = max(
        objective({f"x{i}": v for i, v in enumerate(row)})
        for row in rng.random((60, 4))
    )
    print(f"  rnd budget  60: best {best:.5f}")

    print("\nmodel-guided and evolutionary search:")
    run("bo", 60)    # Gaussian process + expected improvement
    run("de", 200)   # population-based, cheap per step, needs more evals

    # matched groups project proposals onto a constraint subspace before
    # evaluation -- the same mechanism the sizing workflow uses for pairs
    print("\nparameter matching (x0 == x1, x3 = 2 * x2):")
    groups = (
        MatchingGroup("equal", ("x0", "x1")),
        MatchingGroup("ratio", ("x2", "x3"), ratios=(1.0, 2.0)),
    )
    raw = {"x0": 0.30, "x1": 0.90, "x2": 0.20, "x3": 0.10}
    projected = FeasibleSet(SPACE, groups).project(raw)
    print(f"  proposal  {raw}")
    print(f"  projected {projected}")

    req = OptimizerRequest(space=SPACE, matching=groups, budget=60, algorithm="bo", seed=0)
    res = optimize(req, objective)
    point = ", ".join(f"{k}={v:.3f}" for k, v in sorted(res.best_point.items()))
    print(f"  constrained bo best {res.best_fom:.5f}  at {point}")


if __name__ == "__main__":
    main()
