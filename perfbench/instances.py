"""Seeded random small models for the ``oneshot-eval`` workload.

The shape follows the repository's motion-exactness acceptance check: a
grid from a fixed list, one or two nominals, sometimes one proposition,
and a random but structurally consistent assumption set.  Three things
differ, all stated in ``perfbench/README.md``:

* the baseline space of one model is capped at ``SPACE_CAP`` traces
  (the acceptance check allows 66,000), so that one model cannot
  dominate a pass;
* grid shapes and nominal counts follow a fixed schedule (see
  :func:`models`); only the assumption sets are random;
* initial constraints are anchored at a nominal only half of the time,
  so the inputs do not steer around the unanchored-initial defect.

These generators are a copy kept inside the benchmark on purpose: the
benchmark's inputs must not change when the test helpers do.
"""

from __future__ import annotations

import random

from hstl.checkers import state_count
from hstl.core import DIRECTIONS, Direction, GridGraph, make_grid
from hstl.formula import And, At, Bind, Formula, Next, Nom, Not, Prop, Spatial, Top, Until
from hstl.idioms import (
    AssumptionSet,
    FixedMotion,
    GlobalState,
    Initial,
    Raw,
    RelativeMotion,
    StaticCar,
)

SPACE_CAP = 300
GRID_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 2), (3, 1), (3, 2))
BINDER_POOL = ("w0", "w1")


def _core_formula(rng: random.Random, props, noms, budget: int) -> Formula:
    """A core-only formula with structural size <= budget (used for raw conjuncts)."""
    atoms = list(noms)

    def leaf(scope) -> Formula:
        options = ["top"] + (["prop"] if props else []) + (["nom"] if atoms or scope else [])
        pick = rng.choice(options)
        if pick == "prop":
            return Prop(rng.choice(props))
        if pick == "nom":
            return Nom(rng.choice(list(scope) + atoms))
        return Top()

    def gen(budget: int, scope: tuple[str, ...]) -> Formula:
        if budget <= 1:
            return leaf(scope)
        pick = rng.choice(["not", "and", "next", "until", "spatial", "at", "bind", "leaf"])
        if pick == "leaf":
            return leaf(scope)
        if pick == "not":
            return Not(gen(budget - 1, scope))
        if pick == "next":
            return Next(gen(budget - 1, scope))
        if pick == "spatial":
            return Spatial(rng.choice(DIRECTIONS), gen(budget - 1, scope))
        if pick == "at":
            return At(rng.choice(list(scope) + atoms), gen(budget - 1, scope))
        if pick == "bind":
            name = rng.choice(BINDER_POOL + tuple(atoms))
            return Bind(name, gen(budget - 1, scope + (name,)))
        split = rng.randint(1, budget - 2) if budget > 2 else 1
        left, right = gen(split, scope), gen(budget - 1 - split, scope)
        return And(left, right) if pick == "and" else Until(left, right)

    return gen(budget, ())


def _state_local_formula(rng: random.Random, props, noms, budget: int) -> Formula:
    """No temporal operators: valid as a global-state or initial constraint body."""

    def leaf() -> Formula:
        pick = rng.choice(["top"] + (["prop"] if props else []) + ["nom"])
        if pick == "prop":
            return Prop(rng.choice(props))
        if pick == "nom":
            return Nom(rng.choice(noms))
        return Top()

    def gen(budget: int) -> Formula:
        if budget <= 1:
            return leaf()
        pick = rng.choice(["not", "and", "spatial", "at", "leaf"])
        if pick == "leaf":
            return leaf()
        if pick == "not":
            return Not(gen(budget - 1))
        if pick == "spatial":
            return Spatial(rng.choice(DIRECTIONS), gen(budget - 1))
        if pick == "at":
            return At(rng.choice(noms), gen(budget - 1))
        split = rng.randint(1, budget - 2) if budget > 2 else 1
        return And(gen(split), gen(budget - 1 - split))

    return gen(budget)


def _move_path(rng: random.Random) -> tuple[Direction, ...]:
    return tuple(rng.choice(DIRECTIONS) for _ in range(rng.randint(0, 2)))


def _assumption_set(rng: random.Random, props, noms) -> AssumptionSet:
    assumptions = []
    locked: set[str] = set()
    if len(noms) >= 2 and rng.random() < 0.35:
        dependee, dependent = rng.sample(noms, 2)
        assumptions.append(RelativeMotion(dependee, dependent, _move_path(rng)))
        locked |= {dependee, dependent}
    for v in noms:
        if v in locked:
            continue
        pick = rng.random()
        if pick < 0.25:
            assumptions.append(StaticCar(v))
        elif pick < 0.60:
            moves = frozenset(_move_path(rng) for _ in range(rng.randint(1, 3)))
            assumptions.append(FixedMotion(v, moves))
    for _ in range(rng.randint(0, 2)):
        assumptions.append(GlobalState(rng.choice(noms), _state_local_formula(rng, props, noms, 4)))
    if rng.random() < 0.5:
        body = _state_local_formula(rng, props, noms, 3)
        assumptions.append(Initial(At(rng.choice(noms), body) if rng.random() < 0.5 else body))
    if rng.random() < 0.4:
        assumptions.append(Raw(_core_formula(rng, props, noms, 6)))
    rng.shuffle(assumptions)
    return AssumptionSet(assumptions)


def space_size(g: GridGraph, props, noms, max_len: int) -> int:
    """Traces in the unpruned space: the sum of S^k for k = 1..max_len."""
    s = state_count(g, len(props), len(noms))
    return sum(s**k for k in range(1, max_len + 1))


def models(seed: int, rounds: int) -> list:
    """``rounds`` rounds of one model per grid shape and nominal count.

    Every round covers the same shapes, and the proposition rides on
    the first of every seven rounds (where the grid has at most four
    cells), close to the acceptance check's 15%.  The seed draws the
    assumption sets.  A fixed shape schedule keeps the work of one pass
    steady across seeds, where drawing the shapes at random would not:
    a model's cost depends mostly on its shape.
    """
    rng = random.Random(seed)
    out = []
    for r in range(rounds):
        for shape in GRID_SHAPES:
            g = make_grid(*shape)
            for n_noms in (1, 2):
                noms = ["z0", "z1"][:n_noms]
                props = ["q"] if (r % 7 == 0 and g.position_count <= 4) else []
                max_len = 1
                for n in (2, 3):
                    if space_size(g, props, noms, n) <= SPACE_CAP:
                        max_len = n
                out.append((g, props, noms, _assumption_set(rng, props, noms), max_len))
    return out
