"""Shared helpers: seeded random model/formula/assumption generators."""

from __future__ import annotations

import random

from hstl.core import DIRECTIONS, Direction, GridGraph, Position, State, Trace, make_grid
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

BINDER_POOL = ("w0", "w1")


def random_position(rng: random.Random, g: GridGraph) -> Position:
    return Position(rng.randint(1, g.rows), rng.randint(1, g.cols))


def random_state(rng: random.Random, g: GridGraph, props, noms) -> State:
    cells = list(g.positions())
    return State(
        g,
        {a: frozenset(c for c in cells if rng.random() < 0.5) for a in props},
        {v: random_position(rng, g) for v in noms},
    )


def random_trace(rng: random.Random, g: GridGraph, props, noms, max_len: int) -> Trace:
    return Trace([random_state(rng, g, props, noms) for _ in range(rng.randint(1, max_len))])


def random_core_formula(rng: random.Random, props, noms, budget: int, scope=()) -> Formula:
    """A core-only formula with structural size <= budget."""
    props, noms = list(props), list(noms)
    atoms = list(scope) + noms

    def leaf() -> Formula:
        options = ["top"]
        if props:
            options.append("prop")
        if atoms:
            options.append("nom")
        pick = rng.choice(options)
        if pick == "prop":
            return Prop(rng.choice(props))
        if pick == "nom":
            return Nom(rng.choice(atoms))
        return Top()

    def gen(budget: int, scope: tuple[str, ...]) -> Formula:
        if budget <= 1:
            return leaf()
        pick = rng.choice(
            ["not", "and", "next", "until", "spatial", "at", "bind", "leaf"]
            if atoms
            else ["not", "and", "next", "until", "spatial", "leaf"]
        )
        if pick == "leaf":
            return leaf()
        if pick == "not":
            return Not(gen(budget - 1, scope))
        if pick == "next":
            return Next(gen(budget - 1, scope))
        if pick == "spatial":
            return Spatial(rng.choice(DIRECTIONS), gen(budget - 1, scope))
        if pick == "at":
            return At(rng.choice(list(scope) + noms), gen(budget - 1, scope))
        if pick == "bind":
            name = rng.choice(BINDER_POOL + tuple(noms)) if noms else rng.choice(BINDER_POOL)
            return Bind(name, gen(budget - 1, scope + (name,)))
        split = rng.randint(1, budget - 2) if budget > 2 else 1
        left = gen(split, scope)
        right = gen(budget - 1 - split, scope)
        return And(left, right) if pick == "and" else Until(left, right)

    return gen(budget, tuple(scope))


def random_state_local_formula(rng: random.Random, props, noms, budget: int = 5) -> Formula:
    """No temporal operators: safe as a global-state or initial constraint body."""
    props, noms = list(props), list(noms)

    def leaf() -> Formula:
        options = ["top"] + (["prop"] if props else []) + (["nom"] if noms else [])
        pick = rng.choice(options)
        if pick == "prop":
            return Prop(rng.choice(props))
        if pick == "nom":
            return Nom(rng.choice(noms))
        return Top()

    def gen(budget: int) -> Formula:
        if budget <= 1:
            return leaf()
        pick = rng.choice(["not", "and", "spatial", "at", "leaf"] if noms else ["not", "and", "spatial", "leaf"])
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


def random_move_path(rng: random.Random, max_len: int = 2) -> tuple[Direction, ...]:
    return tuple(rng.choice(DIRECTIONS) for _ in range(rng.randint(0, max_len)))


def random_assumption_set(rng: random.Random, g: GridGraph, props, noms) -> AssumptionSet:
    """A structurally consistent assumption set over the declared nominals."""
    noms = list(noms)
    assumptions = []
    locked: set[str] = set()

    if len(noms) >= 2 and rng.random() < 0.35:
        dependee, dependent = rng.sample(noms, 2)
        path = random_move_path(rng)
        assumptions.append(RelativeMotion(dependee, dependent, path))
        locked |= {dependee, dependent}

    for v in noms:
        if v in locked:
            continue
        pick = rng.random()
        if pick < 0.25:
            assumptions.append(StaticCar(v))
        elif pick < 0.60:
            moves = frozenset(random_move_path(rng) for _ in range(rng.randint(1, 3)))
            assumptions.append(FixedMotion(v, moves))
        # else: free

    for _ in range(rng.randint(0, 2)):
        viewpoint = rng.choice(noms)
        assumptions.append(
            GlobalState(viewpoint, random_state_local_formula(rng, props, noms, budget=4))
        )
    if noms and rng.random() < 0.5:
        # Anchored at a nominal, like every built-in start constraint;
        # test_checkers draws unanchored initials in a loop of its own.
        body = random_state_local_formula(rng, props, noms, budget=3)
        assumptions.append(Initial(At(rng.choice(noms), body)))
    if rng.random() < 0.4:
        assumptions.append(Raw(random_core_formula(rng, props, noms, budget=6)))

    rng.shuffle(assumptions)
    return AssumptionSet(assumptions)


def random_hybrid_nesting(rng: random.Random, props, noms, depth: int, scope=()) -> Formula:
    """A nesting of ↓, @, U, X, ∧, spatial steps and the odd ! over
    proposition and nominal leaves: the shapes in which an ``@`` jump reads
    a cell that a ``↓`` captured, next to nodes that read the viewpoint."""
    atoms = tuple(scope) + tuple(noms)
    if depth <= 0:
        pick = rng.random()
        if atoms and pick < 0.6:
            return Nom(rng.choice(atoms))
        return Prop(rng.choice(props)) if props and pick < 0.9 else Top()
    pick = rng.choice(["bind", "bind", "at", "at", "until", "and", "next", "spatial", "not"])
    if pick == "bind" or pick == "at" and not atoms:
        name = rng.choice(BINDER_POOL)
        return Bind(name, random_hybrid_nesting(rng, props, noms, depth - 1, scope + (name,)))
    if pick == "at":
        return At(rng.choice(atoms), random_hybrid_nesting(rng, props, noms, depth - 1, scope))
    if pick in ("until", "and"):
        left = random_hybrid_nesting(rng, props, noms, rng.randint(0, depth - 1), scope)
        return (Until if pick == "until" else And)(left, random_hybrid_nesting(rng, props, noms, depth - 1, scope))
    child = random_hybrid_nesting(rng, props, noms, depth - 1, scope)
    if pick == "spatial":
        return Spatial(rng.choice(DIRECTIONS), child)
    return Next(child) if pick == "next" else Not(child)


def random_exactness_instance(rng: random.Random):
    """A random (grid, props, noms, assumptions, max_len) whose baseline
    space is small enough to enumerate outright."""
    from hstl.checkers import state_count

    rows, cols = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (2, 2), (3, 1), (3, 2)])
    g = make_grid(rows, cols)
    noms = ["z0", "z1"][: rng.randint(1, 2)]
    props = ["q"] if (rng.random() < 0.15 and g.position_count <= 4) else []
    max_len = 1
    for n in (2, 3):
        if sum(state_count(g, len(props), len(noms)) ** k for k in range(1, n + 1)) <= 66_000:
            max_len = n
    aset = random_assumption_set(rng, g, props, noms)
    return g, props, noms, aset, max_len


def safe_follow_model():
    """A 5x3 road, three steps: the subject trails the other car, advances
    into the freed cell, then waits bumper-to-bumper.  Satisfies the
    staged follow specification used by the evaluator tests."""
    g = make_grid(5, 3)
    raw = [
        {"SV": (1, 2), "POV": (2, 2)},
        {"SV": (2, 2), "POV": (3, 2)},
        {"SV": (2, 2), "POV": (3, 2)},
    ]
    states = [
        State(g, {}, {name: Position(*cell) for name, cell in step.items()}) for step in raw
    ]
    formula = (
        "@SV !(Back 1)"
        " & G(@POV ↓v WX @POV (v | Back v))"
        " & G(@SV ↓v WX @SV ((!POV & Back v) | (v & Front POV)))"
    )
    return g, Trace(states), formula
