"""The three workloads of the hstl benchmark.

Each workload is a list of items (scenarios or random models) and two
steps per item: ``setup``, the cold set-up a CLI invocation pays, and
``consume``, which drains the streams and checks the result against a
known answer.  Both steps reach ``hstl`` through module attributes
(``harness.build_config``, ``checkers.sat_traces``, ...) so that the
traced run's probes see every call.

``frame(name, fn, *args)`` runs ``fn(*args)``; the traced run passes one
that also records a frame named ``name`` (see ``tracer.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hstl import checkers, evaluator, formula, harness, idioms, scenarios
from hstl.checkers import Algorithm
from hstl.formula import Top
from hstl.idioms import AssumptionSet

from instances import models, space_size

#: A single item that runs longer than this counts as timed out.
ITEM_TIMEOUT = 60.0

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass
class Outcome:
    generated: int
    satisfying: int
    configs: tuple = ()  # the checker configurations, for counting spec nodes afterwards
    error: str | None = None  # set when the output disagrees with the known answer


def _scenario(family: str, arg: int):
    return getattr(scenarios, family)(arg)


class _ScenarioWorkload:
    """Built-in scenarios in a seed-shuffled order, each checked against its known counts."""

    SCENARIOS: tuple[tuple[str, int], ...] = ()

    def __init__(self, seed: int):
        self.items = [_scenario(family, arg) for family, arg in self.SCENARIOS]
        random.Random(seed).shuffle(self.items)
        self.expected = EXPECTED[self.name]["counts"]

    def label(self, scenario) -> str:
        return scenario.name

    def describe(self, scenario) -> str:
        return scenario.name


class CheckMotion(_ScenarioWorkload):
    """``hstl check --algorithm motion``: build_config, then sat_traces, fully consumed."""

    name = "check-motion"
    SCENARIOS = (
        ("platoon", 2),
        ("passing", 3),
        ("one_lane_follow", 12),
        ("intersection", 3),
        ("hazard", 2),
    )

    def setup(self, scenario, frame):
        cfg = harness.build_config(scenario, Algorithm.MOTION)
        deadline = perf_counter() + ITEM_TIMEOUT
        return cfg, checkers.sat_traces(cfg, stop=lambda: perf_counter() >= deadline)

    def consume(self, scenario, state, frame) -> Outcome:
        cfg, result = state

        def drain():
            for _ in result:
                pass

        frame("checkers.stream", drain)
        out = Outcome(result.traces_generated, result.traces_satisfying, (cfg,))
        want = self.expected[scenario.name]
        if result.interrupted:
            out.error = f"timed out after {ITEM_TIMEOUT:.0f} s"
        elif (out.satisfying, out.generated) != (want["sat"], want["generated"]):
            out.error = (
                f"got sat={out.satisfying} generated={out.generated}, "
                f"want sat={want['sat']} generated={want['generated']}"
            )
        return out


class EnumerateMotion(_ScenarioWorkload):
    """The motion stream under the scenario's assumptions and a ``Top`` spec, drained."""

    name = "enumerate-motion"
    SCENARIOS = (("platoon", 3), ("passing", 4), ("intersection", 4))

    def setup(self, scenario, frame):
        aset = scenarios.compile_assumption_set(scenario)
        cfg = checkers.make_config(
            scenario.grid,
            scenario.propositions,
            scenario.nominals,
            aset,
            Top(),
            scenario.max_trace_length,
            Algorithm.MOTION,
        )
        return cfg, checkers.generate_traces_motion(cfg)

    def consume(self, scenario, state, frame) -> Outcome:
        cfg, stream = state
        deadline = perf_counter() + ITEM_TIMEOUT

        def drain():
            n = 0
            for _ in stream:
                n += 1
                if not n & 0xFFF and perf_counter() >= deadline:
                    return n, True
            return n, False

        n, timed_out = frame("checkers.stream", drain)
        out = Outcome(n, n, (cfg,))
        want = self.expected[scenario.name]["generated"]
        if timed_out:
            out.error = f"timed out after {ITEM_TIMEOUT:.0f} s"
        elif n != want:
            out.error = f"got generated={n}, want {want}"
        return out


class OneshotEval:
    """Random small models: the motion stream must equal the baseline stream
    filtered by per-point ``evaluate()`` calls on every pruning assumption."""

    name = "oneshot-eval"
    #: Rounds of the model schedule per pass (14 models a round).
    ROUNDS = 7

    def __init__(self, seed: int):
        self.items = list(enumerate(models(seed, self.ROUNDS)))

    def label(self, item) -> str:
        return f"model {item[0]}"

    def describe(self, item) -> str:
        i, (g, props, noms, aset, max_len) = item
        parts = "; ".join(f"{type(a).__name__}({_render(a)})" for a in aset.assumptions)
        return (
            f"model {i}: grid {g.rows}x{g.cols}, props {props}, noms {noms}, "
            f"max_len {max_len}, space {space_size(g, props, noms, max_len)}, assumptions [{parts}]"
        )

    def setup(self, item, frame):
        _, (g, props, noms, aset, max_len) = item
        motion_cfg = checkers.make_config(g, props, noms, aset, Top(), max_len, Algorithm.MOTION)
        base_cfg = checkers.make_config(
            g, props, noms, AssumptionSet(), Top(), max_len, Algorithm.BASELINE
        )
        lowered = [
            frame("formula.desugar", formula.desugar, idioms.lower(a), g)
            for a in aset.pruning_assumptions()
        ]
        motion = checkers.generate_traces_motion(motion_cfg)
        base = checkers.generate_traces_baseline(base_cfg)
        return g, lowered, motion, base, (motion_cfg, base_cfg)

    def consume(self, item, state, frame) -> Outcome:
        g, lowered, motion, base, cfgs = state
        got, base_traces = frame("checkers.stream", lambda: (list(motion), list(base)))
        evaluate = evaluator.evaluate
        cells = list(g.positions())
        # Every (assumption, cell) pair is evaluated, without short-circuiting,
        # so the number of evaluate() calls follows from the inputs alone.
        want = [
            t for t in base_traces if all([evaluate(g, t, p, f) for f in lowered for p in cells])
        ]
        got_set, want_set = frame("bench.compare", lambda: (set(got), set(want)))
        out = Outcome(len(got) + len(base_traces), len(want), cfgs)
        if got_set != want_set or len(got) != len(got_set):
            out.error = (
                f"motion yields {len(got)} traces ({len(got_set)} distinct), filtered baseline "
                f"{len(want_set)}; {len(want_set - got_set)} missing, {len(got_set - want_set)} extra"
            )
        return out


def _render(a) -> str:
    if isinstance(a, idioms.GlobalState):
        return f"{a.viewpoint}: {formula.render(a.formula)}"
    if isinstance(a, (idioms.Initial, idioms.Raw)):
        return formula.render(a.formula)
    if isinstance(a, idioms.StaticCar):
        return a.nominal
    if isinstance(a, idioms.FixedMotion):
        return f"{a.nominal}: {[[d.value for d in m] for m in a.sorted_moves()]}"
    return f"{a.dependee} -> {a.dependent}: {[d.value for d in a.path]}"


WORKLOADS = {w.name: w for w in (CheckMotion, EnumerateMotion, OneshotEval)}
