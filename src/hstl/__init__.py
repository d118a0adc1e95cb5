"""Bounded model checking of hybrid spatiotemporal specifications on grid roads.

The package is organized bottom-up:

* :mod:`hstl.core`      — grids, positions, states, traces, trace surgery
* :mod:`hstl.formula`   — abstract syntax, parser, desugaring, indexing
* :mod:`hstl.evaluator` — memoized satisfaction checking, formula progression, a naive oracle
* :mod:`hstl.idioms`    — structured motion assumptions and their lowerings
* :mod:`hstl.checkers`  — the three trace generators and satisfaction search
* :mod:`hstl.scenarios` — scenario files and the built-in driving suite
* :mod:`hstl.laws`      — exhaustive validity checking on small models
* :mod:`hstl.harness`   — timed runs, result tables, trace rendering
* :mod:`hstl.cli`       — the ``hstl`` command
"""

from .checkers import (
    Algorithm,
    CheckerConfig,
    CheckResult,
    baseline_trace_count,
    generate_traces_baseline,
    generate_traces_motion,
    generate_traces_optimized,
    make_config,
    sat_traces,
    state_count,
)
from .core import (
    Direction,
    GridGraph,
    Position,
    State,
    Trace,
    apply_path,
    make_grid,
    neighbor,
    substitute,
    suffix,
    trace_from_json_dict,
    trace_to_json_dict,
)
from .errors import HstlError, ParseError, SuffixUndefinedError, ValidationError
from .evaluator import EvalStats, evaluate, evaluate_naive, sat_points
from .formula import Formula, desugar, index_nodes, parse, render, symbols
from .harness import RunReport, build_config, emit_table, render_trace, run, validity_suite
from .idioms import (
    Assumption,
    AssumptionSet,
    FixedMotion,
    GlobalState,
    Initial,
    Raw,
    RelativeMotion,
    StaticCar,
    lower,
    validate,
)
from .scenarios import Scenario, bench_suite, builtin_scenarios, load_scenario, save_scenario

__version__ = "0.1.0"
