"""Seeded end-to-end and per-layer benchmark for the torelli deciders.

Run from the root of a source checkout (the library is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 35 --trace 0

Workloads (closed loop, one process, one thread):

* ``ladder``  -- five fixed configurations of rank 10..56.  One op is one
  rung, and a pass runs all five: ``build_model``, ``realize_delta`` of a
  seeded symmetric block map, ``analyze`` of the realized word, and
  ``to_json_dict`` plus ``json.dumps``.
* ``cli_mix`` -- a seeded batch of small documents (rank 8..30) run through
  ``torelli.cli.main`` in process: ``realize`` of the block map, ``analyze``
  of the realized word, and ``analyze`` of that word with a twist about
  ``a_0`` composed on the left (not weakly Torelli).  One op is one call.
* ``check``   -- the 22 invariants of ``oracle.INVARIANTS`` present when the
  benchmark was written, run by name on a fixed ``TrialPlan``.  One op is
  one trial of one invariant.

Every op's output is checked against an answer the benchmark derives from
its own inputs.  Times are CPU seconds scaled to a constant machine speed
by a reference loop sampled while the ops run (see ``gauge.py``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around the library's public functions (see
``bench_trace.py``).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; earlier lines carry the
run's stamp and the metrics under their workload-specific names.  Spans and
a full result are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bench_trace import DECIDERS, TARGETS, Tracer, layer_table
from gauge import Gauge

WORKLOADS = ("ladder", "cli_mix", "check")
SETUP_REPS = 7

# (q_genus, ((genus, boundary_count), ...)) for ranks 10, 16, 28, 38, 56.
LADDER = (
    (1, ((1, 4),)),
    (2, ((1, 3), (0, 4))),
    (2, ((1, 6), (1, 6))),
    (2, ((2, 8), (1, 8))),
    (3, ((2, 12), (1, 12))),
)

# cli_mix documents: three per (rank, k0_rank) target, with 1..3 components and
# block-map kinds cycling by document index.
CLI_TARGETS = tuple((rank, rank // 3) for rank in range(8, 31, 2))
CLI_DOCS_PER_TARGET = 3
CLI_KINDS = ("general", "correctable", "general", "zero")

CHECK_PLAN_SEED = 0
CHECK_TRIALS = 30
CHECK_INVARIANTS = (
    "exactlin_smith_form",
    "exactlin_solver",
    "exactlin_kernel",
    "model_form_unimodular",
    "model_orthogonal_complements",
    "model_boundary_image",
    "model_adjunction",
    "model_circle_orthogonality",
    "word_symplectic",
    "delta_additive",
    "delta_functional_equation",
    "delta_well_defined",
    "delta_symmetric",
    "identity_extension_matches_action",
    "correction_round_trip",
    "three_circle_guarantee",
    "realization_round_trip",
    "multitwist_difference",
    "basis_change_round_trip",
    "peripheral_twist_formula",
    "sign_flip_invariance",
    "generator_soundness",
)

UNITS = {
    "setup_s": "s", "pass_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "peak_rss_mb": "MB", "ops_failed_frac": "frac",
    "ladder_s": "s", "check_s": "s", "cli_ms_p50": "ms", "cli_ms_p90": "ms",
    "cli_ops_per_s": "1/s",
}
# Names the roadmap uses for what each workload's generic metrics measure.
NAMED = {
    "ladder": {"ladder_s": "pass_s"},
    "cli_mix": {"cli_ms_p50": "op_ms_p50", "cli_ms_p90": "op_ms_p90"},
    "check": {"check_s": "pass_s"},
}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order; each workload emits all."""
    names = [f"{name}_ms" for _, _, name, _ in TARGETS if name not in DECIDERS]
    names += [
        "mapping_class.delta_solve_ms",
        "mapping_class.word_factors",
        "criteria.deciders_ms",
        "criteria.action_calls_per_analyze",
        "criteria.analyze_over_action",
        "realization.realized_factors",
        "cli.overhead_ms",
    ]
    names += [f"ladder.r{rung_rank(q, comps)}.analyze_ms" for q, comps in LADDER]
    names += [f"oracle.{name}_ms" for name in CHECK_INVARIANTS]
    names += ["startup.python_ms", "startup.import_cli_ms", "cli.process_ms",
              "trace.overhead_ms", "trace.overhead_frac"]
    return names


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_factors") or name.endswith("_per_analyze"):
        return "count"
    return "ratio"


# -- library loading ---------------------------------------------------------


class Library:
    """The torelli modules, freshly imported from ``<root>/src``."""

    NAMES = ("exactlin", "surface_model", "mapping_class", "criteria", "realization",
             "oracle", "cli")

    def __init__(self, root: Path):
        src = str(root / "src")
        if sys.path[0] != src:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules if m == "torelli" or m.startswith("torelli.")]:
            del sys.modules[name]
        self.package = importlib.import_module("torelli")
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"torelli.{name}"))

    def all_modules(self):
        return [self.package] + [getattr(self, name) for name in self.NAMES]


# -- inputs and known answers ------------------------------------------------


def rung_rank(q_genus: int, comps) -> int:
    genus = q_genus + sum(g for g, _ in comps) + sum(n for _, n in comps) - len(comps)
    return 2 * genus


def k0_rank(comps) -> int:
    return sum(n - 1 for _, n in comps)


def random_blocks(rng: random.Random, comps, kind: str) -> list:
    """One symmetric block per component, of size boundary_count - 1.

    Blocks are drawn through their coefficients over the contiguous-indicator
    basis that ``realize_delta`` expands them in, each +1 or -1.  The realized
    word then has one factor per coefficient, all of exponent +-1, so the cost
    of the ops is the same for every seed (within 2% at rank 28; coefficients
    up to +-3 made it differ by 1.5x between seeds): size * (size + 1) / 2
    factors for a general block, and the diagonal plus the whole-range
    coefficient for a correctable one."""
    blocks = []
    for _, n in comps:
        size = n - 1
        block = [[0] * size for _ in range(size)]
        if kind == "general":
            intervals = [(k, l) for k in range(size) for l in range(k, size)]
        elif kind == "correctable":
            # base * ones + diag(e): the restriction of a diagonal map
            intervals = [(k, k) for k in range(size)] + ([(0, size - 1)] if size > 1 else [])
        else:
            intervals = []
        for k, l in intervals:
            value = rng.choice((-1, 1))
            for r in range(k, l + 1):
                for c in range(k, l + 1):
                    block[r][c] += value
        blocks.append(block)
    return blocks


def expected_report(comps, blocks) -> dict:
    """The analyze report of a word realizing ``blocks``, derived from the
    blocks alone: delta is their block-diagonal sum, every verdict but the
    identity extension holds, and a multi-twist corrects the word exactly
    when each block's off-diagonal entries agree."""
    k = k0_rank(comps)
    matrix = [[0] * k for _ in range(k)]
    exponents = []
    start = 0
    for (_, n), block in zip(comps, blocks):
        size = n - 1
        for r in range(size):
            matrix[start + r][start:start + size] = block[r]
        start += size
        base = block[0][1] if size >= 2 else 0
        if exponents is not None and all(
            block[r][c] == base for r in range(size) for c in range(size) if r != c
        ):
            # correcting exponents: circle 0 gets -base, circle i gets -(d_i - base)
            exponents += [-base] + [base - block[i][i] for i in range(size)]
        else:
            exponents = None
    return {
        "weakly_torelli": True,
        "delta": {"matrix": matrix},
        "symmetric": True,
        "completely_reducible": True,
        "extension_by_identity_torelli": not any(any(row) for row in matrix),
        "extendable_to_torelli": True,
        "multitwist_correctable": exponents,
        "component_matrices": [[list(row) for row in block] for block in blocks],
    }


NOT_WEAKLY_TORELLI = {
    "weakly_torelli": False,
    "delta": None,
    "symmetric": False,
    "completely_reducible": False,
    "extension_by_identity_torelli": False,
    "extendable_to_torelli": False,
    "multitwist_correctable": None,
    "component_matrices": None,
}


def mismatch(expected, actual) -> list[str]:
    """Where a JSON answer differs from the expected one."""
    if expected == actual:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [f"[{i}].{key}" for i, (e, a) in enumerate(zip(expected, actual))
                for key in mismatch(e, a)]
    return ["value"]


def config_json(q_genus: int, comps) -> dict:
    return {"q_genus": q_genus,
            "components": [{"genus": g, "boundary_count": n} for g, n in comps]}


def make_config(lib: Library, q_genus: int, comps):
    return lib.surface_model.SubsurfaceConfig.from_json_dict(config_json(q_genus, comps))


def realize_blocks(lib: Library, config, blocks):
    """``build_model``, then ``realize_delta`` of the block map: (model, word)."""
    model = lib.surface_model.build_model(config)
    delta = lib.criteria.delta_from_blocks(
        model, {j: lib.exactlin.IntMatrix(b, cols=len(b)) for j, b in enumerate(blocks)}
    )
    return model, lib.realization.realize_delta(model, delta).word


def realize_word_json(lib: Library, q_genus: int, comps, blocks) -> dict:
    """Word the library realizes for ``blocks`` (input for the analyze ops)."""
    _, word = realize_blocks(lib, make_config(lib, q_genus, comps), blocks)
    return lib.mapping_class.word_to_json_dict(word)


def cli_config(rng: random.Random, rank: int, k0: int, components: int):
    """Seeded configuration with the given rank, k0_rank and component count,
    and q_genus >= 1.  The k0 classes are split as evenly as possible, so the
    block sizes, and with them the realized word lengths, vary little by seed."""
    handles = rank // 2 - k0
    q_genus = rng.randint(1, min(3, handles))
    genera = [0] * components
    for _ in range(handles - q_genus):
        genera[rng.randrange(components)] += 1
    sizes = [k0 // components + (j < k0 % components) for j in range(components)]
    rng.shuffle(sizes)
    return q_genus, tuple((g, size + 1) for g, size in zip(genera, sizes))


# -- workloads ---------------------------------------------------------------


@dataclass
class Op:
    label: str
    payload: object
    expected: object


@dataclass
class State:
    ops: list
    sizes: list


def setup_ladder(lib: Library, seed: int, tiny: bool, work: Path) -> State:
    ops, sizes = [], []
    for index, (q_genus, comps) in enumerate(LADDER[:2] if tiny else LADDER):
        rng = random.Random(f"ladder/{seed}/{index}")
        blocks = random_blocks(rng, comps, "general")
        ops.append(Op("ladder", (make_config(lib, q_genus, comps), blocks),
                      expected_report(comps, blocks)))
        sizes.append({"rank": rung_rank(q_genus, comps), "k0_rank": k0_rank(comps)})
    return State(ops, sizes)


def run_ladder_op(lib: Library, op: Op, clock):
    """One rung; the answer is its report, the length its realized word."""
    config, blocks = op.payload
    start = clock()
    model, word = realize_blocks(lib, config, blocks)
    text = json.dumps(lib.criteria.analyze(model, word).to_json_dict())
    end = clock()
    return start, end, json.loads(text), len(word)


def setup_cli_mix(lib: Library, seed: int, tiny: bool, work: Path) -> State:
    ops, sizes = [], []
    n_docs = 4 if tiny else len(CLI_TARGETS) * CLI_DOCS_PER_TARGET
    for d in range(n_docs):
        rank, k0 = CLI_TARGETS[d // CLI_DOCS_PER_TARGET]
        kind = CLI_KINDS[d % len(CLI_KINDS)]
        rng = random.Random(f"cli_mix/{seed}/{d}")
        q_genus, comps = cli_config(rng, rank, k0, 1 + d % 3)
        blocks = random_blocks(rng, comps, kind)
        word = realize_word_json(lib, q_genus, comps, blocks)
        twist = {"class": [1] + [0] * (rank - 1), "exponent": rng.choice((-2, -1, 1, 2)),
                 "locus": "Q"}
        files = {
            "config": config_json(q_genus, comps),
            "delta": {"blocks": {str(j): b for j, b in enumerate(blocks)}},
            "word": word,
            "moving": {"factors": [twist] + word["factors"]},
        }
        paths = {}
        for name, payload in files.items():
            paths[name] = str(work / f"doc{d}.{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        cfg = ["--config", paths["config"]]
        ops.append(Op("cli.realize", ["realize", *cfg, "--delta", paths["delta"]], word))
        ops.append(Op("cli.analyze", ["analyze", *cfg, "--word", paths["word"]],
                      expected_report(comps, blocks)))
        ops.append(Op("cli.analyze_moving", ["analyze", *cfg, "--word", paths["moving"]],
                      NOT_WEAKLY_TORELLI))
        sizes.append({"doc": d, "kind": kind, "rank": rank, "k0_rank": k0,
                      "word_len": len(word["factors"])})
    random.Random(f"cli_mix/{seed}/order").shuffle(ops)
    return State(ops, sizes)


def run_cli_op(lib: Library, op: Op, clock):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = clock()
        code = lib.cli.main(op.payload)
        end = clock()
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return start, end, json.loads(out.getvalue()), None


def setup_check(lib: Library, seed: int, tiny: bool, work: Path) -> State:
    # A fixed plan: the oracle's cost swings with the configurations a plan
    # seed draws (up to 1.6x between seeds 0..4), so --seed does not move it.
    plan = lib.oracle.TrialPlan(seed=CHECK_PLAN_SEED, trials=2 if tiny else CHECK_TRIALS)
    registry = dict(lib.oracle.INVARIANTS)
    ops = [Op(f"oracle.{name}", (registry.get(name), plan, index), None)
           for name in CHECK_INVARIANTS for index in range(plan.trials)]
    sizes = [{"invariants": len(CHECK_INVARIANTS), "registered": len(registry),
              "trials": plan.trials, "plan_seed": plan.seed}]
    return State(ops, sizes)


def run_check_op(lib: Library, op: Op, clock):
    check, plan, index = op.payload
    if check is None:
        raise LookupError(f"{op.label} is not registered")
    factory = lib.surface_model.build_model
    start = clock()
    witness = check(plan, index, factory)
    end = clock()
    return start, end, witness, None


SETUP = {"ladder": setup_ladder, "cli_mix": setup_cli_mix, "check": setup_check}
RUN_OP = {"ladder": run_ladder_op, "cli_mix": run_cli_op, "check": run_check_op}


# -- measurement -------------------------------------------------------------


@dataclass
class Sample:
    stretches: list = field(default_factory=list)  # (op index, start, end) clock readings
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    word_lens: dict = field(default_factory=dict)  # op index -> realized word length

    def times(self, gauge: Gauge) -> dict:
        """op index -> its scaled seconds in each pass."""
        times: dict = {}
        for index, start, end in self.stretches:
            times.setdefault(index, []).append(gauge.scaled(start, end))
        return times


def measure(workload: str, lib: Library, state: State, seconds: float, gauge: Gauge,
            tracer: Tracer | None = None, between_passes=None) -> Sample:
    """Closed loop over whole passes until the next pass would overrun.

    Only the library (or ``main()``) call of an op is timed, on the gauge's
    clock; checking its answer is not."""
    sample = Sample()
    run_op = RUN_OP[workload]
    started = perf_counter()
    pass_walls = []
    while True:
        gc.collect()
        wall = perf_counter()
        for index, op in enumerate(state.ops):
            sample.attempted += 1
            try:
                if tracer is None:
                    start, end, answer, length = run_op(lib, op, gauge.clock)
                else:
                    root = "cli.main" if workload == "cli_mix" else op.label
                    with tracer.span(root, sample.attempted):
                        start, end, answer, length = run_op(lib, op, gauge.clock)
            except Exception as exc:  # a failing op is counted, not fatal
                sample.failed += 1
                sample.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            sample.stretches.append((index, start, end))
            wrong = mismatch(op.expected, answer)
            if wrong:
                sample.failed += 1
                sample.problems.append(f"{op.label}: wrong {', '.join(wrong)}")
            if length is not None:
                sample.word_lens[index] = length
        pass_walls.append(perf_counter() - wall)
        if between_passes is not None:
            between_passes()
        if perf_counter() - started + max(pass_walls) > seconds:
            return sample


def quantile90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def parsed(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def subprocess_ms(argv, env, reps: int = 5, expect=None) -> tuple[float, int]:
    """Median wall time of a short child process, and how many runs failed."""
    times, failed = [], 0
    for _ in range(reps):
        start = perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        times.append((perf_counter() - start) * 1e3)
        if done.returncode != 0 or (expect is not None and parsed(done.stdout) != expect):
            failed += 1
    return statistics.median(times), failed


def startup_metrics(lib: Library, root: Path, seed: int, work: Path, sample: Sample) -> dict:
    """Interpreter start, import and a whole ``torelli analyze`` process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    q_genus, comps = LADDER[0]
    blocks = random_blocks(random.Random(f"startup/{seed}"), comps, "general")
    cfg, word = work / "startup.config.json", work / "startup.word.json"
    cfg.write_text(json.dumps(config_json(q_genus, comps)), encoding="utf-8")
    word.write_text(json.dumps(realize_word_json(lib, q_genus, comps, blocks)), encoding="utf-8")
    bare, f1 = subprocess_ms([sys.executable, "-c", "pass"], env)
    imported, f2 = subprocess_ms([sys.executable, "-c", "import torelli.cli"], env)
    process, f3 = subprocess_ms(
        [sys.executable, "-m", "torelli.cli", "analyze", "--config", str(cfg), "--word", str(word)],
        env, expect=expected_report(comps, blocks),
    )
    sample.attempted += 15
    sample.failed += f1 + f2 + f3
    if f1 + f2 + f3:
        sample.problems.append(f"{f1 + f2 + f3} start-up process(es) failed")
    return {"startup.python_ms": bare, "startup.import_cli_ms": imported - bare,
            "cli.process_ms": process}


def git_revision(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        tiny: bool = False, corrupt: bool = False) -> dict:
    """One benchmark run; returns the result with its stamp and named metrics."""
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=out_dir))
    gauge = Gauge()
    setups = []  # (start, end) gauge clock readings of each set-up

    def set_up():
        start = gauge.clock()
        fresh = Library(root)
        made = SETUP[workload](fresh, seed, tiny, work)
        setups.append((start, gauge.clock()))
        return fresh, made

    def another_setup():
        # Set-ups spread over the run sample the machine's slow and fast
        # spells alike; the measured ops keep using the first set-up.
        if len(setups) < SETUP_REPS:
            set_up()

    try:
        with gauge.armed():
            lib, state = set_up()
            if corrupt:
                corrupt_expectation(workload, state)
            if not trace:
                sample = measure(workload, lib, state, seconds, gauge,
                                 between_passes=another_setup)
                while len(setups) < SETUP_REPS:
                    set_up()
            else:
                sample = measure(workload, lib, state, seconds / 2, gauge)
                tracer = Tracer()
                with tracer.patched(lib):
                    traced = measure(workload, lib, state, seconds / 2, gauge, tracer=tracer)

        times = sample.times(gauge)
        if not trace:
            metrics = end_to_end(times, [gauge.scaled(*reading) for reading in setups])
        else:
            plain_pass = sum(op_medians(times))
            traced_pass = sum(op_medians(traced.times(gauge)))
            sample.attempted += traced.attempted
            sample.failed += traced.failed
            sample.problems += traced.problems
            layers = startup_metrics(lib, root, seed, work, sample)
            layers.update(layer_table(tracer.spans))
            layers["trace.overhead_ms"] = (traced_pass - plain_pass) * 1e3
            layers["trace.overhead_frac"] = (
                (traced_pass - plain_pass) / plain_pass if plain_pass else 0.0
            )
            metrics = {name: layers.get(name, 0.0) for name in per_layer_names()}
            tracer.dump(out_dir / f"spans-{workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for index, length in sample.word_lens.items():
        state.sizes[index]["word_len"] = length
    named = {alias: metrics[name] for alias, name in NAMED[workload].items() if name in metrics}
    if workload == "cli_mix" and "pass_s" in metrics:
        named["cli_ops_per_s"] = len(state.ops) / metrics["pass_s"]
    named["ops_failed_frac"] = sample.failed / max(sample.attempted, 1)
    if "setup_s" in metrics:
        named["setup_s"] = metrics["setup_s"]
        named["peak_rss_mb"] = metrics["peak_rss_mb"]
    return {
        "stamp": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": nproc(),
            "git_revision": git_revision(root), "inputs": state.sizes,
            "ops_per_pass": len(state.ops), "passes": max(map(len, times.values()), default=0),
        },
        "named": named,
        "problems": sample.problems[:20],
        "correct": sample.failed == 0,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": metrics,
    }


def op_medians(times: dict) -> list:
    """Each op's median scaled time over the passes."""
    return [statistics.median(values) for values in times.values()]


def end_to_end(times: dict, setup_times: list) -> dict:
    ops = op_medians(times)
    ops_ms = [t * 1e3 for t in ops] or [0.0]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(ops),
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_p90": quantile90(ops_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def corrupt_expectation(workload: str, state: State) -> None:
    """Spoil one known answer, so a run must report a failure (smoke test)."""
    if workload == "check":
        state.ops.append(Op("oracle.no_such_invariant", (None, None, 0), None))
        return
    for op in state.ops:
        reports = op.expected if isinstance(op.expected, list) else [op.expected]
        for i, report in enumerate(reports):
            if isinstance(report, dict) and report.get("weakly_torelli"):
                reports[i] = dict(report, extension_by_identity_torelli=not report[
                    "extension_by_identity_torelli"])
                if not isinstance(op.expected, list):
                    op.expected = reports[0]
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    # let a terminated run remove its work directory on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "torelli" / "__init__.py").is_file():
        print(f"error: no torelli sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root,
                 tiny=args.size == "tiny")

    with open(root / ".perfbench" / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    for name, value in result["named"].items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    units = UNITS if not args.trace else {n: layer_unit(n) for n in result["metrics"]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
