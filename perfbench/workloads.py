"""The benchmark's three workloads.

Each workload is one caller in a closed loop: it makes its next call only
after the previous one returns. It builds its inputs from the seed, times
its section of the public API, checks every output and reports which
operations failed. An operation is a rerun (reproduce-ident), a sweep point
(sweep-ident-800k) or one CLI command (cli-ident-split).

- reproduce-ident: `run_experiment` on the packaged ident benchmark, the
  `softirl reproduce ident` path. MaxEnt (soft value iteration plus the
  gradient solve) dominates it.
- sweep-ident-800k: sample -> classify_then_regress -> evaluate at
  n = 800,000, as `scripts/sweep_sample_size.py` does. MaxEnt is absent; the
  sampler and the K = 447 regression loop dominate.
- cli-ident-split: gen-data -> solve -> eval -> diagnose through
  `softirl.cli.main` on a split-variant config. Cold soft-VI solves in
  `build_env`, text I/O and many small fits dominate.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from softirl import cli, envs, harness, metrics, solver  # noqa: E402
from spans import patched  # noqa: E402

WORKLOADS = ("reproduce-ident", "sweep-ident-800k", "cli-ident-split")
# Seconds one operation takes on the reference box (a 2-vCPU Intel Xeon VM).
# A run does round(seconds / nominal) operations, so its work is fixed by
# --seconds and the seed, never by how fast the machine happens to be.
NOMINAL_OP_S = {"reproduce-ident": 10.0, "sweep-ident-800k": 15.5, "cli-ident-split": 5.0}
FULL_N = {"reproduce-ident": 50_000, "sweep-ident-800k": 800_000, "cli-ident-split": 50_000}
IMPORT_REPEATS = 9
IMPORT_PROBES = 20
PREP_REPEATS = 3
NORMALIZATION_TOL = 1e-9
# Tolerances of the reference match (ROADMAP items 2 and 3).
OURS_TOL = 1e-9
MAXENT_TOL = 1e-6
QUALITY = ("rmse_qdiff", "kl")
# The speed of the reference box, whose host is shared, switches between two
# levels about a third apart, in phases of one to a few seconds, and the same
# fixed work timed ten times spreads by up to 0.3 of its median. A timed
# block therefore runs a fixed probe kernel (no softirl code) every
# PROBE_INTERVAL_S of wall time from a timer signal, leaves the probe's time
# out, and reports raw * mean(PROBE_REF_S / probe time): the probes are
# spread evenly over the block, so their mean speed is the block's mean
# speed. PROBE_REF_S is about the probe's time on the reference box.
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.004
_PROBE_RNG = np.random.default_rng(0)
_PROBE_P = _PROBE_RNG.random((64, 5, 64))
_PROBE_P /= _PROBE_P.sum(axis=2, keepdims=True)
_PROBE_U = _PROBE_RNG.random(300)
_PROBE_CELLS = _PROBE_RNG.integers(0, 320, size=5000)

CLI_CONFIG = """\
[env]
width = 8
height = 8
topology = bounded
reward_kind = tabular-linear
seed = 23
min_action_prob = 0.03

[solver]
k = auto
split = true
smoothing_alpha = 1.0

[eval]
n = {n}
name = ident
"""


@dataclass(frozen=True)
class Sizes:
    """Work of one run: `ops` reruns, sweep points or CLI chains of `n`
    records each. `maxent_epochs` caps MaxEnt (None: the packaged value)."""

    ops: int
    n: int
    maxent_epochs: int | None = None


def full_sizes(workload: str, seconds: float) -> Sizes:
    ops = max(1, round(seconds / NOMINAL_OP_S[workload]))
    return Sizes(ops=ops, n=FULL_N[workload])


@dataclass
class Timed:
    """A timed block: `raw_s` is its wall time less the probes' time,
    `factor` the mean of PROBE_REF_S / probe time over it (1.0 with the probe
    off) and `window` its (start, end) on the perf_counter clock."""

    raw_s: float = 0.0
    factor: float = 1.0
    window: tuple = (0.0, 0.0)

    @property
    def ref_s(self) -> float:
        """The block's time in reference-box seconds."""
        return self.raw_s * self.factor


@dataclass
class Outcome:
    """`wall` is the timed section; `setup_s` (reference-box seconds) and
    `raw_setup_s` price the imports and the work done before it."""

    wall: Timed
    setup_s: float
    raw_setup_s: float
    attempted: int
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    nonzero_exits: int = 0
    failed_reruns: int = 0

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.problems.append(f"{op}: {message}")


class _NoTrace:
    """Stands in for spans.Tracer when the run is not traced."""

    def instrument(self):
        return nullcontext()

    def section(self, name):
        return nullcontext()


def import_seconds() -> tuple[float, float]:
    """Time to import the package in a fresh interpreter, as a user pays it,
    and the mean of PROBE_REF_S / probe time over probes that interpreter
    runs right after, on the vCPU that did the import."""
    code = ("import time; t = time.perf_counter(); import softirl.harness, softirl.cli; "
            "t = time.perf_counter() - t; import statistics, workloads as w; "
            f"print(repr(t), repr(statistics.fmean(w.PROBE_REF_S / w.probe_seconds() "
            f"for _ in range({IMPORT_PROBES}))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    raw_s, factor = done.stdout.split()[-2:]
    return float(raw_s), float(factor)


def probe_seconds() -> float:
    """One run of the probe kernel: the workloads' mix of work (small
    matvec/logsumexp sweeps, a Python loop of searchsorted calls, a bincount).
    Its data stay in cache, so that it measures the host's speed rather than
    what the workload left in the cache."""
    t = time.perf_counter()
    v = np.zeros(64)
    for _ in range(120):
        q = 0.97 * (_PROBE_P @ v)
        top = q.max(axis=1)
        v = top + np.log(np.exp(q - top[:, None]).sum(axis=1))
    cdf = np.cumsum(np.exp(v - v.max()))
    for u in _PROBE_U:
        np.searchsorted(cdf, u * cdf[-1], side="right")
    np.bincount(_PROBE_CELLS, weights=_PROBE_U[_PROBE_CELLS % 300], minlength=320)
    return time.perf_counter() - t


class Probe:
    """Times blocks and measures the host's speed over them (see
    PROBE_INTERVAL_S). A traced run keeps it off, so that its spans see only
    the package's work."""

    def __init__(self, active: bool = True):
        self.active = active

    @contextmanager
    def timed(self):
        """Time the block; the yielded Timed is filled in when it ends."""
        block, inside, edges = Timed(), [], []
        if self.active:
            edges.append(probe_seconds())
            previous = signal.signal(signal.SIGALRM,
                                     lambda signum, frame: inside.append(probe_seconds()))
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield block
        finally:
            if self.active:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            t1 = time.perf_counter()
            block.raw_s = t1 - t0 - sum(inside)
            block.window = (t0, t1)
            if self.active:
                edges.append(probe_seconds())
                block.factor = statistics.fmean(PROBE_REF_S / c for c in inside + edges)


def _setup_seconds(probe: Probe, prep) -> tuple[float, float, object]:
    """Median fresh-interpreter import time plus median time of `prep`, the
    work the workload does before its timed section, in reference-box and in
    raw seconds; returns prep's result too."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    blocks, result = [], None
    for _ in range(PREP_REPEATS):
        with probe.timed() as block:
            result = prep()
        blocks.append(block)
    ref_imports = statistics.median(raw * (factor if probe.active else 1.0)
                                    for raw, factor in imports)
    return (ref_imports + statistics.median(b.ref_s for b in blocks),
            statistics.median(raw for raw, _ in imports)
            + statistics.median(b.raw_s for b in blocks), result)


def _check_report(out: Outcome, op, report: dict, expected: dict | None, tol: float) -> bool:
    """Finite metrics, and a match to the reference when one is stored."""
    bad = [k for k, v in report.items() if not math.isfinite(v)]
    if bad:
        out.fail(op, f"non-finite metrics {bad}")
        return False
    if expected is not None:
        off = {k: (report[k], v) for k, v in expected.items() if not abs(report[k] - v) <= tol}
        if off:
            out.fail(op, f"metrics differ from the reference by more than {tol:g}: {off}")
            return False
    return True


def _check_normalization(out: Outcome, op, solution) -> None:
    err = solver.check_normalization(solution.r, solution.mu_table)
    if not err <= NORMALIZATION_TOL:
        out.fail(op, f"normalization error {err:.3e} > {NORMALIZATION_TOL:g}")


def _key(sizes: Sizes, data_seed: int) -> str:
    """Reference entries hold for one dataset size and data seed."""
    return f"n={sizes.n},seed={data_seed}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _add_quality(out: Outcome, prefix: str, report: dict) -> None:
    for k in QUALITY:
        out.quality.setdefault(f"{prefix}_{k}", []).append(report[k])


def reproduce_ident(seed: int, sizes: Sizes, reference: dict | None, tracer, probe: Probe,
                    work: Path):
    """`run_experiment` on the packaged ident benchmark; reruns are the
    operations, with data seeds seed * ops + rerun."""
    setup_s, raw_setup_s, _ = _setup_seconds(
        probe, lambda: work.mkdir(parents=True, exist_ok=True))
    base = seed * sizes.ops
    cfg = harness.builtin_experiment("ident", reruns=sizes.ops, base_seed=base)
    cfg.n = sizes.n
    if sizes.maxent_epochs is not None:
        cfg.baseline.max_epochs = sizes.maxent_epochs
    solutions = {}
    out_dir = work / "reproduce"
    with tracer.instrument():
        solve = harness.classify_then_regress

        def keep(data, config, **kwargs):
            solutions[data.meta["seed"]] = result = solve(data, config, **kwargs)
            return result

        with patched([(harness, "classify_then_regress", keep)]), probe.timed() as wall:
            try:
                rows, _ = harness.run_experiment(cfg, out_dir=out_dir, quiet=True)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed run is a measured outcome
                rows, error = [], exc

    out = Outcome(wall=wall, setup_s=setup_s, raw_setup_s=raw_setup_s, attempted=sizes.ops)
    if error is not None:
        for rerun in range(sizes.ops):
            out.fail(rerun, f"run_experiment raised {error!r}")
        out.failed_reruns = sizes.ops
        return out
    per_rerun = {}
    for rerun, method, metric, value in rows:
        per_rerun.setdefault(rerun, {}).setdefault(method, {})[metric] = value
    expected = (reference or {}).get("reruns", {})
    for rerun in range(sizes.ops):
        data_seed = base + rerun
        if rerun not in per_rerun:
            out.fail(rerun, "rerun raised inside run_experiment")
            out.failed_reruns += 1
            continue
        got = per_rerun[rerun]
        out.record.setdefault("reruns", {})[_key(sizes, data_seed)] = got
        want = expected.get(_key(sizes, data_seed), {})
        ok = _check_report(out, rerun, got["Ours"], want.get("Ours"), OURS_TOL)
        ok &= _check_report(out, rerun, got["MaxEnt"], want.get("MaxEnt"), MAXENT_TOL)
        if data_seed in solutions:
            _check_normalization(out, rerun, solutions[data_seed])
        else:
            out.fail(rerun, "no Ours solution passed through harness.classify_then_regress")
        if ok:
            _add_quality(out, "ours", got["Ours"])
            _add_quality(out, "maxent", got["MaxEnt"])
    raw_key = f"{_key(sizes, base)},reruns={sizes.ops}"
    digest = _sha256(out_dir / "raw.csv")
    out.record["raw_csv"] = {raw_key: digest}
    want_digest = (reference or {}).get("raw_csv", {}).get(raw_key)
    if want_digest is not None and digest != want_digest:
        for rerun in range(sizes.ops):
            out.fail(rerun, "raw.csv is not byte-identical to the reference")
    return out


def sweep_ident(seed: int, sizes: Sizes, reference: dict | None, tracer, probe: Probe,
                work: Path):
    """Sweep points at n records: sample -> classify_then_regress -> evaluate,
    with data seeds seed * ops + point. The env is built before the timer."""
    cfg = harness.builtin_experiment("ident")

    def prep():
        mdp, r_true, _ = envs.build_env(cfg.env)
        return mdp, r_true, envs.expert_policy(mdp, r_true)

    with tracer.instrument():
        setup_s, raw_setup_s, (mdp, r_true, pi) = _setup_seconds(probe, prep)
        reports = {}
        with probe.timed() as wall:
            for point in range(sizes.ops):
                data_seed = seed * sizes.ops + point
                try:
                    data = envs.sample_transitions(mdp, pi, sizes.n, seed=data_seed,
                                                   env_id=cfg.name)
                    solution = solver.classify_then_regress(data, cfg.solver)
                    report = metrics.evaluate(mdp, r_true, pi, solution.r, solution.v)
                    reports[point] = (data_seed, solution, report.as_dict())
                except Exception as exc:  # noqa: BLE001 - a failed point is a measured outcome
                    reports[point] = exc

    out = Outcome(wall=wall, setup_s=setup_s, raw_setup_s=raw_setup_s, attempted=sizes.ops)
    expected = (reference or {}).get("points", {})
    for point, result in reports.items():
        if isinstance(result, Exception):
            out.fail(point, f"raised {result!r}")
            continue
        data_seed, solution, report = result
        out.record.setdefault("points", {})[_key(sizes, data_seed)] = report
        _check_normalization(out, point, solution)
        if _check_report(out, point, report, expected.get(_key(sizes, data_seed)), OURS_TOL):
            _add_quality(out, "ours", report)
    return out


CLI_STEPS = ("gen-data", "solve", "eval", "diagnose")


def cli_ident_split(seed: int, sizes: Sizes, reference: dict | None, tracer, probe: Probe,
                    work: Path):
    """CLI chains gen-data -> solve -> eval -> diagnose run in-process through
    `softirl.cli.main`; chain i uses data seed seed * ops + i."""
    config = work / "ident-split.ini"
    setup_s, raw_setup_s, _ = _setup_seconds(probe, lambda: _write_config(config, sizes.n))
    codes = {}
    with tracer.instrument(), probe.timed() as wall:
        for chain in range(sizes.ops):
            data_seed = seed * sizes.ops + chain
            d = work / f"chain{chain}"
            d.mkdir(parents=True, exist_ok=True)
            common = ["--config", str(config), "--quiet"]
            argvs = {
                "gen-data": ["gen-data", *common, "--seed", str(data_seed),
                             "--out", str(d / "data.txt")],
                "solve": ["solve", str(d / "data.txt"), *common, "--out", str(d / "solution")],
                "eval": ["eval", str(d / "solution"), *common, "--out", str(d / "eval.csv")],
                "diagnose": ["diagnose", *common, "--seed", str(data_seed),
                             "--out", str(d / "diagnose.csv")],
            }
            for step in CLI_STEPS:
                with tracer.section(f"cli.{step}"):
                    try:
                        codes[(chain, step)] = cli.main(argvs[step])
                    except Exception as exc:  # noqa: BLE001 - counted as a failed command
                        codes[(chain, step)] = exc

    out = Outcome(wall=wall, setup_s=setup_s, raw_setup_s=raw_setup_s,
                  attempted=sizes.ops * len(CLI_STEPS))
    expected = (reference or {}).get("chains", {})
    for chain in range(sizes.ops):
        data_seed = seed * sizes.ops + chain
        d = work / f"chain{chain}"
        want = expected.get(_key(sizes, data_seed), {})
        ok = {}
        for step in CLI_STEPS:
            code = codes[(chain, step)]
            ok[step] = code == 0
            if not ok[step]:
                out.nonzero_exits += 1
                out.fail((chain, step), f"exit code {code!r}")
        try:
            got = _check_chain(out, chain, d, ok, want)
        except (OSError, ValueError, IndexError) as exc:
            for step in CLI_STEPS:
                out.fail((chain, step), f"unreadable output: {exc!r}")
            continue
        out.record.setdefault("chains", {})[_key(sizes, data_seed)] = got
    return out


def _check_chain(out: Outcome, chain: int, d: Path, ok: dict, want: dict) -> dict:
    """Check the files of the chain's successful commands; returns what was read."""
    got = {}
    if ok["gen-data"]:
        got["dataset_sha256"] = _sha256(d / "data.txt")
        if want.get("dataset_sha256", got["dataset_sha256"]) != got["dataset_sha256"]:
            out.fail((chain, "gen-data"), "dataset differs from the reference")
    if ok["solve"]:
        _check_normalization(out, (chain, "solve"), solver.load_solution(d / "solution"))
    if ok["eval"]:
        got["eval"] = _read_metric_csv(d / "eval.csv")
        if _check_report(out, (chain, "eval"), got["eval"], want.get("eval"), OURS_TOL):
            _add_quality(out, "ours", got["eval"])
    if ok["diagnose"]:
        last = (d / "diagnose.csv").read_text().splitlines()[-1].split(",")
        got["diagnose"] = {"k": float(last[0]), "sup_dist_to_exact_v": float(last[2])}
        _check_report(out, (chain, "diagnose"), got["diagnose"], want.get("diagnose"),
                      OURS_TOL)
    return got


def _write_config(path: Path, n: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(CLI_CONFIG.format(n=n))


def _read_metric_csv(path: Path) -> dict:
    lines = path.read_text().splitlines()[1:]
    return {name: float(value) for name, value in (line.split(",") for line in lines)}


RUNNERS = {"reproduce-ident": reproduce_ident, "sweep-ident-800k": sweep_ident,
           "cli-ident-split": cli_ident_split}


def run(workload: str, seed: int, sizes: Sizes, reference: dict | None, work: Path,
        tracer=None) -> Outcome:
    """Run one workload in `work` (emptied before and removed after)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return RUNNERS[workload](seed, sizes, reference, tracer or _NoTrace(),
                                 Probe(active=tracer is None), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
