"""End-to-end and per-layer benchmark of the nodal-lab command line.

Drives ``nodal_lab.cli.main`` in-process from a single process: a closed
loop with one client that runs one command at a time.  One pass runs a
workload's commands in order (see workloads.py).  Run from the root of a
source checkout; the package is imported from ``src/``, nothing is built.

    python3 bench/run.py --workload grid --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
every time in reference-speed seconds (see CpuProbe),
``--trace 1`` the per-layer metrics from a separate traced run, and the last
line of standard output is one JSON object with the result.  The full record
(machine facts, command lines, every pass) goes to ``bench/results/``;
command outputs go to ``bench/.work/`` and are removed after each pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
SPEC = ROOT / "BENCHMARK.json"
# An untraced run stops at the first cycle boundary after --seconds, and runs
# at least this many cycles, so that every seed's outputs are compared with
# an earlier pass at that seed.
MIN_CYCLES = 2
# Seconds the CPU probe takes at the reference speed.  A time t measured
# while the probes around it took p seconds on average is reported as
# t * PROBE_REF_S / p.
PROBE_REF_S = 0.125
# One BLAS thread: on two shared cores a second OpenBLAS thread doubled the
# CPU time of a disc pass without shortening it and widened the spread of
# pass times about threefold.  NODAL_LAB_THREADS stays unset, so multistart
# runs serially.
RUN_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "NODAL_LAB_THREADS": None}

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from workloads import SINGLE, WORKLOADS, Workload  # noqa: E402

# A fresh interpreter that imports the CLI and every module a warm pass
# loaded (names on stdin), as a user's first command would.
_SETUP_CHILD = """\
import importlib, sys
sys.path.insert(0, sys.argv[1])
import nodal_lab.cli
for name in sys.stdin.read().split():
    if name not in sys.modules:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
"""


class ProgramMissing(Exception):
    pass


def load_cli():
    """Import nodal_lab.cli from this checkout's src/, nowhere else."""
    if not (SRC / "nodal_lab" / "cli.py").is_file():
        raise ProgramMissing(f"no nodal_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nodal_lab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "nodal_lab":
        raise ProgramMissing(f"nodal_lab imported from {cli.__file__}, not {SRC}")
    return cli


def program_modules() -> dict:
    from nodal_lab import diagnostics, functional, geometry, minimize, radial
    return {"geometry": geometry, "functional": functional, "minimize": minimize,
            "radial": radial, "diagnostics": diagnostics}


# -- one pass -----------------------------------------------------------------

@dataclass
class StepRecord:
    metric: str
    argv: list[str]
    rc: int | None
    seconds: float
    warnings: int
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0          # reference-speed seconds per wall second


@dataclass
class PassRecord:
    seed: int | None
    traced: bool
    timed: bool
    seconds: float
    steps: list[StepRecord]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.steps if s.problems)


def run_command(cli_main, argv: list[str]) -> tuple[int | None, float, int, str]:
    captured = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash counts as a failed call; the run goes on
            rc = None
            captured.write(traceback.format_exc())
        seconds = perf_counter() - t0
    n_warn = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
    return rc, seconds, n_warn, captured.getvalue()


def _digest(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class PassRunner:
    """Runs passes of one workload and checks every command's outputs,
    including byte identity with the first pass at the same seed."""

    def __init__(self, workload: Workload, cli, work: Path):
        self.workload = workload
        self.cli = cli
        self.work = work
        self.reference: dict[tuple[int | None, int], dict] = {}
        self.passes: list[PassRecord] = []

    def run(self, seed, *, timed: bool, tracer: tracing.Tracer | None = None,
            probe: CpuProbe | None = None):
        """One pass.  With a probe, whose last sample must be fresh, the
        probe runs after every command, which is then scaled by the mean of
        the probes around it, and the pass time is the sum of the commands'
        times."""
        pass_dir = self.work / f"pass{len(self.passes)}"
        pass_dir.mkdir(parents=True)
        steps = []
        t0 = perf_counter()
        for step in self.workload.steps:
            argv = step.render(seed, pass_dir)
            if tracer is None:
                res = run_command(self.cli.main, argv)
            else:
                res = tracer.call(f"cli.{argv[0]}", run_command, self.cli.main, argv)
            scale = 1.0 if probe is None else probe.scale(probe.samples[-1], probe())
            steps.append((step, argv, res, scale))
        seconds = perf_counter() - t0
        if probe is not None:
            seconds = sum(res[1] for _, _, res, _ in steps)

        records = []
        for i, (step, argv, (rc, secs, n_warn, text), scale) in enumerate(steps):
            out = pass_dir / step.out if step.out else None
            problems = step.check(out, rc)
            if out is not None and out.is_dir():
                digest = _digest(out)
                ref = self.reference.setdefault((seed, i), digest)
                if digest != ref:
                    changed = sorted(k for k in set(ref) | set(digest)
                                     if ref.get(k) != digest.get(k))
                    problems.append(f"outputs differ from the first pass: {changed}")
            if problems and text:
                problems.append("command output: " + text.strip()[-2000:])
            records.append(StepRecord(step.metric, argv, rc, secs, n_warn, problems,
                                      scale))
        shutil.rmtree(pass_dir)
        rec = PassRecord(seed, tracer is not None, timed, seconds, records)
        self.passes.append(rec)
        return rec


# -- measurements ---------------------------------------------------------------

def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it
    (nearest rank), or None when there are not eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)
    return p, sorted(samples)[rank - 1]


def setup_once(modules: list[str]) -> float:
    """Wall time of a fresh interpreter importing the CLI and the modules a
    warm pass loaded."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                          input="\n".join(modules), text=True,
                          capture_output=True, timeout=120)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr[-2000:]}")
    return seconds


class CpuProbe:
    """A fixed piece of CPU work of the three kinds the program does: an
    interpreter loop, many operations on small arrays and a few on large
    ones.  It takes about PROBE_REF_S seconds.

    The CPU speed of a shared host drifts, by a quarter and more over tens
    of seconds to minutes, and it moves the probe as it moves the program.
    The probe runs before and after every command of a timed pass and every
    set-up start, and the time of each is divided by the mean of the two
    probes around it, so the drift cancels and the program's own cost
    stays.  The speed changes within seconds, so each command gets its own
    pair of probes, not just each pass."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.small = np.linspace(0.0, 1.0, 64)
        self.large = np.random.default_rng(0).standard_normal(200_000)
        self.samples: list[float] = []

    def __call__(self) -> float:
        np, x, a = self.np, self.small, self.large
        t0 = perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        y = x.copy()
        for _ in range(15_000):
            y = np.minimum(y + 1e-3 * np.sin(y) * x, 2.0)
        for _ in range(12):
            np.sort(a[::-1])
            np.abs(a) ** 1.5
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        return 2 * PROBE_REF_S / (before + after)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_run_env() -> dict:
    """Apply RUN_ENV before numpy loads; returns the caller's values."""
    caller = {k: os.environ.get(k) for k in RUN_ENV}
    for key, value in RUN_ENV.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    return caller


def machine_facts(caller_env: dict) -> dict:
    np_mod, sp_mod = sys.modules.get("numpy"), sys.modules.get("scipy")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": getattr(np_mod, "__version__", None),
        "scipy": getattr(sp_mod, "__version__", None),
        "run_env": {k: os.environ.get(k) for k in RUN_ENV},
        "caller_env": caller_env,
        "load": "closed loop, 1 client, 1 command at a time, in-process",
    }


def timed_window(seconds: float, min_calls: int, run_one, cycle: int = 1) -> None:
    """Call run_one(i) for i = 0, 1, ... until the window has elapsed, at
    least min_calls calls were made and the calls made are a whole number of
    cycles."""
    end = perf_counter() + seconds
    i = 0
    while i < min_calls or i % cycle or perf_counter() < end:
        run_one(i)
        i += 1


def summary(samples: list[float]) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples),
           "min": min(samples), "max": max(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


def run_untraced(workload: Workload, seed: int, seconds: float, cli, work: Path):
    """Whole cycles over the workload's CLI seeds.  Each timed pass is
    followed by one fresh set-up interpreter, and a CPU probe runs before
    and after each command and set-up; times are scaled to the reference
    speed."""
    runner = PassRunner(workload, cli, work)
    seeds = workload.cli_seeds(seed)
    before = set(sys.modules)
    runner.run(seeds[0], timed=False)            # warm-up and first reference
    loaded = [m for m in list(sys.modules) if m not in before]
    setup_once(loaded)                           # fills the file cache
    probe = CpuProbe()
    probe()                                      # warm-up
    probe()
    setup, setup_wall = [], []

    def one(i):
        runner.run(seeds[i % len(seeds)], timed=True, probe=probe)
        before = probe.samples[-1]
        wall = setup_once(loaded)
        setup.append(wall * probe.scale(before, probe()))
        setup_wall.append(wall)

    timed_window(seconds, MIN_CYCLES * len(seeds), one, cycle=len(seeds))
    timed = [p for p in runner.passes if p.timed]

    timings = {"pass_s": [sum(s.seconds * s.scale for s in p.steps) for p in timed]}
    for metric in dict.fromkeys(s.metric for s in workload.steps):
        timings[f"{metric}_s"] = [
            sum(s.seconds * s.scale for s in p.steps if s.metric == metric)
            for p in timed]
    metrics = {k: summary(v) for k, v in timings.items()}
    metrics["setup_s"] = summary(setup)
    metrics["setup_s"]["modules"] = len(loaded)
    metrics["peak_rss_mb"] = {"value": peak_rss_mib()}
    values = {k: v["median"] for k, v in metrics.items() if "median" in v}
    values["peak_rss_mb"] = metrics["peak_rss_mb"]["value"]
    # wall-clock figures, as measured, for the record
    metrics["wall"] = {"pass_s": summary([p.seconds for p in timed]),
                       "setup_s": summary(setup_wall),
                       "probe_s": summary(probe.samples)}
    return runner, values, metrics


def run_traced(workload: Workload, seed: int, seconds: float, cli, work: Path):
    """Untraced and traced passes alternate at one seed; per-layer figures
    come from the traced ones, the overhead from the difference."""
    runner = PassRunner(workload, cli, work)
    cli_seed = workload.cli_seeds(seed)[0]
    tracer = tracing.Tracer()
    modules = program_modules()
    runner.run(cli_seed, timed=False)            # warm-up and reference
    per_pass = []

    def one(i):
        if i % 2:
            runner.run(cli_seed, timed=True)
            return
        tracer.pass_id = len(runner.passes)
        tracer.install(modules)
        try:
            rec = runner.run(cli_seed, timed=True, tracer=tracer)
        finally:
            tracer.uninstall()
        counts, times = tracing.pass_layers(tracer, tracer.pass_id)
        counts["numerics.warnings"] = sum(s.warnings for s in rec.steps)
        per_pass.append((counts, times))

    timed_window(seconds, 3, one)                # at least two traced passes
    counts = per_pass[0][0]
    problems = [f"traced pass {i} counters differ from the first: "
                f"{sorted(k for k in counts if c[k] != counts[k])}"
                for i, (c, _) in enumerate(per_pass) if c != counts]
    values = dict(counts)
    values.update(tracing.median_times([t for _, t in per_pass]))
    traced = [p.seconds for p in runner.passes if p.timed and p.traced]
    plain = [p.seconds for p in runner.passes if p.timed and not p.traced]
    values["trace.pass_s"] = statistics.median(traced)
    # each traced pass against the untraced pass right after it, so that the
    # box's slow drift in CPU speed mostly cancels
    values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, plain))
    detail = {"traced_pass_s": summary(traced), "untraced_pass_s": summary(plain),
              "counters_per_pass": [c for c, _ in per_pass]}
    return runner, values, detail, problems, tracer


# -- reporting --------------------------------------------------------------------

def emitted(spec_metrics: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def print_untraced(workload: Workload, seed: int, metrics: dict,
                   failed: int, attempted: int) -> None:
    seeds = workload.cli_seeds(seed)
    seeds = "ignored" if seeds == [None] else f"{seeds[0]}..{seeds[-1]} in turn"
    print(f"workload {workload.name}, seed {seed} (CLI seeds {seeds}); "
          f"closed loop, 1 client")
    for line in workload.command_lines():
        print(f"  $ {line}")
    wall = metrics["wall"]
    print(f"  times in reference-speed seconds: wall time x {PROBE_REF_S} s / "
          f"the CPU probe's time around it (probe median {wall['probe_s']['median']:.4f} s"
          f" of {wall['probe_s']['n']}; wall medians: pass "
          f"{wall['pass_s']['median']:.4f} s, set-up {wall['setup_s']['median']:.4f} s)")
    for name, m in metrics.items():
        if name == "wall":
            continue
        if name == "peak_rss_mb":
            print(f"  {name:<20} {m['value']:10.1f} MiB  (peak RSS of this process)")
            continue
        tail = "".join(f", {k} {v:.4f}" for k, v in m.items() if k.startswith("p"))
        extra = f", {m['modules']} modules" if "modules" in m else ""
        print(f"  {name:<20} {m['median']:10.4f} s    median of {m['n']}"
              f" (min {m['min']:.4f}, max {m['max']:.4f}{tail}{extra})")
    print(f"  {'failed_frac':<20} {failed / attempted:10.4f}      "
          f"{failed} of {attempted} command calls failed")


def run_workload(args, spec: dict) -> int:
    caller_env = set_run_env()
    try:
        cli = load_cli()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            runner, values, detail, problems, tracer = run_traced(
                workload, args.seed, args.seconds, cli, work)
            metrics = emitted(spec["per_layer"], values)
        else:
            runner, values, detail = run_untraced(
                workload, args.seed, args.seconds, cli, work)
            problems = []
            metrics = emitted(spec["end_to_end"], values)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.steps) for p in runner.passes)
    failed = sum(p.failed for p in runner.passes)
    for p in runner.passes:
        for s in p.steps:
            for msg in s.problems:
                print(f"FAILED {' '.join(s.argv[:1])} (seed {p.seed}): {msg}")
    for msg in problems:
        print(f"FAILED {msg}")
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        print(f"workload {workload.name}, seed {args.seed}: traced run")
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        tracer.write(RESULTS / f"{tag}-spans.csv.gz")
    else:
        print_untraced(workload, args.seed, detail, failed, attempted)
    facts = machine_facts(caller_env)
    print(f"  machine: {facts['nproc']} CPUs, Python {facts['python']}, numpy "
          f"{facts['numpy']}, scipy {facts['scipy']}, run env {facts['run_env']}")
    record = {
        "workload": workload.name, "seed": args.seed,
        "cli_seeds": workload.cli_seeds(args.seed),
        "seed_note": None if workload.seeded else "this workload has no randomness; the seed is ignored",
        "commands": workload.command_lines(), "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "metrics": metrics, "detail": detail,
        "failed_frac": failed / attempted, "problems": problems,
        "passes": [{"seed": p.seed, "traced": p.traced, "timed": p.timed,
                    "seconds": p.seconds,
                    "steps": [vars(s) for s in p.steps]} for p in runner.passes],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each single-mechanism workload in its own fresh process, then one
    table of every metric by name and unit.  ``grid`` is left out: it is
    three of them back to back."""
    rows = {}
    for name in SINGLE:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(
            (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cells = {w: {k: f"{v['value']:.6g}" for k, v in r["metrics"].items()}
                 for w, r in rows.items()}
    else:
        units = {k: "s" for r in rows.values() for k in r["detail"]
                 if "median" in r["detail"][k]}
        units.update(peak_rss_mb="MiB", failed_frac="share")
        cells = {}
        for w, r in rows.items():
            d = r["detail"]
            cells[w] = {k: f"{d[k]['median']:.4f}" for k in units if k in d
                        and "median" in d[k]}
            cells[w]["peak_rss_mb"] = f"{d['peak_rss_mb']['value']:.1f}"
            cells[w]["failed_frac"] = f"{r['failed_frac']:.4f}"
    print()
    print(f"{'metric':<40} {'unit':<8}" + "".join(f"{w:>13}" for w in rows))
    for name, unit in units.items():
        print(f"{name:<40} {unit:<8}" +
              "".join(f"{cells[w].get(name, '-'):>13}" for w in rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
