"""Self-test of the benchmark.  Run from the root of a source checkout:

    python3 bench/selftest.py

Prints one PASS/FAIL line per check and exits 0 only if every check passes.
It takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SINGLE, WORKLOADS  # noqa: E402

# Small commands that reach every traced function, for the profiler
# comparison; the profiler slows the real workloads too much.
_COVERAGE = (
    ["solve", "--domain", "disc", "--q", "1.5", "--nr", "12", "--ntheta", "24",
     "--starts", "2", "--seed", "1", "--out", "{dir}/solve"],
    ["verify", "{dir}/solve/report.json"],
    ["solve", "--domain", "disc", "--q", "1", "--nr", "12", "--ntheta", "24",
     "--starts", "2", "--seed", "1", "--out", "{dir}/solve1"],
    ["sweep", "--domain", "rectangle", "--sides", "2", "1", "--n", "16",
     "--starts", "2", "--q-list", "1.5,1", "--seed", "1", "--out", "{dir}/sweep"],
    ["radial", "--N", "2", "--q", "1", "--out", "{dir}/radial"],
    ["bounds", "--n-min", "2", "--n-max", "4", "--out", "{dir}/bounds"],
)


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""),
          flush=True)
    return ok


def check_traced_passes(cli, work: Path) -> bool:
    """Two traced passes per workload at one seed: identical counters, and
    outputs byte-identical to the untraced first pass."""
    ok = True
    modules = run.program_modules()
    for name in SINGLE:
        workload = WORKLOADS[name]
        runner = run.PassRunner(workload, cli, work / name)
        seed = workload.cli_seeds(0)[0]
        runner.run(seed, timed=False)
        tracer = tracing.Tracer()
        counts = []
        for k in range(2):
            tracer.pass_id = k
            tracer.install(modules)
            try:
                runner.run(seed, timed=True, tracer=tracer)
            finally:
                tracer.uninstall()
            counts.append(tracing.pass_layers(tracer, k)[0])
        problems = [m for p in runner.passes for s in p.steps for m in s.problems]
        ok &= _report(f"{name}: traced outputs equal untraced ones", not problems,
                      "; ".join(problems)[:500])
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        ok &= _report(f"{name}: counters repeat across two traced passes",
                      not diff, f"differ: {diff}" if diff else
                      f"{sum(1 for v in counts[0].values() if v)} nonzero counters")
    return ok


def _run_coverage(cli, directory: Path) -> None:
    for argv in _COVERAGE:
        rc = run.run_command(cli.main, [a.format(dir=directory) for a in argv])[0]
        if rc != 0:
            raise RuntimeError(f"coverage command {argv[0]} exited {rc}")


def check_wrappers_see_every_call(cli, work: Path) -> bool:
    """Calls the tracer records equal the calls a profiler counts on the
    original functions, for every wrapped function."""
    modules = run.program_modules()
    geometry = modules["geometry"]
    watched = {getattr(modules[mod], attr).__code__: span
               for mod, attr, span, _ in tracing.TARGETS}
    watched[geometry.Grid.h1_solve.__code__] = "geometry.h1_solve"
    watched[geometry.spla.factorized.__code__] = "geometry.h1_factor"
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            profiled[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        _run_coverage(cli, work / "profiled")
    finally:
        sys.setprofile(None)
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    tracer.install(modules)
    try:
        _run_coverage(cli, work / "traced")
    finally:
        tracer.uninstall()
    traced = Counter(s[0] for s in tracer.spans)
    names = set(watched.values())
    missing = sorted(n for n in names if profiled[n] == 0)
    diff = sorted(n for n in names if profiled[n] != traced[n])
    return (_report("coverage commands reach every wrapped function", not missing,
                    f"never called: {missing}" if missing else f"{len(names)} functions")
            & _report("wrappers see every call the profiler sees", not diff,
                      "; ".join(f"{n}: profiler {profiled[n]}, tracer {traced[n]}"
                                for n in diff) or f"{sum(traced.values())} calls"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_emitted() -> bool:
    spec = json.loads(run.SPEC.read_text())
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(run.ROOT, name, trace)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
                problems.append(f"no JSON result (exit {proc.returncode}): "
                                f"{proc.stderr[-500:]}")
            if result:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not (result.get("correct") is True and result.get("failed") == 0
                        and isinstance(result.get("attempted"), int)
                        and result["attempted"] >= 1):
                    problems.append("run not correct: " + proc.stdout[-800:])
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = result.get("metrics", {})
                if list(got) != list(want):
                    problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
                for metric, unit in want.items():
                    entry = got.get(metric, {})
                    value = entry.get("value")
                    if entry.get("unit") != unit or not isinstance(value, (int, float)) \
                            or isinstance(value, bool) or not math.isfinite(value):
                        problems.append(f"{metric}: {entry}")
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            ok &= _report(f"{name} --trace {trace}: every {key} metric with its unit",
                          not problems, "; ".join(problems)[:800])
    return ok


def check_fails_without_program(work: Path) -> bool:
    """In a directory with only BENCHMARK.json and bench/, the benchmark
    exits nonzero and prints no result."""
    bare = work / "bare"
    (bare / "bench").mkdir(parents=True)
    shutil.copy2(run.SPEC, bare / "BENCHMARK.json")
    for path in run.BENCH.iterdir():
        if path.is_file():
            shutil.copy2(path, bare / "bench" / path.name)
    proc = _bench(bare, "radial", 0)
    printed_result = '"metrics"' in proc.stdout
    return _report("without src/ the benchmark exits nonzero and prints no result",
                   proc.returncode != 0 and not printed_result,
                   f"exit code {proc.returncode}")


def main() -> int:
    run.set_run_env()
    cli = run.load_cli()
    work = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ok = check_traced_passes(cli, work)
        ok &= check_wrappers_see_every_call(cli, work)
        ok &= check_fails_without_program(work)
        ok &= check_metrics_emitted()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "all checks passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
