"""Run one benchmark workload against the cayleycert sources of this checkout.

    python3 perfbench/run.py --workload certify-cayley --seed 1 --seconds 25 --trace 0

Set-up is timed several times: a fresh interpreter importing the program,
then building and writing the seeded inputs.  The measured part repeats
whole rounds over the same operations until --seconds have passed, and takes
each operation's shortest time over the rounds (see ``best_times``).  Every
answer is checked afterwards by ``checker``.  The last line of standard
output is one JSON object with correct, attempted, failed and the metrics:
the end-to-end ones with --trace 0, the per-module ones (from a separate
traced pass, see ``tracing``) with --trace 1.
"""

import os

# One BLAS thread, fixed before numpy loads: with the default pool the float
# products in colour refinement spread over both cores of a small machine and
# make wall time depend on what else runs there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import cayleycert from this checkout's src/."""
    package = ROOT / "src" / "cayleycert"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no cayleycert sources at {package}")
    sys.path.insert(0, str(package.parent))
    import cayleycert.cli  # noqa: F401  (numpy and every module of the program)

    if Path(cayleycert.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cayleycert from {cayleycert.__file__}, not {package}")


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the program, as the
    ``cayleycert`` command does before its first answer."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cayleycert.cli"], cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": path}, check=True)
    return time.perf_counter() - start


@dataclass
class Round:
    wall_s: float
    op_s: list  # wall seconds per operation, in order
    op_cpu_s: list  # process CPU seconds per operation, in order
    results: list  # (op, output or None, exception or None)


def best_times(rounds, attr: str = "op_s") -> list:
    """Each operation's shortest time over the rounds.

    On a shared host the speed of this process switches between a fast state
    and one about 1.5 times slower, for ten seconds or more at a time (a fixed
    pure-Python loop took 0.13 s or 0.20 s, each within a few per cent).  A
    median over a run's rounds falls in either state; the shortest time of
    each operation is its time in the fast state.
    """
    return [min(times) for times in zip(*(getattr(r, attr) for r in rounds))]


def run_round(ops) -> Round:
    results, times, cpu_times = [], [], []
    wall0 = time.perf_counter()
    for op in ops:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            results.append((op, op.run(), None))
        except Exception as exc:  # counted failed and reported below
            results.append((op, None, exc))
        times.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
    return Round(time.perf_counter() - wall0, times, cpu_times, results)


def check_rounds(rounds) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every operation of every round.

    An answer identical to one already accepted for the same operation is
    accepted without re-running its check, so many short rounds stay cheap.
    """
    correct, attempted, failed = True, 0, 0
    accepted = set()
    for rnd in rounds:
        for op, output, exc in rnd.results:
            attempted += 1
            if exc is None:
                key = (op.name, repr(output))
                if key in accepted:
                    continue
                try:
                    op.check(output)
                    accepted.add(key)
                    continue
                except Exception as bad:  # a wrong or malformed answer
                    exc = bad
            failed += 1
            if not op.known_fault:
                correct = False
                print(f"{op.name}: {''.join(traceback.format_exception_only(exc)).strip()}", file=sys.stderr)
    return correct, attempted, failed


def repeat_until(seconds: float, step):
    """Whole repetitions of step() until seconds have passed (at least one)."""
    out, start = [], time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(step())
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    prepare = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            target = workdir / f"setup{i}"
            target.mkdir()
            import_s = time_import()
            start = time.perf_counter()
            ops = prepare(args.seed, target)
            setup_times.append(import_s + time.perf_counter() - start)

        if not args.trace:
            rounds = repeat_until(args.seconds, lambda: run_round(ops))
            best = best_times(rounds)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (sum(best), "s"),
                "cpu_s": (sum(best_times(rounds, "op_cpu_s")), "s"),
                "slowest_op_s": (max(best), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
        else:
            untraced = run_round(ops)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                target = workdir / "traced"
                target.mkdir()
                ops = prepare(args.seed, target)
                per_setup = tracer.snapshot()

                def traced_round():
                    before = tracer.snapshot()
                    rnd = run_round(ops)
                    after = tracer.snapshot()
                    return rnd, {k: after[k] - before[k] for k in after}

                traced = repeat_until(args.seconds, traced_round)
            finally:
                tracer.uninstall()
            rounds = [untraced] + [rnd for rnd, _ in traced]
            metrics = {
                name: (value + statistics.median(delta[name] for _, delta in traced),
                       "s" if name.endswith("_s") else "count")
                for name, value in per_setup.items()
            }
            traced_wall = statistics.median(rnd.wall_s for rnd, _ in traced)
            metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced.wall_s - 1.0), "%")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed = check_rounds(rounds)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    op_s = {op.name: t for (op, _, _), t in zip(rounds[0].results, best_times(rounds))}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "op_seconds": op_s}, indent=1) + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
