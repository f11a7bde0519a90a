"""catvis benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the repository root.  Builds the workload's CLI calls from the
seed, measures set-up (fresh-interpreter import of ``catvis.cli``), runs the
calls in one fresh worker interpreter for ``--seconds``, checks the files
they wrote, and prints one JSON object as the last line of stdout.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer span totals.  Any failed check exits nonzero without a result.
End-to-end times are scaled to a reference machine speed by the speed probe
run around (and, for passes, during) each timed step.  See bench/README.md
for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from worker import probe  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_REPEATS = 11
SETUP_PROBES = 20  # probe runs between two set-up interpreters
CHILD_TIMEOUT = 170
# The speed probe's time at the reference speed.  A step that took t seconds
# while probe runs took p seconds on average is reported as t * PROBE_REF_S / p.
PROBE_REF_S = 0.0015


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first, no
    ``CATVIS_*`` settings, which would change the CLI's output, one BLAS
    thread, and no huge-page advice from NumPy.  On a small shared machine,
    BLAS thread start-up and contention made single matrix products up to ten
    times slower at random, and whether a process got huge pages, which
    depends on the host's free memory, moved ``routes`` times by up to 20 %
    from one process to the next."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CATVIS_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def at_ref_speed(times, probes) -> float:
    """Median of the times, each scaled by the probe time measured around it."""
    return statistics.median(t / p for t, p in zip(times, probes)) * PROBE_REF_S


def measure_setup(env) -> tuple:
    """Wall time of a fresh interpreter importing ``catvis.cli``: the median
    at reference speed, and the raw median.  The probe runs between the
    interpreters: run while a child runs, it followed the child's time less
    well."""
    cmd = [sys.executable, "-c", "import catvis.cli"]
    times, probes = [], []
    before = statistics.fmean(probe() for _ in range(SETUP_PROBES))
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        # a blocking wait: with a timeout, Popen polls the child every 50 ms
        code = subprocess.Popen(cmd, env=env, cwd=ROOT).wait()
        took = time.perf_counter() - t0
        if code != 0:
            raise CheckFailed(f"importing catvis.cli exited {code}")
        after = statistics.fmean(probe() for _ in range(SETUP_PROBES))
        if i:  # the first import may write bytecode caches
            times.append(took)
            probes.append((before + after) / 2)
        before = after
    return at_ref_speed(times, probes), statistics.median(times)


# span totals reported as per-pass medians (s) and exact per-pass counts
LAYER_TIMES = (
    "fock.coherent_overlap.s", "fock.coherent_fock.s", "operators.bs_fock_apply.s",
    "operators.interference_reduced_a.s", "phase_space.integrate_q_term.s",
    "phase_space.q_marginal.s", "heisenberg.contrast_report.s",
    "experiment.fringe_scan.s", "experiment.fit_fringe.s",
    "experiment.fock_brute_force_visibility.s", "experiment.sweep.self_s",
    "cli.main.s", "cli.main.self_s",
)
LAYER_COUNTS = (
    "fock.coherent_overlap.elems", "fock.coherent_fock.levels",
    "operators.bs_fock_apply.calls", "operators.bs_fock_apply.amps",
    "phase_space.integrate_q_term.calls", "phase_space.integrate_q_term.grid_points",
    "heisenberg.contrast_report.calls", "experiment.fock_brute_force_visibility.calls",
    "cli.main.calls",
)


def per_layer(result: dict, counts, n_calls: int) -> dict:
    """Per-layer metrics from the traced passes' span totals."""
    spans = result["spans"]

    def count(key):
        vals = {s.get(key, 0) for s in spans}
        if len(vals) != 1:
            raise CheckFailed(f"work count {key} differs between passes: {vals}")
        return vals.pop()

    layer = {k: (statistics.median(s.get(k, 0.0) for s in spans), "s") for k in LAYER_TIMES}
    layer.update({k: (count(k), "count") for k in LAYER_COUNTS})
    if layer["cli.main.calls"][0] != n_calls:
        raise CheckFailed("traced pass missed CLI calls")
    brute_calls = layer["experiment.fock_brute_force_visibility.calls"][0]
    brute_ok = count("experiment.fock_brute_force_visibility.ok")
    traced = statistics.median(result["traced_walls"])
    layer.update({
        # 1 when the route was not called: nothing was refused
        "experiment.fock_brute_force_visibility.ok_ratio":
            (brute_ok / brute_calls if brute_calls else 1.0, "ratio"),
        "cli.parse.s": (statistics.median(
            s.get("cli.build_parser.s", 0.0) + s.get("cli.resolve_config.s", 0.0)
            for s in spans), "s"),
        "cli.out_bytes": (result["out_bytes"], "bytes"),
        "cli.out_rows": (counts.out_rows, "count"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_s": (traced - statistics.median(result["walls"]), "s"),
        "machine.wall_s": (statistics.median(result["walls"]), "s"),
        "machine.probe_s": (statistics.median(result["probes"]), "s"),
    })
    return layer


def run(args) -> dict:
    if not (SRC / "catvis" / "cli.py").is_file():
        raise CheckFailed(f"no catvis sources under {SRC}")
    workload = WORKLOADS[args.workload](args.seed)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        paths = [out_dir / f"call{i}.out" for i in range(len(workload.calls))]
        calls = [argv + ["--output", str(p)] for argv, p in zip(workload.calls, paths)]
        spec = out_dir / "spec.json"
        spec.write_text(json.dumps({"calls": calls, "seconds": args.seconds,
                                    "trace": bool(args.trace)}))
        env = child_env()
        setup_s, setup_raw = (None, None) if args.trace else measure_setup(env)
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise CheckFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
            raise CheckFailed(f"imported catvis from {result['package']}, not {SRC}")
        if args.workload == "qfull" and "CoverageWarning" in result["warnings"]:
            raise CheckFailed("qfull grid raised a CoverageWarning")
        counts = workload.check(paths, result["exit_codes"])
        result["out_bytes"] = sum(p.stat().st_size for p in paths if p.exists())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    passes = len(result["walls"])
    print(f"# raw medians: wall_s {statistics.median(result['walls'])!r}  "
          f"setup_s {setup_raw!r}  probe_s {statistics.median(result['probes'])!r}  "
          f"passes: {passes}  warnings: {result['warnings']}")
    if args.trace:
        metrics = per_layer(result, counts, len(calls))
    else:
        wall = at_ref_speed(result["walls"], result["probes"])
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref_s": (wall, "s"),
            "rows_per_ref_s": (counts.ok_rows / wall, "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "ok_frac": ((counts.ops - counts.failed) / counts.ops, "fraction"),
        }
    return {
        "correct": True,
        "attempted": counts.ops * passes,
        "failed": counts.failed * passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        report = run(args)
    except (CheckFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
