"""One workload run in a fresh interpreter: ``python3 worker.py SPEC.json``.

The spec names the CLI calls of one pass (each with its ``--output`` file),
how long to measure and whether to trace.  The worker makes one untimed
warm-up pass, then timed passes until the time is up, through
``catvis.cli.main(argv)``.  A :class:`SpeedSampler` times each untraced
pass and samples the machine's speed while it runs.  Every pass must write
byte-identical files (compared by sha256).  It prints one JSON line: pass
wall times, the mean probe time of each pass, exit codes, warnings seen,
peak resident memory and, when tracing, per-pass span totals.  The files of
the last pass stay for the caller to check.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

MIN_PASSES = 3
PROBE_ITERATIONS = 3000
SAMPLE_INTERVAL = 0.05  # seconds between probe runs during a step


def probe() -> float:
    """Wall time of a fixed pure-Python loop of float formatting and list and
    dict work, like the CLI's own.  It runs with the garbage collector off,
    so the program's heap does not change it."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        parts, index, x = [], {}, 0.1234567
        for i in range(PROBE_ITERATIONS):
            x = x * 1.0000001 + 1e-9
            parts.append(format(x, ".12g"))
            index[i & 1023] = parts[-1]
        ",".join(parts)
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class SpeedSampler:
    """Times a step while sampling the machine's speed.

    This host's speed changes by up to two times within seconds.  While a
    step runs, a timer signal runs the probe every ``SAMPLE_INTERVAL``
    seconds, and the probe also runs just before and just after the step.
    The mean probe time is the speed the step met: over a series of ``grid``
    passes it correlated 0.93 with the pass time, against 0.75 for probe runs
    made only between passes.  Time spent in the probe during the step is
    taken out of the step's time.
    """

    def __init__(self) -> None:
        self._times = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self._times.append(probe())
        self._spent += time.perf_counter() - t0

    def measure(self, step) -> tuple:
        """Run ``step()``; return its wall time without the probe runs made
        during it, and the mean probe time before, during and after it."""
        self._times = []
        self._sample()
        self._spent = 0.0
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            step()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - self._spent
        self._sample()
        return wall, statistics.fmean(self._times)


def run_pass(cli, calls, sampler=None):
    """Run every call of one pass; return (wall seconds, mean probe seconds,
    exit codes, warnings).  Without a sampler the probe time is None."""
    codes, seen = [], {}
    sink = io.StringIO()

    def run_calls():
        for argv in calls:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse usage errors
                codes.append(exc.code if isinstance(exc.code, int) else 2)

    gc.collect()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        if sampler is None:
            t0 = time.perf_counter()
            run_calls()
            wall, speed = time.perf_counter() - t0, None
        else:
            wall, speed = sampler.measure(run_calls)
    for w in caught:
        seen[w.category.__name__] = seen.get(w.category.__name__, 0) + 1
    return wall, speed, codes, seen


def digests(paths):
    return [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
            for p in paths]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    calls = spec["calls"]
    paths = [Path(argv[argv.index("--output") + 1]) for argv in calls]
    seconds, trace = spec["seconds"], spec["trace"]

    import catvis.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    _, _, codes, seen = run_pass(cli, calls)  # warm-up
    first = digests(paths)
    sampler = SpeedSampler()
    walls, probes, traced_walls, spans = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_PASSES:
        wall, speed, pass_codes, _ = run_pass(cli, calls, sampler)
        walls.append(wall)
        probes.append(speed)
        if pass_codes != codes or digests(paths) != first:
            print("worker: output differs between passes", file=sys.stderr)
            return 3
        if tracer is not None:
            tracer.install()
            try:
                wall, _, pass_codes, _ = run_pass(cli, calls)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            spans.append(tracer.take())
            if pass_codes != codes or digests(paths) != first:
                print("worker: traced output differs from untraced", file=sys.stderr)
                return 3
    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "spans": spans,
        "exit_codes": codes,
        "warnings": seen,
        "probes": probes,
        "package": cli.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
