"""Per-layer spans for the catvis benchmark, installed from outside ``src/``.

Each traced function is replaced by a wrapper in every ``catvis`` module that
holds it under its name, so calls that the program makes through its own
module globals are seen.  A wrapper adds its call's duration to
``<layer>.<function>.s`` and the duration minus that of traced calls made
inside it to ``.self_s``, counts calls and successful returns, and adds
exact work counts derived from the call's arguments.  Totals live in memory
in :attr:`Tracer.stats` until the benchmark reads them.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np
from catvis.fock import default_cutoff
from catvis.phase_space import QGrid


def _overlap_elems(args, kwargs):
    alpha = kwargs.get("alpha", args[0] if args else None)
    beta = kwargs.get("beta", args[1] if len(args) > 1 else None)
    return {"elems": np.broadcast(np.asarray(alpha), np.asarray(beta)).size}


def _fock_levels(args, kwargs):
    alpha = kwargs.get("alpha", args[0] if args else None)
    cutoff = kwargs.get("cutoff", args[1] if len(args) > 1 else None)
    return {"levels": default_cutoff(alpha) if cutoff is None else int(cutoff)}


def _bs_amps(args, kwargs):
    state = kwargs.get("state", args[1] if len(args) > 1 else None)
    return {"amps": state.amplitudes.size}


def _grid_points(args, kwargs):
    term = kwargs.get("term", args[0] if args else None)
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    if grid is None:
        grid = QGrid.for_term(term)
    return {"grid_points": 2 * grid.points_per_axis**2}


# (module, function, span name, work counter)
TRACED = (
    ("catvis.fock", "coherent_overlap", "fock.coherent_overlap", _overlap_elems),
    ("catvis.fock", "coherent_fock", "fock.coherent_fock", _fock_levels),
    ("catvis.operators", "bs_fock_apply", "operators.bs_fock_apply", _bs_amps),
    ("catvis.operators", "interference_reduced_a", "operators.interference_reduced_a", None),
    ("catvis.phase_space", "integrate_q_term", "phase_space.integrate_q_term", _grid_points),
    ("catvis.phase_space", "q_marginal", "phase_space.q_marginal", None),
    ("catvis.heisenberg", "contrast_report", "heisenberg.contrast_report", None),
    ("catvis.experiment", "fringe_scan", "experiment.fringe_scan", None),
    ("catvis.experiment", "fit_fringe", "experiment.fit_fringe", None),
    ("catvis.experiment", "fock_brute_force_visibility",
     "experiment.fock_brute_force_visibility", None),
    ("catvis.experiment", "sweep", "experiment.sweep", None),
    ("catvis.cli", "build_parser", "cli.build_parser", None),
    ("catvis.cli", "resolve_config", "cli.resolve_config", None),
    ("catvis.cli", "main", "cli.main", None),
)


class Tracer:
    """Installs and removes the span wrappers; holds their totals."""

    def __init__(self) -> None:
        self.stats = defaultdict(int)
        self._open = []  # traced time of child spans, one slot per open span
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, name, counter):
        stats, open_spans = self.stats, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stats[name + ".s"] += dt
                stats[name + ".self_s"] += dt - child
                stats[name + ".calls"] += 1
                stats[name + ".ok"] += ok
                if counter is not None:
                    for key, val in counter(args, kwargs).items():
                        stats[name + "." + key] += val

        return span

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if (k == "catvis" or k.startswith("catvis.")) and m is not None]
        for home, attr, name, counter in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> dict:
        """Return the totals gathered since the last call and reset them."""
        out = dict(self.stats)
        self.stats.clear()
        return out
