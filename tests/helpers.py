"""Independent numerical oracles shared across the test suite.

Everything here recomputes expected values through a different algorithm
than the library uses (direct series with log-factorials, dense matrix
exponentials), so agreement is evidence rather than restatement.
"""

import csv
import io
import json
import math
import warnings

import numpy as np
import scipy.linalg


def coherent_amplitudes_direct(alpha, cutoff: int) -> np.ndarray:
    """``e^{-|a|^2/2} a^n / sqrt(n!)`` evaluated per term in log space."""
    alpha = complex(alpha)
    out = np.zeros(cutoff, dtype=complex)
    mag = abs(alpha)
    if mag == 0.0:
        out[0] = 1.0
        return out
    phase = alpha / mag
    for n in range(cutoff):
        logmag = -0.5 * mag * mag + n * math.log(mag) - 0.5 * math.lgamma(n + 1)
        out[n] = math.exp(logmag) * phase**n
    return out


def poisson_mass(abs_alpha: float, start: int, stop: int) -> float:
    """Photon-count mass of |alpha> between ``start`` (incl) and ``stop`` (excl)."""
    lam = abs_alpha * abs_alpha
    if lam == 0.0:
        return 1.0 if start <= 0 < stop else 0.0
    total = 0.0
    for n in range(start, stop):
        total += math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
    return total


def annihilation(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    a[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return a


def dense_bs_unitary(r: float, na: int, nb: int) -> np.ndarray:
    """Beam splitter as one dense matrix exponential on the product space.

    Generator ``zeta (a+ b + a b+)`` with ``zeta = atan2(r, t)`` reproduces the
    label map (t alpha, i r alpha); rows/columns index ``m * nb + k``.
    """
    t = math.sqrt(1.0 - r * r)
    zeta = math.atan2(r, t)
    a = annihilation(na)
    b = annihilation(nb)
    big_a = np.kron(a, np.eye(nb))
    big_b = np.kron(np.eye(na), b)
    gen = big_a.conj().T @ big_b + big_a @ big_b.conj().T
    return scipy.linalg.expm(1j * zeta * gen)


def two_mode_vec(state) -> np.ndarray:
    """Flatten a TwoModeState to the vector the dense oracle acts on."""
    return state.amplitudes.reshape(-1)


def random_two_mode(rng, na: int, nb: int, support: int):
    """Normalized random state with occupation limited to ``support`` levels."""
    from catvis import TwoModeState

    amps = np.zeros((na, nb), dtype=complex)
    block = rng.standard_normal((support, support)) + 1j * rng.standard_normal(
        (support, support)
    )
    amps[:support, :support] = block
    amps /= np.linalg.norm(amps)
    return TwoModeState(amps)


def random_mode(rng, cutoff: int, support: int):
    from catvis import ModeState

    amps = np.zeros(cutoff, dtype=complex)
    amps[:support] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    amps /= np.linalg.norm(amps)
    return ModeState(amps)


# ---------------------------------------------------------------------------
# reference emitters: the CLI's original per-cell CSV and dict-row JSON
# writers, kept as oracles for the byte identity of the streamed ones


def fmt_float(x) -> str:
    return f"{float(x):.12g}"


def fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, tuple):
        return ",".join(fmt_cell(x) for x in v)
    return str(v)


def echo_value(v) -> str:
    return "auto" if v is None else fmt_cell(v)


def round_floats(obj):
    """Clamp every float to 12 significant digits for stable JSON."""
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, np.integer)):
        return obj if obj is None or isinstance(obj, bool) else int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def to_csv(cfg, echo, header, rows, head_comments=(), foot_comments=()):
    from catvis import __version__

    buf = io.StringIO()
    buf.write(f"# catvis {__version__}\n")
    buf.write(f"# command: {cfg.subcommand}\n")
    pairs = " ".join(f"{k}={echo_value(echo[k])}" for k in sorted(echo))
    buf.write(f"# params: {pairs}\n")
    for line in head_comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_cell(v) for v in row])
    for line in foot_comments:
        buf.write(f"# {line}\n")
    return buf.getvalue()


def to_json(cfg, echo, header, rows, diagnostics):
    from catvis import __version__

    payload = {
        "params": dict(echo, command=cfg.subcommand),
        "rows": [dict(zip(header, row)) for row in rows],
        "diagnostics": dict(diagnostics, version=__version__),
    }
    return json.dumps(round_floats(payload), sort_keys=True, indent=2) + "\n"


def q_grid_rows(planes, values):
    """Rows of a Q table as the CLI first built them, one tuple per point."""
    if len(planes) == 1:
        (pts,) = planes
        n = pts.shape[0]
        return [
            (pts[i, j].real, pts[i, j].imag, values[i, j])
            for i in range(n) for j in range(n)
        ]
    za, zb = planes
    n = za.shape[0]
    return [
        (za[i, j].real, za[i, j].imag, zb[k, l].real, zb[k, l].imag,
         values[i, j, k, l])
        for i in range(n) for j in range(n)
        for k in range(n) for l in range(n)
    ]


# ---------------------------------------------------------------------------
# reference plane quadrature: integrate_q_term as it was before each plane
# sum was factored into 1-D sums, evaluating the profile at every point of
# both planes; kept as an oracle for the factored sums and their coverage check


def check_boundary_2d(vals, which, tol):
    from catvis.phase_space import CoverageWarning, _edge_ratio

    ratio = _edge_ratio(vals)
    if ratio > tol:
        warnings.warn(
            f"plane {which} boundary holds {ratio:.2e} of the peak "
            "integrand; widen the grid extent",
            CoverageWarning,
            stacklevel=3,
        )


def integrate_q_term_2d(term, grid=None, params=None):
    from catvis.phase_space import QGrid, _plane_profile

    if grid is None:
        grid = QGrid.for_term(term)
    boundary_tol = 1e-10
    if params is not None and getattr(params, "tolerances", None) is not None:
        boundary_tol = params.tolerances.boundary_ratio
    ga = _plane_profile(grid.plane("a"), term.ket_a, term.bra_a)
    gb = _plane_profile(grid.plane("b"), term.ket_b, term.bra_b)
    check_boundary_2d(ga, "A", boundary_tol)
    check_boundary_2d(gb, "B", boundary_tol)
    return complex(
        (term.weight / np.pi**2)
        * (ga.sum() * grid.cell)
        * (gb.sum() * grid.cell)
    )
