"""Independent numerical oracles shared across the test suite.

Everything here recomputes expected values through a different algorithm
than the library uses (direct series with log-factorials, dense matrix
exponentials), so agreement is evidence rather than restatement.
"""

import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import sys
import warnings

import numpy as np
import scipy.linalg

import catvis
from catvis import (
    BranchTerm, TwoModeState, beam_split_term, bs_label_pair_map, coherent_overlap,
    initial_cat_terms,
)


def child_env() -> dict:
    """Environment for a child interpreter that imports the same ``catvis``
    as this suite.

    The directory holding the imported package goes first on ``PYTHONPATH``:
    a relative entry (such as ``src``) stops resolving in another working
    directory, and pytest's ``pythonpath`` setting does not reach a child.
    """
    root = pathlib.Path(catvis.__file__).resolve().parent.parent
    paths = [str(root)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def coherent_product_term(alpha, beta=0j, weight=1.0):
    """Diagonal term for the pure product ``|alpha, beta><alpha, beta|``."""
    return BranchTerm(weight=weight, ket_a=alpha, ket_b=beta, bra_a=alpha, bra_b=beta)


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


def x_mean_var(state) -> tuple[float, float]:
    """Mean and variance of ``x = (a + a+)/2`` from ``Tr(rho x^k) / Tr(rho)``
    for k = 1, 2, with the dense matrix ``x`` built from :func:`annihilation`.

    ``state`` is a density matrix, or an amplitude vector taken as
    ``|psi><psi|``.
    """
    rho = np.asarray(state, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise ValueError("state must have positive trace")
    a = annihilation(rho.shape[0])
    x = 0.5 * (a + a.conj().T)
    m1 = float(np.trace(rho @ x).real) / tr
    m2 = float(np.trace(rho @ x @ x).real) / tr
    return m1, m2 - m1 * m1


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


def _exchange_series(amps, coupling, raise_a):
    na, nb = amps.shape
    sa = np.sqrt(np.arange(na))
    sb = np.sqrt(np.arange(nb))
    total = amps.astype(complex, copy=True)
    term = total.copy()
    for j in range(1, na + nb + 1):
        nxt = np.zeros_like(term)
        if raise_a:
            nxt[1:, : nb - 1] = term[: na - 1, 1:] * sa[1:, None] * sb[None, 1:]
        else:
            nxt[: na - 1, 1:] = term[1:, : nb - 1] * sa[1:, None] * sb[None, 1:]
        term = nxt * (coupling / j)
        tnorm = float(np.vdot(term, term).real)
        if tnorm == 0.0:
            break
        total += term
        if tnorm < 1e-34 * float(np.vdot(total, total).real):
            break
    return total


def bs_fock_apply_series(bs, state) -> np.ndarray:
    """The splitter as the factored exponential
    ``exp(i (r/t) a b+) . t^(n_a - n_b) . exp(i (r/t) a+ b)``, two exchange
    power series and a diagonal factor, for any two-mode input: the body
    ``bs_fock_apply`` ran before the vacuum-port sector map replaced it,
    kept as that map's oracle.  Returns the output amplitudes, unaudited."""
    amps = state.amplitudes
    coupling = 1j * bs.r / bs.t
    out = _exchange_series(amps, coupling, raise_a=True)
    na = np.arange(out.shape[0])
    nb = np.arange(out.shape[1])
    out = out * bs.t ** (na[:, None] - nb[None, :])
    return _exchange_series(out, coupling, raise_a=False)


def phase_shift_fock_a(state, chi: float):
    """Phase shifter acting on mode A of a two-mode state.  Past pi, ``chi``
    turns by its angle reduced as ``exp(1j * chi)`` reduces it, since
    ``chi * n`` rounds; up to pi its bits are kept."""
    ns = np.arange(state.cutoff_a)
    if abs(chi) > np.pi:
        chi = float(np.angle(np.exp(1j * chi)))
    return TwoModeState(state.amplitudes * np.exp(1j * chi * ns)[:, None])


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


def integrate_q_term_2d(term, grid=None):
    from catvis.phase_space import QGrid, _plane_profile

    if grid is None:
        grid = QGrid.for_term(term)
    boundary_tol = 1e-10
    ga = _plane_profile(grid.plane("a"), term.ket_a, term.bra_a)
    gb = _plane_profile(grid.plane("b"), term.ket_b, term.bra_b)
    check_boundary_2d(ga, "A", boundary_tol)
    check_boundary_2d(gb, "B", boundary_tol)
    return complex(
        (term.weight / np.pi**2)
        * (ga.sum() * grid.cell)
        * (gb.sum() * grid.cell)
    )


# ---------------------------------------------------------------------------
# reference post-selection: the object track, one BranchTerm at a time, which
# the library's array labels (phase_space._post_selected_planes) are held to

# (ket side, bra side) cat component of each of initial_cat_terms' terms
CAT_TAGS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
# position of the interference term (+,-) in that order
CROSS = CAT_TAGS.index(("+", "-"))
_SIGNS = {"+": 1.0, "-": -1.0}


def postselect_term(term: BranchTerm, tag, theta: float, phi: float) -> BranchTerm:
    """Keep the interferometer branch whose Kerr phase cancels each side's
    component, ``tag`` = (ket side, bra side).

    The ket side descending from the ``s`` component picks the ``e^{-i s phi n}``
    branch (A-mode label rotates by ``-s phi``); the branch with the ``+phi``
    Kerr writing carries the extra ``e^{i theta}``.  Applied to both sides of
    the outer product, so the bra side contributes the conjugate factor.
    """
    sk, sb = tag
    weight = term.weight
    if sk == "-":
        weight = weight * np.exp(1j * theta)
    if sb == "-":
        weight = weight * np.exp(-1j * theta)
    rot_k = np.exp(-1j * _SIGNS[sk] * phi)
    rot_b = np.exp(-1j * _SIGNS[sb] * phi)
    return dataclasses.replace(
        term,
        weight=weight,
        ket_a=rot_k * term.ket_a,
        bra_a=rot_b * term.bra_a,
    )


def post_selected_terms(params: "ExperimentParams") -> list:
    """Initial cat terms, through the splitter, post-selected at readout
    phase theta = 0 (any other theta only rephases the off-diagonal terms,
    see :func:`postselect_term`), in :data:`CAT_TAGS` order."""
    bs = params.beam_splitter
    return [
        postselect_term(beam_split_term(t, bs), tag, 0.0, params.phi)
        for t, tag in zip(initial_cat_terms(params.alpha0, params.phi), CAT_TAGS)
    ]


def post_selected_integrals_four_terms(alpha0, phi, r):
    """``phase_space._post_selected_integrals`` as every term at its own
    labels: all four post-selected terms through ``_integrate_terms``, the
    diagonal ones too, which the library takes once on zero labels."""
    from catvis.phase_space import QGrid, _integrate_terms, _post_selected_planes

    grid = QGrid()
    return _integrate_terms(catvis.cat_norm_constant(alpha0, phi) ** 2,
                            *_post_selected_planes(alpha0, phi, r),
                            grid._offsets(), grid.cell)


# ---------------------------------------------------------------------------
# derivation route for one term's pointwise Q: the branch amplitudes f+ and
# f- of the analytic derivation, whose products give each post-selected
# term's Q


def _branch_amplitude(alpha_p, beta_p, params: "ExperimentParams", sign: float):
    rot = np.exp(1j * sign * params.phi)
    out_a, out_b = bs_label_pair_map(params.beam_splitter, rot * params.alpha0, 0)
    return coherent_overlap(rot * alpha_p, out_a) * coherent_overlap(beta_p, out_b)


def f_plus(alpha_p, beta_p, params: "ExperimentParams"):
    """Amplitude for projecting the rotated-frame splitter output onto
    ``<e^{i phi} alpha'| <beta'|``, for the ``+`` cat component.

    First-principles product of two coherent overlaps: the component
    ``e^{i phi} alpha0`` leaves the splitter as the product
    ``|t e^{i phi} alpha0>_A (x) |i r e^{i phi} alpha0>_B``.  Accepts arrays.
    """
    return _branch_amplitude(alpha_p, beta_p, params, +1.0)


def f_minus(alpha_p, beta_p, params: "ExperimentParams"):
    """Mirror of :func:`f_plus` for the ``-`` component (phi -> -phi)."""
    return _branch_amplitude(alpha_p, beta_p, params, -1.0)


# For the fully post-selected interference term the product f+ conj(f-)
# collapses to the closed form
#
#   (w / pi^2) exp(-(|alpha0|^2 + |alpha'|^2 + |beta'|^2))
#            . exp(t (conj(alpha') alpha0 + conj(alpha0) alpha'))
#            . exp(i r e^{i phi} (conj(beta') alpha0 - conj(alpha0) beta'))
#
# with the e^{i phi} factor attached inside the reflected-mode exponent.
# The 2-D Gaussian integrals of the three factors give
# w exp(-r^2 |alpha0|^2 (1 - e^{2 i phi})), whose magnitude over c^2 is the
# closed-form visibility (catvis.visibility_closed_form).
def q_term(term: BranchTerm, tag, alpha_p, beta_p, params: "ExperimentParams"):
    """Q of one post-selected pipeline term via the branch amplitudes.

    Dispatches on ``tag`` (see :data:`CAT_TAGS`): the (s_ket, s_bra) term
    evaluates to ``(w/pi^2) f_{s_ket} conj(f_{s_bra})``, so diagonal tags give
    ``(w/pi^2) |f|^2`` with no theta factor and (+,-) gives
    ``(c^2 e^{-i theta}/pi^2) f_plus conj(f_minus)`` (the weight carries
    ``c^2 e^{-i theta}``).  Agrees pointwise with the term's share of
    :func:`catvis.q_full`, its weight over ``pi^2`` times its two plane
    profiles; this route exists because it mirrors the analytic derivation.
    """
    sk, sb = tag
    fk = f_plus(alpha_p, beta_p, params) if sk == "+" else f_minus(alpha_p, beta_p, params)
    fb = f_plus(alpha_p, beta_p, params) if sb == "+" else f_minus(alpha_p, beta_p, params)
    return (term.weight / np.pi**2) * fk * np.conjugate(fb)


# ---------------------------------------------------------------------------
# reference full Q: the CLI's own full-Q sum before it called q_full, one
# einsum outer product of the two plane profiles per term


def q_full_grid(terms, planes):
    from catvis.phase_space import _plane_profile

    n = planes[0].shape[0]
    total = np.zeros((n, n, n, n), dtype=complex)
    for t in terms:
        ga = _plane_profile(planes[0], t.ket_a, t.bra_a)
        gb = _plane_profile(planes[1], t.ket_b, t.bra_b)
        total += (t.weight / np.pi**2) * np.einsum("ij,kl->ijkl", ga, gb)
    if float(np.max(np.abs(total.imag))) > 1e-10 * max(
        float(np.max(np.abs(total))), 1e-30
    ):
        raise ValueError("Q came out complex; term set is inconsistent")
    return total.real


# ---------------------------------------------------------------------------
# reference sweep loop: experiment._sweep_columns before its array checks,
# every point passing the one-point checks in row order, with a route-5
# refusal leaving route 4's cell alone; kept as the oracle of the array
# checks' cells, refusals and warnings


def stock_showwarning(message, category, filename, lineno, file=None, line=None):
    """What Python's own warning writer does: format, then write to stderr
    (pytest's warning capture stands in for it while a test runs)."""
    text = warnings.formatwarning(message, category, filename, lineno, line)
    (sys.stderr if file is None else file).write(text)


def sweep_columns_per_row(r_values, abs_alpha0_values, phi_values, include_brute,
                          include_fringe, n_theta) -> list:
    """``experiment._sweep_columns`` by the one-point checks at every point
    when a route is asked for.  Each route's overlap warning has one call
    site here, as there, so Python's default filter prints the same lines."""
    from catvis.experiment import (
        _MAX_ALPHA0, ExperimentParams, _brute_force_rows, _closed_form_columns,
        _Floats, _fringe_phases, _fringe_totals, _post_selected_integrals,
        _require_fock_start, _scan_of, _scan_thetas, _warn_if_components_overlap,
        fit_fringe,
    )

    axes = (np.asarray(v, dtype=float)
            for v in (r_values, abs_alpha0_values, phi_values))
    r, a0, phi = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    valid = np.isfinite(phi) & (np.abs(a0) <= _MAX_ALPHA0) & (r >= 0.0) & (r < 1.0)
    closed = np.zeros((4, r.size))
    closed[:, valid] = _closed_form_columns(r[valid], a0[valid], phi[valid])
    routes = np.zeros((2, r.size))  # nu_brute, nu_fringe
    routed = np.zeros((2, r.size), dtype=bool)
    if include_brute:
        brute = iter(_brute_force_rows(r[valid], a0[valid], phi[valid]))
    if include_fringe:
        thetas = _scan_thetas(n_theta)
        fringe = iter(_fringe_totals(
            _post_selected_integrals(a0[valid], phi[valid], r[valid]),
            _fringe_phases(thetas)))
    error = [None] * r.size
    checked = (np.arange(r.size) if include_brute or include_fringe
               else np.flatnonzero(~valid))
    for i in checked.tolist():
        try:
            params = ExperimentParams(alpha0=a0[i], phi=phi[i], r=r[i])
        except ValueError as exc:
            error[i] = str(exc)
            continue
        messages = []
        if include_brute:
            outcome = next(brute)
            try:
                # fock_brute_force_visibility's checks, in its order
                _require_fock_start(params)
                _warn_if_components_overlap(params.alpha0, params.phi, stacklevel=2)
                if isinstance(outcome, ValueError):
                    raise outcome
                routes[0, i], routed[0, i] = outcome, True
            except ValueError as exc:
                messages.append(str(exc))
        if include_fringe:
            total = next(fringe)
            try:
                # fringe_scan's warning and checks, then fit_fringe's
                _warn_if_components_overlap(params.alpha0, params.phi, stacklevel=2)
                fit = fit_fringe(_scan_of(thetas, total))
                routes[1, i], routed[1, i] = fit.visibility, True
            except ValueError as exc:
                messages.append(str(exc))
        error[i] = messages[0] if messages else None
    filled = np.zeros(r.size, dtype=bool)
    nu, oracle, t, var_out = (_Floats(c, ~valid) for c in closed)
    return [_Floats(r, filled), _Floats(a0, filled), _Floats(phi, filled), nu, oracle,
            *map(_Floats, routes, ~routed), t, t, var_out, error]
