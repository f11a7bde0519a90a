"""One fringe, four independent visibility readings.

The detection rate against the readout phase theta is a cosine whose
contrast is the visibility.  This demo scans the fringe by phase-space
quadrature, fits it, and puts the fitted number next to the closed form
and the reflected-port overlap oracle, plus the truncated-Fock value for
good measure.  Four routes, no shared numerics, one answer.
"""

import numpy as np

from catvis import (
    ExperimentParams,
    environment_overlap_oracle,
    fit_fringe,
    fock_brute_force_visibility,
    fringe_scan,
    visibility_closed_form,
)


def main() -> None:
    params = ExperimentParams(alpha0=3.0, phi=np.pi / 4, r=0.3)
    scan = fringe_scan(params, n_theta=24)
    fit = fit_fringe(scan)

    print("rate against readout phase:")
    for theta, rate in zip(scan.thetas, scan.rates):
        bar = "#" * int(round(60.0 * rate / scan.rates.max()))
        print(f"  theta = {theta:5.2f}  {rate:.6f}  {bar}")

    print(f"fit: offset {fit.offset:.9f}, amplitude {fit.amplitude:.9f}, "
          f"phase {fit.phase:.6f}")
    print(f"  residual rms        {fit.residual_rms:.3e}")
    print(f"  fringe period       {fit.period:.6f}")

    routes = {
        "fringe fit": fit.visibility,
        "closed form": visibility_closed_form(
            params.r, abs(params.alpha0), params.phi
        ),
        "overlap oracle": abs(environment_overlap_oracle(params)),
        "truncated Fock": fock_brute_force_visibility(params),
    }
    print("visibility by route:")
    for name, value in routes.items():
        print(f"  {name:<15} {value:.12f}")
    spread = max(routes.values()) - min(routes.values())
    print(f"largest disagreement {spread:.3e}")
    print("the offset phase tracks r^2 |alpha0|^2 sin(2 phi) = "
          f"{params.r**2 * abs(params.alpha0)**2 * np.sin(2 * params.phi):.6f}")


if __name__ == "__main__":
    main()
