"""Propagate one state through the splitter two independent ways.

Track one is label arithmetic: a coherent state stays coherent, only its
labels move, (alpha, 0) -> (t alpha, i r alpha).  Track two is the full
Fock-space unitary acting on the truncated two-mode array.  The output of
track two must equal the product state predicted by track one; the demo
prints the fidelity between them and the norm the unitary preserved.
"""

import numpy as np

from catvis import (
    BeamSplitter,
    TwoModeState,
    bs_fock_apply,
    bs_label_pair_map,
    coherent_fock,
)


def main() -> None:
    alpha, r = 1.8, 0.45
    bs = BeamSplitter(r)
    out_a, out_b = bs_label_pair_map(bs, alpha, 0)
    print(f"splitter r = {r}, t = {bs.t:.6f}")
    print(f"labels: ({alpha}, 0) -> ({out_a:.6f}, {out_b:.6f})")

    state = coherent_fock(alpha)
    moved = bs_fock_apply(bs, state, 25)
    print(f"two-mode array {moved.cutoff_a} x {moved.cutoff_b} after the unitary")
    print(f"  norm change         {abs(moved.squared_norm - state.squared_norm):.3e}")

    predicted = TwoModeState.from_product(
        coherent_fock(out_a, cutoff=moved.cutoff_a),
        coherent_fock(out_b, cutoff=moved.cutoff_b),
    )
    fidelity = abs(predicted.inner(moved)) ** 2 / (
        predicted.squared_norm * moved.squared_norm
    )
    print(f"  fidelity to labels  {fidelity:.15f}")

    # energy bookkeeping: photons split r^2 / t^2
    n_b = float(np.sum(np.abs(moved.amplitudes) ** 2 * np.arange(moved.cutoff_b)))
    print(f"  reflected photons   {n_b:.6f} (expected {r * r * alpha * alpha:.6f})")
    print("both tracks agree")


if __name__ == "__main__":
    main()
