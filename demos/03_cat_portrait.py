"""Phase-space portrait of the cat before and after the splitter.

Prints where the two lobes of the transmitted-mode marginal sit and how
much probability the grid caught.  With matplotlib installed (the demos
extra) it also saves a heatmap; without it, the numbers tell the story.
"""

import sys

import numpy as np

from catvis import QGrid, beam_split_term, initial_cat_terms, q_marginal
from catvis.operators import BeamSplitter


def lobe_positions(points, values):
    upper = np.where(points.imag > 0, values, 0.0)
    lower = np.where(points.imag < 0, values, 0.0)
    return (
        points.flat[int(np.argmax(upper))],
        points.flat[int(np.argmax(lower))],
    )


def main() -> None:
    alpha0, phi, r = 2.0, np.pi / 2, 0.3
    grid = QGrid(extent=4.0, spacing=0.05)
    bs = BeamSplitter(r)

    before = initial_cat_terms(alpha0, phi)
    after = [beam_split_term(t, bs) for t in before]

    for name, terms in (("before", before), ("after", after)):
        (pts, vals), _ = q_marginal(terms, grid)
        hi, lo = lobe_positions(pts, vals)
        mass = float(vals.sum()) * grid.cell
        print(f"{name} the splitter (transmitted mode):")
        print(f"  lobes at {hi:.3f} and {lo:.3f}")
        print(f"  grid mass {mass:.9f}")
    print(f"expected after-lobes at +-{bs.t * alpha0:.3f}i")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the heatmap")
        return

    (pts, vals), _ = q_marginal(after, grid)
    extent = [pts.real.min(), pts.real.max(), pts.imag.min(), pts.imag.max()]
    fig, ax = plt.subplots(figsize=(5, 4))
    im = ax.imshow(vals.T, origin="lower", extent=extent, cmap="magma")
    ax.set_xlabel("Re")
    ax.set_ylabel("Im")
    ax.set_title("transmitted-mode Q after the splitter")
    fig.colorbar(im, ax=ax)
    out = sys.argv[1] if len(sys.argv) > 1 else "cat_portrait.png"
    fig.savefig(out, dpi=120)
    print(f"heatmap saved to {out}")


if __name__ == "__main__":
    main()
