"""Build the basic states and check their overlaps against closed forms.

A coherent state truncated at the default cutoff should be numerically
indistinguishable from the untruncated one for every purpose in this
package, and a two-component cat should come out normalized with the
advertised constant.  This demo makes those claims concrete.
"""

import numpy as np

from catvis import (
    cat_fock,
    cat_norm_constant,
    coherent_fock,
    coherent_overlap,
)


def main() -> None:
    alpha, beta = 1.5 + 0.5j, -0.7 + 1.1j
    ket_a = coherent_fock(alpha)
    ket_b = coherent_fock(beta, cutoff=ket_a.cutoff)

    print(f"coherent |{alpha}> truncated at {ket_a.cutoff} levels")
    print(f"  norm deficit        {1.0 - ket_a.norm:.3e}")

    exact = coherent_overlap(alpha, beta)
    trunc = ket_a.inner(ket_b)
    print(f"  <alpha|beta> exact  {exact:.12f}")
    print(f"  <alpha|beta> Fock   {trunc:.12f}")
    print(f"  difference          {abs(exact - trunc):.3e}")

    cat = cat_fock(2.0, np.pi / 4)
    print(f"cat with |alpha0| = 2, phi = pi/4, {cat.cutoff} levels")
    print(f"  normalization const {cat_norm_constant(2.0, np.pi / 4):.12f}")
    print(f"  squared norm        {cat.squared_norm:.12f}")

    even = cat_fock(2.0, np.pi / 2)
    odd_mass = float(np.sum(np.abs(even.amplitudes[1::2]) ** 2))
    print("cat with phi = pi/2 occupies even levels only:")
    print(f"  odd-level mass      {odd_mass:.3e}")
    print("states and overlaps agree")


if __name__ == "__main__":
    main()
