"""Interference visibility of a cat state after a weak beam-splitter tap.

A two-component superposition of coherent states enters one port of a beam
splitter with vacuum at the other.  The reflected port carries away a
which-component record, and for readout phase theta the detection rate
fringes with visibility

    nu = exp(-2 r^2 sin^2(phi) |alpha0|^2)

while the quadrature moments of the transmitted mode change only at order
r^2.  This package computes that visibility along mutually independent
routes (closed form, reflected-port overlap, phase-space quadrature,
truncated Fock propagation, fringe fitting) and reports moments alongside,
so the contrast between the two descriptions is a number, not a slogan.
"""

__version__ = "0.1.0"

from . import experiment, fock, heisenberg, operators, phase_space
from .fock import *
from .operators import *
from .phase_space import *
from .heisenberg import *
from .experiment import *

__all__ = [
    *fock.__all__,
    *operators.__all__,
    *phase_space.__all__,
    *heisenberg.__all__,
    *experiment.__all__,
]
