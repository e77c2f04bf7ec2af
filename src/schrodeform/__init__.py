"""Schrodinger dynamics on time-deforming domains.

The moving-domain problem is transported to a fixed reference grid through
a unitary, Jacobian-weighted change of variables; the transported generator
is a magnetic Hamiltonian assembled from the deformation, so norm-preserving
time integration, spectral projections, and adiabatic sweeps all run on one
fixed grid.

Diagnostics go to the ``schrodeform`` logger, which is silent until the
application configures logging (at DEBUG it reports, for instance, the shift
each sparse eigensolve chose).
"""

import logging

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
