# Collapsing a whole model onto a single point.
#
# Declare the entire Dirac operator vertical and rescale: everything except
# the kernel escapes to infinity, and what remains is the space of harmonic
# vectors with the trivial one-point geometry.  The builder refuses models
# whose Dirac has no kernel, since then nothing survives.

import numpy as np

from collapselab.builders import (build_cycle_adjacency_model,
                                  build_point_collapse,
                                  build_two_point_model)
from collapselab.collapse import kernel_projection, projector_rank
from collapselab.qmetric import quantum_diameter, vertex_state

c4 = build_cycle_adjacency_model(4)
print("4-cycle adjacency Dirac spectrum:",
      np.linalg.eigvalsh(c4.dirac.matrix))

dec = build_point_collapse(c4, vertex_state(c4, 0))
print("kernel dimension:", projector_rank(kernel_projection(dec.d_v)))
print("vertical gap:", dec.vertical_gap)
print("surviving geometry has diameter", dec.group_diameter,
      "(the quantum diameter of the collapsed model)")
print()

# Under rescaling the nonzero eigenvalues blow up while the kernel pair
# stays pinned at zero.
print(" eps      spectrum of D_h + D_v/eps")
for eps in (1.0, 0.25, 1 / 16, 1 / 64):
    vals = np.linalg.eigvalsh(dec.dirac_at(eps))
    inside = np.sum(np.abs(vals) <= 1.0)
    print(f" {eps:<8.4g} {np.round(vals, 6)}   ({inside} inside [-1, 1])")
print()

# Cross-check the stored diameter against a fresh computation.
diam = quantum_diameter(build_cycle_adjacency_model(4))
print(f"stored diameter {dec.group_diameter:.12f} vs "
      f"recomputed {diam.value:.12f}")
print()

# A model with trivial Dirac kernel cannot collapse to a point.
try:
    build_point_collapse(build_two_point_model(1.0),
                         vertex_state(build_two_point_model(1.0), 0))
except Exception as err:
    print("two-point model rejected:", err)
