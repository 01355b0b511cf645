"""Canonical local frames: normalization, decomposability, the induced leaf
form, and the transversal structure.

Run with: python3 demos/03_canonical_frames.py
"""

from fractions import Fraction

from bigiso import Chart, Matrix
from bigiso.canonical import (
    AdaptedChart,
    check_orthogonality_relations,
    is_locally_decomposable,
    leaf_pullback,
    normalize_frame,
    transversal_structure,
)
from bigiso.structures import structure_from_components, transform_structure

chart = Chart(("x1", "x2", "y1", "y2", "z"))
s = structure_from_components(
    chart,
    e_rows=[
        (1, 0, 0, 0, 0, 0, 1, 1, 0, 0),   # (d_x1, dx2 + dy1)
        (0, 1, 0, 0, 0, -1, 0, 0, 1, 0),  # (d_x2, -dx1 + dy2)
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),   # (0, dz)
    ],
    ep_rows=[
        (1, 0, 0, 0, 0, 0, 1, 1, 0, 0),
        (0, 1, 0, 0, 0, -1, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 1, 0, 0, -1, 0, 0, 0, 0),  # (d_y1, -dx1)
        (0, 0, 0, 1, 0, 0, -1, 0, 0, 0),  # (d_y2, -dx2)
        (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),   # (0, dy1)
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),   # (0, dy2)
    ],
)

adapted = AdaptedChart(chart, leaf=(0, 1), middle=(2, 3), transverse=(4,))
cf = normalize_frame(s, adapted)
print("orthogonality relations:", check_orthogonality_relations(cf).ok)
print("mixed coefficients alpha' =", cf.quotient_strings("alpha_prime"))
print("locally decomposable here?", is_locally_decomposable(cf))

# The leaf through the origin carries the symplectic form read off alpha;
# leaf_pullback checks that it is skew there.
print("\nleaf 2-form matrix:")
leaf_pullback(cf)
for row in cf.quotient_strings("alpha", adapted.leaf_assignment()):
    print("  ", row)

# The same structure in sheared coordinates becomes decomposable.
T = Matrix(
    [
        [1, 0, 0, -1, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
).scale(Fraction(1))
tilde = transform_structure(s, T, ("tx1", "tx2", "ty1", "ty2", "tz"))
cf_tilde = normalize_frame(
    tilde, AdaptedChart(tilde.chart, leaf=(0, 1), middle=(2, 3), transverse=(4,))
)
print("\nafter the shear, decomposable?", is_locally_decomposable(cf_tilde))
print("canonical X rows in the new chart:")
for row in cf_tilde.quotient_strings("x_rows"):
    print("  ", row)

# The transversal slice {x = 0} inherits a structure framed by the Xi rows.
tr = transversal_structure(s, cf)
print("\ntransversal chart:", tr.chart.names)
print("transversal frame:", [[str(c) for c in sec.as_poly_row()] for sec in tr.e_frame])
