"""Shared fixtures: the worked structures that the whole suite leans on."""

import pytest

from bigiso.calculus import BigSection, Chart, PolyBivector, PolyOneForm, PolyVectorField
from bigiso.structures import BigIsotropicStructure, structure_from_components


@pytest.fixture(scope="session")
def r3_structure():
    """On Q^3 (x,y,z): E = span{(d_x, 0), (0, dz)}, a regular rank-2
    integrable structure whose given frame is already canonical."""
    chart = Chart(("x", "y", "z"))
    return structure_from_components(
        chart,
        e_rows=[
            (1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),
        ],
        ep_rows=[
            (1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0),
        ],
    )


@pytest.fixture(scope="session")
def r5_structure():
    """On Q^5 (x1,x2,y1,y2,z): the rank-3 regular integrable structure whose
    canonical frame has nonzero mixed coefficients in these coordinates."""
    chart = Chart(("x1", "x2", "y1", "y2", "z"))
    return structure_from_components(
        chart,
        e_rows=[
            # (d_x1, dx2 + dy1)
            (1, 0, 0, 0, 0, 0, 1, 1, 0, 0),
            # (d_x2, -dx1 + dy2)
            (0, 1, 0, 0, 0, -1, 0, 0, 1, 0),
            # (0, dz)
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        ],
        ep_rows=[
            (1, 0, 0, 0, 0, 0, 1, 1, 0, 0),
            (0, 1, 0, 0, 0, -1, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
            # (d_y1, -dx1)
            (0, 0, 1, 0, 0, -1, 0, 0, 0, 0),
            # (d_y2, -dx2)
            (0, 0, 0, 1, 0, 0, -1, 0, 0, 0),
            # (0, dy1)
            (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
            # (0, dy2)
            (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        ],
    )


@pytest.fixture(scope="session")
def symplectic_structure():
    """Dirac structure of the constant symplectic bivector d1^d2 + d3^d4 on Q^4."""
    from bigiso.structures import graph_P

    chart = Chart(("x1", "x2", "x3", "x4"))
    P = PolyBivector(chart, {(0, 1): chart.one(), (2, 3): chart.one()})
    sstar = [PolyOneForm.coordinate(chart, i) for i in range(4)]
    return graph_P(sstar, P)


@pytest.fixture(scope="session")
def nonintegrable_theta_structure():
    """graph of theta = z dx^dy over S = span{d_x, d_y} on Q^3: not integrable."""
    from bigiso.calculus import PolyTwoForm
    from bigiso.structures import graph_theta

    chart = Chart(("x", "y", "z"))
    theta = PolyTwoForm(chart, {(0, 1): chart.coordinate("z")})
    return graph_theta(
        [PolyVectorField.coordinate(chart, "x"), PolyVectorField.coordinate(chart, "y")],
        theta,
    )


@pytest.fixture
def evaluation_counts(monkeypatch):
    """Points walked by BigIsotropicStructure.rows_at per (structure, point),
    each counted as its rows are read."""
    from collections import Counter

    from bigiso.scalars import as_fraction

    counts, alive = Counter(), []  # alive keeps each id() unique
    original = BigIsotropicStructure.rows_at

    def counted(self, points):
        alive.append(self)
        points = list(points)
        for point, rows in zip(points, original(self, points)):
            counts[(id(self), tuple(as_fraction(c) for c in point))] += 1
            yield rows

    monkeypatch.setattr(BigIsotropicStructure, "rows_at", counted)
    return counts


@pytest.fixture
def derivative_calls(monkeypatch):
    """Calls of Polynomial.derivative, one (polynomial, variable) entry each."""
    from bigiso.scalars import Polynomial

    calls = []
    original = Polynomial.derivative

    def counted(self, which):
        calls.append((self, which))
        return original(self, which)

    monkeypatch.setattr(Polynomial, "derivative", counted)
    return calls
