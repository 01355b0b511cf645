"""Exact computer algebra for isotropic subbundles of TM (+) T*M.

Rational-coefficient linear algebra, symbolic Cartan calculus, Courant
bracket integrability certificates, canonical local frames, transport under
linear maps, and structure reduction through submanifolds and foliations.

Importing the package loads no submodule: each public name is looked up in
its home module on first use (PEP 562), so ``import bigiso`` costs one module
and ``from bigiso.calculus import Chart`` compiles only what calculus imports.
The name is not cached here, so ``bigiso.X`` is always ``bigiso.<home>.X``.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    "BigIsotropicStructure": "structures",
    "BigSection": "calculus",
    "BigVector": "pointwise",
    "CharacteristicTriple": "pointwise",
    "Chart": "calculus",
    "IsotropicData": "pointwise",
    "LinearMap": "transport",
    "Matrix": "linalg",
    "PolyBivector": "calculus",
    "PolyOneForm": "calculus",
    "PolyThreeForm": "calculus",
    "PolyTrivector": "calculus",
    "PolyTwoForm": "calculus",
    "PolyVectorField": "calculus",
    "Polynomial": "scalars",
    "RationalFunction": "scalars",
    "Subspace": "linalg",
    "characteristic_triple": "pointwise",
    "check_integrability": "structures",
    "check_module_property": "structures",
    "courant_bracket": "calculus",
    "dirac_extension": "pointwise",
    "foliation_pair": "structures",
    "form_omega": "pointwise",
    "graph_P": "structures",
    "graph_theta": "structures",
    "is_isotropic": "pointwise",
    "orthogonal_g": "pointwise",
    "pairing_g": "pointwise",
    "pullback_subspace": "transport",
    "pushforward_subspace": "transport",
    "reconstruct": "pointwise",
    "tangent_lift": "structures",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
