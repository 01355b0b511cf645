"""The lazy package namespace: what each entry point loads, and what it binds."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bigiso

SRC = Path(bigiso.__file__).resolve().parent.parent
PUBLIC = [
    "BigIsotropicStructure",
    "BigSection",
    "BigVector",
    "CharacteristicTriple",
    "Chart",
    "IsotropicData",
    "LinearMap",
    "Matrix",
    "PolyBivector",
    "PolyOneForm",
    "PolyThreeForm",
    "PolyTrivector",
    "PolyTwoForm",
    "PolyVectorField",
    "Polynomial",
    "RationalFunction",
    "Subspace",
    "characteristic_triple",
    "check_integrability",
    "check_module_property",
    "courant_bracket",
    "dirac_extension",
    "foliation_pair",
    "form_omega",
    "graph_P",
    "graph_theta",
    "is_isotropic",
    "orthogonal_g",
    "pairing_g",
    "pullback_subspace",
    "pushforward_subspace",
    "reconstruct",
    "tangent_lift",
]


def imported_by(statement):
    """The modules a fresh interpreter adds to what it holds bare by running statement."""
    probe = f"import sys\nbare = set(sys.modules)\n{statement}\nprint(' '.join(set(sys.modules) - bare))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def loaded_by(statement):
    """The bigiso modules a fresh interpreter holds after running statement."""
    return {m for m in imported_by(statement) if m.split(".")[0] == "bigiso"}


def test_cli_import_generates_no_dataclass_code():
    # records share the methods of bigiso.record, so no stdlib code generator is loaded
    assert not {"dataclasses", "inspect"} & imported_by("import bigiso.cli")


def test_no_module_imports_typing_or_dataclasses():
    for path in sorted((SRC / "bigiso").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert not roots & {"typing", "dataclasses"}, f"{path.name}:{node.lineno}"


def test_import_loads_no_submodule():
    assert loaded_by("import bigiso") == {"bigiso"}


def test_submodule_import_loads_only_its_own_imports():
    # scalars prints points via grid; calculus declares its records on bigiso.record
    expected = {"bigiso", "bigiso.calculus", "bigiso.scalars", "bigiso.grid", "bigiso.record"}
    assert loaded_by("from bigiso.calculus import Chart") == expected


def test_cli_loads_every_module_the_bench_tracer_patches():
    traced = ("parser", "structures", "membership", "calculus", "pointwise", "linalg", "transport",
              "canonical", "reduction", "scalars")
    assert {f"bigiso.{mod}" for mod in traced} <= loaded_by("import bigiso.cli")


def test_all_is_pinned_and_each_name_is_its_home_object():
    assert bigiso.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(bigiso, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bigiso import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(bigiso, name) for name in PUBLIC)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(bigiso))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'bigiso' has no attribute 'no_such_name'$"):
        bigiso.no_such_name
    assert not hasattr(bigiso, "no_such_name")
