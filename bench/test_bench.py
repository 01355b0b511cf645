"""Tests of the benchmark's own parts.  Run: python3 -m pytest bench -q"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cli_requests  # noqa: E402
import dense  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _det(U):
    """Determinant of a small polynomial matrix by Laplace expansion."""
    if len(U) == 1:
        return U[0][0]
    total = {}
    for j, entry in enumerate(U[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in U[1:]]
        term = dense._mul(entry, _det(minor))
        if j % 2:
            term = {e: -c for e, c in term.items()}
        total = dense._add(total, term)
    return total


def test_mixing_is_unimodular_and_deterministic():
    for m in (4, 5, 6):
        for lower_first in (True, False):
            U = dense.mixing(m, random.Random(7), lower_first)
            assert U == dense.mixing(m, random.Random(7), lower_first)
            assert dense.is_nonzero_constant(_det(U))
            assert not any(dense.is_nonzero_constant(p) for row in U for p in row)


def test_instances_depend_only_on_the_seed():
    for workload in dense.SIZES:
        a = dense.make_instances(workload, 3)
        assert a == dense.make_instances(workload, 3)
        assert a != dense.make_instances(workload, 4)
        assert [inst.m for inst in a] == list(dense.SIZES[workload])


def test_no_constant_pivot_in_dense_frames():
    for workload in dense.SIZES:
        for seed in (0, 1, 2):
            for inst in dense.make_instances(workload, seed):
                for row in inst.e_rows + inst.ep_rows:
                    assert not any(dense.is_nonzero_constant(p) for p in row)


def test_oracle_separates_poisson_from_non_poisson():
    (good, *_), (bad, *_) = (dense.make_instances(w, 0) for w in ("dense-pass", "dense-fail"))
    assert all(not pairs for pairs in dense.oracle(good).values())
    assert all(pairs for pairs in dense.oracle(bad).values())


def test_expected_table_covers_every_fixture_and_subcommand():
    from bigiso import cli, fixtures

    table = cli_requests.load_expected()
    assert sorted(table) == fixtures.list_fixtures()
    for commands in table.values():
        assert sorted(commands) == sorted(cli._COMMANDS)
    assert len(cli_requests.make_requests(0)) == 48


def test_requests_are_shuffled_by_the_seed():
    a, b = cli_requests.make_requests(1), cli_requests.make_requests(2)
    assert a == cli_requests.make_requests(1)
    assert a != b and sorted(a, key=repr) == sorted(b, key=repr)


def _snapshot():
    """Every attribute of every bigiso module and of every traced class."""
    import bigiso.cli  # noqa: F401  (loads every bigiso module)

    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "bigiso"]
    for mod, qual in tracing.SPANNED + tracing.COUNTED:
        owner, _, _ = qual.rpartition(".")
        if owner:
            owners.append(getattr(sys.modules[f"bigiso.{mod}"], owner))
    return {(id(owner), key): (owner, value) for owner in owners for key, value in vars(owner).items()}


def test_install_and_uninstall_restore_every_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patched()
        from bigiso import membership, structures

        assert structures.in_span is membership.in_span
        assert structures.in_span.__wrapped__ is not None
        for owner, key, original in patched:
            assert getattr(owner, key) is not original
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (owner, value) in before.items():
        assert vars(owner)[key[1]] is value
    names = {f"{o.__name__}.{k}" for o, k, _ in patched}
    assert "bigiso.structures.in_span" in names and "bigiso.canonical.default_grid" in names


def test_self_time_subtracts_direct_children():
    export = {
        "spans": [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]],
        "counts": {"x": 2},
        "grid_points": [24, 625],
        "minors": [1, 4],
    }
    summary = tracing.summarize([export, export])
    assert summary["calls"]["a"] == 2
    assert summary["self_s"] == {"a": 14.0, "b": 4.0, "c": 2.0}
    assert summary["grid"] == [48, 1250]


def test_tail_keeps_ten_samples_above():
    assert run.tail(range(48)) == (37, 100.0 * 38 / 48, 48)
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)
