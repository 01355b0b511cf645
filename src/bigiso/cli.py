"""Command line front-end.

Subcommands run exact pipelines over a structure document and emit a JSON
report.  Exit codes: 0 when every check passes, 1 when a check fails (the
report carries the certificate), 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import fixtures as fixture_store
from .calculus import BigSection, PolyVectorField
from .canonical import (
    AdaptedChart,
    NormalizationError,
    check_orthogonality_relations,
    coupling_equivalences,
    is_locally_decomposable,
    leaf_pullback,
    normalize_frame,
    transversal_structure,
)
from .parser import ParseError, StructureDocument, parse_document
from .reduction import (
    FoliationData,
    ReductionError,
    SubmanifoldData,
    reduce_structure,
)
from .report import Report, verdict_certificate
from .structures import (
    BigIsotropicStructure,
    StructureError,
    check_integrability,
    check_module_property,
    default_grid,
    is_hamiltonian_pair,
    is_weak_hamiltonian_pair,
    poisson_bracket,
    verify_coanchor,
    verify_modular_enlargement,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_document(args) -> tuple[StructureDocument, str]:
    if args.fixture:
        path = fixture_store.fixture_path(args.fixture)
        label = f"fixture:{args.fixture}"
    else:
        if not args.document:
            raise ParseError("no document given (positional path or --fixture NAME)", 0, 0)
        path = args.document
        label = args.document
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read()), label


def _parse_grid_flag(text: str) -> tuple:
    """The --grid value 'lo..hi[:cap]': integers with lo <= hi and cap >= 1."""
    lo_hi, _, cap_text = text.partition(":")
    try:
        lo, hi = (int(t) for t in lo_hi.split(".."))
        cap = int(cap_text) if cap_text else 24
    except ValueError:
        raise ParseError(f"--grid needs integers lo..hi[:cap], got {text!r}", 0, 0)
    if lo > hi or cap < 1:
        raise ParseError(f"--grid {text!r} gives an empty grid: needs lo <= hi and cap >= 1", 0, 0)
    return lo, hi, cap


def _grid_for(doc: StructureDocument, chart_dim: int, args):
    if args.grid is not None:
        lo, hi, cap = _parse_grid_flag(args.grid)
    elif doc.grid_range:
        lo, hi, cap = doc.grid_range
    else:
        return None
    values = tuple(Fraction(v) for v in range(lo, hi + 1))
    return default_grid(chart_dim, cap=cap, values=values)


def _build_structure(doc: StructureDocument, grid) -> BigIsotropicStructure:
    return BigIsotropicStructure.build(
        doc.chart, doc.e_sections, doc.e_prime_sections, grid=grid
    )


def _run_validate(doc, report, args):
    grid = _grid_for(doc, doc.chart.dim, args)
    with report.start("structure invariants") as timer:
        try:
            s = _build_structure(doc, grid)
            timer.done(True)
        except StructureError as exc:
            timer.done(False, {"failures": [{"message": str(exc), "detail": None}]})
            return None
    for pair in doc.hamiltonian_pairs:
        field = PolyVectorField(doc.chart, pair.field_comps)
        strong = is_hamiltonian_pair(s, pair.f, field)
        weak = is_weak_hamiltonian_pair(s, pair.f, field)
        report.add(
            f"hamiltonian pair {pair.name}",
            strong or weak,
            {"hamiltonian": strong, "weak_hamiltonian": weak},
        )
    return s


def _run_integrability(doc, report, args, s=None):
    s = s if s is not None else _run_validate(doc, report, args)
    if s is None:
        return None
    with report.start("integrability") as timer:
        verdict = check_integrability(s)
        timer.done(verdict.ok, verdict_certificate(verdict))
    with report.start("module property of the orthogonal frame") as timer:
        verdict = check_module_property(s)
        timer.done(verdict.ok, verdict_certificate(verdict))
    return s


def _adapted_from(doc: StructureDocument) -> AdaptedChart:
    if not doc.adapted_split:
        raise ParseError("document has no adapted block", 0, 0)
    leaf, middle, transverse = doc.adapted_split
    idx = {name: i for i, name in enumerate(doc.chart.names)}
    try:
        return AdaptedChart(
            doc.chart,
            leaf=tuple(idx[n] for n in leaf),
            middle=tuple(idx[n] for n in middle),
            transverse=tuple(idx[n] for n in transverse),
        )
    except KeyError as exc:
        raise ParseError(f"adapted block names unknown coordinate {exc}", 0, 0)


def _run_canonical(doc, report, args, want_frame=True):
    s = _run_validate(doc, report, args)
    if s is None:
        return None, None
    adapted = _adapted_from(doc)
    with report.start("canonical normalization") as timer:
        try:
            cf = normalize_frame(s, adapted)
        except NormalizationError as exc:
            timer.done(False, {"failures": [{"message": str(exc), "detail": None}]})
            return s, None
        cert = {
            "validity_locus": f"({cf.det_e}) * ({cf.det_eprime}) != 0",
            "leaf_conditions": cf.leaf_conditions_ok,
        }
        if want_frame:
            cert["frame"] = {
                "X": [_row_strings(row) for row in cf.x_rows],
                "Xi": [_row_strings(row) for row in cf.xi_rows],
                "Y": [_row_strings(row) for row in cf.y_rows],
                "Theta": [_row_strings(row) for row in cf.theta_rows],
            }
        timer.done(cf.leaf_conditions_ok, cert)
    with report.start("canonical orthogonality relations") as timer:
        verdict = check_orthogonality_relations(cf)
        timer.done(verdict.ok, verdict_certificate(verdict))
    return s, cf


def _row_strings(row):
    return [str(entry) for entry in row]


def _run_decomposable(doc, report, args):
    s, cf = _run_canonical(doc, report, args, want_frame=False)
    if cf is None:
        return
    grid = _grid_for(doc, doc.chart.dim, args)
    decomposable = is_locally_decomposable(cf)
    alpha_cert = {
        "alpha_prime": [_row_strings(row) for row in cf.alpha_prime],
    }
    report.add("local decomposability", decomposable, alpha_cert)
    with report.start("coupling equivalences") as timer:
        verdict = coupling_equivalences(cf, grid=grid)
        timer.done(verdict.ok, verdict_certificate(verdict))


def _run_transversal(doc, report, args):
    s, cf = _run_canonical(doc, report, args, want_frame=False)
    if cf is None:
        return
    with report.start("transversal structure") as timer:
        try:
            tr = transversal_structure(s, cf)
        except (NormalizationError, StructureError) as exc:
            timer.done(False, {"failures": [{"message": str(exc), "detail": None}]})
            return
        cert = {
            "chart": list(tr.chart.names),
            "frame_E": [_section_strings(sec) for sec in tr.e_frame],
        }
        timer.done(True, cert)
    with report.start("transversal integrability") as timer:
        verdict = check_integrability(tr)
        timer.done(verdict.ok, verdict_certificate(verdict))
    with report.start("leaf presymplectic form") as timer:
        try:
            mat = leaf_pullback(cf)
        except NormalizationError as exc:
            timer.done(False, {"failures": [{"message": str(exc), "detail": None}]})
            return
        cert = {"matrix": [[str(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)]}
        timer.done(True, cert)


def _section_strings(sec: BigSection):
    return [str(c) for c in sec.as_poly_row()]


def _run_reduce(doc, report, args):
    s = _run_validate(doc, report, args)
    if s is None:
        return
    if doc.submanifold_equations is None or doc.foliation_names is None:
        raise ParseError("reduce needs submanifold and foliation blocks", 0, 0)
    N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
    try:
        fibre = tuple(N.sub.index(name) for name in doc.foliation_names)
    except ValueError as exc:
        raise ParseError(f"foliation names must be submanifold coordinates: {exc}", 0, 0)
    F = FoliationData(N.sub, fibre)
    restricted_frame = (
        doc.sections_for(N.sub, doc.restricted_e_lines) if doc.restricted_e_lines else None
    )
    restricted_prime = (
        doc.sections_for(N.sub, doc.restricted_e_prime_lines)
        if doc.restricted_e_prime_lines
        else None
    )
    with report.start("reduction pipeline") as timer:
        try:
            result = reduce_structure(
                s, N, F, restricted_frame=restricted_frame, restricted_prime_frame=restricted_prime
            )
        except (ReductionError, StructureError) as exc:
            timer.done(False, {"failures": [{"message": str(exc), "detail": None}]})
            return
        cert = {
            "quotient_chart": list(result.quotient.chart.names),
            "quotient_frame_E": [_section_strings(sec) for sec in result.quotient.e_frame],
            "poisson_condition": result.poisson_condition,
        }
        timer.done(True, cert)
    with report.start("reduced integrability") as timer:
        verdict = check_integrability(result.quotient)
        timer.done(verdict.ok, verdict_certificate(verdict))


def _run_report_all(doc, report, args):
    s = _run_integrability(doc, report, args)
    if s is None:
        return
    with report.start("enlargement axioms") as timer:
        verdict = verify_modular_enlargement(s)
        timer.done(verdict.ok, verdict_certificate(verdict))
    with report.start("co-anchor conditions") as timer:
        verdict = verify_coanchor(s)
        timer.done(verdict.ok, verdict_certificate(verdict))
    if doc.adapted_split:
        _run_decomposable(doc, report, args)
        _run_transversal(doc, report, args)
    if doc.submanifold_equations is not None and doc.foliation_names is not None:
        _run_reduce(doc, report, args)
    if len(doc.hamiltonian_pairs) >= 2:
        chart = doc.chart
        pairs = list(doc.hamiltonian_pairs)
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                a, b = pairs[i], pairs[j]
                try:
                    fa = PolyVectorField(chart, a.field_comps)
                    fb = PolyVectorField(chart, b.field_comps)
                    ab = poisson_bracket(s, a.f, fa, b.f, fb)
                    ba = poisson_bracket(s, b.f, fb, a.f, fa)
                    report.add(
                        f"poisson bracket skewness ({a.name},{b.name})",
                        (ab + ba).is_zero(),
                        {"bracket": str(ab)},
                    )
                except StructureError as exc:
                    report.add(
                        f"poisson bracket skewness ({a.name},{b.name})",
                        False,
                        {"failures": [{"message": str(exc), "detail": None}]},
                    )


_COMMANDS = {
    "validate": _run_validate,
    "integrability": _run_integrability,
    "canonical": _run_canonical,
    "decomposable": _run_decomposable,
    "transversal": _run_transversal,
    "reduce": _run_reduce,
    "report-all": _run_report_all,
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigiso",
        description="Exact checks for big-isotropic structures given by polynomial frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "frame invariants and Hamiltonian pair memberships"),
        ("integrability", "Courant-bracket closure with minor certificates"),
        ("canonical", "canonical local frame in the adapted chart"),
        ("decomposable", "local decomposability of the canonical frame"),
        ("transversal", "transversal structure on the slice through the origin"),
        ("reduce", "restriction + foliation quotient pipeline"),
        ("report-all", "every applicable check for the document"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("document", nargs="?", help="path to a structure document")
        p.add_argument("--fixture", help="name of a bundled fixture instead of a path")
        p.add_argument("--grid", help="sample grid override, e.g. '-2..2:24'")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        p.add_argument("--output", help="write the JSON report to this path")
        p.add_argument("--format", choices=["json"], default="json")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    report = Report(command=args.command, document="", seed=args.seed, with_timings=args.timings)
    try:
        doc, label = _load_document(args)
        report.document = label
        runner = _COMMANDS[args.command]
        if args.command == "canonical":
            runner(doc, report, args, want_frame=True)
        else:
            runner(doc, report, args)
        exit_code = EXIT_OK if report.ok else EXIT_CHECK_FAILED
    except (ParseError, OSError) as exc:
        report.add_error(str(exc))
        exit_code = EXIT_INPUT_ERROR
    text = report.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
