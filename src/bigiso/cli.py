"""Command line front-end.

Subcommands run exact pipelines over a structure document and emit a JSON
report.  Exit codes: 0 when every check passes, 1 when a check fails (the
report carries the certificate), 2 on input errors, 3 when the run stopped
on an unexpected exception (the report's errors name it, a check that was
running is recorded with verdict "error", and no traceback is printed).
Every subcommand validates the structure once, then runs the stages
``_COMMANDS`` lists for it; the stages share the structure, the grid and
the canonical frame.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import combinations

from . import fixtures as fixture_store
from .calculus import BigSection, PolyVectorField
from .canonical import (
    AdaptedChart,
    CanonicalFrame,
    NormalizationError,
    check_orthogonality_relations,
    coupling_equivalences,
    is_locally_decomposable,
    leaf_pullback,
    normalize_frame,
    transversal_structure,
)
from .parser import ParseError, StructureDocument, parse_document
from .record import Record
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
EXIT_INTERNAL_ERROR = 3


def _load_document(args) -> tuple[StructureDocument, str]:
    if args.fixture:
        path = fixture_store.fixture_path(args.fixture)
        label = f"fixture:{args.fixture}"
    else:
        if not args.document:
            raise ParseError("no document given (positional path or --fixture NAME)")
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
        raise ParseError(f"--grid needs integers lo..hi[:cap], got {text!r}")
    if lo > hi or cap < 1:
        raise ParseError(f"--grid {text!r} gives an empty grid: needs lo <= hi and cap >= 1")
    return lo, hi, cap


def _grid_for(doc: StructureDocument, args):
    if args.grid is not None:
        lo, hi, cap = _parse_grid_flag(args.grid)
    elif doc.grid_range:
        lo, hi, cap = doc.grid_range
    else:
        return None
    # A value with cap in-range values of smaller magnitude is in none of the
    # first cap points (swapping any of those in gives an earlier point), so
    # only c, the value of least magnitude, and cap values each side are walked.
    c = min(max(0, lo), hi)
    values = tuple(Fraction(v) for v in range(max(lo, c - cap), min(hi, c + cap) + 1))
    return default_grid(doc.chart.dim, cap=cap, values=values)


def _failure(exc: Exception) -> dict:
    return {"failures": [{"message": str(exc), "detail": None}]}


def _section_strings(sec: BigSection):
    return [str(c) for c in sec.as_poly_row()]


class _Run(Record, frozen=False):
    """What the stages of one document share; each is computed once."""

    doc: StructureDocument
    report: Report
    grid: tuple | None
    structure: BigIsotropicStructure
    frame: CanonicalFrame | None = None  # set by the normalization stage

    def check(self, name: str, verdict_of, *args, **kwargs):
        """Record the verdict of verdict_of(*args, **kwargs) under name."""
        with self.report.start(name) as timer:
            verdict = verdict_of(*args, **kwargs)
            timer.done(verdict.ok, verdict_certificate(verdict))


def _validate(doc: StructureDocument, report: Report, grid) -> BigIsotropicStructure | None:
    with report.start("structure invariants") as timer:
        try:
            s = BigIsotropicStructure.build(
                doc.chart, doc.e_sections, doc.e_prime_sections, grid=grid
            )
            timer.done(True)
        except StructureError as exc:
            timer.done(False, _failure(exc))
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


def _integrability(run: _Run):
    run.check("integrability", check_integrability, run.structure)
    run.check("module property of the orthogonal frame", check_module_property, run.structure)


def _axioms(run: _Run):
    run.check("enlargement axioms", verify_modular_enlargement, run.structure)
    run.check("co-anchor conditions", verify_coanchor, run.structure)


def _adapted_from(doc: StructureDocument) -> AdaptedChart:
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
        raise ParseError(f"adapted block names unknown coordinate {exc}")
    except NormalizationError as exc:
        raise ParseError(f"adapted block: {exc}")


def _normalize(run: _Run, frame_in_certificate: bool = False):
    adapted = _adapted_from(run.doc)
    with run.report.start("canonical normalization") as timer:
        try:
            cf = normalize_frame(run.structure, adapted)
        except NormalizationError as exc:
            timer.done(False, _failure(exc))
            return
        cert = {
            "validity_locus": f"({cf.det_e}) * ({cf.det_eprime}) != 0",
            "leaf_conditions": cf.leaf_conditions_ok,
        }
        if frame_in_certificate:
            grids = (("X", "x_rows"), ("Xi", "xi_rows"), ("Y", "y_rows"), ("Theta", "theta_rows"))
            cert["frame"] = {name: cf.quotient_strings(grid) for name, grid in grids}
        timer.done(cf.leaf_conditions_ok, cert)
    run.check("canonical orthogonality relations", check_orthogonality_relations, cf)
    run.frame = cf


def _canonical_frame(run: _Run):
    _normalize(run, frame_in_certificate=True)


def _decomposable(run: _Run):
    cf = run.frame
    if cf is None:
        return
    alpha_cert = {"alpha_prime": cf.quotient_strings("alpha_prime")}
    run.report.add("local decomposability", is_locally_decomposable(cf), alpha_cert)
    run.check("coupling equivalences", coupling_equivalences, cf, grid=run.grid)


def _transversal(run: _Run):
    cf, report = run.frame, run.report
    if cf is None:
        return
    with report.start("transversal structure") as timer:
        try:
            tr = transversal_structure(run.structure, cf)
        except (NormalizationError, ReductionError, StructureError) as exc:
            timer.done(False, _failure(exc))
            return
        cert = {
            "chart": list(tr.chart.names),
            "frame_E": [_section_strings(sec) for sec in tr.e_frame],
        }
        timer.done(True, cert)
    run.check("transversal integrability", check_integrability, tr)
    with report.start("leaf presymplectic form") as timer:
        try:
            det, alpha = leaf_pullback(cf)
        except NormalizationError as exc:
            timer.done(False, _failure(exc))
            return
        timer.done(True, {"matrix": [[str(e / det) for e in row] for row in alpha.entries]})


def _reduce(run: _Run):
    doc = run.doc
    try:
        N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
    except ReductionError as exc:
        raise ParseError(f"submanifold equations: {exc}")
    try:
        fibre = tuple(N.sub.index(name) for name in doc.foliation_names)
    except ValueError as exc:
        raise ParseError(f"foliation names must be submanifold coordinates: {exc}")
    try:
        F = FoliationData(N.sub, fibre)
    except ReductionError as exc:
        raise ParseError(f"foliation: {exc}")
    restricted_frame = (
        doc.sections_for(N.sub, doc.restricted_e_lines) if doc.restricted_e_lines else None
    )
    restricted_prime = (
        doc.sections_for(N.sub, doc.restricted_e_prime_lines)
        if doc.restricted_e_prime_lines
        else None
    )
    with run.report.start("reduction pipeline") as timer:
        try:
            result = reduce_structure(
                run.structure, N, F, restricted_frame, restricted_prime_frame=restricted_prime
            )
        except (ReductionError, StructureError) as exc:
            timer.done(False, _failure(exc))
            return
        cert = {
            "quotient_chart": list(result.quotient.chart.names),
            "quotient_frame_E": [_section_strings(sec) for sec in result.quotient.e_frame],
            "poisson_condition": result.poisson_condition,
        }
        timer.done(True, cert)
    run.check("reduced integrability", check_integrability, result.quotient)


def _poisson(run: _Run):
    chart, s = run.doc.chart, run.structure
    for a, b in combinations(run.doc.hamiltonian_pairs, 2):
        name = f"poisson bracket skewness ({a.name},{b.name})"
        try:
            fa = PolyVectorField(chart, a.field_comps)
            fb = PolyVectorField(chart, b.field_comps)
            ab = poisson_bracket(s, a.f, fa, b.f, fb)
            ba = poisson_bracket(s, b.f, fb, a.f, fa)
            run.report.add(name, (ab + ba).is_zero(), {"bracket": str(ab)})
        except StructureError as exc:
            run.report.add(name, False, _failure(exc))


# subcommand -> its stages after validation, in report order; the stages
# after _normalize use its frame and do nothing when there is none
_COMMANDS = {
    "validate": (),
    "integrability": (_integrability,),
    "canonical": (_canonical_frame,),
    "decomposable": (_normalize, _decomposable),
    "transversal": (_normalize, _transversal),
    "reduce": (_reduce,),
    "report-all": (
        _integrability, _axioms, _normalize, _decomposable, _transversal, _reduce, _poisson
    ),
}


def _missing_block(doc: StructureDocument, stage) -> str | None:
    """The input error for a stage whose document block is missing."""
    if stage in (_normalize, _canonical_frame) and not doc.adapted_split:
        return "document has no adapted block"
    if stage is _reduce and (doc.submanifold_equations is None or doc.foliation_names is None):
        return "reduce needs submanifold and foliation blocks"
    return None


def _run_command(command: str, doc: StructureDocument, report: Report, grid) -> None:
    """Validate doc once, then run the stages of command into report."""
    s = _validate(doc, report, grid)
    if s is None:
        return
    run = _Run(doc, report, grid, s)
    for stage in _COMMANDS[command]:
        missing = _missing_block(doc, stage)
        if missing is None:
            stage(run)
        elif command != "report-all":  # report-all runs what the document allows
            raise ParseError(missing)


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
        _run_command(args.command, doc, report, _grid_for(doc, args))
        exit_code = EXIT_OK if report.ok else EXIT_CHECK_FAILED
    except (ParseError, OSError) as exc:
        report.add_error(str(exc))
        exit_code = EXIT_INPUT_ERROR
    except UnicodeDecodeError as exc:
        report.add_error(f"{args.document}: not UTF-8 text ({exc.reason} at byte {exc.start})")
        exit_code = EXIT_INPUT_ERROR
    except Exception as exc:  # the exit-code contract holds on every input
        report.add_error(f"internal error: {type(exc).__name__}: {exc}")
        exit_code = EXIT_INTERNAL_ERROR
    text = report.to_json()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"bigiso: cannot write --output {args.output}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
