"""Command-line entry point.

Subcommands mirror the library analyses one to one: ``analyze`` writes the
full JSON report, ``spectrum``/``marginals`` export CSV for plotting,
``haar`` runs the random-vector comparison, ``fit`` estimates power laws
from tabulated data, and ``prep-cost`` prices state preparation.

Exit codes: 0 success, 2 usage or domain error, 3 integral-file parse
error, 4 resource limit or out of memory, 5 numerical failure, 6 file
I/O.  Importing this module loads neither numpy nor scipy (the package
namespace is lazy); heavy modules are imported inside the handlers, so a
``--threads`` cap (or the TROTTERR_THREADS variable) is in place before
any numerical library starts its worker pool.

``fock.DENSE_LIMIT`` is the largest basis diagonalized densely; no flag
changes it.  Above it ``analyze`` switches to the Lanczos solvers, the only
code the commands run that imports scipy; ``spectrum`` and ``haar`` need
every eigenvalue, so they refuse with exit 4 from the basis's state count,
before any state is listed.  Every input that can be rejected without the
error operator is rejected first: ``haar`` checks ``--samples`` and
``--seed``, ``analyze`` each ``--ci-levels`` entry.

Each JSON payload embeds the schema version, tool version, input file
hash, and every parameter that influenced the numbers, so a rerun with
the same flags is byte-identical, provided the BLAS thread count is the
same too (fix it with ``--threads``): dense LAPACK reductions add in a
thread-dependent order, so ``analyze --space full`` on the H4 fixture
prints ``ratio`` 0.11276632381654865 with one thread and
0.11276632381654818 with two.  CSV outputs carry a single ``#`` header
line naming columns and units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from ._version import SCHEMA_VERSION, __version__
from .errors import (
    FcidumpError,
    NumericalError,
    ResourceLimitError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4
EXIT_NUMERICAL = 5
EXIT_IO = 6

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cap_threads(requested: int | None) -> None:
    value = requested
    if value is None:
        raw = os.environ.get("TROTTERR_THREADS")
        if raw is None:
            return
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(
                f"TROTTERR_THREADS must be an integer, got {raw!r}"
            ) from None
    if value < 1:
        raise ValidationError(f"thread cap must be >= 1, got {value}")
    for var in _BLAS_VARS:
        os.environ[var] = str(value)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_payload(kind: str, source_sha256: str, fields: dict) -> str:
    """A JSON report: ``fields`` under the envelope every report shares."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": kind,
        "source_sha256": source_sha256,
        **fields,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _load_system(args):
    from .hamiltonian import load_fcidump

    kwargs = {}
    if args.basis_kind:
        kwargs["orbital_kind"] = args.basis_kind
    return load_fcidump(args.fcidump, **kwargs), _sha256(args.fcidump)


def _error_operator(args, system):
    from .hamiltonian import build_trotter_sequence
    from .trotter import build_error_operator

    sequence = build_trotter_sequence(system, args.ordering)
    return build_error_operator(sequence, args.dt)


def _dense_basis(system, full_fock: bool):
    """The basis ``spectrum`` and ``haar`` diagonalize densely, refused above
    the dense limit from its state count, before any state is listed."""
    from .fock import SectorBasis, _check_dense_size

    n, n_electrons = system.n_spin_orbitals, system.n_electrons
    _check_dense_size(1 << n if full_fock else math.comb(n, n_electrons))
    if full_fock:
        return SectorBasis.full(n)
    return SectorBasis.sector(n, n_electrons)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> None:
    from .analysis import analyze

    system, digest = _load_system(args)
    levels = None
    if args.ci_levels is not None:
        try:
            levels = tuple(
                int(part) for part in args.ci_levels.split(",") if part.strip()
            )
        except ValueError:
            raise ValidationError(
                f"--ci-levels must be comma-separated integers, got {args.ci_levels!r}"
            ) from None
    report = analyze(
        system,
        delta_t=args.dt,
        ordering=args.ordering,
        granularity=args.granularity,
        space=args.space,
        ci_levels=levels,
        evolution_time=args.time,
        target_delta=args.target_delta,
        source_sha256=digest,
    )
    _emit(args, report.to_json())


def _cmd_spectrum(args) -> None:
    from .analysis import spectrum_csv
    from .fock import full_spectrum

    system, _ = _load_system(args)
    basis = _dense_basis(system, args.full_fock)
    error = _error_operator(args, system)
    _emit(args, spectrum_csv(full_spectrum(error.op, basis)))


def _cmd_haar(args) -> None:
    from dataclasses import fields

    from .haar import _check_sampling, haar_error_distribution

    system, digest = _load_system(args)
    _check_sampling(args.samples, args.seed, args.ensemble)
    basis = _dense_basis(system, args.full_fock)
    error = _error_operator(args, system)
    report = haar_error_distribution(
        error, basis, args.samples, args.seed, ensemble=args.ensemble
    )
    payload = {
        "ordering_label": error.ordering_label,
        "delta_t": args.dt,
        "space": "full" if args.full_fock else "sector",
        "mean_standard_error": report.mean_standard_error(),
        "mean_within_three_stderr": report.mean_is_unbiased(),
    }
    # every scalar field; asdict would copy the samples array
    payload.update(
        (f.name, getattr(report, f.name)) for f in fields(report) if f.name != "samples"
    )
    _emit(args, _json_payload("haar-report", digest, payload))


def _cmd_marginals(args) -> None:
    from .analysis import marginals_csv, orbital_marginals

    system, _ = _load_system(args)
    error = _error_operator(args, system)
    _emit(args, marginals_csv(orbital_marginals(error)))


def _cmd_fit(args) -> None:
    from .analysis import fit_power_law

    try:
        text = Path(args.csv).read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{args.csv}: not a text file ({exc})") from None
    points: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise ValidationError(
                f"{args.csv}:{lineno}: expected two columns, got {raw!r}"
            )
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValidationError(
                f"{args.csv}:{lineno}: non-numeric data {raw!r}"
            ) from None
    fit = fit_power_law(points)
    fields = {
        "n_points": len(points),
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "r_squared": fit.r_squared,
    }
    _emit(args, _json_payload("power-law-fit", _sha256(args.csv), fields))


def _cmd_prep_cost(args) -> None:
    from dataclasses import asdict

    from .stateprep import prep_cost_report

    system, digest = _load_system(args)
    vector = None
    if args.ci_vector:
        from .ci import ci_ground_state

        _, vector = ci_ground_state(system, min(2, system.n_spin_orbitals - system.n_electrons))
    report = prep_cost_report(system, args.delta, vector)
    payload = {"support_from_solved_vector": bool(args.ci_vector), **asdict(report)}
    _emit(args, _json_payload("prep-cost", digest, payload))


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap numerical worker threads (default: TROTTERR_THREADS or unset)",
    )
    common.add_argument(
        "--out", default=None, help="output path (default: stdout)"
    )

    fixture = argparse.ArgumentParser(add_help=False)
    fixture.add_argument("--fcidump", required=True, help="integral file to analyze")
    fixture.add_argument(
        "--basis-kind",
        choices=("local", "canonical", "natural"),
        default=None,
        help="orbital basis annotation recorded in reports",
    )

    stepping = argparse.ArgumentParser(add_help=False)
    stepping.add_argument("--dt", type=float, default=1.0, help="Trotter step size")
    stepping.add_argument(
        "--ordering",
        choices=("lexicographic", "magnitude-descending", "flat-lexicographic"),
        default="lexicographic",
        help="fragment ordering strategy",
    )

    parser = argparse.ArgumentParser(
        prog="trotterr",
        description="Trotter step error analysis for molecular Hamiltonians",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze",
        parents=[common, fixture, stepping],
        help="full error report as JSON",
    )
    p.add_argument(
        "--granularity",
        choices=("integral", "term"),
        default="integral",
        help="fragment granularity",
    )
    p.add_argument(
        "--space",
        choices=("sector", "full"),
        default="sector",
        help="space for expectations and norms",
    )
    p.add_argument(
        "--ci-levels",
        default=None,
        help="comma-separated truncation levels (default: 0,1,2 clamped)",
    )
    p.add_argument(
        "--time", type=float, default=1.0, help="evolution time for the step count"
    )
    p.add_argument(
        "--target-delta",
        type=float,
        default=1e-3,
        help="energy error budget for the step count",
    )
    p.set_defaults(handler=_cmd_analyze)

    for name, handler, extra_help in (
        ("spectrum", _cmd_spectrum, "error-operator eigenvalues as CSV"),
        ("haar", _cmd_haar, "random-vector error statistics as JSON"),
    ):
        p = sub.add_parser(
            name, parents=[common, fixture, stepping], help=extra_help
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--sector",
            dest="full_fock",
            action="store_false",
            help="particle-number sector (default)",
        )
        group.add_argument(
            "--full-fock",
            dest="full_fock",
            action="store_true",
            help="full occupation space",
        )
        p.set_defaults(full_fock=False)
        if name == "haar":
            p.add_argument(
                "--samples", type=int, default=100_000, help="sample count"
            )
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
            p.add_argument(
                "--ensemble",
                choices=("complex", "real"),
                default="complex",
                help="Gaussian ensemble for the random vectors",
            )
            p.set_defaults(handler=_cmd_haar)
        else:
            p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser(
        "marginals",
        parents=[common, fixture, stepping],
        help="orbital-pair error magnitudes as CSV",
    )
    p.set_defaults(handler=_cmd_marginals)

    p = sub.add_parser(
        "fit", parents=[common], help="power-law fit of x,y data"
    )
    p.add_argument("--csv", required=True, help="two-column data file")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser(
        "prep-cost",
        parents=[common, fixture],
        help="state preparation resource estimate as JSON",
    )
    p.add_argument(
        "--delta", type=float, required=True, help="target preparation error"
    )
    p.add_argument(
        "--ci-vector",
        action="store_true",
        help="size the support from the solved doubles-truncation vector",
    )
    p.set_defaults(handler=_cmd_prep_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _cap_threads(args.threads)
        args.handler(args)
    except FcidumpError as exc:
        return _fail(EXIT_PARSE, "parse", exc)
    except ValidationError as exc:
        return _fail(EXIT_USAGE, "usage", exc)
    except ResourceLimitError as exc:
        return _fail(EXIT_RESOURCE, "resource", exc)
    except MemoryError:
        return _fail(EXIT_RESOURCE, "resource", f"out of memory in {args.command}")
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, "numerical", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)
    return EXIT_OK


def _fail(code: int, family: str, detail: Exception | str) -> int:
    print(f"trotterr: {family} error: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
