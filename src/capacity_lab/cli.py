"""Command-line surface.

Subcommands: capacity, bm-check, reproduce, omega, mean-width, criterion,
search.  Exact capacities print as p/q·π and mean widths as p/q, each
with a 12-significant-digit decimal.  Each subcommand prints JSON, or
with ``--format`` CSV or text, through the one emitter ``_emit``; only
``omega``, whose output is float samples, writes its own JSON or CSV.
Mathematical verdicts (Violates/Satisfies/Equality) are data and exit 0;
usage, computation and parse errors print one ``Error: ...`` line on
stderr and exit 2; a failed reproduction exits 3; a certificate that
fails re-validation exits 1.  ``import capacity_lab.cli`` loads only
``exact`` and ``domains`` of the package; each command imports what it
runs: ``capacity`` loads ``minkowski``, the engine.  ``verify``, the
exact verifier, holds the certificate record, so ``--check-certificate``
loads it and no engine, and every command that runs ``bm`` loads it too;
only ``omega`` loads ``_kernels``, the float module.  A CLI process of
any other subcommand imports neither ``dataclasses`` nor ``typing``: the
value records are ``__slots__`` classes on ``exact._Record``, and ``csv``
loads only for ``--format csv``.  That took the median latency of the
``cli_exact`` benchmark (``perfbench/run.py``) from 98.0 to 80.8 ms on 2 CPUs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import __version__
from .domains import DomainSpec, Ellipsoid, EllipsoidPair, format_domain, parse_domain
from .exact import Verdict, format_decimal, format_rational

K_CAP = 10**6
SAMPLES_CAP = 10**5
SEARCH_CAP = 10**6


class CliError(Exception):
    """A usage or computation error: one line on stderr, exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a CliError instead of printing usage and exiting."""

    def error(self, message):
        raise CliError(message)


def _check_k(k: int) -> int:
    if k < 1:
        raise CliError(f"k must be a positive integer, got {k}")
    if k > K_CAP:
        raise CliError(f"k is capped at {K_CAP} on the command line, got {k}")
    return k


def _parse_domain_arg(text: str) -> DomainSpec:
    try:
        return parse_domain(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_krange(text: str) -> range:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise CliError(f"bad k range {text!r}; expected 'k' or 'lo..hi'") from None
    if lo < 1 or hi < lo:
        raise CliError(f"bad k range {text!r}; need 1 <= lo <= hi")
    _check_k(hi)
    return range(lo, hi + 1)


def _emit(fmt: str, payload: Callable, columns: list[str], rows: Callable, text: Callable[[], Iterable[str]]) -> None:
    """Print payload() as JSON, the COLUMNS of each dict in rows() as CSV, or the lines of text().
    Only the chosen format's callable runs, and nothing is written unless all of the output formats."""
    try:
        if fmt == "json":
            out = json.dumps(payload(), indent=2) + "\n"
        elif fmt == "csv":
            import csv

            buf = io.StringIO()
            writer = csv.DictWriter(buf, columns, extrasaction="ignore", lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows())
            out = buf.getvalue()
        else:
            out = "\n".join(text()) + "\n"
    except ValueError:  # the int-to-str digit limit
        raise CliError(f"the result has an integer of more than {sys.get_int_max_str_digits()} digits") from None
    except OverflowError:
        raise CliError("the margin of the certificate is beyond float range") from None
    sys.stdout.write(out)


def cmd_capacity(k, domain, fmt, verify):
    """Print c_k(DOMAIN) exactly.

    DOMAIN is a literal like 'E(3/2,1)', 'P(1,1)', 'sum(E(3/2,1),E(1,3/2))'
    or 'prod(E(1,1),2,10)'; rationals are written p/q.
    """
    _check_k(k)
    dom = _parse_domain_arg(domain)
    from .minkowski import capacity

    try:
        value = capacity(k, dom)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if verify:
        from .verify import cross_check

        try:
            cross_check(k, dom, value)
        except ValueError as exc:
            raise CliError(f"verification failed: {exc}") from None

    def payload():
        return {
            "k": k,
            "domain": format_domain(dom),
            "value": value.as_dict(),
            "exact": str(value),
            "decimal": value.decimal(),
            "verified": bool(verify),
        }

    _emit(fmt, payload, ["k", "domain", "exact", "decimal"], lambda: [payload()], lambda: [
        "c_{k}({domain}) = {exact} = {decimal}".format(**payload()) + "  [verified]" * verify
    ])


def _require_ellipsoid(dom: DomainSpec, label: str) -> Ellipsoid:
    if not isinstance(dom, Ellipsoid):
        raise CliError(f"{label} must be an ellipsoid literal E(a,b), got {format_domain(dom)}")
    return dom


CERTIFICATE_COLUMNS = ["k", "domain1", "domain2", "c_sum", "c1", "c2", "verdict"]


def _certificate_row(cert, family: str | None = None) -> dict:
    """k, then the family or else the two domains, then c_sum, c1 and c2 as p/q and the verdict."""
    if family is None:
        first = {"domain1": format_domain(cert.domain1), "domain2": format_domain(cert.domain2)}
    else:
        first = {"family": family}
    return {
        "k": cert.k,
        **first,
        "c_sum": format_rational(cert.c_sum.coeff),
        "c1": format_rational(cert.c_1.coeff),
        "c2": format_rational(cert.c_2.coeff),
        "verdict": str(cert.verdict),
    }


def cmd_bm_check(k, domain1, domain2, cert_path, fmt, verify):
    """Compare sqrt(c_k(E1+E2)) against sqrt(c_k(E1)) + sqrt(c_k(E2))."""
    if cert_path is not None:
        given = {"K": k is not None, "DOMAIN1": domain1 is not None, "DOMAIN2": domain2 is not None,
                 "--verify": verify, f"--format {fmt}": fmt != "json"}
        if ignored := [name for name, used in given.items() if used]:
            raise CliError(f"--check-certificate FILE does not take {', '.join(ignored)}")
        from .verify import BMCertificate, verify_certificate

        try:
            with open(cert_path, "r", encoding="utf-8") as fh:
                cert = BMCertificate.from_dict(json.load(fh))
            if not 1 <= cert.k <= K_CAP:
                raise ValueError(f"k must be in 1..{K_CAP}, got {cert.k}")
        except (KeyError, OSError, RecursionError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad certificate file: {exc}") from None
        valid = verify_certificate(cert, reasons := [])
        print(json.dumps({"file": cert_path, "valid": valid}))
        if not valid:
            print(f"certificate invalid: {reasons[0]}", file=sys.stderr)
        return 0 if valid else 1
    if k is None or domain1 is None or domain2 is None:
        raise CliError("usage: bm-check K DOMAIN1 DOMAIN2 (or --check-certificate FILE)")
    _check_k(k)
    e1 = _require_ellipsoid(_parse_domain_arg(domain1), "domain1")
    e2 = _require_ellipsoid(_parse_domain_arg(domain2), "domain2")
    pair = EllipsoidPair.normalized(e1, e2)
    from .bm import bm_check

    cert = bm_check(k, pair)
    if verify:
        from .verify import verify_certificate

        if not verify_certificate(cert, reasons := []):
            raise CliError(f"verification failed: {reasons[0]}")

    def text():
        row = _certificate_row(cert)
        rel = {"LESS": "<", "EQUAL": "=", "GREATER": ">"}[cert.comparison.name]
        return [
            f"k = {cert.k}",
            f"c_k({row['domain1']}) = {cert.c_1.render()}",
            f"c_k({row['domain2']}) = {cert.c_2.render()}",
            f"c_k(sum) = {cert.c_sum.render()}",
            f"sqrt({row['c_sum']}) {rel} sqrt({row['c1']}) + sqrt({row['c2']})   [margin {cert.margin():.6g}]",
            f"verdict: {row['verdict']}",
        ]

    _emit(fmt, lambda: {**cert.to_dict(), "margin": f"{cert.margin():.12g}"}, CERTIFICATE_COLUMNS,
          lambda: [_certificate_row(cert)], text)


def cmd_reproduce(k_max, fmt, verify):
    """One violating certificate for every k in 2..K_MAX.

    Even k uses the pair (E(1+1/k,1), E(1,1+1/k)); odd k uses
    (E(1,1), E(1-1/k,1)).  Exits nonzero if any k fails to violate or to
    match its closed form.
    """
    if k_max < 2:
        raise CliError(f"K_MAX must be >= 2, got {k_max}")
    _check_k(k_max)
    from .bm import ReproductionError, reproduce_theorem
    from .verify import verify_certificate  # loaded by bm already

    table = []
    try:
        for cert in reproduce_theorem(k_max):
            if verify and not verify_certificate(cert, reasons := []):
                print(f"reproduction FAILED: verify_certificate rejects k={cert.k}: {reasons[0]}", file=sys.stderr)
                return 3
            table.append(_certificate_row(cert, "even" if cert.k % 2 == 0 else "odd"))
    except ReproductionError as exc:
        print(f"reproduction FAILED: {exc}", file=sys.stderr)
        return 3
    _emit(fmt, lambda: table, ["k", "family", "c_sum", "c1", "c2", "verdict"], lambda: table, lambda: [
        *(f"k={r['k']:>4} {r['family']:<5} c_sum={r['c_sum']:<14} c1={r['c1']:<10} c2={r['c2']:<10} {r['verdict']}"
          for r in table),
        f"all {len(table)} indices violate the inequality",
    ])


def cmd_omega(domain1, domain2, samples, out, fmt):
    """Boundary curve of the moment image of E1 + E2 as psi,x1,x2 data."""
    if samples > SAMPLES_CAP:
        raise CliError(f"--samples is capped at {SAMPLES_CAP} for omega, got {samples}")
    e1 = _require_ellipsoid(_parse_domain_arg(domain1), "domain1")
    e2 = _require_ellipsoid(_parse_domain_arg(domain2), "domain2")
    pair = EllipsoidPair.normalized(e1, e2)
    try:
        from ._kernels import omega_curve

        points = omega_curve(pair, samples)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    except ImportError as exc:
        raise CliError(f"omega samples the curve with numpy, which cannot be imported: {exc}") from None
    if fmt == "json":
        body = json.dumps(points)
    else:
        lines = ["psi,x1,x2"] + [f"{p.psi!r},{p.x1!r},{p.x2!r}" for p in points]
        body = "\n".join(lines)
    if out == "-":
        print(body)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    except OSError as exc:
        raise CliError(f"cannot write --out: {exc}") from None
    print(f"wrote {len(points)} points to {out}")


def cmd_mean_width(domain, fmt):
    """Exact mean width of an ellipsoid, a polydisk or an ellipsoid sum.

    The mean width M is the average of the support function over the unit
    sphere S^3; it is rational for rational radii.
    """
    dom = _parse_domain_arg(domain)
    from .bm import mean_width

    try:
        value = mean_width(dom)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    def payload():
        return {
            "domain": format_domain(dom),
            "value": {"num": value.numerator, "den": value.denominator},
            "exact": format_rational(value),
            "decimal": format_decimal(value),
        }

    _emit(fmt, payload, ["domain", "exact", "decimal"], lambda: [payload()], lambda: [
        "M({domain}) = {exact} = {decimal}".format(**payload())
    ])


def cmd_criterion(k_range, fmt):
    """Mean-width violation criterion k/floor((k+1)/2) > 16/9 over a k range.

    K_RANGE is 'k' or 'lo..hi'.
    """
    from .bm import ostrover_criterion

    rows = [
        {
            "k": rep.k,
            "violating": rep.violating,
            "lhs": format_rational(rep.lhs),
            "rhs": format_rational(rep.rhs),
            "c_polydisk": format_rational(rep.c_polydisk.coeff),
            "c_ball": format_rational(rep.c_ball.coeff),
        }
        for rep in map(ostrover_criterion, _parse_krange(k_range))
    ]
    _emit(fmt, lambda: rows, list(rows[0]), lambda: rows, lambda: [
        f"k={r['k']:>3}: {'violating' if r['violating'] else 'inconclusive':<13} ({r['lhs']} vs {r['rhs']})"
        for r in rows
    ])


def _height_bounded_rationals(bound: int) -> list[Fraction]:
    values = {Fraction(p, q) for p in range(1, bound + 1) for q in range(1, bound + 1)}
    return sorted(values)


def _search_checks(n_radii: int, n_ks: int) -> int:
    """bm_check calls of a search: unordered pairs of the n_radii^2 ellipsoids, times the k count."""
    n = n_radii * n_radii
    return n * (n + 1) // 2 * n_ks


def cmd_search(bound, k_range, fmt):
    """Exhaustive sweep for violations over rational radii p/q with p,q <= BOUND.

    Enumerates all unordered ellipsoid pairs with such radii and every k in
    K_RANGE, reporting the violating certificates.  The pair count grows
    like the fourth power of the number of admissible radii, so the number
    of checks is capped at SEARCH_CAP before any of them runs.
    """
    if bound < 1:
        raise CliError(f"bound must be >= 1, got {bound}")
    ks = _parse_krange(k_range)
    # the integers 1..BOUND are among the radii, so this is a lower bound
    if (checks := _search_checks(bound, len(ks))) > SEARCH_CAP:
        raise CliError(f"search is capped at {SEARCH_CAP} checks, got at least {checks}")
    radii = _height_bounded_rationals(bound)
    if (checks := _search_checks(len(radii), len(ks))) > SEARCH_CAP:
        raise CliError(f"search is capped at {SEARCH_CAP} checks, got {checks}")
    ellipsoids = [Ellipsoid(a, b) for a in radii for b in radii]
    from .bm import bm_check

    certs = (
        bm_check(k, EllipsoidPair.normalized(e1, e2))
        for i, e1 in enumerate(ellipsoids)
        for e2 in ellipsoids[i:]
        for k in ks
    )
    violating = [c for c in certs if c.verdict is Verdict.VIOLATES]
    _emit(fmt, lambda: [c.to_dict() for c in violating], CERTIFICATE_COLUMNS,
          lambda: map(_certificate_row, violating), lambda: [
        *(
            f"k={c.k} {format_domain(c.domain1)} + {format_domain(c.domain2)}: "
            f"c_sum={c.c_sum} c1={c.c_1} c2={c.c_2} margin={c.margin():.6g}"
            for c in violating
        ),
        f"{len(violating)} violating certificates among {checks} checks",
    ])


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand by name."""
    parser = _Parser(prog="capacity-lab", description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"capacity-lab, version {__version__}")
    subparsers = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, *positionals, verify=False, formats=("json", "csv", "text")):
        sub = subparsers.add_parser(name, help=run.__doc__.split("\n")[0], description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        for dest, kind, nargs in positionals:
            sub.add_argument(dest, metavar=dest.upper(), type=kind, nargs=nargs)
        sub.add_argument(
            "--format", dest="fmt", choices=formats, default="json",
            help="Output format (default: %(default)s).",
        )
        if verify:
            sub.add_argument("--verify", action="store_true", help="Re-derive exact values independently and exactly.")
        return sub

    command("capacity", cmd_capacity, ("k", int, None), ("domain", str, None), verify=True)
    bm = command(
        "bm-check", cmd_bm_check, ("k", int, "?"), ("domain1", str, "?"), ("domain2", str, "?"), verify=True
    )
    bm.add_argument(
        "--check-certificate", dest="cert_path", metavar="FILE",
        help="Re-validate a serialized certificate instead of computing a new one.",
    )
    command("reproduce", cmd_reproduce, ("k_max", int, None), verify=True)
    omega = command("omega", cmd_omega, ("domain1", str, None), ("domain2", str, None), formats=("json", "csv"))
    omega.add_argument("--samples", type=int, default=256, help="Number of psi intervals (default: %(default)s).")
    omega.add_argument("--out", default="-", help="Output path, '-' for stdout (default: %(default)s).")
    command("mean-width", cmd_mean_width, ("domain", str, None))
    command("criterion", cmd_criterion, ("k_range", str, None))
    command("search", cmd_search, ("bound", int, None), ("k_range", str, None))
    return parser, subparsers.choices


def _unexpected(extras: list[str]) -> str:
    if options := [arg for arg in extras if arg.startswith("-")]:
        return f"No such option: {options[0]}"
    return f"Got unexpected extra argument{'s' * (len(extras) > 1)} ({' '.join(extras)})"


def main(argv: list[str] | None = None) -> int:
    """Exact capacities of ellipsoids, polydisks and ellipsoid sums, with
    Brunn-Minkowski violation certificates."""
    args = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    try:
        if args and args[0] in commands:
            # intermixed, so that options may stand between a subcommand's positionals
            ns, extras = commands[args[0]].parse_known_intermixed_args(args[1:])
        else:
            ns, extras = parser.parse_known_args(args)
        if extras:
            raise CliError(_unexpected(extras))
        options = vars(ns)
        return options.pop("run")(**options) or 0
    except CliError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and --version print, then argparse exits with 0
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
