"""Command-line front end.

Commands: eval, count, series, local, integral, arcs, report, check-suite.
Every run echoes its configuration (including the seed) so outputs are
reproducible; exact counts are always serialized as decimal strings, never
floats.  Exit codes: 0 success, 1 domain/usage error, 2 budget refusal
(BudgetError, or a MemoryError from an allocation the machine refuses).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import asdict
from fractions import Fraction

from . import arcs as arcs_mod
from . import expsums, figurate, localdensity, repcount, singularintegral
from . import singularseries, weylbounds
from .errors import BudgetError

CSV_HEADER = [
    "m",
    "s",
    "spec",
    "exact",
    "main_term",
    "ratio",
    "series_truncated",
    "euler_estimate",
    "minor_residual",
    "checks_passed",
]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low: int, what: str):
    """argparse type: an integer >= low, else a usage error naming what."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer >= {low}, got {text!r}"
            )
        return n

    return parse


def _m_values(text: str) -> tuple[int, ...]:
    """argparse type of --m: an integer or a comma list of them; a token
    that is not an integer is a usage error naming it."""
    values = []
    for token in text.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"m must be an integer or a comma list of integers, got {token!r}") from None
    return tuple(values)


def parse_spec(text: str) -> figurate.FigurateSpec:
    """Either a catalog symbol like {3,4,3} or explicit coefficients A,B,C."""
    text = text.strip()
    if text.startswith("{"):
        return figurate.catalog(text).spec
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(
            "spec must be a catalog symbol {p,q,r} or three integers A,B,C"
        )
    return figurate.FigurateSpec(int(parts[0]), int(parts[1]), int(parts[2]))


def report_to_dict(report: arcs_mod.ComparisonReport) -> dict:
    """JSON-ready mapping of the report's fields; the exact count (which can
    exceed 2^63) becomes a decimal string under "exact", the label "spec"."""
    data = asdict(report)
    data["spec"] = data.pop("spec_label")
    exact = data.pop("exact_count")
    data["exact"] = None if exact is None else str(exact)
    return data


def _echo(args) -> str:
    """Result-affecting configuration only: thread count is omitted
    because outputs are required to be independent of it."""
    ms = ",".join(str(m) for m in args.m)
    return (
        f"# config command={args.command} spec={args.spec} s={args.s} "
        f"m={ms} Q={args.Q} prime_limit={args.prime_limit} "
        f"format={args.format} seed={args.seed} budget={args.budget}"
    )


def emit_report(reports: list[arcs_mod.ComparisonReport], args) -> str:
    """Render reports as CSV (fixed header) or JSON (config embedded)."""
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(_echo(args) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            passed = sum(1 for c in r.bound_checks if c.holds)
            writer.writerow(
                [
                    r.m,
                    r.s,
                    r.spec_label,
                    "" if r.exact_count is None else str(r.exact_count),
                    repr(r.main_term),
                    repr(r.ratio),
                    repr(r.series.truncated),
                    repr(r.series.euler_estimate),
                    "" if r.minor_residual is None else repr(r.minor_residual),
                    f"{passed}/{len(r.bound_checks)}",
                ]
            )
        return buf.getvalue()
    payload = {
        "config": {
            "command": args.command,
            "spec": args.spec,
            "s": args.s,
            "m": list(args.m),
            "seed": args.seed,
        },
        "reports": [report_to_dict(r) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------- check suite


def _suite_tasks(seed: int):
    """Deterministic (name, thunk) list; thunks return (ok, detail)."""
    f1 = figurate.catalog("{3,4,3}").spec
    specs = figurate.catalog_specs()

    def t_values():
        ok = all(sp.value(1) == 1 for sp in specs)
        return ok, "f(1)=1 across the catalog"

    def t_unit_counts():
        ok = all(
            repcount.count_representations(sp, s, sp.value(1) * s) == 1
            for sp in specs
            for s in range(1, 7)
        )
        return ok, "R_{f,s}(s)=1 for s=1..6"

    def t_dp_vs_dft():
        prof = repcount.count_profile(f1, 2, 200)
        dft = repcount.count_profile_via_dft(f1, 2, 200)
        return prof.counts == dft.counts, "pair counts to 200, two methods"

    def t_scaling():
        reports = [
            localdensity.scaling_identity_check(f1, 5, m, q)
            for q in (2, 3, 5)
            for m in (0, 1)
        ]
        return all(r.holds for r in reports), "exact 24^s rescaling at q=2,3,5"

    def t_multiplicativity():
        rng = random.Random(seed)
        pairs = set()
        while len(pairs) < 8:
            q = rng.randrange(2, 13)
            r = rng.randrange(2, 13)
            if math.gcd(q, r) == 1:
                pairs.add((q, r))
        worst = 0.0
        for q, r in sorted(pairs):
            lhs = expsums.v_of_q(f1, q * r, 5, 3)
            rhs = expsums.v_of_q(f1, q, 5, 3) * expsums.v_of_q(f1, r, 5, 3)
            worst = max(worst, abs(lhs - rhs))
        return worst <= 1e-8, f"V(qr)=V(q)V(r), worst |diff|={worst:.2e}"

    def t_weyl():
        rng = random.Random(seed + 1)
        reports = []
        for _ in range(10):
            phase = weylbounds.QuarticPhase(
                rng.random(), rng.random(), rng.random(), rng.random()
            )
            reports.append(
                weylbounds.check_weyl_differencing(phase, 20, rng.choice((1, 2, 3)))
            )
        return all(r.holds for r in reports), "10 random phases at X=20"

    def t_dissection():
        ok = arcs_mod.optimal_delta(17) == Fraction(73, 372)
        d = arcs_mod.dissect(1000, Fraction(73, 372))
        return ok and len(d.arcs) >= 1, f"delta(17)=73/372; {len(d.arcs)} arcs at N=1000"

    def t_divisor_sum():
        reports = [
            singularseries.divisor_sum_identity_check(f1, 5, 1, q)
            for q in (2, 3, 4, 6)
        ]
        return all(r.holds for r in reports), "V-divisor sums at q=2,3,4,6"

    def t_inequalities():
        g = weylbounds.check_geometric_sum(Fraction(1, 2), 0, 10)
        r = weylbounds.check_reciprocal_sum(
            Fraction(1, 101), 0.0, 50, 10.0, 1, 101, 1.0
        )
        d = weylbounds.divisor_bound_check(5040)
        return g.holds and r.holds and d.holds, "geometric/reciprocal/divisor"

    def t_gamma():
        j = singularintegral.j1_bound_check(2, 100)
        b = singularintegral.beta_approx_check(4.25, 0.25, 100)
        return j.holds and b.holds, "J1 and Beta approximation bounds"

    def t_hensel():
        lifts = localdensity.hensel_lift(f1, f1.value(1), 1, 2, 5, 2)
        return lifts == [1, 17, 33, 49], f"lifts mod 64: {lifts}"

    def t_density():
        rho = localdensity.local_density(f1, 17, 0, 2, 1)
        taus = [localdensity.valuation_tau(f1, p) for p in (2, 3, 5, 7)]
        return rho == 1.0 and taus == [2, 0, 0, 0], f"rho_1(2)={rho}, tau={taus}"

    return [
        ("catalog-values", t_values),
        ("unit-counts", t_unit_counts),
        ("dp-vs-dft", t_dp_vs_dft),
        ("scaling-identity", t_scaling),
        ("multiplicativity", t_multiplicativity),
        ("weyl-differencing", t_weyl),
        ("arc-dissection", t_dissection),
        ("divisor-sum-identity", t_divisor_sum),
        ("classical-inequalities", t_inequalities),
        ("gamma-approximations", t_gamma),
        ("hensel-lift", t_hensel),
        ("local-density", t_density),
    ]


def run_check_suite(seed: int, threads: int) -> tuple[str, bool]:
    """Run the battery; output is byte-identical for any thread count."""
    tasks = _suite_tasks(seed)

    def run_one(item):
        name, thunk = item
        try:
            ok, detail = thunk()
        except Exception as exc:  # a crashed check is a failed check
            return name, False, f"exception: {exc}"
        return name, ok, detail

    if threads > 1:
        # imported here: concurrent.futures loads logging, which a
        # one-thread run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, tasks))
    else:
        results = [run_one(t) for t in tasks]
    lines = []
    all_ok = True
    for name, ok, detail in results:
        status = "ok" if ok else "FAIL"
        all_ok = all_ok and ok
        lines.append(f"{status:4s} {name}: {detail}")
    lines.append(f"suite: {'pass' if all_ok else 'FAIL'} ({len(results)} checks)")
    return "\n".join(lines) + "\n", all_ok


# ------------------------------------------------------------------- argparse


def _build_parser() -> _Parser:
    parser = _Parser(prog="waring4", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--threads",
        type=_int_at_least(1, "thread count (--threads or WARING4_THREADS)"),
        default=os.environ.get("WARING4_THREADS", "1"),  # parsed by type too
        help="check-suite workers; the other commands accept and ignore it",
    )
    common.add_argument(
        "--budget", type=_int_at_least(0, "budget"), default=repcount.DEFAULT_OP_BUDGET
    )
    common.add_argument("--output", default=None)
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="report output format; the other commands accept and ignore it",
    )
    # what the config echo prints for a field the command has no option for
    parser.set_defaults(spec="-", s=0, m=(), Q=0, prime_limit=50)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate f(n)", parents=[common])
    p_eval.add_argument("--spec", required=True)
    p_eval.add_argument("--n", type=int, required=True)

    p_count = sub.add_parser(
        "count", help="representation count R_{f,s}(m)", parents=[common]
    )
    p_count.add_argument("--spec", required=True)
    p_count.add_argument("--s", type=_int_at_least(1, "s"), required=True)
    p_count.add_argument("--m", type=_m_values, required=True)

    p_series = sub.add_parser(
        "series", help="truncated singular series", parents=[common]
    )
    p_series.add_argument("--spec", required=True)
    p_series.add_argument("--s", type=_int_at_least(1, "s"), required=True)
    p_series.add_argument("--m", type=_m_values, required=True)
    p_series.add_argument("--Q", type=_int_at_least(1, "Q"), default=30)

    p_local = sub.add_parser(
        "local", help="local density ladder at a prime", parents=[common]
    )
    p_local.add_argument("--spec", required=True)
    p_local.add_argument("--s", type=_int_at_least(1, "s"), required=True)
    p_local.add_argument("--m", type=_m_values, required=True)
    p_local.add_argument("--p", type=int, required=True)
    p_local.add_argument("--k-max", type=_int_at_least(1, "k-max"), default=None)

    p_integral = sub.add_parser(
        "integral", help="J1 vs Gamma main-term check", parents=[common]
    )
    p_integral.add_argument("--s", type=_int_at_least(1, "s"), required=True)
    p_integral.add_argument("--m", type=_m_values, required=True)

    p_arcs = sub.add_parser("arcs", help="arc dissection summary", parents=[common])
    p_arcs.add_argument("--spec", required=True)
    p_arcs.add_argument("--s", type=_int_at_least(1, "s"), default=17)
    p_arcs.add_argument("--m", type=_m_values, required=True)

    p_report = sub.add_parser(
        "report", help="full asymptotic comparison", parents=[common]
    )
    p_report.add_argument("--spec", required=True)
    p_report.add_argument("--s", type=_int_at_least(1, "s"), required=True)
    p_report.add_argument("--m", type=_m_values, required=True, help="target m or comma ladder")
    p_report.add_argument("--prime-limit", type=_int_at_least(1, "prime-limit"), default=50)

    sub.add_parser(
        "check-suite", help="deterministic self-check battery", parents=[common]
    )
    return parser


def _run(args) -> int:
    out: list[str] = [_echo(args)]

    if args.command == "eval":
        spec = parse_spec(args.spec)
        out.append(str(spec.value(args.n)))
    elif args.command == "count":
        spec = parse_spec(args.spec)
        for m in args.m:
            out.append(str(repcount.count_representations(spec, args.s, m, budget=args.budget)))
    elif args.command == "series":
        spec = parse_spec(args.spec)
        for m in args.m:
            est = singularseries.truncated_series(spec, args.s, m, args.Q)
            out.append(f"{est.truncated!r} (imag residue {est.imag_residue:.2e})")
    elif args.command == "local":
        spec = parse_spec(args.spec)
        for m in args.m:
            rep = localdensity.local_density_limit(
                spec, args.s, m, args.p, k_max=args.k_max
            )
            levels = " ".join(f"k={k}:{rho!r}" for k, rho in rep.levels)
            out.append(
                f"p={rep.p} stabilized={rep.stabilized} estimate={rep.estimate!r} "
                f"bound_holds={rep.bound_holds} {levels}"
            )
    elif args.command == "integral":
        for m in args.m:
            check = singularintegral.j1_bound_check(args.s, m)
            out.append(
                f"holds={check.holds} lhs={check.lhs!r} rhs={check.rhs!r} "
                f"({check.context})"
            )
    elif args.command == "arcs":
        spec = parse_spec(args.spec)
        for m in args.m:
            N = arcs_mod.choose_N(spec.A, m)
            d = arcs_mod.dissect(N, arcs_mod.dissection_delta(args.s))
            qmax = max(arc.q for arc in d.arcs)
            out.append(
                f"N={d.N} delta={d.delta} P={d.P!r} q_max={qmax} arcs={len(d.arcs)}"
            )
    elif args.command == "report":
        spec = parse_spec(args.spec)
        reports = [
            arcs_mod.asymptotic_report(
                spec,
                args.s,
                m,
                prime_limit=args.prime_limit,
                count_budget=args.budget,
            )
            for m in args.m
        ]
        _write_output(emit_report(reports, args), args.output)
        return 0
    elif args.command == "check-suite":
        text, ok = run_check_suite(args.seed, args.threads)
        _write_output(_echo(args) + "\n" + text, args.output)
        return 0 if ok else 1
    else:  # pragma: no cover - argparse enforces the command set
        return 1

    _write_output("\n".join(out) + "\n", args.output)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (BudgetError, MemoryError) as exc:
        # an allocation the machine cannot give is a refusal too, not a crash
        print(f"budget refusal: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
