"""Command line interface.

Subcommands:

- ``gen``     write seeded instance files
- ``label``   label one instance, write the labeling and its bound report
- ``check``   re-validate a labeling file against its instance
- ``oracle``  exact minimum span for a small instance
- ``bench``   sweep a class over a (p, q) grid, emit CSV or JSON rows
- ``claims``  sweep structural claims over seeded instances

The base seed comes from --seed or, failing that, the INTERVALLABEL_SEED
environment variable; commands that generate instances refuse to run
without one so results stay reproducible.

Every integer flag, --pq value and the seed variable must be spelled
canonically, as ``str`` prints the integer ("5", "-3"); " 5", "+5",
"05", "1_0" and non-ASCII digits are usage errors.  --density must be a
plain ASCII decimal ("1", "0.5", "0.05"); " 0.5", "+0.5", ".5", "0.5_0",
"5e-1" and non-ASCII digits are usage errors.  --count must be positive.

Exit status: 0 on success, 1 when a validity violation, a failed
non-report-only bound, or a claim violation was found, or when ``label``
or ``bench`` produced an arc labeling whose span exceeds the split
construction's own bound, 2 on usage, input or output errors.  ``label``
and ``bench`` also name each such failure on stderr.  ``bench`` and
``claims`` check that --out can be written before their first instance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .graph import CapExceededError
from .instances import (
    InstanceFormatError,
    gen_instance,
    parse_instance,
    serialize_instance,
)
from .labeling import (
    Labeling,
    LabelingFormatError,
    LpqParams,
    canonical_int,
    label_instance,
    labeling_to_dict,
    parse_labeling,
    serialize_labeling,
)
from .reps import REP_KINDS, Representation, RepError, derive_graph
from .verify import (
    _EXACT_N_CEILING,
    _EXACT_SEP_CEILING,
    CLAIMS_BY_KIND,
    VARIANTS,
    BoundReport,
    ClaimCheck,
    ClaimReport,
    Violation,
    bound_report,
    check_structural_claims,
    exact_lambda,
    validate,
)

ENV_SEED = "INTERVALLABEL_SEED"

BENCH_COLUMNS = (
    "class",
    "seed",
    "n",
    "p",
    "q",
    "max_degree",
    "multiplicity",
    "omega",
    "span",
    "bound",
    "holds",
    "lambda_exact",
    "runtime_us",
    "report_us",
    "validate_us",
)


class CliError(Exception):
    """Input or usage error; message goes to stderr, exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Generator arguments shared by gen, bench and claims."""

    kind: str
    n: int
    seed: int
    count: int
    endpoint_range: tuple[int, int] | None = None
    k: int = 3
    circumference: int | None = None
    density: float | None = None

    def instance(self, index: int):
        return gen_instance(
            self.kind,
            self.n,
            self.seed + index,
            endpoint_range=self.endpoint_range,
            k=self.k,
            circumference=self.circumference,
            density=self.density,
        )


def plain_decimal(text: str) -> float:
    """The float ``text`` spells as ASCII digits with an optional
    fractional part ("1", "0.5"); raises ValueError for any other
    spelling ``float`` would accept."""
    if not re.fullmatch(r"(0|[1-9][0-9]*)(\.[0-9]+)?", text):
        raise ValueError(f"{text!r} is not a plain decimal")
    return float(text)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return canonical_int(env)
        except ValueError:
            raise CliError(f"{ENV_SEED}={env!r} is not an integer") from None
    raise CliError(f"no seed: pass --seed or set {ENV_SEED}")


def _run_config(args: argparse.Namespace) -> RunConfig:
    if args.count < 1:
        raise CliError(f"--count must be positive, got {args.count}")
    return RunConfig(
        kind=args.cls,
        n=args.n,
        seed=_resolve_seed(args),
        count=args.count,
        endpoint_range=tuple(args.endpoint_range) if args.endpoint_range else None,
        k=args.k,
        circumference=args.circumference,
        density=args.density,
    )


def _write(path: str | Path, data: bytes, parents: bool = False) -> None:
    """Write ``data`` to ``path``, first making its missing directories
    when ``parents``; an OSError becomes a CliError (exit 2)."""
    try:
        if parents:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """Fail now, as ``_write`` would fail later, when ``path`` cannot be
    opened for writing, so a long sweep is not run for nothing.  An
    existing file is opened for appending and left as it was; a file
    this check creates is removed again."""
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "ab"):
            pass
        if not existed:
            os.unlink(path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_or_print(payload: str, out: str | None) -> None:
    if out:
        _write(out, payload.encode())
    else:
        sys.stdout.write(payload)


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    out_dir = Path(args.out)
    for idx in range(cfg.count):
        rep = cfg.instance(idx)
        path = out_dir / f"{cfg.kind}-{cfg.seed}-{idx}.json"
        _write(path, serialize_instance(rep), parents=True)
        print(path)
    return 0


def _load_instance(path: str):
    try:
        return parse_instance(Path(path).read_bytes())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (InstanceFormatError, RepError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _failures(
    violations: Sequence[Violation], report: BoundReport, construction: bool
) -> list[str]:
    """The failure lines of one labeling, in order: invalid, a failed
    bound that is not report-only, and, with ``construction``, an arc
    span over the split construction's own bound.  ``check`` leaves that
    last one out: it validates labelings made elsewhere, which owe the
    split construction nothing."""
    lines = []
    if violations:
        lines.append("labeler produced an invalid labeling")
    span = report.achieved_span
    if not report.holds and not report.report_only:
        lines.append(f"bound violated: span {span} > {report.formula_value}")
    bound = report.construction_value
    if construction and bound is not None and span > bound:
        lines.append(f"construction bound exceeded: span {span} > {bound}")
    return lines


def _label_point(
    rep: Representation, params: LpqParams
) -> tuple[Labeling, BoundReport, list[str], tuple[int, int, int]]:
    """Label ``rep``, report its bound and validate it: the labeling, the
    report, the failure lines and the nanoseconds of those three stages."""
    g = derive_graph(rep)
    t0 = time.perf_counter_ns()
    lab = label_instance(rep, params)
    t1 = time.perf_counter_ns()
    report = bound_report(rep, lab, params)
    t2 = time.perf_counter_ns()
    violations = validate(g, lab)
    t3 = time.perf_counter_ns()
    failures = _failures(violations, report, construction=True)
    return lab, report, failures, (t1 - t0, t2 - t1, t3 - t2)


def cmd_label(args: argparse.Namespace) -> int:
    rep = _load_instance(args.infile)
    lab, report, failures, _ = _label_point(rep, LpqParams(args.p, args.q))
    if args.out:
        _write(args.out, serialize_labeling(lab))
    report_json = json.dumps([report.to_dict()], indent=2) + "\n"
    if args.report:
        _write(args.report, report_json.encode())
    if not args.out and not args.report:
        sys.stdout.write(
            json.dumps(
                {"labeling": labeling_to_dict(lab), "report": report.to_dict()},
                indent=2,
            )
            + "\n"
        )
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def cmd_check(args: argparse.Namespace) -> int:
    rep = _load_instance(args.infile)
    try:
        lab = parse_labeling(Path(args.labeling).read_bytes())
    except OSError as exc:
        raise CliError(f"cannot read {args.labeling}: {exc}") from exc
    except LabelingFormatError as exc:
        raise CliError(f"{args.labeling}: {exc}") from exc
    g = derive_graph(rep)
    if len(lab.labels) != g.n:
        raise CliError(
            f"labeling covers {len(lab.labels)} vertices, instance has {g.n}"
        )
    if (args.p is None) != (args.q is None):
        raise CliError("--p and --q must be given together")
    if args.p is not None:
        params = LpqParams(args.p, args.q)
    else:
        params = LpqParams(lab.p, lab.q)
    violations = validate(g, lab, params, variant=args.variant)
    report = bound_report(rep, lab, params)
    doc = {
        "violations": [v.to_dict() for v in violations],
        "report": report.to_dict(),
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 1 if _failures(violations, report, construction=False) else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    rep = _load_instance(args.infile)
    params = LpqParams(args.p, args.q)
    g = derive_graph(rep)
    try:
        lam = exact_lambda(g, params, n_cap=args.cap)
    except CapExceededError as exc:
        if params.max_sep > _EXACT_SEP_CEILING:
            raise CliError(str(exc)) from exc
        if g.n > _EXACT_N_CEILING:
            raise CliError(f"{exc}; exact search stops at n={_EXACT_N_CEILING}") from exc
        raise CliError(f"{exc}; raise --cap (at most {_EXACT_N_CEILING})") from exc
    lab = label_instance(rep, params)
    doc = {
        "class": rep.kind,
        "n": g.n,
        "p": params.p,
        "q": params.q,
        "lambda": lam,
        "greedy_span": lab.span,
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _parse_pq(values: Sequence[str] | None) -> list[tuple[int, int]]:
    pairs = []
    for item in values or ():
        try:
            a, b = item.split(",")
            pairs.append((canonical_int(a), canonical_int(b)))
        except ValueError:
            raise CliError(f"bad --pq value {item!r}; expected P,Q") from None
    return pairs


def _bench_instance(
    cfg: RunConfig, index: int, pairs: list[tuple[int, int]], cap: int
) -> tuple[list[dict[str, Any]], list[str]]:
    seed = cfg.seed + index
    rep = cfg.instance(index)
    g = derive_graph(rep)
    rows = []
    errors = []
    for p, q in pairs:
        params = LpqParams(p, q)
        lab, report, failures, ns = _label_point(rep, params)
        errors += [f"seed {seed} ({p},{q}): {line}" for line in failures]
        try:
            lam = exact_lambda(g, params, n_cap=cap)
        except CapExceededError:
            lam = None
        stats = report.stats
        values = (
            cfg.kind, seed, g.n, p, q, stats.max_degree, stats.multiplicity,
            stats.omega, lab.span, report.formula_value, report.holds, lam,
            *(t // 1000 for t in ns),
        )
        rows.append(dict(zip(BENCH_COLUMNS, values)))
    return rows, errors


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    pairs = _parse_pq(args.pq)
    _check_writable(args.out)
    rows = []
    errors = []
    for idx in range(cfg.count):
        chunk, lines = _bench_instance(cfg, idx, pairs, args.cap)
        rows += chunk
        errors += lines
    for line in errors:
        print(line, file=sys.stderr)
    if args.format == "json":
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["holds"] = "true" if row["holds"] else "false"
            if out["omega"] is None:
                out["omega"] = ""
            if out["lambda_exact"] is None:
                out["lambda_exact"] = ""
            writer.writerow(out)
        payload = buf.getvalue()
    _write_or_print(payload, args.out)
    return 1 if errors else 0


def cmd_claims(args: argparse.Namespace) -> int:
    if args.claim:
        for name in args.claim:
            if name not in CLAIMS_BY_KIND.get(args.cls, ()):
                raise CliError(
                    f"claim {name!r} not applicable to class {args.cls!r}"
                )
    cfg = _run_config(args)
    # A repeated --claim is checked once.
    claims = tuple(dict.fromkeys(args.claim)) if args.claim else None
    _check_writable(args.out)
    by_claim: dict[str, list[tuple[int, ClaimCheck]]] = {}
    for idx in range(cfg.count):
        for check in check_structural_claims(cfg.instance(idx), claims):
            by_claim.setdefault(check.claim, []).append((cfg.seed + idx, check))
    reports = [
        ClaimReport(
            claim=name,
            checked=len(runs),
            applicable=sum(check.applicable for _, check in runs),
            violations=tuple((seed, w) for seed, check in runs for w in check.witnesses),
        )
        for name, runs in sorted(by_claim.items())
    ]
    payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    _write_or_print(payload, args.out)
    return 1 if any(r.violations for r in reports) else 0


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=REP_KINDS,
        help="representation family",
    )
    sub.add_argument(
        "--n", type=canonical_int, required=True, help="vertices per instance"
    )
    sub.add_argument("--count", type=canonical_int, default=1, help="number of instances")
    sub.add_argument("--seed", type=canonical_int, default=None, help="base seed")
    sub.add_argument(
        "--endpoint-range",
        type=canonical_int,
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="endpoint range (default 0 4n)",
    )
    sub.add_argument(
        "--k", type=canonical_int, default=3, help="class count for interval_k"
    )
    sub.add_argument(
        "--circumference",
        type=canonical_int,
        default=None,
        help="circle size for circular_arc",
    )
    sub.add_argument(
        "--density",
        type=plain_decimal,
        default=None,
        help="cap interval length at this fraction of the range",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervallabel",
        description="Greedy L(p,q) labelings of interval-type representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write seeded instance files")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_label = sub.add_parser("label", help="label one instance file")
    p_label.add_argument("--in", dest="infile", required=True)
    p_label.add_argument("--p", type=canonical_int, required=True)
    p_label.add_argument("--q", type=canonical_int, required=True)
    p_label.add_argument("--out", default=None, help="labeling output path")
    p_label.add_argument("--report", default=None, help="bound report output path")
    p_label.set_defaults(func=cmd_label)

    p_check = sub.add_parser("check", help="validate a labeling file")
    p_check.add_argument("--in", dest="infile", required=True)
    p_check.add_argument("--labeling", required=True)
    p_check.add_argument(
        "--p", type=canonical_int, default=None, help="override labeling p"
    )
    p_check.add_argument(
        "--q", type=canonical_int, default=None, help="override labeling q"
    )
    p_check.add_argument("--variant", choices=VARIANTS, default="L1")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="exact minimum span (small n)")
    p_oracle.add_argument("--in", dest="infile", required=True)
    p_oracle.add_argument("--p", type=canonical_int, required=True)
    p_oracle.add_argument("--q", type=canonical_int, required=True)
    p_oracle.add_argument(
        "--cap", type=canonical_int, default=12, help="max n for exact search"
    )
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="sweep a class over a (p,q) grid")
    _add_gen_flags(p_bench)
    p_bench.add_argument(
        "--pq",
        action="append",
        metavar="P,Q",
        help="grid point, repeatable; no occurrences = empty grid",
    )
    p_bench.add_argument("--cap", type=canonical_int, default=12, help="exact oracle cap")
    p_bench.add_argument("--format", choices=("json", "csv"), default="csv")
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_claims = sub.add_parser("claims", help="sweep structural claims")
    _add_gen_flags(p_claims)
    p_claims.add_argument(
        "--claim", action="append", default=None, help="claim tag, repeatable"
    )
    p_claims.add_argument("--out", default=None)
    p_claims.set_defaults(func=cmd_claims)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", 0) > _EXACT_N_CEILING:
        parser.error(f"--cap {args.cap} is above the exact-search ceiling {_EXACT_N_CEILING}")
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
