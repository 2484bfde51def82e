"""Command-line interface: info, cohomology, invariants, cess, table, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import CatalogEntry, CatalogError, builtin, load_pcp
from .invariants import DegreeBoundError, Workspace
from .pgroup import PcPresentation, split_central_factors
from .resolution import BudgetExceededError, CohomologyFragment

CSV_HEADER = "order,id,type,e,h,d0,d1,e_prime,e_dprime,p_central,certified"


def default_degree(pres: PcPresentation) -> int:
    return 10 if pres.order <= 32 else 8


def degree_bound(command: str, degree: int | None, pres: PcPresentation) -> int:
    """The --degree value, or the group's default when it is not given.

    Betti numbers start in degree 0, so `cohomology` takes any degree
    >= 0; the invariant reports read H^1 and need degree >= 1.
    """
    if degree is None:
        return default_degree(pres)
    lowest = 0 if command == "cohomology" else 1
    if degree < lowest:
        raise ValueError(f"{command} needs --degree >= {lowest}, got {degree}")
    return degree


def resolve_group(name: str) -> CatalogEntry:
    """A catalog id, or a path to a .pcp file, presented with its central
    cyclic direct factors split off (``split_central_factors``), so that
    a Workspace serves it from those factors."""
    if name.endswith(".pcp") or os.path.sep in name:
        entry = CatalogEntry(os.path.basename(name).rsplit(".", 1)[0], load_pcp(name))
    else:
        entry = builtin(name)
    entry.pres = split_central_factors(entry.pres)
    return entry


def _report(entry: CatalogEntry, N: int, ws: Workspace) -> dict:
    rep = ws.analyzer(entry.pres, N, label=entry.id).report(entry.id).to_json_dict()
    entry.check_invariants(rep)
    return rep


def cmd_info(args, out) -> int:
    entry = resolve_group(args.group)
    fp = entry.fingerprint()
    info = {"group_id": entry.id, "p": entry.pres.p, **fp, "notes": entry.notes}
    json.dump(info, out, indent=2)
    out.write("\n")
    return 0


def cmd_cohomology(args, out) -> int:
    entry = resolve_group(args.group)
    N = degree_bound(args.command, args.degree, entry.pres)
    res = Workspace(budget=args.budget).resolution(entry.pres, N)
    frag = CohomologyFragment(res)
    json.dump({
        "group_id": entry.id,
        "degree_bound": N,
        "betti": res.betti[: N + 1],
        "ring_generators_by_degree": frag.generator_counts(N),
    }, out, indent=2)
    out.write("\n")
    return 0


def cmd_invariants(args, out) -> int:
    entry = resolve_group(args.group)
    N = degree_bound(args.command, args.degree, entry.pres)
    ws = Workspace(budget=args.budget)
    rep = _report(entry, N, ws)
    text = json.dumps(rep, indent=2)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    out.write(text + "\n")
    return 0


def cmd_cess(args, out) -> int:
    entry = resolve_group(args.group)
    N = degree_bound(args.command, args.degree, entry.pres)
    ws = Workspace(budget=args.budget)
    a = ws.analyzer(entry.pres, N, label=entry.id)
    ep, epc = a.e_prime()
    edp, edpc = a.e_double_prime()
    json.dump({
        "group_id": entry.id,
        "degree_bound": N,
        "p_central": a.p_central,
        "cess_dims": list(a.cess_dims()),
        "qa_cess_dims": list(a.qa_cess_dims()),
        "pc_cess_dims": list(a.pc_cess_dims()),
        "e_prime": ep,
        "e_double_prime": edp,
        "certified": {"e_prime": epc, "e_double_prime": edpc},
    }, out, indent=2)
    out.write("\n")
    return 0


def _csv_row(rep: dict) -> str:
    type_str = "[" + ",".join(str(a) for a in rep["type"]) + "]" if rep["type"] is not None else ""
    flags = rep["certified"]
    # a report cut short carries only its failure marker, never a certificate
    certified = bool(flags) and all(flags.values()) and not (
        "budget_exceeded" in flags or "degree_bound_too_small" in flags)

    def fmt(v):
        return "" if v is None else str(v)

    return ",".join([
        str(rep["order"]), rep["group_id"], type_str, fmt(rep["e"]), fmt(rep["h"]),
        fmt(rep["d0"]), fmt(rep["d1"]), fmt(rep["e_prime"]),
        fmt(rep["e_double_prime"]), str(rep["p_central"]).lower(),
        str(certified).lower(),
    ])


def _table_row(name: str, degree: int | None, budget: int,
               ws: Workspace | None = None) -> dict:
    """The report of one table row; a pool worker, passing no ws, gets a
    fresh Workspace, and the sequential rows share one."""
    entry = resolve_group(name)
    N = degree_bound("table", degree, entry.pres)
    return _report(entry, N, ws or Workspace(budget=budget))


def cmd_table(args, out) -> int:
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(
                _table_row, args.groups,
                [args.degree] * len(args.groups),
                [args.budget] * len(args.groups),
            ))
    else:
        ws = Workspace(budget=args.budget)
        rows = [_table_row(gid, args.degree, args.budget, ws) for gid in args.groups]
    lines = [CSV_HEADER] + [_csv_row(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    out.write(text)
    return 0


# ---------------------------------------------------------------------------
# the verification suites


def run_verify(suite: str = "quick", out=None, pcp_64_108: str | None = None,
               budget: int = 20000) -> int:
    """Run the acceptance criteria; one PASS/FAIL line each, 0 iff all pass."""
    from . import acceptance

    out = out or sys.stdout
    lines: list[str] = []
    ok = acceptance.run_criteria(suite, lines, pcp_64_108=pcp_64_108, budget=budget)
    for line in lines:
        out.write(line + "\n")
    out.write(("ALL PASS" if ok else "FAILURES") + f" [{suite}]\n")
    return 0 if ok else 1


def cmd_verify(args, out) -> int:
    return run_verify(args.suite, out, pcp_64_108=args.pcp_64_108, budget=args.budget)


def positive_int(text: str) -> int:
    """An argparse type for counts and caps: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as the JSON error
    object of every other refusal, on stdout, with argparse's exit code 2."""

    def error(self, message: str):
        json.dump({"error": {"type": "UsageError", "message": f"{self.prog}: {message}"}},
                  sys.stdout)
        sys.stdout.write("\n")
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="centdet",
        description="Mod-p cohomology of finite p-groups and central detection invariants",
    )
    ap.add_argument("--budget", type=positive_int, default=20000,
                    help="column cap for resolution differentials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="fingerprint of a catalog entry or .pcp file")
    p.add_argument("group")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("cohomology", help="Betti numbers and ring generator counts")
    p.add_argument("group")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("invariants", help="full invariant report as JSON")
    p.add_argument("group")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--json", default=None, help="also write the report here")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("cess", help="central essential cohomology data")
    p.add_argument("group")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_cess)

    p = sub.add_parser("table", help="CSV table of invariants for several groups")
    p.add_argument("groups", nargs="+")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--csv", default=None, help="also write the CSV here")
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="process pool size for independent groups")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=["quick", "full", "stretch"], default="quick")
    p.add_argument("--pcp-64-108", default=None,
                   help="user-supplied presentation for the conditional checks")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (CatalogError, BudgetExceededError, DegreeBoundError, ValueError,
            OSError) as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stdout)
        sys.stdout.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
