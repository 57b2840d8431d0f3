"""The windsym command line: subcommands p1, homology, criterion, paths
(with a sweep mode), qexp and bounds.

JSON goes to stdout by default; `bounds --table --csv` writes the table as
CSV, and the paths sweep always writes CSV; --out writes to a file
(relative paths are resolved under $OUTPUT_DIR when set).  Every number is
exact, so re-running a subcommand with the same flags yields byte-identical
output.  Exit codes: 0 success, 1 when an asserted check fails (or, from
the console script, when stdout is closed early), 2 on usage errors.
"""

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .arith import is_prime, prime_power

# The layer modules and windsym.bounds are imported inside the handlers that
# run them, so a run compiles and holds only what its subcommand uses:
# `bounds` loads no layer module, `qexp` only qexp_hecke and `p1` only
# residue_p1.

SCHEMA = 1

# Most decimal digits a value printed by `bounds` may have.  Python 3.11
# refuses to convert an int of more than 4300 digits to a string (3.10 has
# no such limit), and the table's output grows as d_max^2, so a run whose
# largest value could be longer is refused with exit 2 before any value is
# computed, on every Python alike (see _check_digits).  A level p^n is held
# to the same limit before it is formed (see _check_level), and so are the
# numerator and denominator of `qexp up-matrix --a-p`.
MAX_BOUND_DIGITS = 4000


def _json_batches(payload) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n" in pieces of a few thousand
    encoder chunks each, so a long list is never held encoded in full."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(chunks, 4096)):
        yield batch
    yield "\n"


def _emit(payload, args) -> None:
    texts = [payload] if isinstance(payload, str) else _json_batches(payload)
    out_path = getattr(args, "out", None)
    if out_path:
        base = os.environ.get("OUTPUT_DIR", "")
        if base and not os.path.isabs(out_path):
            out_path = os.path.join(base, out_path)
        try:
            with open(out_path, "w") as fh:
                fh.writelines(texts)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(texts)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _too_long(base: int, exp: int, factor: int = 1) -> bool:
    """Whether |factor base^exp| has more than MAX_BOUND_DIGITS digits,
    decided before base^exp is formed wherever its bit length settles it.

    With b the bit length of base, 2^(exp(b-1)) <= |base|^exp < 2^(exp b).
    The value is admitted unformed when exp b + bits(factor) is at most
    3 MAX_BOUND_DIGITS (8^MAX_BOUND_DIGITS < 10^MAX_BOUND_DIGITS), refused
    unformed when exp(b - 1) exceeds 4 MAX_BOUND_DIGITS (|base|^exp alone is
    then past 16^MAX_BOUND_DIGITS), and compared exactly in between.  An exp
    below 1 is left to the caller's own checks.
    """
    b = abs(base).bit_length()
    if exp < 1 or exp * b + abs(factor).bit_length() <= 3 * MAX_BOUND_DIGITS:
        return False
    return exp * (b - 1) > 4 * MAX_BOUND_DIGITS or abs(factor * base**exp) >= 10**MAX_BOUND_DIGITS


def _exponent_too_long(text: str) -> bool:
    """Whether a literal such as 1e5 writes an exponent past MAX_BOUND_DIGITS
    plus its length, read before Fraction forms 10^exp: a nonzero value with
    such an exponent has a numerator or denominator past the limit anyway."""
    exp = re.search(r"e[-+]?([\d_]+)\s*\Z", text, re.IGNORECASE)
    if exp is None:
        return False
    digits, most = exp[1].replace("_", "").lstrip("0"), MAX_BOUND_DIGITS + len(text)
    return len(digits) > len(str(most)) or int(digits or 0) > most


_PRIME_CLASSES = (5, 3, 2)  # p not 2 or 3, p = 3, p = 2: the table's columns


def _check_digits(flag: str, d: int, l: int = 1) -> None:
    """Refuse a d whose bounds could print more than MAX_BOUND_DIGITS digits:
    every value `bounds` prints is at most T l^d, with T the largest
    threshold C^2 (sd)^6 of windsym.bounds over the prime classes and l the
    base of its power (1 for the threshold alone)."""
    from . import bounds

    top = max(bounds.criterion_threshold(p, d).threshold for p in _PRIME_CLASSES)
    if _too_long(l, d, top):
        raise ValueError(f"{flag} {d} exceeds the limit: the bounds would print more than "
                         f"{MAX_BOUND_DIGITS} digits")


def _check_level(p: int, n: int) -> None:
    """Refuse an --n below 1, and a level p^n of more than MAX_BOUND_DIGITS
    digits before p^n is formed (Python 3.11 cannot print one past 4300
    digits, and p^n itself grows without bound in n)."""
    _check_min("--n", n, 1)
    if _too_long(p, n):
        raise ValueError(f"--n {n} exceeds the limit: p^n would have more than "
                         f"{MAX_BOUND_DIGITS} digits")


def _flags_apply(args, defaults: dict, reads, where) -> None:
    """The one rule for flags a mode does not read: each flag of defaults is
    None unless given; one given outside reads is refused before any work,
    and one not given takes its default."""
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in reads:
            raise ValueError(f"--{dest.replace('_', '-')} applies only to {where(dest)}")


def _check_min(flag: str, value: int | None, low: int) -> None:
    """Refuse a value below the least one its flag admits, naming the flag;
    a flag not given (None) is not judged."""
    if value is not None and value < low:
        raise ValueError(f"{flag} must be >= {low}")


def _check_cap(flag: str, value: int, limit: int) -> None:
    """Refuse a value above its layer's limit.  Each handler imports the
    limit from its layer module when it runs, so a lowered one is obeyed."""
    if value > limit:
        raise ValueError(f"{flag} {value} exceeds the limit {limit}")


def _parse_prime_power(value: int):
    """The residue_p1.PrimePower that value is, or ValueError."""
    from .residue_p1 import PrimePower

    if _too_long(value, 1):
        raise ValueError(f"a --pn value exceeds the limit: it has more than "
                         f"{MAX_BOUND_DIGITS} digits")
    found = prime_power(value)
    if found is None:
        raise ValueError(f"{value} is not a prime power")
    return PrimePower(*found)


def _cmd_p1(args) -> int:
    from .residue_p1 import P1Table, PrimePower

    _check_level(args.p, args.n)
    pp = PrimePower(args.p, args.n)
    table = P1Table(pp)
    report = {
        "schema": SCHEMA,
        "p": pp.p,
        "n": pp.n,
        "size": table.size,
        "affine": pp.modulus,
        "infinite_branch": table.size - pp.modulus,
    }
    rc = 0
    if args.verify:
        size, sigma, tau = table.size, table.sigma_perm, table.tau_perm
        # entries are read as indices only once a table is in range; an
        # in-range involution, or map of order 3, is then a bijection
        sigma_in, tau_in = (len(t) == size and min(t) >= 0 and max(t) < size for t in (sigma, tau))
        sigma_ok = sigma_in and all(sigma[sigma[i]] == i for i in range(size))
        tau_ok = tau_in and all(tau[tau[tau[i]]] == i for i in range(size))
        # tau_perm is sliced out of sigma_perm, so this check reads tau point
        # by point instead: it then compares two independent routes
        shift_ok = all(sigma[table.tau(a)] == (a + 1) % pp.modulus for a in range(pp.modulus))
        bijective = sigma_ok and tau_ok
        report["checks"] = {
            "sigma_involution": sigma_ok,
            "tau_order_3": tau_ok,
            "tau_sigma_is_plus_one": shift_ok,
            "bijections": bijective,
        }
        if not (sigma_ok and tau_ok and shift_ok and bijective):
            rc = 1
    _emit(report, args)
    return rc


def _cmd_homology(args) -> int:
    from .rel_homology import H1Presentation
    from .residue_p1 import P1Table, PrimePower

    _check_level(args.p, args.n)
    pp = PrimePower(args.p, args.n)
    l = args.l
    if l is not None and not is_prime(l):  # Q is asked for by omitting --l
        raise ValueError(f"{l} is not prime")
    pres = H1Presentation(P1Table(pp))
    # one integer presentation serves every field; the record still names
    # the field asked for
    report = {"schema": SCHEMA, "p": pp.p, "n": pp.n, "field": f"F{l}" if l else "Q",
              "p1_size": pres.p1_size, "relation_rank": pres.relation_rank,
              "quotient_dim": pres.quotient_dim}
    if args.smith:
        # the relations are totally unimodular (rel_homology.smith_invariants
        # certifies it), so the list is relation_rank ~ 5|P^1|/6 ones
        pres.table.check_size_limit()
        report["smith_invariants"] = [1] * report["relation_rank"]
        report["torsion_free"] = True
    _emit(report, args)
    return 0


def _cmd_criterion(args) -> int:
    from .hecke_symbols import MAX_ALL_L, check_kamienny_condition3

    if args.all_l_up_to is not None:
        _check_min("--all-l-up-to", args.all_l_up_to, 2)
        _check_cap("--all-l-up-to", args.all_l_up_to, MAX_ALL_L)
        ls = [l for l in range(2, args.all_l_up_to + 1) if is_prime(l)]
    else:
        ls = [args.l]
    _check_min("--d", args.d, 1)
    _check_level(args.p, args.n)
    reports = [check_kamienny_condition3(args.p, args.n, args.d, l) for l in ls]
    # the shape follows the flag, not the number of primes up to L
    payload = reports[0].to_json() if args.all_l_up_to is None else {
        "schema": SCHEMA,
        "reports": [r.to_json() for r in reports],
    }
    _emit(payload, args)
    # a failure only counts against the guarantee inside the threshold regime
    bad = any(r.threshold_satisfied and not r.passed for r in reports)
    return 1 if bad else 0


def _chain_reports(pp, r_min, r_max, d):
    """(r, D, reports) for r = r_min..r_max at level pp, with D = r unless d
    is given: chain A, and chain B or, where p divides r, B', walked on
    Sigma_r.  One P1Table serves every r, and Sigma_r grows by T_r{0,oo}
    alone (sigma_r_sets), so each image is listed once."""
    from .hecke_symbols import sigma_r_sets
    from .residue_p1 import P1Table
    from .winding_paths import CHAIN_A, interval_bound, walk_chain_A, walk_chain_B, walk_chain_B_prime

    table = P1Table(pp)
    for sig in sigma_r_sets(table, r_min, r_max):
        r = sig.r
        d_param = r if d is None else d
        second = walk_chain_B_prime if r % pp.p == 0 else walk_chain_B
        reports = []
        for chain in (walk_chain_A(r, table, sig), second(r, table, sig)):
            bound = interval_bound(chain.label, pp, d_param)
            # the second chain's leading-term isolation degenerates at r = 1,
            # so its bound is not asserted there
            applicable = bound > 0 and not (chain.label != CHAIN_A and r == 1)
            reports.append({
                "chain": chain.label,
                "start_index": chain.start_index,
                "interval_len": chain.interval_length,
                "visited": chain.visited_count,
                "stop_reason": chain.stop_reason,
                "bound": str(bound),
                "bound_applicable": applicable,
                "bound_holds": chain.interval_length >= bound if applicable else None,
            })
        yield r, d_param, reports


def _cmd_paths(args) -> int:
    from .hecke_symbols import MAX_HECKE_R
    from .residue_p1 import PrimePower

    _check_min("--d", args.d, 1)  # D = r applies only when --d is not given
    if args.p is None or args.r is None:
        raise ValueError("paths: need --p and --r (or the sweep subcommand)")
    _check_min("--r", args.r, 1)
    _check_cap("--r", args.r, MAX_HECKE_R)
    n = 1 if args.n is None else args.n
    _check_level(args.p, n)
    pp = PrimePower(args.p, n)
    (r, d_param, reports), = _chain_reports(pp, args.r, args.r, args.d)
    payload = {"schema": SCHEMA, "p": pp.p, "n": pp.n, "r": r, "d": d_param, "chains": reports}
    _emit(payload, args)
    return 1 if any(rep["bound_holds"] is False for rep in reports) else 0


def _cmd_paths_sweep(args) -> int:
    from .hecke_symbols import MAX_HECKE_R

    # None unless given before sweep, whose --d and --out have own dests
    _flags_apply(args, dict.fromkeys(("p", "n", "r", "d", "out")), (),
                 lambda _: "paths without sweep")
    args.d, args.out = args.sweep_d, args.sweep_out
    _check_min("--d", args.d, 1)
    _check_cap("--r-max", args.r_max, MAX_HECKE_R)
    _check_min("--r-min", args.r_min, 1)
    if args.r_min > args.r_max:
        raise ValueError(f"--r-min {args.r_min} exceeds --r-max {args.r_max}")
    levels = [_parse_prime_power(value) for value in args.pn]
    rows = [
        [pp.p, pp.n, r, rep["chain"], rep["interval_len"], rep["bound"],
         "" if rep["bound_holds"] is None else str(rep["bound_holds"]).lower()]
        for pp in levels
        for r, _, reports in _chain_reports(pp, args.r_min, args.r_max, args.d)
        for rep in reports
    ]
    text = _csv_text(["p", "n", "r", "chain", "interval_len", "bound", "pass"], rows)
    _emit(text, args)
    return 1 if any(row[-1] == "false" for row in rows) else 0


def _cmd_qexp_relations(args) -> int:
    from .qexp_hecke import (
        MAX_QEXP_ORDER,
        MAX_QEXP_TRIALS,
        verify_coefficient_identity,
        verify_relations,
    )

    _check_min("--order", args.order, 8)  # the least order verify_relations takes
    _check_cap("--order", args.order, MAX_QEXP_ORDER)
    _check_min("--trials", args.trials, 1)
    _check_cap("--trials", args.trials, MAX_QEXP_TRIALS)
    _check_min("--seed", args.seed, 0)  # Random(-s) draws the series of Random(s)
    rel = verify_relations(order=args.order, trials=args.trials, seed=args.seed)
    ident = verify_coefficient_identity(seed=args.seed)
    payload = rel.to_json()
    payload["coefficient_identity"] = ident.to_json()
    _emit(payload, args)
    return 0 if rel.all_passed and ident.passed and rel.witness_found else 1


def _cmd_qexp_up_matrix(args) -> int:
    from .qexp_hecke import CASE_COPRIME, MAX_UP_MATRIX_K, build_Up_matrix, charpoly

    _check_min("--k", args.k, 1)
    _check_cap("--k", args.k, MAX_UP_MATRIX_K)
    _check_min("--lam", args.lam, 1)
    # the charpoly prints 1, -a_p and the entry eps_p p^(lam-1)
    if args.case == CASE_COPRIME and _too_long(args.prime, args.lam - 1, args.eps_p):
        raise ValueError(f"--lam {args.lam} exceeds the limit: eps_p p^(lam-1) would print "
                         f"more than {MAX_BOUND_DIGITS} digits")
    # eps is trivial or quadratic, so at a prime not dividing its modulus eps(p) = +-1
    if args.case == CASE_COPRIME and args.eps_p not in (1, -1):
        raise ValueError(f"--eps-p {args.eps_p} must be 1 or -1 under --case coprime")
    try:
        a_p = None if _exponent_too_long(args.a_p) else Fraction(args.a_p)
    except ZeroDivisionError:
        raise ValueError(f"--a-p {args.a_p} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--a-p {args.a_p} is not a rational number") from None
    if a_p is None or _too_long(a_p.numerator, 1) or _too_long(a_p.denominator, 1):
        raise ValueError(f"--a-p exceeds the limit: its numerator or denominator has more "
                         f"than {MAX_BOUND_DIGITS} digits")
    mat = build_Up_matrix(args.case, a_p, args.eps_p, args.lam, args.k, p=args.prime)
    payload = {
        "schema": SCHEMA,
        "case": "M2" if args.case == CASE_COPRIME else "M1",
        "k": args.k,
        "entries": [[str(x) for x in row] for row in mat],
        "charpoly": [str(c) for c in charpoly(mat)],
    }
    _emit(payload, args)
    return 0


# The flags each `bounds` mode reads; a mode refuses the others when given.
_BOUNDS_READS = {
    "table": ("d_max", "csv"),
    "constants": (),
    "prop11": ("d", "l"),
    "threshold": ("p", "d", "original_order"),
}
# The values the bounds flags take when not given.
_BOUNDS_DEFAULTS = {"d_max": 5, "csv": False, "d": 1, "l": 3, "p": 5, "original_order": False}


def _cmd_bounds(args) -> int:
    from . import bounds

    mode = args.bounds_mode
    _flags_apply(args, _BOUNDS_DEFAULTS, _BOUNDS_READS[mode],
                 lambda dest: " and ".join(f"--{m}" for m, r in _BOUNDS_READS.items() if dest in r))
    _check_min("--d", args.d, 1)  # given only to a mode that reads it, else its default 1
    if mode == "constants":
        rep = bounds.constants_consistency()
        _emit(rep.to_json(), args)
        return 0 if rep.all_passed else 1
    if mode == "prop11":
        _check_digits("--d", args.d, args.l)
        _emit(bounds.prop11_report(args.l, args.d).to_json(), args)
        return 0
    if mode == "threshold":
        l = bounds.auxiliary_prime(args.p)
        _check_digits("--d", args.d, l if args.original_order else 1)
        payload = bounds.criterion_threshold(args.p, args.d).to_json()
        if args.original_order:
            payload["l"] = l
            payload["original_order_bound"] = bounds.cor18_bound(args.p, args.d)
        _emit(payload, args)
        return 0
    # --table, the one mode left
    dmax = args.d_max
    _check_min("--d-max", dmax, 1)
    _check_digits("--d-max", dmax, max(map(bounds.auxiliary_prime, _PRIME_CLASSES)))
    header = ["d", "p_not_2_3", "p_3", "p_2"]
    rows = [[d, *(bounds.cor18_bound(p, d) for p in _PRIME_CLASSES)] for d in range(1, dmax + 1)]
    if args.csv:
        _emit(_csv_text(header, rows), args)
    else:
        _emit({"schema": SCHEMA, "columns": header, "rows": rows}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windsym",
        description="exact desk checks for winding-element Hecke calculus at prime-power level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, dest="out"):
        p.add_argument("--out", dest=dest, metavar="OUT",
                       help="write output to this file (under $OUTPUT_DIR if relative)")

    p1 = sub.add_parser("p1", help="enumerate P^1(Z/p^n Z)")
    p1.add_argument("--p", type=int, required=True)
    p1.add_argument("--n", type=int, default=1)
    p1.add_argument("--verify", action="store_true", help="check the action identities")
    add_out(p1)
    p1.set_defaults(func=_cmd_p1)

    hom = sub.add_parser("homology", help="presentation summary of H_1(X_0(p^n), cusps)")
    hom.add_argument("--p", type=int, required=True)
    hom.add_argument("--n", type=int, default=1)
    hom.add_argument("--l", type=int, default=None, help="prime field (default: rationals)")
    hom.add_argument("--smith", action="store_true", help="include Smith invariants")
    add_out(hom)
    hom.set_defaults(func=_cmd_homology)

    cri = sub.add_parser("criterion", help="independence rank test for (p, n, d, l)")
    cri.add_argument("--p", type=int, required=True)
    cri.add_argument("--n", type=int, default=1)
    cri.add_argument("--d", type=int, default=1)
    # exactly one of the two: both, or neither, is refused by argparse
    ls = cri.add_mutually_exclusive_group(required=True)
    ls.add_argument("--l", type=int, default=None)
    ls.add_argument("--all-l-up-to", type=int, default=None)
    add_out(cri)
    cri.set_defaults(func=_cmd_criterion)

    paths = sub.add_parser("paths", help="chain walks avoiding Sigma_r")
    paths.add_argument("--p", type=int)
    paths.add_argument("--n", type=int)
    paths.add_argument("--r", type=int)
    paths.add_argument("--d", type=int, default=None, help="bound parameter D (default r)")
    add_out(paths)
    paths.set_defaults(func=_cmd_paths)
    psub = paths.add_subparsers(dest="mode")
    sweep = psub.add_parser("sweep", help="grid sweep; always writes CSV",
                           description="Walk both chains over a grid of prime powers and r; the summary is always CSV, with or without --csv.")
    sweep.add_argument("--pn", type=int, nargs="+", required=True, help="prime powers")
    sweep.add_argument("--r-min", type=int, default=1)
    sweep.add_argument("--r-max", type=int, default=6)
    sweep.add_argument("--d", type=int, dest="sweep_d", metavar="D")
    sweep.add_argument("--csv", action="store_true", help="accepted; the sweep always writes CSV")
    add_out(sweep, "sweep_out")
    sweep.set_defaults(func=_cmd_paths_sweep)

    qx = sub.add_parser("qexp", help="operator calculus on truncated series")
    qsub = qx.add_subparsers(dest="mode", required=True)
    vr = qsub.add_parser("verify-relations", help="commutation relation checks")
    vr.add_argument("--order", type=int, default=200)
    vr.add_argument("--trials", type=int, default=50)
    vr.add_argument("--seed", type=int, default=0)
    add_out(vr)
    vr.set_defaults(func=_cmd_qexp_relations)
    um = qsub.add_parser("up-matrix", help="print an oldclass U_p matrix exactly")
    um.add_argument("--case", choices=["divides", "coprime"], required=True)
    um.add_argument("--k", type=int, required=True)
    um.add_argument("--a-p", default="1", help="eigenvalue a_p (rational)")
    um.add_argument("--eps-p", type=int, default=1)
    um.add_argument("--lam", type=int, default=2)
    um.add_argument("--prime", type=int, default=2, help="the prime p")
    add_out(um)
    um.set_defaults(func=_cmd_qexp_up_matrix)

    bnd = sub.add_parser("bounds", help="closed-form bound evaluation")
    # exactly one mode: two are refused by argparse rather than one dropped
    mode = bnd.add_mutually_exclusive_group(required=True)
    for name, text in (("table", "per-prime bound table"), ("constants", "constants consistency"),
                       ("prop11", None), ("threshold", None)):
        mode.add_argument(f"--{name}", action="store_const", const=name, dest="bounds_mode",
                          help=text)
    # None unless given, so a mode can refuse the flags it does not read
    bnd.add_argument("--d-max", type=int, default=None, help="--table only (default 5)")
    bnd.add_argument("--csv", action="store_true", default=None, help="CSV output (--table only)")
    bnd.add_argument("--original-order", action="store_true", default=None,
                     help="--threshold only: multiply the threshold by (l^d - 1) to bound "
                          "the original order")
    bnd.add_argument("--l", type=int, default=None, help="--prop11 only (default 3)")
    bnd.add_argument("--d", type=int, default=None, help="--prop11 and --threshold (default 1)")
    bnd.add_argument("--p", type=int, default=None, help="--threshold only (default 5)")
    add_out(bnd)
    bnd.set_defaults(func=_cmd_bounds)
    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        # an empty --out would otherwise be read as none, and print to stdout
        if "" in (getattr(args, "out", None), getattr(args, "sweep_out", None)):
            raise ValueError("--out must not be empty")
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    """The console script: cli_main's exit code, or 1 when stdout is closed
    before the output is written (as when it is piped into `head`), with
    no traceback."""
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


__all__ = [
    "SCHEMA",
    "MAX_BOUND_DIGITS",
    "build_parser",
    "cli_main",
    "main",
]
