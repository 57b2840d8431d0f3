"""The benchmark's workloads: seeded op lists of CLI arguments, and the
check of each op's output against a reference from `reference`.

A workload's op list is one pass; the harness repeats passes.  The seed
only picks levels and series seeds, within strata chosen so that every seed
gives a pass of about the same cost.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as ref

# The q-expansion layer's relation suite: 16 parameterised relation checks.
RELATION_CHECKS = 16
# verify_coefficient_identity's default number of trials.
IDENTITY_TRIALS = 10


@dataclass
class Op:
    """One CLI invocation, with the parameters its check needs.

    `work` is the op's size: |P^1(Z/p^n Z)|, or for q-expansion ops the
    number of series coefficients the relation checks are run on.
    """

    kind: str
    argv: list[str]
    work: int
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    build: Callable[[int], list[Op]]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _criterion_op(p: int, n: int, ls: list[int], expect_pass: bool) -> Op:
    argv = ["criterion", "--p", str(p), "--n", str(n), "--d", "1"]
    argv += ["--all-l-up-to", str(ls[-1])] if len(ls) > 1 else ["--l", str(ls[0])]
    return Op("criterion", argv, ref.p1_size(p, n),
              {"p": p, "n": n, "ls": ls, "expect_pass": expect_pass})


def _homology_op(p: int, n: int, l: int | None, smith: bool = False) -> Op:
    argv = ["homology", "--p", str(p), "--n", str(n)]
    argv += ["--smith"] if smith else ["--l", str(l)]
    return Op("homology", argv, ref.p1_size(p, n), {"p": p, "n": n, "l": l, "smith": smith})


def criterion_sweep(seed: int) -> list[Op]:
    """The d = 1 criterion at every l <= 7 on ~118 prime powers <= 2000:
    the ten exceptional levels, then one level drawn from each run of three
    consecutive other prime powers."""
    rng = _rng("criterion_sweep", seed)
    levels = ref.prime_powers_up_to(2000)
    fixed = [pn for pn in levels if pn[0] ** pn[1] in ref.CRITERION_EXCEPTIONS]
    others = [pn for pn in levels if pn[0] ** pn[1] not in ref.CRITERION_EXCEPTIONS]
    drawn = [rng.choice(others[i:i + 3]) for i in range(0, len(others), 3)]
    return [
        _criterion_op(p, n, [2, 3, 5, 7], p**n not in ref.CRITERION_EXCEPTIONS)
        for p, n in sorted(fixed + drawn, key=lambda pn: pn[0] ** pn[1])
    ]


def criterion_ladder(seed: int) -> list[Op]:
    """homology and criterion over F_3 (F_5 when p = 3) on single large
    levels from 2^13 to ~2*10^4, plus the dense Smith form at 211 and 307."""
    rng = _rng("criterion_ladder", seed)
    levels = [
        (2, 13),
        (ref.next_prime(10000 + rng.randrange(100)), 1),
        (5, 6),
        (3, 9),
        (ref.next_prime(20000 + rng.randrange(100)), 1),
    ]
    ops = []
    for p, n in levels:
        l = 5 if p == 3 else 3
        ops.append(_homology_op(p, n, l))
        ops.append(_criterion_op(p, n, [l], True))
    # fixed levels: the dense Smith form's cost grows as the cube of |P^1|
    ops += [_homology_op(p, 1, None, smith=True) for p in (211, 307)]
    return ops


def paths_walks(seed: int) -> list[Op]:
    """Chain walks for r = 1..6 at 3^11, 2^17 and a prime just above 10^5."""
    rng = _rng("paths_walks", seed)
    levels = [(3, 11), (2, 17), (ref.next_prime(100000 + rng.randrange(1000)), 1)]
    return [
        Op("paths", ["paths", "--p", str(p), "--n", str(n), "--r", str(r)],
           ref.p1_size(p, n), {"p": p, "n": n, "r": r})
        for p, n in levels
        for r in range(1, 7)
    ]


# The README's up-matrix example.
README_UP_MATRIX = {"case": "coprime", "k": 3, "a_p": "3/2", "prime": 5, "eps_p": 1, "lam": 2}


def up_matrix_op(c: dict) -> Op:
    argv = ["qexp", "up-matrix", "--case", c["case"], "--k", str(c["k"]), "--a-p", c["a_p"],
            "--prime", str(c["prime"]), "--eps-p", str(c["eps_p"]), "--lam", str(c["lam"])]
    return Op("up_matrix", argv, 0, dict(c))


def qexp_relations(seed: int) -> list[Op]:
    """Operator relations on four sets of 100 seeded series of order 300,
    and the README's oldclass U_p matrix.  The relation checks are the bulk
    of the work, so they are most of the ops and set the median latency."""
    rng = _rng("qexp_relations", seed)
    order, trials = 300, 100
    ops = [
        Op("verify",
           ["qexp", "verify-relations", "--order", str(order), "--trials", str(trials),
            "--seed", str(series_seed)],
           (RELATION_CHECKS * trials + IDENTITY_TRIALS) * order,
           {"order": order, "trials": trials, "seed": series_seed})
        for series_seed in rng.sample(range(10**6), 4)
    ]
    return ops + [up_matrix_op(README_UP_MATRIX)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "criterion_sweep",
            "many small levels, table and presentation rebuilt per l: per-call cost and reuse across l",
            "p1_points", criterion_sweep),
        Workload(
            "criterion_ladder",
            "one large presentation per op, so the superlinear echelon and Smith form dominate",
            "p1_points", criterion_ladder),
        Workload(
            "paths_walks",
            "P^1 tables near 10^5 and chain walks; no presentation is built",
            "p1_points", paths_walks),
        Workload(
            "qexp_relations",
            "q-expansion operator calculus only; touches no P^1 or homology code",
            "series_coeffs", qexp_relations),
    ]
}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of disagreements (empty when correct).
# ---------------------------------------------------------------------------


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _check_criterion(op: Op, payload: dict) -> list[str]:
    errors: list[str] = []
    p, n, ls = op.params["p"], op.params["n"], op.params["ls"]
    reports = payload.get("reports", [payload])
    _expect(errors, "l values", [r.get("l") for r in reports], ls)
    s = ref.smallest_prime_other_than(p)
    threshold = ref.criterion_threshold(p, 1)
    for r in reports:
        passed = op.params["expect_pass"]
        for key, want in [
            ("p", p), ("n", n), ("d", 1), ("s", s), ("required_rank", s),
            ("pass", passed), ("threshold", threshold),
            ("threshold_satisfied", p**n >= threshold),
        ]:
            _expect(errors, f"l={r.get('l')} {key}", r.get(key), want)
        rank = r.get("achieved_rank")
        if not isinstance(rank, int) or (rank == s) != passed or not 0 <= rank <= s:
            errors.append(f"l={r.get('l')} achieved_rank {rank!r} with required {s}, pass={passed}")
        _expect(errors, f"l={r.get('l')} l=p warning", "warning" in r, r.get("l") == p)
    return errors


def _check_homology(op: Op, payload: dict) -> list[str]:
    errors: list[str] = []
    p, n, l = op.params["p"], op.params["n"], op.params["l"]
    size, dim = ref.p1_size(p, n), ref.relative_homology_rank(p, n)
    for key, want in [
        ("p", p), ("n", n), ("field", "Q" if l is None else f"F{l}"),
        ("p1_size", size), ("quotient_dim", dim), ("relation_rank", size - dim),
    ]:
        _expect(errors, key, payload.get(key), want)
    if op.params["smith"]:
        _expect(errors, "torsion_free", payload.get("torsion_free"), True)
        _expect(errors, "smith_invariants", payload.get("smith_invariants"), [1] * (size - dim))
    return errors


def chain_interval(chain: dict, modulus: int) -> tuple[int, int] | None:
    """The chain's interval of affine residues as (lo, hi) inside
    1..p^n - 1; if it wraps past 0, the larger of the two pieces."""
    length, start = chain["interval_len"], chain["start_index"]
    if length < 1:
        return None
    lo = start - length + 1 if chain["chain"] in ("A", "B") else start
    hi = lo + length - 1
    if lo < 0:
        pieces = [(lo + modulus, modulus - 1), (0, hi)]
    elif hi >= modulus:
        pieces = [(lo, modulus - 1), (0, hi - modulus)]
    else:
        pieces = [(lo, hi)]
    pieces = [(max(a, 1), b) for a, b in pieces if max(a, 1) <= b]
    return max(pieces, key=lambda ab: ab[1] - ab[0]) if pieces else None


def chain_starts(p: int, n: int, r: int) -> dict[str, int]:
    """Start residues: A at -r-1, B at 1/r, B' at r/(r-1), all mod p^n."""
    m = p**n
    out = {"A": (-r - 1) % m}
    if r % p:
        out["B"] = pow(r, -1, m)
    else:
        out["Bprime"] = r * pow(r - 1, -1, m) % m
    return out


def _check_paths(op: Op, payload: dict) -> list[str]:
    errors: list[str] = []
    p, n, r = op.params["p"], op.params["n"], op.params["r"]
    m = p**n
    for key, want in [("p", p), ("n", n), ("r", r), ("d", r)]:
        _expect(errors, key, payload.get(key), want)
    chains = payload.get("chains", [])
    starts = chain_starts(p, n, r)
    _expect(errors, "chains", [c.get("chain") for c in chains], list(starts))
    if errors:
        return errors
    for c in chains:
        label = c["chain"]
        bound = Fraction(m, r) - r - 2 if label == "A" else Fraction(m, r * r) - 2
        applicable = bound > 0 and not (label != "A" and r == 1)
        _expect(errors, f"{label} start", c["start_index"], starts[label])
        _expect(errors, f"{label} bound", c["bound"], str(bound))
        _expect(errors, f"{label} bound_applicable", c["bound_applicable"], applicable)
        _expect(errors, f"{label} bound_holds", c["bound_holds"],
                c["interval_len"] >= bound if applicable else None)
        if c["bound_holds"] is False:
            errors.append(f"{label}: interval {c['interval_len']} below bound {bound}")
    a, b = (chain_interval(c, m) for c in chains)
    if a and b and ref.lemma53_satisfied((a[1] - a[0] + 1) * (b[1] - b[0] + 1), p, n):
        if ref.inverse_pair_exists(a, b, m, p) is None:
            errors.append(f"no y z = -1 mod {m} with y in {a}, z in {b} although |A||B| meets the lemma")
    return errors


def _check_verify(op: Op, payload: dict) -> list[str]:
    errors: list[str] = []
    for key in ("order", "trials", "seed"):
        _expect(errors, key, payload.get(key), op.params[key])
    checks = payload.get("checks", [])
    _expect(errors, "relation checks", len(checks), RELATION_CHECKS)
    for c in checks:
        if c.get("pass") is not True or c.get("trials") != op.params["trials"]:
            errors.append(f"relation {c.get('relation')} {c.get('params')}: {c}")
    _expect(errors, "pass", payload.get("pass"), True)
    _expect(errors, "witness", payload.get("coprimality_witness", {}).get("inequality_witnessed"), True)
    ident = payload.get("coefficient_identity", {})
    _expect(errors, "coefficient identity", (ident.get("pass"), ident.get("trials")),
            (True, IDENTITY_TRIALS))
    return errors


def _check_up_matrix(op: Op, payload: dict) -> list[str]:
    errors: list[str] = []
    c = op.params
    mat = ref.up_matrix(c["case"], Fraction(c["a_p"]), c["eps_p"], c["lam"], c["k"], c["prime"])
    _expect(errors, "case", payload.get("case"), "M2" if c["case"] == "coprime" else "M1")
    _expect(errors, "k", payload.get("k"), c["k"])
    _expect(errors, "entries", payload.get("entries"), [[str(x) for x in row] for row in mat])
    _expect(errors, "charpoly", payload.get("charpoly"), [str(x) for x in ref.charpoly(mat)])
    return errors


CHECKS = {
    "criterion": _check_criterion,
    "homology": _check_homology,
    "paths": _check_paths,
    "verify": _check_verify,
    "up_matrix": _check_up_matrix,
}


def check_output(op: Op, payload: dict) -> list[str]:
    """Disagreements between an op's parsed JSON output and its reference."""
    try:
        return CHECKS[op.kind](op, payload)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
