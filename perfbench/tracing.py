"""Traced runs: spans around the calls into each layer, and the per-layer
metrics computed from them.

An op span wraps the op's `cli_main` call.  Right after it, the op's
pipeline is replayed through the layers' public functions (table ->
presentation -> images -> reduce -> rank, table -> Sigma_r -> walks, ...),
each call in a span whose parent is the op span.  The rank span is the
parent of the images and reduce spans replayed just before the call, since
`hecke_span_rank` does both internally; its self time is the elimination.
A span's self time is its duration minus the durations of its children, so
the op span's self time is the CLI's own cost beyond the layer calls.

Every entry point is resolved in `Adapter`.  A missing function, or a
signature whose parameters cannot be bound by name, makes the metrics that
depend on it `unmeasured: <reason>`; the end-to-end run never goes through
the adapter.
"""

import importlib
import inspect
import math
import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median

from workloads import Op, chain_interval

LAYERS = ("residue_p1", "rel_homology", "hecke_symbols", "winding_paths", "qexp_hecke", "bounds_cli")
OP_SPAN = "bounds_cli.op"


class Unmeasured(Exception):
    """A layer entry point is missing or cannot be called as before."""


# Replay step -> candidate entry points (module, name), first found wins.
ENTRY_POINTS = {
    "prime_power": [("residue_p1", "PrimePower")],
    "table": [("residue_p1", "build_p1_table"), ("residue_p1", "P1Table")],
    "field": [("rel_homology", "FieldSpec")],
    "presentation": [("rel_homology", "build_presentation")],
    "relations": [("rel_homology", "invariant_generators")],
    "smith": [("rel_homology", "smith_invariants")],
    "reduce": [("rel_homology", "reduce_vector")],
    "image": [("hecke_symbols", "winding_image")],
    "rank": [("hecke_symbols", "hecke_span_rank")],
    "sigma_r": [("hecke_symbols", "sigma_r_set")],
    "walk_A": [("winding_paths", "walk_chain_A")],
    "walk_B": [("winding_paths", "walk_chain_B")],
    "walk_Bprime": [("winding_paths", "walk_chain_B_prime")],
    "interval_pair": [("winding_paths", "IntervalPair")],
    "inverse_pair": [("winding_paths", "find_inverse_pair")],
    "verify_relations": [("qexp_hecke", "verify_relations")],
    "coeff_identity": [("qexp_hecke", "verify_coefficient_identity")],
    "up_matrix": [("qexp_hecke", "build_Up_matrix")],
    "charpoly": [("qexp_hecke", "charpoly")],
}


class Adapter:
    """Resolves replay entry points and calls them with arguments bound by
    parameter name, so a reordered or renamed signature is either still
    served or reported, never silently misused."""

    def __init__(self):
        self._entries: dict[str, object] = {}

    def __call__(self, key: str, **pool):
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = self._resolve(key)
        if isinstance(entry, Unmeasured):
            raise entry
        fn, names, required = entry
        pool = {k: v for k, v in pool.items() if v is not None}
        missing = [n for n in required if n not in pool]
        if missing:
            raise Unmeasured(f"{fn.__qualname__} needs {', '.join(missing)}")
        return fn(**{n: pool[n] for n in names if n in pool})

    @staticmethod
    def _resolve(key: str):
        for module, name in ENTRY_POINTS[key]:
            try:
                fn = getattr(importlib.import_module(f"windsym.{module}"), name)
            except (ImportError, AttributeError):
                continue
            try:
                params = inspect.signature(fn).parameters.values()
            except (TypeError, ValueError) as exc:
                return Unmeasured(f"windsym.{module}.{name}: no signature ({exc})")
            named = [p for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
            if any(p.kind == p.POSITIONAL_ONLY and p.default is p.empty for p in params):
                return Unmeasured(f"windsym.{module}.{name} takes positional-only parameters")
            return (fn, [p.name for p in named], [p.name for p in named if p.default is p.empty])
        names = " or ".join(f"windsym.{m}.{n}" for m, n in ENTRY_POINTS[key])
        return Unmeasured(f"{names} not found")


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    pass_index: int
    size: int = 0  # |P^1| for table and presentation spans
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counts kept in memory for the whole run."""

    adapter: Adapter = field(default_factory=Adapter)
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, Counter] = field(default_factory=lambda: defaultdict(Counter))
    unmeasured: dict[str, str] = field(default_factory=dict)
    pass_index: int = 0
    _stack: list[Span] = field(default_factory=list)

    def add_op_span(self, label: str, start: float, end: float) -> Span:
        span = Span(OP_SPAN, start, end, None, self.pass_index, label=label)
        self.spans.append(span)
        return span

    def step(self, name: str, fn, size: int = 0):
        """fn() inside a span called `name`, child of the innermost open
        span; None (and `name` noted as unmeasured) when it cannot run."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.pass_index, size)
        self._stack.append(span)
        try:
            out = fn()
        except Unmeasured as exc:
            return self._drop(span, str(exc))
        except Exception as exc:  # a changed entry point can fail in any way
            return self._drop(span, f"{type(exc).__name__}: {exc}")
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
        if out is None:
            return self._drop(span, "an input step is unmeasured")
        self.spans.append(span)
        return out

    def _drop(self, span: Span, reason: str) -> None:
        self.unmeasured.setdefault(span.name, reason)
        for s in self.spans:
            if s.parent is span:
                s.parent = span.parent
        return None

    def count(self, name: str, fn) -> None:
        try:
            self.counts[self.pass_index][name] += fn()
        except Exception as exc:  # an attribute renamed by a later change
            self.unmeasured.setdefault(name, f"{type(exc).__name__}: {exc}")

    @contextmanager
    def under(self, span: Span):
        self._stack.append(span)
        try:
            yield
        finally:
            self._stack.pop()


def _need(*values):
    if any(v is None for v in values):
        raise Unmeasured("an input step is unmeasured")


# ---------------------------------------------------------------------------
# Replay of one op's pipeline
# ---------------------------------------------------------------------------


def replay(tr: Tracer, op: Op, payload: dict, op_span: Span) -> None:
    with tr.under(op_span):
        REPLAY[op.kind](tr, op, payload)
    if op.kind == "paths":
        _inverse_pair(tr, op, payload)


def _prime_power(tr: Tracer, p: int, n: int):
    try:
        return tr.adapter("prime_power", p=p, n=n)
    except Exception as exc:
        tr.unmeasured.setdefault("residue_p1.table", f"PrimePower: {exc}")
        return None


def _field(tr: Tracer, l: int | None):
    """F_l, or Q when l is None; None once the field type is gone."""
    try:
        return tr.adapter("field", char=l or 0)
    except Unmeasured:
        return None


def _table(tr: Tracer, pp, size: int):
    a = tr.adapter
    table = tr.step("residue_p1.table", lambda: (_need(pp), a("table", pp=pp))[1], size)
    tr.count("residue_p1.points", lambda: table.size)
    return table


def _presentation(tr: Tracer, pp, table, l: int | None, size: int):
    a = tr.adapter

    def build():
        _need(table)
        return a("presentation", table=table, field=_field(tr, l), pp=pp, l=l, char=l or 0)

    pres = tr.step("rel_homology.presentation", build, size)
    tr.count("rel_homology.points", lambda: size if pres else None)
    tr.count("rel_homology.quotient_dim", lambda: pres.quotient_dim)
    return pres


def _replay_criterion(tr: Tracer, op: Op, payload: dict) -> None:
    a = tr.adapter
    p, n = op.params["p"], op.params["n"]
    size, pp = op.work, _prime_power(tr, p, n)
    for report in payload.get("reports", [payload]):
        l, s = report["l"], report["required_rank"]
        table = _table(tr, pp, size)
        pres = _presentation(tr, pp, table, l, size)

        def rank():
            _need(pres)
            images = tr.step("hecke_symbols.images",
                             lambda: [a("image", r=r, table=table) for r in range(1, s + 1)])
            tr.count("hecke_symbols.image_support", lambda: sum(len(v.coeffs) for v in images))
            tr.step("rel_homology.reduce", lambda: [a("reduce", v=v, pres=pres) for v in images])
            tr.count("rel_homology.reduce_calls", lambda: s)
            return a("rank", pp=pp, imax=s, field=_field(tr, l), presentation=pres, l=l)

        tr.step("hecke_symbols.rank", rank)
    # every presentation echelonizes the same relation rows
    tr.count("rel_homology.relation_rows",
             lambda: len(a("relations", table=table).rows) * len(payload.get("reports", [payload])))


def _replay_homology(tr: Tracer, op: Op, payload: dict) -> None:
    a = tr.adapter
    size, pp = op.work, _prime_power(tr, op.params["p"], op.params["n"])
    table = _table(tr, pp, size)
    _presentation(tr, pp, table, op.params["l"], size)
    rows = None
    if op.params["smith"]:
        def smith():
            nonlocal rows
            _need(table)
            rows = a("relations", table=table)
            return a("smith", rel=rows)

        tr.step("rel_homology.smith", smith)
    tr.count("rel_homology.relation_rows",
             lambda: len((rows or a("relations", table=table)).rows))


def _replay_paths(tr: Tracer, op: Op, payload: dict) -> None:
    a = tr.adapter
    p, r = op.params["p"], op.params["r"]
    size, pp = op.work, _prime_power(tr, p, op.params["n"])
    table = _table(tr, pp, size)
    sig = tr.step("hecke_symbols.sigma_r", lambda: (_need(table), a("sigma_r", r=r, table=table))[1])
    tr.count("hecke_symbols.sigma_r_size", lambda: len(sig.members))
    second = "walk_B" if r % p else "walk_Bprime"

    def walk():
        _need(sig)
        return [a(key, r=r, table=table, sigma_r=sig) for key in ("walk_A", second)]

    chains = tr.step("winding_paths.walk", walk)
    tr.count("winding_paths.vertices_visited", lambda: sum(len(c.visited) for c in chains))


def _inverse_pair(tr: Tracer, op: Op, payload: dict) -> None:
    """The search the chain intervals feed: find_inverse_pair on the two
    intervals the op returned, as a top-level span of its own."""
    p, n = op.params["p"], op.params["n"]
    a_iv, b_iv = (chain_interval(c, p**n) for c in payload["chains"])
    if not (a_iv and b_iv):
        return
    a = tr.adapter
    pp = _prime_power(tr, p, n)

    def search():
        _need(pp)
        pair = a("interval_pair", a_start=a_iv[0], a_len=a_iv[1] - a_iv[0] + 1,
                 b_start=b_iv[0], b_len=b_iv[1] - b_iv[0] + 1)
        return [a("inverse_pair", pair=pair, pp=pp)]

    found = tr.step("winding_paths.inverse_pair", search)
    tr.count("winding_paths.inverse_pair_searches", lambda: 1 if found else None)
    tr.count("winding_paths.inverse_pair_hits", lambda: int(found[0] is not None))


def _replay_verify(tr: Tracer, op: Op, payload: dict) -> None:
    a = tr.adapter
    order, seed = op.params["order"], op.params["seed"]
    tr.step("qexp_hecke.verify_relations",
            lambda: a("verify_relations", order=order, trials=op.params["trials"], seed=seed))
    tr.step("qexp_hecke.coeff_identity",
            lambda: a("coeff_identity", order=max(order, 30), seed=seed))
    tr.count("qexp_hecke.coeffs_compared", lambda: op.work)


def _replay_up_matrix(tr: Tracer, op: Op, payload: dict) -> None:
    a = tr.adapter
    c = op.params

    def build():
        mat = a("up_matrix", case=c["case"], a_p=Fraction(c["a_p"]), eps_p=c["eps_p"],
                lam=c["lam"], k=c["k"], p=c["prime"])
        return a("charpoly", matrix=mat)

    tr.step("qexp_hecke.up_matrix", build)


REPLAY = {
    "criterion": _replay_criterion,
    "homology": _replay_homology,
    "paths": _replay_paths,
    "verify": _replay_verify,
    "up_matrix": _replay_up_matrix,
}


def table_rss_delta_mb(tr: Tracer, ops: list[Op]) -> None:
    """Growth of the process's peak RSS while building the workload's
    largest P^1 table; run before any pass, so the table is the first large
    allocation.  Recorded as the count `residue_p1.rss_delta_mb`."""
    sized = [op for op in ops if op.kind in ("criterion", "homology", "paths")]
    if not sized:
        tr.counts[-1]["residue_p1.rss_delta_mb"] = 0.0
        return
    big = max(sized, key=lambda op: op.work)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        pp = tr.adapter("prime_power", p=big.params["p"], n=big.params["n"])
        tr.adapter("table", pp=pp)
    except Exception as exc:  # a changed entry point can fail in any way
        tr.unmeasured["residue_p1.rss_delta_mb"] = f"{type(exc).__name__}: {exc}"
        return
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tr.counts[-1]["residue_p1.rss_delta_mb"] = (after - before) / 1024


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


@dataclass
class PassSummary:
    self_s: Counter
    counts: Counter
    top_level_s: float


def summarize(tr: Tracer, pass_index: int) -> PassSummary:
    spans = [s for s in tr.spans if s.pass_index == pass_index]
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] += s.duration
    self_s: Counter = Counter()
    for s in spans:
        self_s[s.name] += s.duration - child_s[id(s)]
    top = sum(s.duration for s in spans if s.parent is None)
    return PassSummary(self_s, tr.counts[pass_index], top)


def _time(step):
    return lambda s: s.self_s[step], [step]


def _count(name):
    return lambda s: s.counts[name], [name]


def _per_point(step, points):
    return lambda s: 1e6 * s.self_s[step] / s.counts[points] if s.counts[points] else 0.0, [step, points]


def _layer_s(s: PassSummary, layer: str) -> float:
    return sum(v for k, v in s.self_s.items() if k.startswith(layer + "."))


def _share(layer):
    # bounds_cli's self time is what the op took beyond every layer call, so
    # its share depends on every step having been measured
    deps = [""] if layer == "bounds_cli" else [layer + "."]
    return lambda s: _layer_s(s, layer) / s.top_level_s if s.top_level_s else 0.0, deps


def _hit_rate(s: PassSummary) -> float:
    searches = s.counts["winding_paths.inverse_pair_searches"]
    return s.counts["winding_paths.inverse_pair_hits"] / searches if searches else 0.0


# name -> (unit, (value from one traced pass, names of the steps/counts it needs))
PER_PASS_METRICS = {
    "residue_p1.table_s": ("s", _time("residue_p1.table")),
    "residue_p1.us_per_point": ("us", _per_point("residue_p1.table", "residue_p1.points")),
    "residue_p1.points": ("count", _count("residue_p1.points")),
    "rel_homology.presentation_s": ("s", _time("rel_homology.presentation")),
    "rel_homology.us_per_point": ("us", _per_point("rel_homology.presentation", "rel_homology.points")),
    "rel_homology.smith_s": ("s", _time("rel_homology.smith")),
    "rel_homology.reduce_s": ("s", _time("rel_homology.reduce")),
    "rel_homology.reduce_calls": ("count", _count("rel_homology.reduce_calls")),
    "rel_homology.relation_rows": ("count", _count("rel_homology.relation_rows")),
    "rel_homology.quotient_dim": ("count", _count("rel_homology.quotient_dim")),
    "hecke_symbols.images_s": ("s", _time("hecke_symbols.images")),
    "hecke_symbols.image_support": ("count", _count("hecke_symbols.image_support")),
    "hecke_symbols.rank_s": ("s", _time("hecke_symbols.rank")),
    "hecke_symbols.sigma_r_s": ("s", _time("hecke_symbols.sigma_r")),
    "hecke_symbols.sigma_r_size": ("count", _count("hecke_symbols.sigma_r_size")),
    "winding_paths.walk_s": ("s", _time("winding_paths.walk")),
    "winding_paths.vertices_visited": ("count", _count("winding_paths.vertices_visited")),
    "winding_paths.inverse_pair_s": ("s", _time("winding_paths.inverse_pair")),
    "winding_paths.inverse_pair_hit_rate": ("ratio", (_hit_rate, ["winding_paths.inverse_pair"])),
    "qexp_hecke.verify_relations_s": ("s", _time("qexp_hecke.verify_relations")),
    "qexp_hecke.coeff_identity_s": ("s", _time("qexp_hecke.coeff_identity")),
    "qexp_hecke.up_matrix_s": ("s", _time("qexp_hecke.up_matrix")),
    "qexp_hecke.coeffs_compared": ("count", _count("qexp_hecke.coeffs_compared")),
    "bounds_cli.overhead_s": ("s", (lambda s: s.self_s[OP_SPAN], [""])),
    "bounds_cli.output_bytes": ("count", _count("bounds_cli.output_bytes")),
    **{f"{layer}.share": ("ratio", _share(layer)) for layer in LAYERS},
}


def presentation_scaling(tr: Tracer, passes: list[int]) -> list[dict]:
    """Per level: |P^1| and the median table and presentation times."""
    by_size: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for s in tr.spans:
        if s.pass_index in passes and s.name in ("residue_p1.table", "rel_homology.presentation"):
            by_size[s.size][s.name].append(s.duration)
    return [
        {"p1_size": size,
         "table_s": median(d["residue_p1.table"]) if d["residue_p1.table"] else None,
         "presentation_s": median(d["rel_homology.presentation"]) if d["rel_homology.presentation"] else None}
        for size, d in sorted(by_size.items())
    ]


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0.0 with fewer than two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def per_layer_metrics(tr: Tracer, passes: list[int], trace_overhead_s: float) -> tuple[dict, dict]:
    """(metric -> (value, unit), metric -> reason it is unmeasured)."""
    summaries = [summarize(tr, i) for i in passes]
    if not summaries:
        return {}, {name: "no traced pass ran" for name in [*PER_PASS_METRICS, "trace.overhead_s"]}
    values: dict[str, tuple[float, str]] = {}
    unmeasured: dict[str, str] = {}

    def blocked(deps: list[str]) -> str | None:
        for key, reason in sorted(tr.unmeasured.items()):
            if any(key.startswith(d) for d in deps):
                return f"{key}: {reason}"
        return None

    for name, (unit, (fn, deps)) in PER_PASS_METRICS.items():
        reason = blocked(deps)
        if reason:
            unmeasured[name] = reason
        else:
            values[name] = (median(fn(s) for s in summaries), unit)
    reason = blocked(["residue_p1.rss_delta_mb"])
    if reason:
        unmeasured["residue_p1.rss_delta_mb"] = reason
    else:
        values["residue_p1.rss_delta_mb"] = (tr.counts[-1]["residue_p1.rss_delta_mb"], "MB")
    reason = blocked(["rel_homology.presentation"])
    if reason:
        unmeasured["rel_homology.presentation_slope"] = reason
    else:
        # fitted over the top decade of sizes, where the echelon's growth
        # shows rather than per-call costs (so the ladder's Smith levels of
        # a few hundred points are left out)
        pts = [(r["p1_size"], r["presentation_s"]) for r in presentation_scaling(tr, passes)
               if r["presentation_s"]]
        top = max((x for x, _ in pts), default=0)
        values["rel_homology.presentation_slope"] = (
            loglog_slope([(x, y) for x, y in pts if 10 * x >= top]), "1")
    values["trace.overhead_s"] = (trace_overhead_s, "s")
    return values, unmeasured


def spans_json(tr: Tracer) -> list[dict]:
    ids = {id(s): i for i, s in enumerate(tr.spans)}
    return [
        {"id": i, "name": s.name, "start": s.start, "end": s.end,
         "parent": ids.get(id(s.parent)) if s.parent else None,
         "pass": s.pass_index, **({"size": s.size} if s.size else {}),
         **({"op": s.label} if s.label else {})}
        for i, s in enumerate(tr.spans)
    ]
