"""Verification harness: regularity/matching checks over graphs and families.

Every report carries the graph's JSON serialization and the seed that
produced it, so any failure is reproducible in isolation. Batch reports are
ordered by instance index and serialize identically regardless of the
parallelism degree (timings are kept out of the serialized form for that
reason).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Iterable

from .betti import (
    DEFAULT_CAP, GF2, BettiTable, FieldSpec, SesBoundReport, betti_hochster, check_cap, sub_table,
)
from .errors import CapacityError, InputError, PathIdealsError
from .generators import SplitMix64, graph_from_rng, tree_from_rng, unicyclic_from_rng
from .graphs import Graph, classify, graph_to_json_obj
from .ideals import (
    MonomialIdeal,
    add_monomial,
    colon,
    edge_colon_closed_form,
    path_ideal,
    vertex_colon_closed_form,
    vertices_of,
)
from .matching import check_nu3_broom_drop, nu3

FAMILIES = ("tree", "unicyclic", "random")
# edge probabilities of the random family, cycled over the instances
P_VALUES = (0.2, 0.4)
# the report lines' encoding: sorted keys, no spaces; made once
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""


@dataclass
class VerificationReport:
    """One check's outcome on one graph, serialized by ``json_line`` and ``csv_row``.

    ``graph`` is the graph's JSON object, built once per ``GraphContext`` and
    shared by every report on that graph, so it is read-only.
    """

    graph: dict
    source: str
    classification: str
    n: int
    family: str | None = None
    seed: int | None = None
    index: int | None = None
    reg: int | None = None
    nu3: int | None = None
    defect: int | None = None
    checks: list[CheckResult] = field(default_factory=list)
    error: str | None = None
    elapsed: float | None = None

    @property
    def passed(self) -> bool:
        return not any(not c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        """Every field but ``elapsed``, so the bytes do not depend on timing."""
        obj = {name: getattr(self, name) for name in _JSON_FIELDS}
        obj["checks"] = [{"name": c.name, "pass": c.passed, "details": c.details} for c in self.checks]
        return obj

    def json_line(self) -> str:
        return _ENCODER.encode(self.to_json_obj())

    def csv_row(self) -> str:
        def cell(x):
            return "" if x is None else str(x)

        return ",".join(
            [
                cell(self.n),
                cell(self.family),
                cell(self.seed),
                cell(self.reg),
                cell(self.nu3),
                cell(self.defect),
                "pass" if self.passed and self.error is None else "fail",
            ]
        )


_JSON_FIELDS = tuple(f.name for f in fields(VerificationReport) if f.name != "elapsed")
CSV_HEADER = "n,family,seed,reg,nu3,defect,pass"


def reports_to_jsonl(reports: Iterable[VerificationReport]) -> str:
    """Each report's ``json_line`` and a newline, with each graph encoded once.

    The reports of one graph come in a run and share one ``graph`` dict. The
    first line of a run is encoded whole; its graph part, from the ``graph``
    key to the ``index`` key that sorted keys put after it, is spliced into
    each later line of the run, encoded without its graph. A quote inside a
    JSON string is escaped, so ``,"graph":`` and ``,"index":`` occur in a
    line only as those keys.
    """
    # a sentinel, so the first report starts a run whatever its graph
    graph, part, lines = object(), "", []
    for r in reports:
        obj = r.to_json_obj()
        if obj["graph"] is not graph:
            graph = obj["graph"]
            line = _ENCODER.encode(obj)
            start = line.index(',"graph":')
            part = line[start:line.index(',"index":', start)]
        else:
            del obj["graph"]
            line = _ENCODER.encode(obj)
            cut = line.index(',"index":')
            line = line[:cut] + part + line[cut:]
        lines.append(line + "\n")
    return "".join(lines)


def reports_to_csv(reports: Iterable[VerificationReport]) -> str:
    return CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in reports)


# -- the per-graph context and the checks --------------------------------------------


@dataclass
class GraphContext:
    """One graph's check inputs, and its one route to I3(G)'s Betti tables, for ``reg`` too.

    ``tables`` keeps, for each vertex set S asked for, I3(G[S])'s table: the
    sub-sum over S of the terms that I3(G)'s table keeps (``BettiTable.terms``).
    That sub-sum depends on S only through the vertices some 3-path uses
    (``used``), so S is keyed by its part inside them, and I3(G)'s table by
    ``used`` itself. ``colons`` keeps I3(G) : uv per edge uv, built by the
    first check that asks (see ``edge_colon``), but only for a graph within the
    cap: ``ses`` reads no colon of a graph whose table is refused.
    ``graph_json``, the graph's JSON object, is built once and shared, read-only,
    by every report on the graph. All of these last as long as the context: one
    ``reg`` command, ``verify_graph`` call or batch instance. ``kind``, ``used``
    (from the degrees) and ``ideal`` are found on first read, so a table
    refuses an over-cap graph before any 3-path is listed; a check that reads
    no table lists none.
    """

    graph: Graph
    field_: FieldSpec = GF2
    cap: int = DEFAULT_CAP
    source: str = "graph"
    tables: dict[frozenset[int], BettiTable] = field(init=False, default_factory=dict)
    colons: dict[frozenset[int], MonomialIdeal] = field(init=False, default_factory=dict)

    @cached_property
    def kind(self) -> str:
        return classify(self.graph).kind

    @cached_property
    def ideal(self) -> MonomialIdeal:
        """I3(G)."""
        return path_ideal(self.graph, 3)

    @cached_property
    def used(self) -> frozenset[int]:
        """The vertices on some 3-path: the variables of I3(G)."""
        return self.graph.three_path_vertices()

    @cached_property
    def graph_json(self) -> dict:
        return graph_to_json_obj(self.graph)

    def edge_colon(self, u: int, v: int) -> MonomialIdeal:
        """I3(G) : uv, built once per edge while ``used`` is within the cap.

        An over-cap graph keeps none: only the colon check reads its colons,
        once per edge, and on a large graph they would all stay alive.
        """
        support = frozenset((u, v))
        got = self.colons.get(support)
        if got is None:
            got = colon(self.ideal, support)
            if len(self.used) <= self.cap:
                self.colons[support] = got
        return got

    def table(self, keep: Iterable[int] | None = None) -> BettiTable:
        """Betti table of R/I3(G[keep]), of R/I3(G) when ``keep`` is None, each set's once.

        The first call runs I3(G)'s sum, whose table serves every set holding
        all of ``used``, so a cap error is I3(G)'s, raised before I3(G) is
        listed; any other set's table is the sub-sum of I3(G)'s terms over W
        inside it, one filter pass over the terms its table keeps.
        """
        if self.used not in self.tables:
            check_cap(self.graph.n, len(self.used), self.cap)
            self.tables[self.used] = betti_hochster(self.ideal, self.field_, cap=self.cap)
        key = self.used if keep is None else self.used.intersection(keep)
        if key not in self.tables:
            self.tables[key] = sub_table(self.tables[self.used].terms, key)
        return self.tables[key]

    def reg(self, ideal: MonomialIdeal):
        """reg(R/J), for J among I3(G), I3(G) : uv and I3(G) + uv; none of them is the unit ideal.

        When J's generators are some variables X plus exactly the generators
        of I3(G) inside their own union S, J is I3(G[S]) + <X> with X outside
        S (every edge colon I3(G) : uv has this form). Its resolution is
        I3(G[S])'s tensored with the Koszul complex on X, which shifts i and j
        together, so reg(R/J) is the sub-sum's over S (a set test on J). Any
        other J, in production only I3(G) + uv, gets its own uncached sum.
        """
        rest = {g for g in ideal.masks if g.bit_count() != 1}
        span = reduce(or_, rest, 0)
        if rest == {g for g in self.ideal.masks if not g & ~span}:
            return self.table(vertices_of(span)).regularity()
        return betti_hochster(ideal, self.field_, cap=self.cap).regularity()

    @cached_property
    def nu3(self) -> int:
        return nu3(self.graph)[0]

    def report(self, *checks: CheckResult, **extra) -> VerificationReport:
        return VerificationReport(
            self.graph_json, self.source, self.kind, self.graph.n,
            checks=list(checks), **extra,
        )

    def invariant_report(self) -> VerificationReport:
        reg = self.table().regularity()
        return self.report(reg=reg, nu3=self.nu3, defect=reg - 2 * self.nu3)


def lower_bound(ctx: GraphContext) -> VerificationReport:
    """reg(R/I3) >= 2 nu3, for arbitrary graphs."""
    r = ctx.invariant_report()
    r.checks.append(CheckResult("lower_bound", r.reg >= 2 * r.nu3, f"reg={r.reg} >= 2*nu3={2 * r.nu3}"))
    return r


def tree_equality(ctx: GraphContext) -> VerificationReport:
    """reg(R/I3) == 2 nu3 for trees (and forests, component-wise additive)."""
    if ctx.kind not in ("tree", "forest"):
        raise InputError(f"tree equality check requires a tree/forest, got {ctx.kind}")
    r = ctx.invariant_report()
    r.checks.append(CheckResult("tree_equality", r.defect == 0, f"reg={r.reg}, 2*nu3={2 * r.nu3}"))
    return r


def unicyclic_sandwich(ctx: GraphContext) -> VerificationReport:
    """2 nu3 <= reg(R/I3) <= 2 nu3 + 2 for connected one-cycle non-cycle graphs."""
    if ctx.kind != "unicyclic":
        raise InputError(
            f"unicyclic sandwich check requires a non-cycle unicyclic graph, got {ctx.kind}"
        )
    r = ctx.invariant_report()
    detail = f"defect={r.defect}"
    r.checks += [CheckResult("sandwich_lower", r.defect >= 0, detail),
                 CheckResult("sandwich_upper", r.defect <= 2, detail)]
    return r


def colon_identities(ctx: GraphContext, edge: tuple[int, int]) -> VerificationReport:
    """Both colon decompositions of the 3-path ideal at an edge, exactly."""
    x, y = edge
    if not ctx.graph.has_edge(x, y):
        raise InputError(f"({x},{y}) is not an edge")
    same = ctx.edge_colon(x, y) == edge_colon_closed_form(ctx.graph, x, y)
    report = ctx.report(CheckResult("colon_by_edge", same, f"edge=({x},{y})"))
    with_edge = add_monomial(ctx.ideal, {x, y})
    for a, b in ((x, y), (y, x)):
        same = colon(with_edge, {a}) == vertex_colon_closed_form(ctx.graph, a, b)
        report.checks.append(CheckResult(f"colon_by_vertex_{a}", same, f"edge=({a},{b})"))
    return report


def ses_edges(ctx: GraphContext, edges: Iterable[tuple[int, int]]) -> VerificationReport:
    """Short-exact-sequence regularity bound for the monomials uv of edges of G.

    reg(R/I) <= max(reg(R/(I : uv)) + 2, reg(R/(I + uv))) holds at once when
    either side on the right reaches reg(R/I), so I + uv is ranked only when
    neither side does from I's own sub-sums. The colon side is one: see
    ``GraphContext.reg``; I : uv is the context's, built by the colon check if
    that ran first (``GraphContext.edge_colon``). For the sum side, with w in
    {u, v}, I + uv has exactly the generators of I3(G - w) inside V - w, so
    its Hochster terms there are those of I3(G - w), and reg(R/(I + uv)) >=
    reg(R/I3(G - w)) over every field. Both shortcuts are taken only when u
    and v lie in a generator: then I + uv uses no vertex I does not, and
    cannot meet a cap that I passed. Each vertex set's sub-sum is computed
    once per graph.

    An edge uv lies in a generator exactly when deg u + deg v >= 3: a second
    neighbour of u or v extends uv to a 3-path, and a 3-path through u and v
    has its third vertex adjacent to one of them.
    """
    todo = list(edges)
    every = set(range(ctx.graph.n))
    adj = ctx.graph.adj
    reg = ctx.table().regularity()
    failures = []
    for u, v in todo:
        on_path = len(adj[u]) + len(adj[v]) >= 3
        if on_path and (
            ctx.reg(ctx.edge_colon(u, v)) + 2 >= reg
            or any(ctx.table(every - {w}).regularity() >= reg for w in (u, v))
        ):
            continue
        ses = SesBoundReport.of(ctx.ideal, {u, v}, ctx.reg)
        if not ses.holds:
            failures.append(((u, v), ses))
    detail = f"{len(todo)} edge(s) checked"
    if failures:
        detail += f"; first failure at {failures[0][0]}: {failures[0][1]}"
    return ctx.report(CheckResult("ses_bound", not failures, detail))


def betti_monotonicity(ctx: GraphContext, vertices: Iterable[int]) -> VerificationReport:
    """Entrywise Betti monotonicity under induced subgraphs, plus regularity.

    The subgraph's table is the context's sub-sum of I3(G)'s Hochster sum,
    so both checks hold by construction; they stay as a check of the restriction.
    """
    keep = set(vertices)
    table_g, table_h = ctx.table(), ctx.table(keep)
    reg_g, reg_h = table_g.regularity(), table_h.regularity()
    return ctx.report(
        CheckResult("betti_monotone", table_h.entrywise_leq(table_g), f"subgraph on {len(keep)} vertices"),
        CheckResult("regularity_monotone", reg_h <= reg_g, f"reg_sub={reg_h} <= reg={reg_g}"),
        reg=reg_g,
    )


def monotone_deletions(ctx: GraphContext) -> VerificationReport:
    """Betti monotonicity for every single-vertex deletion of the graph.

    Each deletion's table is the context's sub-sum over V - v, shared with ``ses``.
    """
    n, table_g = ctx.graph.n, ctx.table()
    deleted = (ctx.table(set(range(n)) - {v}) for v in range(n))
    bad = [v for v, table_h in enumerate(deleted) if not table_h.entrywise_leq(table_g)]
    detail = f"{n} deletions checked" + (f"; violated at {bad}" if bad else "")
    return ctx.report(CheckResult("betti_monotone_deletions", not bad, detail), reg=table_g.regularity())


def broom_drop(ctx: GraphContext) -> VerificationReport:
    """nu3 drops by at most one when the broom vertex's edge is removed."""
    drop = check_nu3_broom_drop(ctx.graph, ctx.nu3)
    detail = f"edge={drop.edge}, nu3_remainder={drop.nu3_remainder}, nu3={drop.nu3_graph}"
    return ctx.report(CheckResult("broom_edge_drop", drop.holds, detail), nu3=drop.nu3_graph)


# -- the registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """How one ``--which`` selector runs.

    ``in_all`` says whether ``all`` runs the check on a graph; ``on_graph``
    runs it on an explicit graph (every edge or every deletion);
    ``on_instance`` runs it on a batch instance, drawing any edge or vertex
    subset from the instance's random stream.
    """

    in_all: Callable[[GraphContext], bool]
    on_graph: Callable[[GraphContext], list[VerificationReport]]
    on_instance: Callable[[GraphContext, SplitMix64], VerificationReport]


def _whole_graph(in_all, run) -> Check:
    """A check that runs the same way on explicit graphs and batch instances."""
    return Check(in_all, lambda ctx: [run(ctx)], lambda ctx, rng: run(ctx))


def _random_edge(ctx: GraphContext, rng: SplitMix64, name: str, run) -> VerificationReport:
    edges = ctx.graph.edges
    if not edges:
        return ctx.report(CheckResult(name, True, "no edges"))
    return run(ctx, edges[rng.below(len(edges))])


def _always(ctx: GraphContext) -> bool:
    return True


# Insertion order is the order of the reports under ``--which all``.
CHECKS: dict[str, Check] = {
    "lower": _whole_graph(_always, lower_bound),
    "tree": _whole_graph(lambda ctx: ctx.kind in ("tree", "forest"), tree_equality),
    "unicyclic": _whole_graph(lambda ctx: ctx.kind == "unicyclic", unicyclic_sandwich),
    "colon": Check(
        _always,
        lambda ctx: [colon_identities(ctx, edge) for edge in ctx.graph.edges],
        lambda ctx, rng: _random_edge(ctx, rng, "colon_by_edge", colon_identities),
    ),
    "ses": Check(
        _always,
        lambda ctx: [ses_edges(ctx, ctx.graph.edges)],
        lambda ctx, rng: _random_edge(ctx, rng, "ses_bound", lambda ctx, e: ses_edges(ctx, [e])),
    ),
    "monotone": Check(
        _always,
        lambda ctx: [monotone_deletions(ctx)],
        lambda ctx, rng: betti_monotonicity(ctx, [v for v in range(ctx.graph.n) if rng.below(2) == 0]),
    ),
    "broom": _whole_graph(lambda ctx: ctx.kind == "tree" and ctx.graph.n >= 3, broom_drop),
}
WHICH_CHOICES = ("all", *CHECKS)


def verify_graph(
    graph: Graph,
    which: str = "all",
    field_: FieldSpec = GF2,
    cap: int = DEFAULT_CAP,
    source: str = "graph",
) -> list[VerificationReport]:
    """Run the selected checks on one explicit graph."""
    if which not in WHICH_CHOICES:
        raise InputError(f"unknown check selector {which!r}")
    ctx = GraphContext(graph, field_, cap, source)
    return [
        report
        for name, check in CHECKS.items()
        if which == name or (which == "all" and check.in_all(ctx))
        for report in check.on_graph(ctx)
    ]


# -- randomized families -----------------------------------------------------------


@dataclass(frozen=True)
class BatchSpec:
    """Deterministic description of a randomized verification batch.

    Instance k uses n = n_lo + (k mod span) and the splitmix64 stream seeded
    with ``seed + k``; any extra draws (rejections, edge or subset picks)
    continue on the same stream.
    """

    family: str
    n_lo: int
    n_hi: int
    count: int
    seed: int
    field_: FieldSpec = GF2
    which: str = "all"  # a --which selector; "all" runs the family's own check
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if self.which not in WHICH_CHOICES:
            raise InputError(f"unknown batch check {self.which!r}")
        if self.n_lo > self.n_hi:
            raise InputError("empty n range")
        if self.count < 0:
            raise InputError(f"count must be nonnegative, got {self.count}")
        minimum = {"tree": 1, "unicyclic": 4, "random": 1}[self.family]
        if self.n_lo < minimum:
            raise InputError(
                f"family {self.family!r} needs n >= {minimum}"
                + (" (smaller unicyclic graphs are all cycles)" if self.family == "unicyclic" else "")
            )

    def instance_n(self, k: int) -> int:
        return self.n_lo + k % (self.n_hi - self.n_lo + 1)


def generate_instance(spec: BatchSpec, k: int) -> tuple[Graph, SplitMix64]:
    """Instance k of the batch plus its still-live random stream."""
    n = spec.instance_n(k)
    rng = SplitMix64(spec.seed + k)
    if spec.family == "tree":
        return tree_from_rng(n, rng), rng
    if spec.family == "unicyclic":
        while True:
            graph = unicyclic_from_rng(n, rng)
            if classify(graph).kind == "unicyclic":
                return graph, rng
    p = P_VALUES[k % len(P_VALUES)]
    graph = graph_from_rng(n, p, rng)
    # A colon batch picks an edge, so it redraws edgeless graphs; n = 1 has none.
    while spec.which == "colon" and n >= 2 and not graph.edges:
        graph = graph_from_rng(n, p, rng)
    return graph, rng


_FAMILY_CHECK = {"tree": "tree", "unicyclic": "unicyclic", "random": "lower"}


def _batch_check(spec: BatchSpec) -> Check:
    return CHECKS[_FAMILY_CHECK[spec.family] if spec.which == "all" else spec.which]


def run_instance(spec: BatchSpec, k: int) -> VerificationReport:
    started = time.perf_counter()
    graph, rng = generate_instance(spec, k)
    ctx = GraphContext(graph, spec.field_, spec.cap, f"{spec.family} n={graph.n} seed={spec.seed + k}")
    try:
        report = _batch_check(spec).on_instance(ctx, rng)
    except PathIdealsError as exc:
        report = ctx.report(error=f"{type(exc).__name__}: {exc}")
    report.family = spec.family
    report.seed = spec.seed + k
    report.index = k
    report.elapsed = time.perf_counter() - started
    return report


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim_instances(spec: BatchSpec, counter, conn) -> None:
    """A batch worker: run the next unclaimed instance until none is left, then report once.

    Sends every (index, report) pair it made in one message, or the first
    exception an instance raised.
    """
    done = []
    try:
        while True:
            with counter.get_lock():
                k = counter.value
                counter.value = k + 1
            if k >= spec.count:
                break
            done.append((k, run_instance(spec, k)))
    except Exception as exc:
        conn.send(exc)
    else:
        conn.send(done)


def _run_workers(spec: BatchSpec, workers: int) -> list[VerificationReport]:
    """The batch on ``workers`` forked processes that claim instances from a shared counter.

    A worker that cannot start, or exits without reporting (killed when the
    host runs out of RAM, say), ends the batch with a ``CapacityError``; an
    exception a worker sends is raised here. No worker outlives the call.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    pending, procs = {}, []
    try:
        for _ in range(workers):
            receive, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_claim_instances, args=(spec, counter, send), daemon=True)
            try:
                proc.start()
            except OSError as exc:
                raise CapacityError(f"could not start a batch worker: {exc}") from exc
            procs.append(proc)
            send.close()
            pending[receive] = proc
        reports: list[VerificationReport | None] = [None] * spec.count
        while pending:
            for receive in wait(list(pending)):
                proc = pending.pop(receive)
                try:
                    got = receive.recv()
                except EOFError:
                    proc.join()
                    raise CapacityError(
                        f"a batch worker died with exit code {proc.exitcode} before reporting"
                    ) from None
                finally:
                    receive.close()
                if isinstance(got, BaseException):
                    raise got
                for k, report in got:
                    reports[k] = report
        for proc in procs:
            proc.join()
        return reports
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()


def run_batch(spec: BatchSpec, jobs: int = 1) -> list[VerificationReport]:
    """All instances of a batch, ordered by index regardless of parallelism.

    Runs min(jobs, instances, usable CPUs) workers, and none for a single
    worker. Each worker is one forked process that claims instance indexes
    one at a time from a shared counter and sends all of its reports back
    in one message when the batch is exhausted; see ``_run_workers``.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, spec.count, _usable_cpus())
    if workers <= 1:
        return [run_instance(spec, k) for k in range(spec.count)]
    return _run_workers(spec, workers)
