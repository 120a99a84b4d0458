"""Per-layer spans and counters, installed from outside the program.

`Tracer.install` wraps public entry points of each `bondlat` module where
their callers look the names up: the `cli` module's imported names, the
`jsonio` module functions that `cli` reaches through the module, and the
methods of `BondSystem`, `CoverDigraph`, `FinitePoset` and `Multigraph`.
`uninstall` puts every original back, so untraced passes run the program
as shipped.

A span is (name, start, end, parent, job).  A layer's self time is the
sum over its spans of the span's duration minus the durations of its
direct children; spans nest strictly because the benchmark is
single-threaded.  Counter updates that need work of their own (walking a
result) run inside a `trace.count` span, so that work is not charged to
any layer.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "checker.certify_uld_s": "s",
    "checker.certify_lld_s": "s",
    "checker.poset_build_s": "s",
    "checker.poset_elements": "count",
    "checker.fork_check_s": "s",
    "checker.fork_pairs": "count",
    "lattice.enumerate_s": "s",
    "lattice.elements": "count",
    "lattice.covers": "count",
    "lattice.max_rank": "count",
    "lattice.push_hit_ratio": "ratio",
    "lattice.colored_digraph_s": "s",
    "lattice.meet_irreducibles_s": "s",
    "bonds.reduce_s": "s",
    "bonds.value_range_calls": "count",
    "bonds.rigid_arcs": "count",
    "bonds.minimum_s": "s",
    "bonds.initial_bond_s": "s",
    "bonds.push_counts_s": "s",
    "bonds.push_counts_calls": "count",
    "bonds.order_op_s": "s",
    "bonds.system_build_s": "s",
    "bonds.systems_built": "count",
    "graph.spanning_tree_s": "s",
    "graph.fundamental_cycles_s": "s",
    "graph.multigraph_builds": "count",
    "jsonio.parse_s": "s",
    "jsonio.dumps_s": "s",
    "jsonio.bytes_out": "bytes",
    "cli.self_s": "s",
    "dotexport.render_s": "s",
    "dotexport.bytes": "bytes",
    "chipfire.build_game_s": "s",
    "chipfire.certify_game_s": "s",
    "chipfire.states": "count",
    "chipfire.moves": "count",
    "instances.encode_s": "s",
    "trace.overhead_s": "s",
}

# Span names whose self time is reported, keyed by the metric.
_SELF_TIME = {
    metric: metric[: -len("_s")]
    for metric, unit in LAYER_METRICS.items()
    if unit == "s" and metric != "trace.overhead_s"
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if count is not None:
                tracer.call("trace.count", count, tracer.counts, args, result)
            return result

        return traced

    def _tally(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from bondlat import bonds, checker, chipfire, cli, graph, jsonio, lattice

        def span(owner, attr, name, count=None):
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), count))

        span(cli, "main", "cli.self")
        for attr in ("loads", "parse_system", "parse_systems", "parse_bond", "parse_chip_input"):
            span(jsonio, attr, "jsonio.parse")
        span(cli, "dumps", "jsonio.dumps", _count_text("jsonio.bytes_out"))

        system = bonds.BondSystem
        span(system, "__init__", "bonds.system_build", _count_calls("bonds.systems_built"))
        span(bonds, "spanning_tree", "graph.spanning_tree")
        span(bonds, "fundamental_cycles", "graph.fundamental_cycles")
        self._patch(graph.Multigraph, "__init__", self._tally("graph.multigraph_builds", graph.Multigraph.__init__))
        span(system, "reduce", "bonds.reduce", _count_rigid)
        self._patch(system, "value_range", self._tally("bonds.value_range_calls", system.value_range))
        span(system, "minimum_bond", "bonds.minimum")
        span(system, "initial_bond", "bonds.initial_bond")
        span(system, "push_counts", "bonds.push_counts", _count_calls("bonds.push_counts_calls"))
        for attr in ("meet", "join", "leq"):
            span(system, attr, "bonds.order_op")

        span(cli, "enumerate_lattice", "lattice.enumerate", _count_lattice)
        span(lattice.CoverDigraph, "to_colored_digraph", "lattice.colored_digraph")
        span(cli, "meet_irreducible_indices", "lattice.meet_irreducibles")

        span(cli, "certify_uld_cover", "checker.certify_uld")
        span(chipfire, "certify_uld_cover", "checker.certify_uld")
        span(cli, "certify_lld_cover", "checker.certify_lld")
        span(checker.FinitePoset, "__init__", "checker.poset_build", _count_poset)
        span(checker, "check_distinct_fork_colors", "checker.fork_check")
        span(checker, "check_fork_completion", "checker.fork_check", _count_fork_pairs)

        span(cli, "build_game", "chipfire.build_game", _count_game)
        span(cli, "certify_game", "chipfire.certify_game")

        for attr in ("cover_digraph_dot", "game_dot"):
            span(cli, attr, "dotexport.render", _count_text("dotexport.bytes"))
        span(cli, "bond_labels", "dotexport.render")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        own = [end - start for _name, start, end, _parent, _job in self.spans]
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict = defaultdict(float)
        for (name, *_rest), value in zip(self.spans, own):
            totals[name] += value
        return totals

    def layer_metrics(self) -> dict:
        """Per-layer values of everything recorded so far (one traced pass)."""
        totals = self.self_times()
        values = {metric: totals.get(name, 0.0) for metric, name in _SELF_TIME.items()}
        counts = self.counts
        for metric, unit in LAYER_METRICS.items():
            if unit in ("count", "bytes"):
                values[metric] = counts.get(metric, 0)
        tries = counts.get("lattice.push_tries", 0)
        values["lattice.push_hit_ratio"] = counts.get("lattice.covers", 0) / tries if tries else 0.0
        return values


def _count_calls(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _count_text(key):
    def count(counts, args, result):
        counts[key] += len(result.encode("utf-8"))

    return count


def _count_rigid(counts, args, result):
    counts["bonds.rigid_arcs"] += len(result[1].forced)


def _count_lattice(counts, args, result):
    system, cd = args[0], result
    counts["lattice.elements"] += cd.n
    counts["lattice.covers"] += len(cd.covers)
    counts["lattice.push_tries"] += cd.n * len(system.pushable_vertices())
    # Elements are stored in BFS layers, so every cover has lo < hi.
    rank = [0] * cd.n
    for lo, hi, _color in cd.covers:
        rank[hi] = rank[lo] + 1
    counts["lattice.max_rank"] = max(counts["lattice.max_rank"], max(rank, default=0))


def _count_poset(counts, args, result):
    counts["checker.poset_elements"] += len(args[1])


def _count_fork_pairs(counts, args, result):
    graph = args[0].graph
    for v in graph.vertices:
        heads = [arc.head for arc in graph.out_arcs(v)]
        for i in range(len(heads)):
            for j in range(i + 1, len(heads)):
                if heads[i] != heads[j]:
                    counts["checker.fork_pairs"] += 1


def _count_game(counts, args, result):
    counts["chipfire.states"] += len(result.states)
    counts["chipfire.moves"] += len(result.moves)
