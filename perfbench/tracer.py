"""In-memory spans and counters around dntuple's layer boundaries.

Nothing under src/ is edited: install() rebinds the names that one module
imported from another (``dntuple.search.RootTable``, ``dntuple.cli.verify``
and so on) to timing or counting wrappers. Every wrapped call is a span;
its self time is its duration minus the time of the spans it encloses.
Per-name aggregates are kept for every span, and the few coarse spans
(searches, CLI steps, the sieve) are also kept one by one so they can be
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name, parent index, start, end) of kept spans
        self._stack: list[list] = []  # open spans: [name, kept index, start, child_s]

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def enter(self, name: str, keep: bool = False) -> None:
        idx = None
        if keep:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            idx = len(self.spans)
            self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append([name, idx, perf_counter(), 0.0])

    def leave(self) -> None:
        end = perf_counter()
        name, idx, start, child = self._stack.pop()
        self.leaf(name, end - start, child)
        if idx is not None:
            n, parent, _, _ = self.spans[idx]
            self.spans[idx] = (n, parent, start, end)

    def leaf(self, name: str, dur: float, child: float = 0.0) -> None:
        """Add a closed span to its name's totals and to its parent's child time.

        Called directly, with a duration the caller timed, it is the cheap
        path for a boundary that has no spans inside it.
        """
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    @contextlib.contextmanager
    def span(self, name: str, keep: bool = True):
        self.enter(name, keep)
        try:
            yield
        finally:
            self.leave()

    def wrap(self, fn, name: str, keep: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return traced

    def counting(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def total(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]


def install(tracer: Tracer) -> None:
    """Rebind dntuple's cross-module names to traced wrappers.

    A name the program no longer has is skipped with a warning on stderr,
    and the layer metrics fed by it read 0.
    """
    from dntuple import audits, cli, residues, search, serialize, tuples

    def rebind(mod, name: str, make) -> None:
        fn = getattr(mod, name, None)
        if fn is None:
            print(f"perfbench: {mod.__name__}.{name} not found, not traced", file=sys.stderr)
            return
        setattr(mod, name, make(fn))

    class TracedRootTable(residues.RootTable):
        # the hottest boundary: up to a million calls per search
        def __init__(self, n, spf):
            super().__init__(n, spf)
            self.seen: set[int] = set()
            tracer.count("residues.roots_distinct", 0)

        def roots(self, a, _roots=residues.RootTable.roots):
            if a not in self.seen:
                self.seen.add(a)
                tracer.count("residues.roots_distinct")
            t0 = perf_counter()
            out = _roots(self, a)
            tracer.leaf("residues.roots", perf_counter() - t0)
            return out

    rebind(search, "RootTable", lambda cls: TracedRootTable)
    rebind(search, "smallest_factor_sieve", lambda f: tracer.wrap(f, "residues.sieve", keep=True))
    for mod in (search, serialize, cli):
        rebind(mod, "verify", lambda f: tracer.wrap(f, "tuples.verify"))
    for mod in (tuples, audits):
        rebind(mod, "square_root_if_square", lambda f: tracer.counting(f, "exact.sqrt_calls"))
    rebind(cli, "find_witness_e", lambda f: _witness_probe(tracer, f))
    layers = {
        "audits.gap": ("audit_gap_lemma5", "audit_gap_corollary"),
        "bounds": ("b_eps_bound", "c_bound_leading", "ell_epsilon", "k_epsilon", "m_bound_report"),
        "serialize.read": ("read_jsonl", "tuples_from_records"),
        "serialize.write": ("write_jsonl", "write_csv", "render_csv", "search_report_objs"),
    }
    for layer, names in layers.items():
        for name in names:
            rebind(cli, name, lambda f, layer=layer: tracer.wrap(f, layer))
    rebind(cli, "write_jsonl", lambda f: _record_counter(tracer, f, 1))
    rebind(cli, "write_csv", lambda f: _record_counter(tracer, f, 2))
    rebind(cli, "search_maximal", lambda f: tracer.wrap(f, "search", keep=True))


def _record_counter(tracer: Tracer, fn, rows_arg: int):
    tracer.count("serialize.records", 0)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count("serialize.records", len(args[rows_arg]))  # the CLI passes lists
        return fn(*args, **kwargs)

    return counted


def _witness_probe(tracer: Tracer, find_witness_e):
    """Time find_witness_e and classify each witness: closed form or scan.

    The classification recomputes the closed-form candidate e0 and the
    scan window exactly as the documented search order defines them, after
    the span has closed, so it costs the timed layer nothing.
    """
    from dntuple.audits import WitnessNotFoundError

    for key in ("audits.closed_form", "audits.scan_steps"):
        tracer.count(key, 0)

    @functools.wraps(find_witness_e)
    def probed(triple, search_bound=None):
        try:
            with tracer.span("audits.witness", keep=False):
                w = find_witness_e(triple, search_bound)
        except WitnessNotFoundError as exc:
            _count_scan(tracer, triple, exc.search_bound, exc.search_bound)
            raise
        if not _count_scan(tracer, triple, search_bound, w.e):
            tracer.count("audits.closed_form")
        return w

    return probed


def _count_scan(tracer: Tracer, triple, bound: int | None, last_e: int) -> int:
    # e values the fallback scan tried, ascending up to last_e, skipping e0
    a, b, c = triple.elements
    n = triple.n
    r = triple.witness_for(a, b).r
    s = triple.witness_for(a, c).r
    t = triple.witness_for(b, c).r
    e0 = n * (a + b + c) + 2 * a * b * c - 2 * r * s * t
    if last_e == e0:
        return 0
    if bound is None:
        bound = 10 * c * abs(n)
    start = max(-bound, -(n * n // c))
    steps = max(0, last_e - start + 1) - (start <= e0 <= last_e)
    tracer.count("audits.scan_steps", steps)
    return steps
