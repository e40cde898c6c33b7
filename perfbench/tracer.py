"""Spans and counters around the public functions of each precrossed module.

The program is not changed: ``Tracer.install`` replaces module attributes and
class methods with wrappers, in every ``precrossed`` module that bound the
original, so calls between modules go through the wrappers too.  Spans are
kept in memory; calls made hundreds of thousands of times are aggregated per
parent span instead of kept one by one.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

# span name -> layer metric (self time, seconds).  The oracles.rack_complex
# span is kept in the trace but has no metric: only compare-ra (ra-trans,
# outside BENCHMARK.json) calls it.
SPAN_METRICS = {
    "simplicial.enumerate": "simplicial.enumerate_s",
    "simplicial.degeneracy": "simplicial.degeneracy_s",
    "simplicial.map": "simplicial.map_s",
    "homology.complex": "homology.complex_s",
    "homology.smith": "homology.smith_s",
    "homology.field_rank": "homology.field_rank_s",
    "homology.generators": "homology.generators_s",
    "homology.induced_map": "homology.induced_map_s",
    "oracles.group_homology": "oracles.group_homology_s",
}

COUNT_METRICS = (
    "simplicial.enumerated",
    "simplicial.face_calls",
    "words.reduce_calls",
    "homology.basis_total",
    "homology.boundary_nnz",
    "homology.smith_calls",
    "homology.smith_rank",
    "homology.field_rank_calls",
)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[dict] = []  # one entry per kept span
        self.aggregated: dict[tuple[int, str], list] = {}  # (parent id, name) -> [calls, total]
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.kept = 0  # simplices is_degenerate let through
        self.complexes: list[dict] = []
        self._stack = [[0.0, 0]]  # per open span: [time covered by children, span id]
        self._ids = itertools.count(1)

    # -- wrappers ---------------------------------------------------------------

    def span(self, name: str, fn, hot: bool = False, after=None):
        """Wrap fn in a span; hot spans are aggregated per parent."""
        clock, stack, ids = self.clock, self._stack, self._ids
        self_time, spans, aggregated = self.self_time, self.spans, self.aggregated

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            sid = 0 if hot else next(ids)
            frame = [0.0, sid or parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self_time[name] += duration - frame[0]
                if hot:
                    slot = aggregated.setdefault((parent, name), [0, 0.0])
                    slot[0] += 1
                    slot[1] += duration
                else:
                    spans.append({"id": sid, "parent": parent, "name": name,
                                  "start": start, "end": end})
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks -------------------------------------------------------------

    def _enumerated(self, simplices):
        self.counts["simplicial.enumerated"] += len(simplices)

    def _degenerate(self, flag):
        if not flag:
            self.kept += 1

    def _complex(self, comp):
        dims = [len(b) for b in comp.bases]
        nnz = [len(m.entries) for m in comp.boundaries]
        self.counts["homology.basis_total"] += sum(dims)
        self.counts["homology.boundary_nnz"] += sum(nnz)
        spec = comp.spec.describe() if comp.spec is not None else "rackcomplex"
        self.complexes.append({"spec": spec, "dims": dims, "nnz": nnz})

    def _smith(self, snf):
        self.counts["homology.smith_calls"] += 1
        self.counts["homology.smith_rank"] += snf.rank

    def _field_rank(self, _rank):
        self.counts["homology.field_rank_calls"] += 1

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Replace the program's public functions and methods with traced ones."""
        # the package re-exports a function named homology, so take the modules
        # from sys.modules rather than as package attributes
        cli, homology, oracles, simplicial, words = (
            sys.modules[f"precrossed.{name}"]
            for name in ("cli", "homology", "oracles", "simplicial", "words"))

        replace = {
            cli.parse_input: self.span("algebra.parse", cli.parse_input),
            simplicial.is_degenerate: self.span(
                "simplicial.degeneracy", simplicial.is_degenerate, hot=True,
                after=self._degenerate),
            words.reduce: self.counter("words.reduce_calls", words.reduce),
            homology.chain_complex: self.span(
                "homology.complex", homology.chain_complex, after=self._complex),
            homology.smith_normal_form: self.span(
                "homology.smith", homology.smith_normal_form, after=self._smith),
            homology.gaussian_rank: self.span(
                "homology.field_rank", homology.gaussian_rank, after=self._field_rank),
            homology.homology_generators: self.span(
                "homology.generators", homology.homology_generators),
            homology.induced_map: self.span("homology.induced_map", homology.induced_map),
            oracles.rack_complex: self.span(
                "oracles.rack_complex", oracles.rack_complex, after=self._complex),
            oracles.group_homology: self.span(
                "oracles.group_homology", oracles.group_homology),
        }
        originals = {id(fn): wrapped for fn, wrapped in replace.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "precrossed" and not modname.startswith("precrossed."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
        for cls in (simplicial.WordSpec, simplicial.CoskeletonSpec, simplicial.NerveSpec):
            cls.simplices = self.span("simplicial.enumerate", cls.simplices,
                                      after=self._enumerated)
            cls.face = self.counter("simplicial.face_calls", cls.face)
        simplicial.SimplicialMap.apply = self.span(
            "simplicial.map", simplicial.SimplicialMap.apply, hot=True)

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times and counts, plus the spans for the trace file."""
        layers = {metric: float(self.self_time[name]) for name, metric in SPAN_METRICS.items()}
        layers.update({name: self.counts[name] for name in COUNT_METRICS})
        enumerated = self.counts["simplicial.enumerated"]
        layers["simplicial.kept_ratio"] = self.kept / enumerated if enumerated else 0.0
        hot = [{"parent": parent, "name": name, "calls": calls, "total": total}
               for (parent, name), (calls, total) in self.aggregated.items()]
        return {"layers": layers, "spans": self.spans, "aggregated": hot,
                "complexes": self.complexes}
