"""Spans around calls into listhom's modules, recorded from outside.

`Tracer.install()` replaces each traced public function by a wrapper in
every loaded listhom module that bound it (so `from .oracles import
count_list_hcol` in cli and gadgets is covered too), and methods on their
class; `uninstall()` puts the originals back.  Spans are kept in memory as
(name, start, end, parent index, op id) and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# The layers are listhom's modules; a span name is "<module>.<group>".
# (span name, module, attribute, counter) with counter(counts, args, result)
# adding the work the call did.  Classes are given as "module:Class".


def _text_bytes(counts, name, args, out):
    counts[name + ".bytes"] += len(args[0])


def _out_bytes(counts, name, args, out):
    counts[name + ".bytes"] += len(out)


def _hit(counts, name, args, out):
    counts[name + ".hits"] += out is not None


def _instance_vertices(counts, name, args, out):
    counts[name + ".vertices"] += args[1].g.m


def _formula_vars(counts, name, args, out):
    counts[name + ".vars"] += args[0].var_count


def _formula_clauses(counts, name, args, out):
    counts[name + ".clauses"] += len(out[0].clauses)


def _reduced_vertices(counts, name, args, out):
    counts[name + ".vertices"] += out[0].g.m


FUNCTIONS = (
    ("formats.parse", "listhom.formats", "parse_h", _text_bytes),
    ("formats.parse", "listhom.formats", "parse_instance", _text_bytes),
    ("formats.parse", "listhom.formats", "parse_graph", _text_bytes),
    ("formats.parse", "listhom.formats", "parse_formula", _text_bytes),
    ("formats.serialise", "listhom.formats", "serialise_instance", _out_bytes),
    ("formats.serialise", "listhom.formats", "serialise_formula", _out_bytes),
    ("graphs.construct", "listhom.graphs:ColourGraph", "from_edges", None),
    ("graphs.construct", "listhom.graphs:InstanceGraph", "from_edges", None),
    ("recognizer.classify", "listhom.recognizer", "classify", None),
    ("recognizer.staircase", "listhom.recognizer", "find_staircase_biadjacency", _hit),
    ("recognizer.staircase", "listhom.recognizer", "find_staircase_adjacency", _hit),
    ("recognizer.excluded", "listhom.recognizer", "find_excluded_bp", None),
    ("recognizer.excluded", "listhom.recognizer", "find_excluded_pi", None),
    ("recognizer.excluded", "listhom.recognizer", "find_induced_embedding", None),
    ("recognizer.excluded", "listhom.recognizer", "find_chordless_cycle", None),
    ("recognizer.certify", "listhom.recognizer:StaircaseForm", "certifies", None),
    ("recognizer.certify", "listhom.recognizer:ExcludedWitness", "verify", None),
    ("oracles.count_list_hcol", "listhom.oracles", "count_list_hcol", _instance_vertices),
    ("oracles.count_1p1n", "listhom.oracles", "count_1p1n", _formula_vars),
    ("oracles.ising_partition", "listhom.oracles", "ising_partition", None),
    ("reductions.encode", "listhom.reductions", "build_staircase_encoding", None),
    ("reductions.encode", "listhom.reductions", "reduce_listhcol_to_1p1n", _formula_clauses),
    ("gadgets.symmetrize", "listhom.gadgets", "build_symmetrized", None),
    ("gadgets.symmetrize", "listhom.gadgets", "symmetrize", None),
    ("gadgets.symmetrize", "listhom.gadgets", "find_transposing_automorphism", None),
    ("gadgets.thicken", "listhom.gadgets", "thicken", None),
    ("gadgets.bruteforce", "listhom.gadgets", "interaction_matrix_bruteforce", None),
    ("gadgets.edge_replace", "listhom.gadgets", "reduce_ising_to_listhcol", _reduced_vertices),
)

MODULES = ("cli", "formats", "graphs", "recognizer", "gadgets", "reductions", "oracles")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                counter(self.counts, name, args, out)
            return out

        return traced

    def install(self) -> None:
        for name, where, attr, counter in FUNCTIONS:
            module, _, cls = where.partition(":")
            if cls:
                owner = getattr(sys.modules[module], cls)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, counter))
                else:
                    wrapped = self.wrap(name, raw, counter)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "listhom" and not mod_name.startswith("listhom."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self, scale=lambda op: 1.0) -> Counter:
        """Seconds per span name, each span's duration minus its children's,
        times scale(op id of the span)."""
        spans = [s for s in self.spans if s is not None]  # None: cut by a timeout
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span is not None:
                name, start, end, _, op = span
                out[name] += (end - start - child[i]) * scale(op)
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans if span is not None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
