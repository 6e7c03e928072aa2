"""Per-module spans around the calls cayleycert's modules make into each other.

``install`` rebinds each listed function, in every cayleycert module that
holds it, to a wrapper that records a span; ``uninstall`` puts the originals
back.  A span's self time is its duration minus the time of the spans it
encloses, so the self times of one run add up to the traced time without
overlap.  Spans stay in memory; only the per-metric totals are reported.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

#: (module, function, metric prefix, count calls).  Functions sharing a prefix
#: are added together.
SPANS = (
    ("cli", "main", "cli.self", False),
    ("groups", "_automorphism_batches", "groups.aut_batches", False),
    ("iso", "selfcomp_by_group_automorphism", "iso.scan", True),
    ("iso", "fingerprint", "iso.fingerprint", True),
    ("iso", "_ir_search", "iso.ir_search", False),
    ("iso", "_refine_pair", "iso.refine", True),
    ("iso", "verify_certificate", "iso.verify_certificate", True),
    ("iso", "are_isomorphic", "iso.decide", False),
    ("iso", "is_self_complementary", "iso.decide", False),
    ("graphs", "invariant_counts", "graphs.invariant_counts", False),
    ("graphs", "edge_neighborhood_edge_profile", "graphs.edge_profile", False),
    ("graphs", "mod_p_rank", "graphs.mod_p_rank", True),
    ("graphs", "_bfs_layers", "graphs.bfs", False),
    ("graphs", "check_srg", "graphs.check_srg", True),
    ("graphs", "intersection_array", "graphs.intersection_array", False),
    ("graphs", "from_graph6", "graphs.graph6", False),
    ("graphs", "to_graph6", "graphs.graph6", False),
    ("graphs", "complement", "graphs.complement", False),
    ("groupalgebra", "ga_mul", "groupalgebra.ga_mul", True),
    ("cayley", "build_cayley", "cayley.build", False),
    ("cayley", "connection_set_from_text", "cayley.parse", False),
    ("families", "paley", "families.construct", False),
    ("families", "peisert", "families.construct", False),
    ("families", "davis", "families.construct", False),
    ("fields", "factorize", "fields.factorize", True),
)

#: Counters read from arguments or results rather than from call counts.
COUNTERS = ("groups.aut_yielded", "iso.automorphisms_scanned", "iso.search_nodes", "iso.refine_conflicts")


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [prefix, start, time of enclosed spans]
        self._patches: list[tuple] = []

    # --- spans -----------------------------------------------------------------

    def _enter(self, prefix: str) -> None:
        self._stack.append([prefix, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        prefix, start, inner = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[prefix] += duration - inner
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn: Callable, prefix: str, count: bool, after: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            if count:
                self.counts[prefix + "_calls"] += 1
            result = None
            self._enter(prefix)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit()
                if after is not None:
                    after(args, result)

        return wrapper

    def _wrap_batches(self, fn: Callable, prefix: str) -> Callable:
        """Spans around each step of the automorphism batch generator."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    self._enter(prefix)
                    try:
                        batch = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    self.counts["groups.aut_yielded"] += len(batch[0])
                    yield batch
            finally:
                it.close()

        return wrapper

    # --- hooks reading counters ---------------------------------------------------

    def _after_scan(self, args, result) -> None:
        if result is not None:
            self.counts["iso.automorphisms_scanned"] += result[1]

    def _after_search(self, args, result) -> None:
        self.counts["iso.search_nodes"] += args[6].nodes  # the _SearchStats argument

    def _after_refine(self, args, result) -> None:
        if result is not None and result[0] is None:
            self.counts["iso.refine_conflicts"] += 1

    # --- installation ---------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "iso.scan": self._after_scan,
            "iso.ir_search": self._after_search,
            "iso.refine": self._after_refine,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cayleycert"]
        for mod_name, fn_name, prefix, count in SPANS:
            orig = getattr(importlib.import_module(f"cayleycert.{mod_name}"), fn_name)
            if prefix == "groups.aut_batches":
                wrapped = self._wrap_batches(orig, prefix)
            else:
                wrapped = self._wrap(orig, prefix, count, hooks.get(prefix))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """Every per-module metric; metrics of layers not reached read 0."""
        out: dict[str, float] = {}
        for _mod, _fn, prefix, count in SPANS:
            out[prefix + "_s"] = self.self_s.get(prefix, 0.0)
            if count:
                out[prefix + "_calls"] = self.counts.get(prefix + "_calls", 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        return out
