"""Spans and counts around the public functions of `besovtransfer`.

The tracer wraps functions from outside the package: it replaces each
traced function by a wrapper in every `besovtransfer` module that bound
it (so `decompose` is wrapped in `domains`, `transfer` and `dynamics`
alike), and each traced method on its class.  `uninstall` puts the
originals back.  Spans (name, start, end, parent span) and counts are kept
in memory, one record per pass, and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import besovtransfer.atoms as atoms
import besovtransfer.cli as cli
import besovtransfer.domains as domains
import besovtransfer.dynamics as dynamics
import besovtransfer.grid as grid
import besovtransfer.spectral as spectral
import besovtransfer.transfer as transfer

# Functions timed as spans: metric prefix -> (module, function names).
SPANNED = {
    "dynamics.make_map": (dynamics, ["make_map"]),
    "dynamics.potential_regularity": (dynamics, ["potential_regularity"]),
    "transfer.assemble_matrix": (transfer, ["assemble_matrix"]),
    "transfer.transfer_atom": (transfer, ["transfer_atom"]),
    "domains.decompose": (domains, ["decompose"]),
    "transfer.apply_transfer": (transfer, ["apply_transfer"]),
    "transfer.transfer_numeric": (transfer, ["transfer_numeric"]),
    "atoms.evaluate": (atoms, ["evaluate"]),
    "atoms.canonical": (atoms, ["canonical_rep", "canonical_vector"]),
    "transfer.build_cell_operator": (transfer, ["build_cell_operator"]),
    "spectral.eigenvalues": (spectral, ["eigenvalues"]),
    "spectral.peripheral_spectrum": (spectral, ["peripheral_spectrum"]),
    "spectral.transitivity_check": (spectral, ["transitivity_check"]),
    "spectral.decay_rate": (spectral, ["decay_rate"]),
    "spectral.clt_variance": (spectral, ["clt_variance"]),
    "spectral.multiplier_matrix": (spectral, ["multiplier_matrix"]),
    "spectral.green_kubo_variance": (spectral, ["green_kubo_variance"]),
    "spectral.lasota_yorke_verify": (spectral, ["lasota_yorke_verify"]),
    "spectral.invariant_density": (spectral, ["invariant_density"]),
    "transfer.lebesgue_bound_check": (transfer, ["lebesgue_bound_check"]),
}
# Functions only counted.
COUNTED = {
    "dynamics.weight_averages": (dynamics, "weight_averages"),
    "atoms.subtree_rep": (atoms, "subtree_rep"),
    "transfer.slicing_certificates": (transfer, "slicing_certificates"),
}
# Methods: metric prefix -> (class, method names, spanned?).
METHODS = {
    "transfer.to_triplets": (transfer.TransferMatrix, ["to_triplets"], True),
    "cli.emit": (cli.Runner, [n for n in vars(cli.Runner) if n.startswith("emit_")], True),
    "dynamics.weight_integral": (dynamics.Branch, ["weight_integral"], False),
    "grid.overlaps": (grid.Grid, ["overlaps"], False),
    "transfer.matvec": (transfer.TransferMatrix, ["apply"], False),
}

# Per-layer metrics a traced run reports: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _name in SPANNED:
    PER_LAYER[_name + ".s"] = ("s", "lower")
for _name in ("transfer.to_triplets", "cli.emit"):
    PER_LAYER[_name + ".s"] = ("s", "lower")
for _name in ("dynamics.weight_averages", "dynamics.weight_integral", "atoms.subtree_rep",
              "transfer.transfer_atom", "domains.decompose", "grid.overlaps",
              "transfer.slicing_certificates", "transfer.build_cell_operator",
              "spectral.eigenvalues", "spectral.invariant_density", "transfer.matvec"):
    PER_LAYER[_name + ".calls"] = ("count", "lower")
PER_LAYER.update({
    "dynamics.weight_averages.useful_ratio": ("1", "higher"),
    "transfer.assemble_matrix.nnz": ("count", "lower"),
    "spectral.eigenvalues.dense_n": ("count", "lower"),
    "spectral.multiplier_matrix.mb": ("MB", "lower"),
    "cli.output_mb": ("MB", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: List[list] = []          # [name, start, end, parent index]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._pairs: set = set()              # distinct (branch, level) of weight_averages
        self._restore: List[Tuple[object, str, object]] = []
        self.passes: List[dict] = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, after=None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        key = name + ".calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable, after=None) -> Callable:
        counts = self.counts
        key = name + ".calls"

        if after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return wrapper

    # hooks that turn a call into a count of work done
    def _after_weight_averages(self, args, kwargs, result):
        branch, K = args[1], args[2]
        self._pairs.add((id(branch), K))

    def _after_assemble(self, args, kwargs, result):
        self.counts["transfer.assemble_matrix.nnz"] += int(result.matrix.nnz)

    def _after_eigenvalues(self, args, kwargs, result):
        tm = args[0]
        if tm.size <= kwargs.get("dense_cap", spectral.DENSE_EIG_CAP):
            key = "spectral.eigenvalues.dense_n"
            self.counts[key] = max(self.counts[key], tm.size)

    def _after_multiplier(self, args, kwargs, result):
        self.counts["spectral.multiplier_matrix.mb"] += result.shape[0] * result.shape[1] * 16 / 1e6

    # -- install -------------------------------------------------------------

    def _rebind(self, original: object, wrapper: object) -> None:
        """Replace `original` in every besovtransfer module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "besovtransfer"
                                   or mod_name.startswith("besovtransfer.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        hooks = {"transfer.assemble_matrix": self._after_assemble,
                 "spectral.eigenvalues": self._after_eigenvalues,
                 "spectral.multiplier_matrix": self._after_multiplier}
        for name, (mod, fns) in SPANNED.items():
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                self._rebind(fn, self._spanned(name, fn, hooks.get(name)))
        for name, (mod, fn_name) in COUNTED.items():
            fn = getattr(mod, fn_name)
            after = self._after_weight_averages if name == "dynamics.weight_averages" else None
            self._rebind(fn, self._counted(name, fn, after))
        for name, (cls, methods, spanned) in METHODS.items():
            for meth in methods:
                fn = vars(cls)[meth]
                self._restore.append((cls, meth, fn))
                wrap = self._spanned if spanned else self._counted
                setattr(cls, meth, wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- per pass ------------------------------------------------------------

    def start_pass(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._pairs.clear()

    def end_pass(self, wall_s: float, output_mb: float) -> dict:
        """Per-layer figures of the pass just run; the raw spans are kept."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name + ".s"] += (end - start) - child[i]
        measured = dict(self.counts)
        measured.update(self_s)
        calls = self.counts["dynamics.weight_averages.calls"]
        measured["dynamics.weight_averages.useful_ratio"] = len(self._pairs) / calls if calls else 0.0
        measured["cli.output_mb"] = output_mb
        measured["trace.wall_s"] = wall_s
        figures = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
        self.passes.append({"wall_s": wall_s, "spans": [list(s) for s in self.spans],
                            "counts": dict(self.counts)})
        return figures

    def write(self, path: Path) -> None:
        """One JSON line per traced pass: its spans and counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.passes:
                fh.write(json.dumps(record) + "\n")
