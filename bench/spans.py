"""Span tracing of mtboost's public functions, from outside the program.

Each traced function is replaced, for the duration of one traced phase, by
a wrapper installed where its caller looks it up (for example
``mtboost.tree.build_histograms``, which ``grow_tree`` reads from its own
module). No source file of the program changes. Spans are kept in memory as
(name, start, end, parent, work) and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter

from mtboost import booster, cli, data, tree


def _rows(args, result):
    return len(args[0])


def _routed(args, result):
    return args[1].shape[0]


def _table_cells(args, result):
    return result.features.size + result.labels.size


def _matrix_cells(args, result):
    return result[0].size


def _leaves(args, result):
    return result[0].n_leaves


def _file_bytes(args, result):
    return os.path.getsize(args[1])


# span name -> (places the callers look the function up, work counter)
TARGETS = {
    "data.load_csv": ([(cli, "load_csv")], _table_cells),
    "data.read_feature_matrix": ([(cli, "read_feature_matrix")], _matrix_cells),
    "data.write_csv": ([(cli, "write_csv")], None),
    "data.fit_bins": ([(data, "fit_bins"), (cli, "fit_bins")], None),
    "data.apply_bins": ([(data, "apply_bins"), (cli, "apply_bins")], None),
    "data.log_transform": ([(data, "log_transform"), (cli, "log_transform")], None),
    "data.bin_column": ([(booster, "bin_column")], None),
    "synthetic.gen_synthetic": ([(cli, "gen_synthetic")], None),
    "objectives.grad_hess": ([(booster, "grad_hess")], None),
    "objectives.loss": ([(booster, "loss")], None),
    "gradients.ensemble": ([(booster, "ensemble_grad_hess")], None),
    "gradients.updating": ([(booster, "updating_grad_hess")], None),
    "tree.grow_tree": ([(booster, "grow_tree")], _leaves),
    "tree.build_histograms": ([(tree, "build_histograms")], _rows),
    "tree.find_best_split": ([(tree, "find_best_split")], None),
    "tree.fit_leaf_values": ([(booster, "fit_leaf_values")], None),
    "tree.route_binned": ([(booster, "route_binned")], _routed),
    "booster.train": ([(booster, "train")], None),
    "booster.predict": ([(booster, "predict")], None),
    "booster.save_model": ([(booster, "save_model")], _file_bytes),
    "booster.load_model": ([(booster, "load_model")], None),
    "cli.main": ([(cli, "main")], None),
    "cli.synth": ([(cli, "cmd_synth")], None),
    "cli.train": ([(cli, "cmd_train")], None),
    "cli.predict": ([(cli, "cmd_predict")], None),
    "cli.eval": ([(cli, "cmd_eval")], None),
}


class Tracer:
    """Records nested spans while a traced phase is open."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    @contextmanager
    def phase(self, name: str):
        """Install every wrapper, record one root span, then restore."""
        originals = []
        for span_name, (places, work) in TARGETS.items():
            for module, attr in places:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name, fn, work))
        root = self._open(name)
        try:
            yield
        finally:
            self._close(root)
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == -1 and s[0] == name]

    def totals(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name under one root: inclusive and self seconds, calls, work."""
        # A root's descendants are the spans recorded after it, up to the
        # next span whose parent lies outside the root.
        inside = [root]
        child_time: dict[int, float] = {}
        for i in range(root + 1, len(self.spans)):
            _, start, end, parent, _ = self.spans[i]
            if parent < root:
                break
            inside.append(i)
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for i in inside[1:]:
            name, start, end, _, work = self.spans[i]
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time.get(i, 0.0)
            entry["calls"] += 1
            entry["work"] += work
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "work")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
