"""Span tracing of qcas layers, from outside the program.

`Tracer.install` replaces public qcas functions at the module attributes
through which the program calls them (for example `qcas.res.score_cell`,
which `res` imported from `optim`), so only calls made by the program are
seen.  Each call records a span (name, start, end, parent) in memory; the
spans are summarised and written out after the search.  `uninstall` puts the
original functions back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module attribute the program calls through, span name).  One function may
# be reached through several import sites; a site-specific span name keeps
# RES sampling apart from other callers of the same cell functions.
_SITES = [
    ("sim.apply_circuit_columns", "sim.apply_circuit_columns"),
    ("tasks.apply_circuit_columns", "sim.apply_circuit_columns"),
    ("tasks.QaeTask.training_cost", "tasks.training_cost"),
    ("tasks.UnitaryRegenTask.training_cost", "tasks.training_cost"),
    ("tasks.QaeTask.validation_score", "tasks.validation_score"),
    ("tasks.UnitaryRegenTask.validation_score", "tasks.validation_score"),
    ("res.score_cell", "optim.score_cell"),
    ("relm.score_cell", "optim.score_cell"),
    ("tasks.score_cell", "optim.score_cell"),
    ("cell.metrics", "cell.metrics"),
    ("res.metrics", "cell.metrics"),
    ("tasks.metrics", "cell.metrics"),
    ("cli.metrics", "cell.metrics"),
    ("res.eval_soft_constraint", "res.eval_soft_constraint"),
    ("relm.eval_soft_constraint", "cell.eval_soft_constraint"),
    ("tasks.eval_soft_constraint", "cell.eval_soft_constraint"),
    ("res.random_cell", "res.random_cell"),
    ("res.expand_cell", "res.expand_cell"),
    ("res.evaluate_population", "res.evaluate_population"),
    ("relm.tournament_step", "relm.tournament_step"),
    ("relm.mutate", "relm.mutate"),
    ("relm.reinforce_grads", "controller.reinforce_grads"),
    ("relm.adam_step", "controller.adam_step"),
    ("cli.relm_search", "relm.relm_search"),
    ("cli.build_task", "cli.build_task"),
]

# Per-call amounts recorded next to a span, read from the call's arguments.
_AMOUNTS = {
    "sim.apply_circuit_columns": lambda args, kwargs: len(args[0].gates),
    "res.evaluate_population": lambda args, kwargs: len(args[0]),
}


def _resolve(modules: dict, dotted: str):
    head, *rest = dotted.split(".")
    owner = modules[head]
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # [name_id, start, end, parent_index, amount]
        self._stack: list = []
        self._installed: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        amount = _AMOUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                    amount(args, kwargs) if amount else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict):
        for site, name in _SITES:
            owner, attr = _resolve(modules, site)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "amount"],
                       "spans": self.spans}, fh)


# Unit of each figure `summarise` returns.
LAYER_UNITS = {
    "sim.apply_circuit_columns.calls": "count",
    "sim.apply_circuit_columns.us_per_call": "us",
    "sim.us_per_gate": "us",
    "tasks.training_cost.calls": "count",
    "tasks.training_cost.us_per_call": "us",
    "tasks.validation_score.us_per_call": "us",
    "optim.score_cell.calls": "count",
    "optim.score_cell.ms_per_call": "ms",
    "optim.evals_per_cell": "count",
    "optim.self_s": "s",
    "cell.eval_soft_constraint.calls": "count",
    "cell.eval_soft_constraint.us_per_call": "us",
    "cell.metrics.calls": "count",
    "res.cells_sampled": "count",
    "res.admissible_ratio": "1",
    "res.sample_s": "s",
    "res.score_s": "s",
    "relm.epoch_ms": "ms",
    "relm.mutate.us_per_call": "us",
    "controller.reinforce_grads.us_per_call": "us",
    "controller.adam_step.us_per_call": "us",
}


def summarise(tracer: Tracer, epochs: int) -> dict:
    """Per-layer figures of one traced search."""
    names = tracer.names
    spans = tracer.spans
    calls = defaultdict(int)
    total = defaultdict(float)
    amount = defaultdict(int)
    child_time = defaultdict(float)  # span index -> time covered by children
    for i, (name_id, start, end, parent, amt) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        total[name] += end - start
        amount[name] += amt
        if parent >= 0:
            child_time[parent] += end - start

    def per_call(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    score_self = sum(
        (end - start) - child_time[i]
        for i, (name_id, start, end, _p, _a) in enumerate(spans)
        if names[name_id] == "optim.score_cell"
    )
    evals_in_score = 0
    score_id = tracer._name_ids.get("optim.score_cell")
    cost_id = tracer._name_ids.get("tasks.training_cost")
    for name_id, _s, _e, parent, _a in spans:
        if name_id != cost_id:
            continue
        while parent >= 0:
            if tracer.spans[parent][0] == score_id:
                evals_in_score += 1
                break
            parent = tracer.spans[parent][3]

    tournament_starts = [s for n, s, _e, _p, _a in spans if names[n] == "relm.tournament_step"]
    relm_ends = [e for n, _s, e, _p, _a in spans if names[n] == "relm.relm_search"]
    epoch_ms = ((relm_ends[-1] - tournament_starts[0]) / epochs * 1e3
                if tournament_starts and relm_ends and epochs else 0.0)

    sampled = calls["res.random_cell"] + calls["res.expand_cell"]
    scored = amount["res.evaluate_population"]
    gates = amount["sim.apply_circuit_columns"]
    return {
        "sim.apply_circuit_columns.calls": calls["sim.apply_circuit_columns"],
        "sim.apply_circuit_columns.us_per_call": per_call("sim.apply_circuit_columns", 1e6),
        "sim.us_per_gate": total["sim.apply_circuit_columns"] / gates * 1e6 if gates else 0.0,
        "tasks.training_cost.calls": calls["tasks.training_cost"],
        "tasks.training_cost.us_per_call": per_call("tasks.training_cost", 1e6),
        "tasks.validation_score.us_per_call": per_call("tasks.validation_score", 1e6),
        "optim.score_cell.calls": calls["optim.score_cell"],
        "optim.score_cell.ms_per_call": per_call("optim.score_cell", 1e3),
        "optim.evals_per_cell": (evals_in_score / calls["optim.score_cell"]
                                 if calls["optim.score_cell"] else 0.0),
        "optim.self_s": score_self,
        "cell.eval_soft_constraint.calls": (calls["cell.eval_soft_constraint"]
                                            + calls["res.eval_soft_constraint"]),
        "cell.eval_soft_constraint.us_per_call": (
            (total["cell.eval_soft_constraint"] + total["res.eval_soft_constraint"])
            / max(1, calls["cell.eval_soft_constraint"] + calls["res.eval_soft_constraint"])
            * 1e6),
        "cell.metrics.calls": calls["cell.metrics"],
        "res.cells_sampled": sampled,
        "res.admissible_ratio": scored / sampled if sampled else 0.0,
        "res.sample_s": (total["res.random_cell"] + total["res.expand_cell"]
                         + total["res.eval_soft_constraint"]),
        "res.score_s": total["res.evaluate_population"],
        "relm.epoch_ms": epoch_ms,
        "relm.mutate.us_per_call": per_call("relm.mutate", 1e6),
        "controller.reinforce_grads.us_per_call": per_call("controller.reinforce_grads", 1e6),
        "controller.adam_step.us_per_call": per_call("controller.adam_step", 1e6),
    }
