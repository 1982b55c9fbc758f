"""Per-layer timing for the traced run.

The program is not edited: while a Tracer is active it replaces the module
attributes through which one layer calls the next (for example
``slice_arena.ppo.policy_forward``, which ``ppo.train`` looks up on every
rollout step) with a wrapper that counts the call and adds its inclusive
wall time. Leaving the ``with`` block puts the originals back, so untraced
rounds run the program exactly as shipped.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span); "Class.method" attributes wrap the method on
# the class. A span may be fed from several call sites.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("env", "SliceEnv.step", "env.step"),
    ("ppo", "policy_forward", "policy.forward1"),
    ("ensemble", "policy_forward", "policy.forward1"),
    ("ppo", "forward_batch", "policy.forward_batch"),
    ("ppo", "backward_batch", "policy.backward"),
    ("policy", "AdamOptimizer.step", "policy.adam"),
    ("ppo", "update", "ppo.update"),
    ("ppo", "compute_advantages", "ppo.gae"),
    ("harness", "train", "ppo.train"),
    ("adversary", "ForgeryAdversary.forge_observation", "adversary.forge"),
    ("ensemble", "select_model", "ensemble.select"),
    ("harness", "myopic_exhaustive_decision", "baselines.oracle_call"),
    ("harness", "random_policy_decision", "baselines.random_decision"),
    ("harness", "aggregate", "metrics.aggregate"),
    ("ensemble", "aggregate", "metrics.aggregate"),
    ("harness", "write_metrics", "metrics.write"),
    ("policy", "load_checkpoint", "policy.load_checkpoint"),
    ("harness", "load_checkpoint", "policy.load_checkpoint"),
    ("ensemble", "load_checkpoint", "policy.load_checkpoint"),
    ("harness", "save_checkpoint", "policy.save_checkpoint"),
    ("config", "load_config", "config.load"),
    ("harness", "run_scenario", "harness.scenario"),
)


class Tracer:
    """Accumulates calls and seconds per span across activations."""

    def __init__(self, package) -> None:
        self.package = package
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.whole_slot_calls = 0
        self._undo: List[Tuple[object, str, Callable]] = []

    def _span_key(self, span: str, args) -> str:
        if span == "harness.scenario":
            return f"harness.scenario_s.{args[0]}"
        if span == "baselines.oracle_call":
            requests, state = args[0], args[1]
            if len(requests) == len(state.pending):
                self.whole_slot_calls += 1
        return span

    def _wrap(self, owner, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        seconds, calls, key_of = self.seconds, self.calls, self._span_key

        def timed(*args, **kwargs):
            key = key_of(span, args)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - start
                calls[key] += 1

        self._undo.append((owner, attr, original))
        setattr(owner, attr, timed)

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in SPANS:
            owner = getattr(self.package, module_name)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._wrap(owner, attr, span)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- report

    def per_call(self, key: str, unit: float) -> float:
        calls = self.calls.get(key, 0)
        return self.seconds[key] / calls * unit if calls else 0.0

    def per_round(self, key: str, rounds: int) -> float:
        return self.calls.get(key, 0) / rounds

    def metrics(self, rounds: int, scenarios, overhead_s: Optional[float],
                ) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics averaged over `rounds` traced rounds; a layer
        that never ran reports 0."""
        us, ms = 1e6, 1e3
        oracle_calls = self.calls.get("baselines.oracle_call", 0)
        train_calls = self.calls.get("ppo.train", 0)
        rollout_s = ((self.seconds["ppo.train"] - self.seconds["ppo.update"])
                     / train_calls) if train_calls else 0.0
        out = {
            "env.step_us": (self.per_call("env.step", us), "us"),
            "env.steps": (self.per_round("env.step", rounds), "count"),
            "policy.forward1_us": (self.per_call("policy.forward1", us), "us"),
            "policy.forward1_calls": (self.per_round("policy.forward1", rounds), "count"),
            "policy.forward_batch_us": (self.per_call("policy.forward_batch", us), "us"),
            "policy.backward_us": (self.per_call("policy.backward", us), "us"),
            "policy.adam_us": (self.per_call("policy.adam", us), "us"),
            "ppo.update_ms": (self.per_call("ppo.update", ms), "ms"),
            "ppo.gae_us": (self.per_call("ppo.gae", us), "us"),
            "ppo.rollout_s": (rollout_s, "s"),
            "adversary.forge_us": (self.per_call("adversary.forge", us), "us"),
            "adversary.forged_decisions": (self.per_round("adversary.forge", rounds), "count"),
            "ensemble.select_us": (self.per_call("ensemble.select", us), "us"),
            "baselines.oracle_call_us": (self.per_call("baselines.oracle_call", us), "us"),
            "baselines.oracle_calls": (self.per_round("baselines.oracle_call", rounds), "count"),
            "baselines.whole_slot_share": (
                self.whole_slot_calls / oracle_calls if oracle_calls else 0.0, "ratio"),
            "baselines.random_decision_us": (
                self.per_call("baselines.random_decision", us), "us"),
            "metrics.aggregate_ms": (self.per_call("metrics.aggregate", ms), "ms"),
            "metrics.write_ms": (self.per_call("metrics.write", ms), "ms"),
            "policy.load_checkpoint_ms": (self.per_call("policy.load_checkpoint", ms), "ms"),
            "config.load_ms": (self.per_call("config.load", ms), "ms"),
            "policy.save_checkpoint_ms": (self.per_call("policy.save_checkpoint", ms), "ms"),
        }
        for name in scenarios:
            key = f"harness.scenario_s.{name}"
            out[key] = (self.per_call(key, 1.0), "s")
        out["trace.overhead_s"] = (overhead_s if overhead_s is not None else 0.0, "s")
        return out
