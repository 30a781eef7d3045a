"""Per-layer spans for the benchmark, recorded from outside the program.

``Tracer.install()`` replaces the public entry points of each clonebench layer
with wrappers that keep a span (name, start, end, parent) in memory and count
the items each call handled.  A function that another module imported by name
(``protocol`` imports ``fe_reproduce_detail``, ``arbiter_eval`` and
``sram_startup``; ``attacks`` imports ``arbiter_eval_batch`` and
``parity_transform``) is replaced at every module-level binding that holds it:
patching only the defining module would miss those calls without notice.
Methods are replaced on their class.  ``uninstall()`` restores the originals.

Kernels are timed only through their public entry points
(``SucDevice.encrypt_blocks``/``decrypt_blocks`` and
``kernels.sbox_audit_batch``), so a rewrite of the kernel internals keeps the
benchmark running.

A layer's self time is its span's duration minus the time its child spans
cover.  Every value is reported per traced unit of work (one identify unit,
one analysis pass, one attack campaign), so call and item counts repeat
exactly between runs of the same code.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: (owner, attribute, span name); the owner is "module" or "module:Class"
TRACED = (
    ("clonebench.suc:SucDevice", "encrypt_blocks", "kernels.spn_encrypt"),
    ("clonebench.suc:SucDevice", "decrypt_blocks", "kernels.spn_decrypt"),
    ("clonebench.kernels", "sbox_audit_batch", "kernels.sbox_audit"),
    ("clonebench.suc", "personalize", "suc.personalize"),
    ("clonebench.suc:SucDevice", "encrypt", "suc.encrypt"),
    ("clonebench.suc:SucDevice", "decrypt", "suc.decrypt"),
    ("clonebench.suc", "sbox_entropy_bits", "suc.sbox_entropy"),
    ("clonebench.trails", "min_active_sboxes", "trails.min_active"),
    ("clonebench.trails", "sample_trail_actives", "trails.sample"),
    ("clonebench.fuzzy", "fe_reproduce_detail", "fuzzy.fe_reproduce"),
    ("clonebench.fuzzy", "toeplitz_hash", "fuzzy.toeplitz_hash"),
    ("clonebench.bitstring:BitString", "random", "bitstring.random"),
    ("clonebench.bitstring:BitString", "from_int", "bitstring.from_int"),
    ("clonebench.bitstring:BitString", "to_hex", "bitstring.hex"),
    ("clonebench.bitstring:BitString", "from_hex", "bitstring.hex"),
    ("clonebench.protocol", "identify", "protocol.identify"),
    ("clonebench.protocol", "verify_challenge", "protocol.verify_challenge"),
    ("clonebench.protocol", "combined_verify", "protocol.combined_verify"),
    ("clonebench.protocol:CrpStore", "consume_next", "protocol.consume"),
    ("clonebench.protocol:CrpStore", "consume_challenge", "protocol.consume"),
    ("clonebench.protocol", "enroll", "protocol.enroll"),
    ("clonebench.protocol", "save_store", "protocol.store_save"),
    ("clonebench.protocol", "load_store", "protocol.store_load"),
    ("clonebench.attacks", "collect_crps", "attacks.collect_crps"),
    ("clonebench.attacks", "train_model", "attacks.train_model"),
    ("clonebench.attacks", "eval_model", "attacks.eval_model"),
    ("clonebench.puf", "parity_transform", "puf.parity_transform"),
    ("clonebench.puf", "arbiter_eval_batch", "puf.arbiter_eval_batch"),
    ("clonebench.puf", "sram_startup", "puf.sram_startup"),
    ("clonebench.acoustic", "structure_new", "acoustic.structure_new"),
    ("clonebench.acoustic", "fingerprint", "acoustic.fingerprint"),
    ("clonebench.acoustic", "dof_estimate", "acoustic.dof_estimate"),
    ("clonebench.rng", "substream", "rng.substream"),
    ("clonebench.jsonio", "write_json", "jsonio.write_json"),
    ("clonebench.jsonio", "read_json", "jsonio.read_json"),
)


def _records(store) -> int:
    return sum(len(recs) for recs in store.records.values())


class Tracer:
    """In-memory span recorder with per-unit aggregation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []  # (namespace, attribute, original)
        self._items = defaultdict(float)  # item counters of the current unit
        self._sums = defaultdict(float)  # per-name totals over finished units
        self._gauges = {}  # last value seen, not summed
        self.units = 0

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "clonebench" or name.startswith("clonebench."))]
        for owner, attr, span_name in TRACED:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    wrapped = self._wrap(span_name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, key, amount=1) -> None:
        self._items[key] += amount

    def gauge(self, key, value) -> None:
        self._gauges[key] = float(value)

    # ------------------------------------------------------------- aggregation
    def end_unit(self) -> list:
        """Fold the current unit's spans into the totals; returns the raw spans."""
        spans = list(self.spans)
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            self._sums[f"{name}.calls"] += 1
            self._sums[f"{name}.total_s"] += end - start
            self._sums[f"{name}.self_s"] += end - start - child[i]
        for key, value in self._items.items():
            self._sums[key] += value
        self._items.clear()
        del self.spans[:]
        self.units += 1
        return spans

    def metrics(self, overhead_ratio: float, per_layer) -> dict:
        """Each metric of `per_layer` (BENCHMARK.json entries), averaged over the finished units."""
        units = max(self.units, 1)
        per_unit = {key: value / units for key, value in self._sums.items()}
        per_unit.update(self._gauges)

        def ratio(num, den):
            return per_unit.get(num, 0.0) / per_unit[den] if per_unit.get(den) else 0.0

        per_unit["suc.sbox_acceptance_ratio"] = ratio("suc.sbox_accepted", "suc.sbox_candidates")
        per_unit["fuzzy.fe_fail_ratio"] = ratio("fuzzy.fe_failed", "fuzzy.fe_reproduce.calls")
        per_unit["attacks.epoch_ms"] = 1e3 * ratio("attacks.train_model.total_s", "attacks.train_model.epochs")
        per_unit["trace.overhead_ratio"] = overhead_ratio
        return {m["name"]: {"value": per_unit.get(m["name"], 0.0), "unit": m["unit"]} for m in per_layer}


# --------------------------------------------------------------------------- item observers
def _on_audit(tracer, args, result):
    tables = len(result[0])
    tracer.count("kernels.sbox_audit.tables", tables)
    if tracer.inside("suc.personalize"):
        tracer.count("suc.sbox_candidates", tables)


def _on_verdict(tracer, args, result):
    # identify inside combined_verify is counted once, by combined_verify
    if not tracer.inside("protocol.combined_verify"):
        tracer.count(f"protocol.verdicts.{result.reason}")


def _on_train(tracer, args, result):
    tracer.count("attacks.train_model.epochs", len(result.loss_history))
    tracer.gauge(f"attacks.final_loss.{result.source}", result.loss_history[-1])


_OBSERVERS = {
    "kernels.spn_encrypt": lambda t, a, r: t.count("kernels.spn_encrypt.blocks", len(r)),
    "kernels.spn_decrypt": lambda t, a, r: t.count("kernels.spn_decrypt.blocks", len(r)),
    "kernels.sbox_audit": _on_audit,
    "suc.personalize": lambda t, a, r: t.count("suc.sbox_accepted", r.params.rounds),
    "trails.sample": lambda t, a, r: t.count("trails.sample.trails", len(r)),
    "fuzzy.fe_reproduce": lambda t, a, r: t.count("fuzzy.fe_failed", r is None),
    "protocol.identify": _on_verdict,
    "protocol.verify_challenge": _on_verdict,
    "protocol.combined_verify": _on_verdict,
    "protocol.enroll": lambda t, a, r: t.count("protocol.enroll.crps", r),
    "protocol.store_save": lambda t, a, r: t.count("protocol.store_save.records", _records(a[0])),
    "protocol.store_load": lambda t, a, r: t.count("protocol.store_load.records", _records(r)),
    "attacks.collect_crps": lambda t, a, r: t.count("attacks.collect_crps.crps", len(r)),
    "attacks.train_model": _on_train,
    "attacks.eval_model": lambda t, a, r: t.gauge(f"attacks.accuracy.{r.target}", r.accuracy),
    "puf.arbiter_eval_batch": lambda t, a, r: t.count("puf.arbiter_eval_batch.challenges", len(r)),
    "jsonio.write_json": lambda t, a, r: t.count("jsonio.write_json.bytes", os.path.getsize(a[0])),
    "jsonio.read_json": lambda t, a, r: t.count("jsonio.read_json.bytes", os.path.getsize(a[0])),
}
