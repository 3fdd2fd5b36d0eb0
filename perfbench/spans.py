"""Round clock and span tracer, installed by rebinding names in fedquant.

Nothing under ``src/`` is instrumented. Each hook replaces a function at the
name the calling module looks it up by (``fedquant.strategies.forward`` is
the ``forward`` that ``local_train`` calls), so a span covers exactly one call
across a layer boundary. ``patched`` restores every name on exit.

The untraced run installs only the ``RoundClock``: one hook per round on
``federation.sample_clients`` and one each on the returns of
``federation.run`` and ``evaluation.sweep``.
The traced run adds the ``Tracer`` spans listed in ``SPAN_TARGETS``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import threading
import time

SETUP, FINISH = -1, -2

# (module, attribute path, span name). The module is the caller's namespace.
SPAN_TARGETS = (
    ("fedquant.cli", "run", "federation.run"),
    ("fedquant.cli", "sweep", "evaluation.sweep"),
    ("fedquant.cli", "save_checkpoint", "federation.save_checkpoint"),
    ("fedquant.cli", "_artifacts", "cli.artifacts"),
    ("fedquant.config", "load_config", "config.load_config"),
    ("fedquant.config", "gen_synthetic", "data.gen_synthetic"),
    ("fedquant.config", "dirichlet_partition", "data.partition"),
    ("fedquant.federation", "sample_clients", "federation.sample_clients"),
    ("fedquant.federation", "client_batches", "federation.client_batches"),
    ("fedquant.federation", "local_train", "strategies.local_train"),
    ("fedquant.federation", "resolve_bits", "strategies.resolve_bits"),
    ("fedquant.federation", "calibrate_steps", "strategies.calibrate"),
    ("fedquant.federation", "aggregate", "federation.aggregate"),
    ("fedquant.federation", "server_step", "federation.server_step"),
    ("fedquant.federation", "evaluate_global", "federation.evaluate_global"),
    ("fedquant.federation", "predict_logits", "mlp.predict_logits"),
    ("fedquant.strategies", "forward", "mlp.forward"),
    ("fedquant.strategies", "backward", "mlp.backward"),
    ("fedquant.strategies", "estimate_range_mse", "quantize.range_search"),
    ("fedquant.evaluation", "quantize_for_eval", "evaluation.quantize_for_eval"),
    ("fedquant.evaluation", "estimate_range_mse", "quantize.range_search"),
    ("fedquant.evaluation", "predict_logits", "mlp.predict_logits"),
    ("fedquant.evaluation", "forward", "mlp.forward"),
    ("fedquant.mlp", "ParamSet.add_scaled", "mlp.sgd_update"),
    ("fedquant.mlp", "ParamSet.flatten", "mlp.flatten"),
    ("fedquant.mlp", "matmul", "tensors.matmul"),
    ("fedquant.mlp", "quantize", "quantize.fake_quant"),
    ("fedquant.mlp", "ste_backward", "quantize.ste"),
    ("fedquant.mlp", "pseudo_quantize", "quantize.noise"),
    ("fedquant.quantize", "quantize", "quantize.candidate"),
    ("fedquant.rng", "RngStream.__init__", "rng.init"),
    ("fedquant.rng", "RngStream.child", "rng.child"),
    ("fedquant.rng", "RngStream.uniform", "rng.draw"),
    ("fedquant.rng", "RngStream.normal", "rng.draw"),
    ("fedquant.rng", "RngStream.integers", "rng.draw"),
    ("fedquant.rng", "RngStream.permutation", "rng.draw"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(hooks):
    """Rebind each (module, path) to ``make(original)`` for the duration."""
    saved = []
    try:
        for module, path, make in hooks:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class RoundClock:
    """Round boundaries of one ``cli.main`` call.

    Round t runs from the t-th ``sample_clients`` call to the next one; the
    last round ends when ``federation.run`` returns. The finish is split
    where the bit-width sweep returns.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.selected: list = []
        self.run_end: float | None = None
        self.sweep_end: float | None = None

    @property
    def round(self) -> int:
        if self.run_end is not None:
            return FINISH
        return len(self.starts) - 1 if self.starts else SETUP

    def hooks(self):
        def on_sample(original):
            def sample_clients(*args, **kwargs):
                self.starts.append(time.perf_counter())
                chosen = original(*args, **kwargs)
                self.selected.append(chosen)
                return chosen
            return sample_clients

        def on_run(original):
            def run(*args, **kwargs):
                result = original(*args, **kwargs)
                self.run_end = time.perf_counter()
                return result
            return run

        def on_sweep(original):
            def sweep(*args, **kwargs):
                result = original(*args, **kwargs)
                self.sweep_end = time.perf_counter()
                return result
            return sweep

        return [("fedquant.federation", "sample_clients", on_sample),
                ("fedquant.cli", "run", on_run),
                ("fedquant.cli", "sweep", on_sweep)]

    def round_seconds(self) -> list[float]:
        bounds = self.starts + [self.run_end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


def _flop(args, kwargs, result):
    a, b = args[0], args[1]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _values(args, kwargs, result):
    return int(result.size)


def _local_steps(args, kwargs, result):
    return args[0].local_steps


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _dir_bytes(args, kwargs, result):
    out_dir = args[4]
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _rows(args, kwargs, result):
    return len(result.rows)


_AUX = {
    "tensors.matmul": _flop,
    "rng.draw": _values,
    "strategies.local_train": _local_steps,
    "federation.save_checkpoint": _file_bytes,
    "cli.artifacts": _dir_bytes,
    "evaluation.sweep": _rows,
}

# span record fields
NAME, START, END, PARENT, ROUND, CLIENT, CHILD_S, AUX = range(8)


class Tracer:
    """Spans kept in memory: name, start, end, parent, round, client.

    A span's parent is the innermost open span of the same thread; spans that
    client threads open at top level have none. ``CHILD_S`` accumulates the
    durations of direct children, so self time is duration minus ``CHILD_S``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _make(self, name: str, clock: RoundClock):
        aux = _AUX.get(name)
        is_task = name == "strategies.local_train"

        def make(original):
            def traced(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1] if stack else None
                client = args[0].client_id if is_task else \
                    (parent[CLIENT] if parent is not None else None)
                rec = [name, 0.0, 0.0, parent, clock.round, client, 0.0, None]
                stack.append(rec)
                rec[START] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec[END] = time.perf_counter()
                    stack.pop()
                    if parent is not None:
                        parent[CHILD_S] += rec[END] - rec[START]
                    self.spans.append(rec)
                if aux is not None:
                    rec[AUX] = aux(args, kwargs, result)
                return result
            return traced
        return make

    def hooks(self, clock: RoundClock):
        """Span hooks that tag each span with ``clock``'s current round."""
        return [(module, path, self._make(name, clock))
                for module, path, name in SPAN_TARGETS]

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: str, spans: list[list]) -> None:
    """One JSON object per span, parents referenced by line index."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            parent = rec[PARENT]
            fh.write(json.dumps({
                "name": rec[NAME], "start": rec[START], "end": rec[END],
                "parent": None if parent is None else index.get(id(parent)),
                "round": rec[ROUND], "client": rec[CLIENT],
                "self_s": rec[END] - rec[START] - rec[CHILD_S],
                "aux": rec[AUX]}) + "\n")


def _count(rec) -> float:
    return 1.0


def _ms(rec) -> float:
    return (rec[END] - rec[START]) * 1e3


def _self_ms(rec) -> float:
    return (rec[END] - rec[START] - rec[CHILD_S]) * 1e3


def _aux(rec) -> float:
    return rec[AUX]


def _outer(field):
    """Take ``field`` only from spans not nested in a span of the same layer
    (``normal`` draws through ``uniform``, ``child`` constructs a stream)."""
    def take(rec) -> float:
        parent = rec[PARENT]
        if parent is not None and parent[NAME].split(".")[0] == rec[NAME].split(".")[0]:
            return 0.0
        return field(rec)
    return take


# span name -> (metric, field) summed over the spans of each round
_PER_ROUND = {
    "rng.init": (("rng.derive_calls_per_round", _count),
                 ("rng.derive_ms_per_round", _outer(_ms))),
    "rng.child": (("rng.derive_ms_per_round", _outer(_ms)),),
    "rng.draw": (("rng.draw_values_per_round", _outer(_aux)),
                 ("rng.draw_ms_per_round", _outer(_ms))),
    "federation.sample_clients": (("federation.sample_clients_ms_per_round", _ms),),
    "federation.client_batches": (("federation.client_batches_ms_per_round", _ms),),
    "federation.aggregate": (("federation.aggregate_ms_per_round", _ms),),
    "federation.server_step": (("federation.server_step_ms_per_round", _ms),),
    "strategies.local_train": (("strategies.client_tasks_per_round", _count),
                               ("strategies.local_steps_per_round", _aux),
                               ("strategies.local_train_self_ms_per_round", _self_ms)),
    "strategies.resolve_bits": (("strategies.resolve_bits_ms_per_round", _ms),),
    "mlp.forward": (("mlp.forward_calls_per_round", _count),
                    ("mlp.forward_self_ms_per_round", _self_ms)),
    "mlp.backward": (("mlp.backward_self_ms_per_round", _self_ms),),
    "mlp.sgd_update": (("mlp.sgd_update_ms_per_round", _ms),),
    "mlp.flatten": (("mlp.flatten_ms_per_round", _ms),),
    "tensors.matmul": (("tensors.matmul_calls_per_round", _count),
                       ("tensors.matmul_ms_per_round", _ms),
                       # summed as whole flops, exact in any span order,
                       # and scaled to GFLOP in LayerStats.metrics
                       ("tensors.matmul_gflop_per_round", _aux)),
    "quantize.fake_quant": (("quantize.fake_quant_calls_per_round", _count),
                            ("quantize.fake_quant_ms_per_round", _ms)),
    "quantize.ste": (("quantize.ste_ms_per_round", _ms),),
    "quantize.noise": (("quantize.noise_ms_per_round", _self_ms),),
}

# span name -> (metric, field) summed over one cli.main call
_PER_RUN = {
    "config.load_config": (("config.load_ms", _ms),),
    "data.gen_synthetic": (("data.gen_synthetic_ms", _ms),),
    "data.partition": (("data.partition_ms", _ms),),
    "strategies.calibrate": (("strategies.calibrate_ms", _ms),),
    "federation.evaluate_global": (("federation.evaluate_global_ms", _ms),),
    "federation.save_checkpoint": (("federation.checkpoint_write_ms", _ms),
                                   ("federation.checkpoint_bytes", _aux)),
    "mlp.predict_logits": (("mlp.predict_logits_ms", _ms),),
    "quantize.range_search": (("quantize.range_search_calls", _count),
                              ("quantize.range_search_ms", _ms)),
    "evaluation.sweep": (("evaluation.sweep_ms", _ms), ("evaluation.rows", _aux)),
    "cli.artifacts": (("cli.artifact_write_ms", _ms), ("cli.artifact_bytes", _aux)),
}


class LayerStats:
    """Per-layer figures pooled over the traced ``cli.main`` calls of a run.

    ``*_per_round`` metrics are medians over every traced round; the other
    timings are medians over calls of ``cli.main``.
    """

    def __init__(self, rounds: int, threads: int):
        self.rounds = rounds
        self.threads = threads
        self.per_round: dict[str, list[float]] = {
            m: [] for recs in _PER_ROUND.values() for m, _ in recs}
        self.per_run: dict[str, list[float]] = {
            m: [] for recs in _PER_RUN.values() for m, _ in recs}
        for name in ("quantize.range_candidates_per_spec",
                     "evaluation.fresh_search_share"):
            self.per_run[name] = []
        self.phase_ms: list[float] = []
        self.task_ms: list[float] = []
        self.task_busy_ms = 0.0
        self.matmul_flop = 0.0
        self.matmul_ms = 0.0

    def add(self, spans: list[list]) -> None:
        """Fold in the spans of one traced ``cli.main`` call."""
        n = self.rounds
        rounds = {m: [0.0] * n for m in self.per_round}
        run = {m: 0.0 for m in self.per_run}
        lo, hi = [None] * n, [None] * n
        candidates, configs, fresh = 0, 0, set()
        for rec in spans:
            name, r = rec[NAME], rec[ROUND]
            for metric, field in _PER_RUN.get(name, ()):
                run[metric] += field(rec)
            if name == "quantize.candidate" and rec[PARENT] is not None \
                    and rec[PARENT][NAME] == "quantize.range_search":
                candidates += 1
            elif name == "evaluation.quantize_for_eval":
                configs += 1
            elif name == "quantize.range_search":
                parent = rec[PARENT]
                while parent is not None and parent[NAME] != "evaluation.quantize_for_eval":
                    parent = parent[PARENT]
                if parent is not None:
                    fresh.add(id(parent))
            if not 0 <= r < n:
                continue
            for metric, field in _PER_ROUND.get(name, ()):
                rounds[metric][r] += field(rec)
            if name == "strategies.local_train":
                lo[r] = rec[START] if lo[r] is None else min(lo[r], rec[START])
                hi[r] = rec[END] if hi[r] is None else max(hi[r], rec[END])
                self.task_ms.append(_ms(rec))
                self.task_busy_ms += _ms(rec)
            elif name == "tensors.matmul":
                self.matmul_flop += rec[AUX]
                self.matmul_ms += _ms(rec)
        searches = run["quantize.range_search_calls"]
        run["quantize.range_candidates_per_spec"] = candidates / searches if searches else 0.0
        run["evaluation.fresh_search_share"] = len(fresh) / configs if configs else 0.0
        for metric, values in rounds.items():
            self.per_round[metric].extend(values)
        for metric, value in run.items():
            self.per_run[metric].append(value)
        self.phase_ms.extend((b - a) * 1e3 for a, b in zip(lo, hi) if a is not None)

    def metrics(self) -> dict[str, float]:
        out = {m: statistics.median(v) for m, v in self.per_round.items()}
        out.update({m: statistics.median(v) for m, v in self.per_run.items()})
        out["tensors.matmul_gflop_per_round"] /= 1e9
        out["federation.client_phase_ms_per_round"] = statistics.median(self.phase_ms)
        out["federation.pool_busy_share"] = \
            self.task_busy_ms / (self.threads * sum(self.phase_ms))
        out["strategies.local_train_ms_p50"] = statistics.median(self.task_ms)
        out["tensors.matmul_gflops"] = \
            self.matmul_flop / 1e9 / (self.matmul_ms / 1e3) if self.matmul_ms else 0.0
        return out
