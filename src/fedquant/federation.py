"""Server loop: client sampling, broadcast, aggregation, server optimizer.

One round samples a client subset, runs each client's local training on a
copy of the global parameters, averages the returned deltas in sorted client
order and applies the server optimizer (plain SGD or Adam with bias
correction). Everything is keyed off counter-based streams, so the loop is a
pure function of (config, strategy, data, seed) and client execution may be
parallelized freely without changing a single bit of the result.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Batch, Dataset, FederatedDataset
from .errors import AggregationError, ConfigError, DivergedError, ShapeError
from .mlp import ParamSet, init_params, predict_logits, score
from .quantize import QuantSpec, StepTable
from .rng import Purpose, RngStream
from .strategies import (ClientTask, ClientUpdate, StepTables, StrategyConfig,
                         build_plan, calibrate_steps, local_train, resolve_bits)

CHECKPOINT_MAGIC = "fedquant.checkpoint"
CHECKPOINT_VERSION = 1

# Smallest model (parameter count) whose clients train on a thread pool. A
# small model's client step holds the GIL for most of its time, so pooled
# threads only take turns at it. ms/round, serial / 2 threads, of 20-round
# runs on the wide-apqn data (10 of 100 clients, 4 steps of 50 samples), on
# a 2-core machine with single-threaded BLAS; median of 5 alternating pairs
# (3 for the two smallest models):
#   params (MLP)            mqat            apqn
#    2,762 (32-64-10)      13.7 / 30.3     21.5 / 36.7
#   22,026 (32-128-128-10) 42.1 / 49.6     54.2 / 67.7
#   32,650 (32-160-160-10) 55.8 / 50.8     54.4 / 66.8
#   45,322 (32-192-192-10) 68.6 / 59.8     78.7 / 69.4
#   60,042 (32-224-224-10) 92.2 / 65.6     89.6 / 80.1
#   76,810 (32-256-256-10) 102.7 / 80.1    115.1 / 91.4
# With the trend data's 2 steps of 20 samples, serial wins at every size up
# to 76,810 (apqn 51.8 / 60.7).
POOL_MIN_PARAMS = 50_000


@dataclass
class FedConfig:
    """Round schedule, learning rates and server optimizer settings.

    ``local_steps=None`` means one local epoch per round: each client runs
    ceil(len(local data) / batch_size) SGD steps.
    """

    total_rounds: int = 100
    num_clients: int = 100
    clients_per_round: int = 10
    eta_s: float = 1.0
    eta_c: float = 0.05
    local_steps: int | None = None
    batch_size: int = 20
    server_opt: str = "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-8
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self):
        if self.total_rounds < 1:
            raise ConfigError("total_rounds must be >= 1")
        if not (1 <= self.clients_per_round <= self.num_clients):
            raise ConfigError("need 1 <= clients_per_round <= num_clients")
        if not (self.eta_s > 0 and self.eta_c > 0):
            raise ConfigError("learning rates must be positive")
        if self.local_steps is not None and self.local_steps < 1:
            raise ConfigError("local_steps must be >= 1 when set")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.server_opt not in ("sgd", "adam"):
            raise ConfigError(f"unknown server optimizer {self.server_opt!r}")
        if self.server_opt == "adam" and not self.adam_eps > 0:
            raise ConfigError("adam_eps must be positive")
        if self.server_opt == "adam" and not (0 <= self.adam_beta1 < 1
                                              and 0 <= self.adam_beta2 < 1):
            raise ConfigError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")


@dataclass
class ServerState:
    """Global parameters plus optimizer moments and calibrated step tables."""

    round_idx: int
    params: ParamSet
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    step_tables: StepTables | None = None


@dataclass
class HistoryRow:
    round_idx: int
    val_accuracy: float
    val_loss: float
    mean_client_loss: float


@dataclass
class TrainingHistory:
    rows: list[HistoryRow] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("round,val_accuracy,val_loss,mean_client_loss\n")
            for r in self.rows:
                fh.write(f"{r.round_idx},{r.val_accuracy!r},{r.val_loss!r},"
                         f"{r.mean_client_loss!r}\n")


def sample_clients(num_clients: int, subset_size: int, rng: RngStream) -> np.ndarray:
    """``subset_size`` distinct ids, uniform without replacement, sorted."""
    if not (1 <= subset_size <= num_clients):
        raise ConfigError(f"cannot sample {subset_size} of {num_clients} clients")
    perm = rng.permutation(num_clients)
    return np.sort(perm[:subset_size])


def aggregate(updates: list[ClientUpdate]) -> np.ndarray:
    """Unweighted mean of deltas, summed in sorted client-id order."""
    if not updates:
        raise AggregationError("no client updates to aggregate")
    ordered = sorted(updates, key=lambda u: u.client_id)
    dim = ordered[0].delta.shape
    total = np.zeros(dim, dtype=np.float64)
    for u in ordered:
        if u.delta.shape != dim:
            raise AggregationError(
                f"client {u.client_id} delta shape {u.delta.shape} != {dim}")
        total += u.delta
    return total / len(ordered)


def server_step(state: ServerState, delta: np.ndarray, cfg: FedConfig) -> ServerState:
    """Apply the aggregated delta with the configured server optimizer."""
    flat = state.params.vec
    if delta.shape != flat.shape:
        raise AggregationError("aggregated delta does not match parameter count")
    if cfg.server_opt == "sgd":
        new_flat = flat + cfg.eta_s * delta
        m, v = state.adam_m, state.adam_v
    else:
        t = state.round_idx + 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        m = b1 * state.adam_m + (1.0 - b1) * delta
        v = b2 * state.adam_v + (1.0 - b2) * delta * delta
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_flat = flat + cfg.eta_s * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    if not np.all(np.isfinite(new_flat)):
        raise DivergedError("server update produced non-finite parameters",
                            round_idx=state.round_idx)
    return ServerState(round_idx=state.round_idx + 1,
                       params=state.params.unflatten(new_flat),
                       adam_m=m, adam_v=v, step_tables=state.step_tables)


def make_calibration_batch(train: Dataset, batch_size: int, root: RngStream) -> Batch:
    """Server-held batch used for activation range calibration."""
    stream = root.child(Purpose.CALIBRATION)
    take = min(batch_size, train.size)
    idx = stream.permutation(train.size)[:take]
    return Batch(train.inputs[idx], train.labels[idx])


def client_batches(data: Dataset, indices: np.ndarray, steps: int,
                   batch_size: int, rng: RngStream) -> list[Batch]:
    """Shuffle the client's indices once, then slice cyclically per step."""
    perm = indices[rng.permutation(indices.size)]
    take = min(batch_size, perm.size)
    # one gather for all steps; step k takes rows k * take .. (k + 1) * take - 1
    sel = np.take(perm, np.arange(steps * take), mode="wrap")
    inputs, labels = data.inputs[sel], data.labels[sel]
    return [Batch(inputs[lo:lo + take], labels[lo:lo + take])
            for lo in range(0, steps * take, take)]


def _resolve_local_steps(cfg: FedConfig, n_local: int) -> int:
    if cfg.local_steps is not None:
        return cfg.local_steps
    return max(1, math.ceil(n_local / cfg.batch_size))


def evaluate_global(params: ParamSet, dataset: Dataset) -> tuple[float, float]:
    """Full-precision ``mlp.score`` (accuracy, loss) of ``params`` on ``dataset``."""
    return score(predict_logits(params, dataset.inputs), dataset.labels)


def init_state(cfg: FedConfig, strat: StrategyConfig, data: FederatedDataset,
               hidden: tuple[int, ...]) -> ServerState:
    """Round-0 state: He-initialised parameters, the step tables calibrated on
    them (quantizing strategies only) and zero Adam moments (Adam only)."""
    if data.num_clients != cfg.num_clients:
        raise ConfigError(f"config expects {cfg.num_clients} clients, "
                          f"dataset has {data.num_clients}")
    train = data.base
    root = RngStream(cfg.seed)
    widths = [train.inputs.shape[1], *hidden, train.num_classes]
    params = init_params(widths, root.child(Purpose.INIT))
    calib_batch = make_calibration_batch(train, cfg.batch_size, root)
    tables = None
    if strat.quantizing:
        tables = calibrate_steps(params, strat.relevant_bits(), calib_batch,
                                 strat.quantize_acts)
    adam = cfg.server_opt == "adam"
    return ServerState(round_idx=0, params=params,
                       adam_m=np.zeros(params.dim) if adam else None,
                       adam_v=np.zeros(params.dim) if adam else None,
                       step_tables=tables)


def step_round(state: ServerState, cfg: FedConfig, strat: StrategyConfig,
               data: FederatedDataset, root: RngStream,
               map_clients=map) -> tuple[ServerState, list[ClientUpdate]]:
    """Run round ``state.round_idx``: sample clients, build each one's
    ``ClientTask`` (batches, bit-width, the plan ``build_plan`` makes from
    ``state.step_tables`` and, if that plan draws noise, a noise stream) and
    train it from the global parameters, aggregate, server step.

    ``map_clients(run_client, ids)`` returns the updates in ``ids`` order
    (builtin ``map`` trains one client after another, a pool's ``map`` in
    parallel). Every client stream derives from ``root``, the run's
    ``RngStream(cfg.seed)``, so the order clients run in cannot change the result.
    """
    t = state.round_idx
    train = data.base
    selected = sample_clients(cfg.num_clients, cfg.clients_per_round,
                              root.child(Purpose.CLIENT_SAMPLING, t))

    def run_client(client_id: int) -> ClientUpdate:
        indices = data.assignment[client_id]
        steps = _resolve_local_steps(cfg, indices.size)
        batch_rng = root.child(Purpose.BATCH, t, client_id)
        bits = resolve_bits(strat, t, client_id, root)
        plan = build_plan(strat, state.step_tables, bits)
        return local_train(ClientTask(
            client_id=client_id, round_idx=t, start_params=state.params,
            plan=plan, eta_c=cfg.eta_c,
            batches=client_batches(train, indices, steps, cfg.batch_size, batch_rng),
            bits=bits,
            # a path of four entries, as the recorded apqn digests were drawn on
            noise_rng=(root.child(Purpose.NOISE, t, client_id, Purpose.NOISE)
                       if plan.needs_rng else None)),
            strat)

    updates = list(map_clients(run_client, [int(cid) for cid in selected]))
    return server_step(state, aggregate(updates), cfg), updates


def run(cfg: FedConfig, strat: StrategyConfig, data: FederatedDataset,
        hidden: tuple[int, ...], threads: int = 1,
        progress=None) -> tuple[ServerState, TrainingHistory]:
    """Execute the full round loop; deterministic for a given cfg.seed.

    ``progress`` is an optional callback(round_idx, HistoryRow) fired at each
    evaluation round. ``threads`` bounds the client thread pool, which runs
    only for models of at least ``POOL_MIN_PARAMS`` parameters (``step_round``
    gets its ``map``, else builtin ``map``); the result is independent of the
    thread count by construction.
    """
    state = init_state(cfg, strat, data, hidden)
    root = RngStream(cfg.seed)
    history = TrainingHistory()
    pool, map_clients = None, map
    if threads > 1 and state.params.dim >= POOL_MIN_PARAMS:
        pool = ThreadPoolExecutor(max_workers=threads)
        map_clients = pool.map
    try:
        for t in range(cfg.total_rounds):
            state, updates = step_round(state, cfg, strat, data, root,
                                        map_clients)
            if (t + 1) % cfg.eval_every == 0 or t == cfg.total_rounds - 1:
                acc, loss = evaluate_global(state.params, data.holdout)
                client_loss = float(np.mean(
                    [u.local_loss_trace[-1] for u in updates]))
                row = HistoryRow(round_idx=t + 1, val_accuracy=acc,
                                 val_loss=loss, mean_client_loss=client_loss)
                history.rows.append(row)
                if progress is not None:
                    progress(t + 1, row)
    finally:
        if pool is not None:
            # a diverging client must not leave the round's queued clients
            # training in the background
            pool.shutdown(wait=False, cancel_futures=True)
    return state, history


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable config document."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _tables_to_json(tables: StepTables | None):
    if tables is None:
        return None
    return {
        "weights": [{str(b): s for b, s in t.steps.items()} for t in tables.weights],
        "acts": None if tables.acts is None else
                [{str(b): s for b, s in t.steps.items()} for t in tables.acts],
    }


def _tables_from_json(obj) -> StepTables | None:
    if obj is None:
        return None
    def parse(entries):
        return [StepTable({int(b): float(s) for b, s in e.items()}) for e in entries]
    return StepTables(weights=parse(obj["weights"]),
                      acts=None if obj["acts"] is None else parse(obj["acts"]))


# Values the checkpoint writer encodes at a time (one row, if a row holds
# more): its Python floats and their text stay under about half a MiB.
WRITE_VALUES = 4096


def _write_array(fh, arr: np.ndarray) -> None:
    """Write ``json.dumps(arr.tolist())``, encoding at most ``WRITE_VALUES``
    values (or one row of a matrix) at a time with the C encoder."""
    rows = max(1, WRITE_VALUES // max(1, math.prod(arr.shape[1:])))
    fh.write("[")
    for lo in range(0, len(arr), rows):
        if lo:
            fh.write(", ")
        fh.write(json.dumps(arr[lo:lo + rows].tolist())[1:-1])
    fh.write("]")


def save_checkpoint(path: str, state: ServerState, config: dict) -> None:
    """Versioned JSON container for a ServerState plus its experiment config.

    The file holds the bytes of ``json.dumps(doc) + "\n"`` for the document
    ``{"magic", "version", "round", "config_hash", "config", "widths",
    "layers": [{"weight", "bias"}, ...], "adam_m", "adam_v", "step_tables"}``,
    written in order without building it: the head up to ``widths`` in one
    ``json.dumps``, each weight, bias and Adam vector through
    ``_write_array``, then the step tables. So the writer holds a few
    thousand values as Python floats and text, not every parameter.
    """
    head = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "round": state.round_idx,
        "config_hash": config_hash(config),
        "config": config,
        "widths": state.params.widths,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1])
        fh.write(', "layers": [')
        for l, (w, b) in enumerate(state.params.layers):
            fh.write(', {"weight": ' if l else '{"weight": ')
            _write_array(fh, w)
            fh.write(', "bias": ')
            _write_array(fh, b)
            fh.write("}")
        fh.write("]")
        for name, vec in (("adam_m", state.adam_m), ("adam_v", state.adam_v)):
            fh.write(f', "{name}": ')
            if vec is None:
                fh.write("null")
            else:
                _write_array(fh, vec)
        fh.write(', "step_tables": ')
        fh.write(json.dumps(_tables_to_json(state.step_tables)))
        fh.write("}\n")


def _check_restored(state: ServerState, doc: dict) -> None:
    """Raise ConfigError unless ``state`` is one ``save_checkpoint`` could
    have written: a non-negative integer round, ``widths`` matching the
    layers, finite values, Adam vectors of length ``dim`` and one step table
    per weight tensor (and per hidden activation, if any)."""
    if type(doc["round"]) is not int or doc["round"] < 0:
        raise ConfigError(f"round must be a non-negative integer, got {doc['round']!r}")
    params = state.params
    if doc["widths"] != params.widths:
        raise ConfigError(f"widths {doc['widths']!r} do not match the layers "
                          f"({params.widths})")
    if not np.all(np.isfinite(params.vec)):
        raise ConfigError("layers hold non-finite values")
    if (state.adam_m is None) != (state.adam_v is None):
        raise ConfigError("adam_m and adam_v must both be present or both null")
    for name, vec in (("adam_m", state.adam_m), ("adam_v", state.adam_v)):
        if vec is not None and (vec.shape != (params.dim,)
                                or not np.all(np.isfinite(vec))):
            raise ConfigError(f"{name} must be {params.dim} finite numbers")
    tables = state.step_tables
    if tables is None:
        return
    if len(tables.weights) != params.num_layers or (
            tables.acts is not None and len(tables.acts) != params.num_layers - 1):
        raise ConfigError("step_tables need one weight table per layer and one "
                          "activation table per hidden layer")
    for table in tables.weights + (tables.acts or []):
        for bits, step in table.steps.items():
            QuantSpec(bits=bits, step=step)


def load_checkpoint(path: str) -> tuple[ServerState, dict]:
    """Read a checkpoint written by ``save_checkpoint``; any malformed or
    tampered file raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not a JSON checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path} is not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('version')}")
    missing = [k for k in ("round", "config_hash", "config", "widths", "layers",
                           "adam_m", "adam_v", "step_tables") if k not in doc]
    if missing:
        raise ConfigError(f"checkpoint {path} lacks {', '.join(missing)}")
    if config_hash(doc["config"]) != doc["config_hash"]:
        raise ConfigError(f"checkpoint {path}: config does not match its config_hash")
    if not doc["layers"]:
        raise ConfigError(f"checkpoint {path} has no layers")
    try:
        layers = [(np.asarray(l["weight"], dtype=np.float64),
                   np.asarray(l["bias"], dtype=np.float64)) for l in doc["layers"]]
        state = ServerState(
            round_idx=int(doc["round"]),
            params=ParamSet(layers),
            adam_m=None if doc["adam_m"] is None else
                   np.asarray(doc["adam_m"], dtype=np.float64),
            adam_v=None if doc["adam_v"] is None else
                   np.asarray(doc["adam_v"], dtype=np.float64),
            step_tables=_tables_from_json(doc["step_tables"]))
        _check_restored(state, doc)
    except (KeyError, TypeError, ValueError, AttributeError, ShapeError) as exc:
        raise ConfigError(f"checkpoint {path} is malformed: {exc!r}") from exc
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return state, doc["config"]
