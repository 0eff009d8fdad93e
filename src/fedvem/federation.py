"""Server/client protocol for confidence-weighted personalized training.

Each round the server draws a binomial subset of reporters from the round's
own stream (``select_reporters``, every scheme's draw) and broadcasts the
latent head w, the shared base theta and the reporter ids.  Every client
recomputes its confidence and trains its head posterior by full-batch
gradient descent on the Monte-Carlo objective: stragglers fit their heads
too, because the posterior feeds their next confidence and their PM
accuracy.  The heads of ``HEAD_GROUP`` clients at a time form one stack
(``update_clients``): one confidence pass gives each client's tau, Tr(Sigma)
and deviation, then one fit trains the stack; rows never mix, so a client's
confidence and fit do not depend on its group.  Only reporters then train a
base copy by mini-batch SGD (``nn.sgd_epochs``, a group of one), since only
an uploaded base is ever read.  A reporter sends its head mean, the flat
base row that ``sgd_epochs`` returns and its confidence as wire bytes
(``serialize_upload``), built where the client runs.  The server weights
reporter heads by confidence and reporter bases by data size: as each
upload arrives, one weighted fold (``aggregate_base``, the baselines' fold
too) adds its flat head and base into two sums, each divided once.

A round reads ``GlobalState`` (w, theta and t: what a checkpoint holds) and
its reporter ids.  A client's state is its head posterior and confidence,
which ``init_state`` sets to 1/rho0^2 for round 0; its upload lives only
within a round.  Per-(seed, round, client) random streams make results
independent of worker scheduling and grouping; client updates within a
round may run on a process pool whose workers hold all clients' rows
(``client_pool``), one job per head group carrying the state, the reporter
ids and the run config, and exit with the seed process.  Uploads and
checkpoints hold ``nn.flatten``'s layout as little-endian float64
(``_f64``), read back with ``nn.unflatten``.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics, rng as rng_mod
from .data import Dataset, Partition, client_rows, pm_test_indices
from .nn import (InputError, Layer, flatten, forward_base, head_logits,
                 init_mlp, sgd_epochs, unflatten, unflatten_head)
from .variational import (IsotropicPrior, PosteriorError,
                          VariationalPosterior, confidence, fit_posterior,
                          head_loss_closure, sample, softplus_inv)

CHECKPOINT_MAGIC = b"FVEM"
CHECKPOINT_VERSION = 1

# Clients whose heads are fitted as one stack, and so the clients in one
# pool job; also the most clients the baselines train as one SGD group
# (``nn.sgd_epochs``), which bounds its (G, P) model and gradient buffers.
# On the drift50 shape, past 10 memory grows for no clear speed: peak RSS
# rose 1.6 % at 10, 2.9 % at 17 and 9 % at 50 over one at a time; a fit
# step took 77-117, 76-85, 69-88, 68-93 us a client at 5/10/25/50.
HEAD_GROUP = 10


class TrainingError(RuntimeError):
    """Numeric failure during a round; names the round and client."""


@dataclass(frozen=True)
class TrainConfig:
    """The run config every scheme reads.

    ``T``, ``s``, ``seed`` and ``hidden`` are shared with the baselines; the
    other fields are pFedVEM's own.
    """
    T: int = 100                 # communication rounds
    R: int = 10                  # local head epochs (full-batch GD steps)
    K: int = 5                   # MC samples per head step
    eta: float = 1e-3            # head learning rate
    base_lr: float = 1e-2        # base-model SGD rate
    base_epochs: int = 5
    base_batch: int = 50
    s: float = 0.1               # per-client reporting probability
    rho0_sq: float = 0.1         # initial prior variance
    confidence_mode: str = "full"
    seed: int = 0
    hidden: tuple = (100,)

    def violations(self) -> list[str]:
        out = []
        if not 0 < self.s <= 1:
            out.append(f"train.s: must satisfy 0 < s <= 1, got {self.s}")
        if self.K < 1:
            out.append(f"train.K: must be >= 1, got {self.K}")
        if self.R < 1:
            out.append(f"train.R: must be >= 1, got {self.R}")
        if self.rho0_sq <= 0:
            out.append(f"train.rho0_sq: must be positive, got {self.rho0_sq}")
        if self.T < 0:
            out.append(f"train.T: must be >= 0, got {self.T}")
        if self.eta < 0:
            out.append(f"train.eta: must be >= 0, got {self.eta}")
        if self.base_lr < 0:
            out.append(f"train.base_lr: must be >= 0, got {self.base_lr}")
        if self.base_epochs < 0:
            out.append("train.base_epochs: must be >= 0")
        if self.base_batch < 1:
            out.append("train.base_batch: must be >= 1")
        if self.confidence_mode not in ("full", "uncertainty_only", "deviation_only"):
            out.append(
                f"train.confidence_mode: unknown mode {self.confidence_mode!r}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            out.append("model.hidden: need at least one hidden layer, "
                       f"all widths positive, got {self.hidden}")
        return out


@dataclass
class GlobalState:
    w: np.ndarray          # latent head vector
    theta: list[Layer]     # shared base model
    t: int = 0


@dataclass
class ClientState:
    id: int
    posterior: VariationalPosterior
    tau: float


Rows = list[tuple[np.ndarray, np.ndarray]]   # rows[j] = client j's (x, y)
# a client's new state and its wire-format upload, None unless it reports
Update = tuple[ClientState, bytes | None]


def select_reporters(cfg: TrainConfig, t: int, n_clients: int) -> np.ndarray:
    """Round t's reporters, drawn from the round's own stream: each client
    reports independently with probability ``cfg.s``."""
    if not 0 <= cfg.s <= 1:
        raise InputError(f"reporting probability must lie in [0, 1], got {cfg.s}")
    rng = rng_mod.stream(cfg.seed, rng_mod.TAG_REPORTERS, t)
    return np.flatnonzero(rng.random(n_clients) < cfg.s)


def aggregate_heads(heads: np.ndarray, taus: list[float]) -> np.ndarray:
    """Confidence-weighted mean of the reporter head means, from their
    ``aggregate_base`` fold ``heads`` weighted by the confidences ``taus``."""
    if not taus:
        raise InputError("no reporters to aggregate")
    return heads / np.sum(taus)


def aggregate_base(sums: np.ndarray | None, vec: np.ndarray,
                   weight: float) -> np.ndarray:
    """One step of a weighted sum over flat vectors, ``sums + weight * vec``
    from 0 when ``sums`` is None, as ``sum`` runs it: reporter bases
    (``nn.flatten``'s layout) by data size, reporter heads by confidence."""
    return (0 if sums is None else sums) + weight * vec


def update_clients(group: list[ClientState], rows: Rows, globals_: GlobalState,
                   reporters: frozenset[int], cfg: TrainConfig) -> list[Update]:
    """One round of local work for one head group against the freshly
    received (w, theta).

    Order per the protocol: the group's confidences are recomputed against
    the new w in one pass on its posterior stack (round 0 keeps the stored
    tau, which ``init_state`` sets to 1/rho0^2), and the stack trains for R
    full-batch steps, each client on its own (seed, round, client) stream;
    then each client in ``reporters`` trains its base copy
    (``client_update``) on the rest of that stream and uploads it in the
    wire format.
    """
    rngs = [rng_mod.stream(cfg.seed, rng_mod.TAG_CLIENT, globals_.t, c.id)
            for c in group]
    return [(c, serialize_upload(c.posterior.mu, c.tau, client_update(
                c, globals_, cfg, rng, *rows[c.id]))
             if c.id in reporters else None)
            for c, rng in zip(_fit_heads(group, rows, globals_, cfg, rngs),
                              rngs)]


def _fit_heads(group: list[ClientState], rows: Rows, globals_: GlobalState,
               cfg: TrainConfig, rngs: list[np.random.Generator],
               ) -> list[ClientState]:
    """The group's confidences, one ``confidence`` call on its posterior
    stack (round 0 keeps the stored tau), and its head posteriors, that
    stack fitted as one."""
    post = VariationalPosterior(np.stack([c.posterior.mu for c in group]),
                                np.stack([c.posterior.pi for c in group]))
    taus = ([c.tau for c in group] if globals_.t == 0 else confidence(
        post, globals_.w, mode=cfg.confidence_mode).tau.tolist())
    closure = head_loss_closure(
        [forward_base(globals_.theta, rows[c.id][0]) for c in group],
        [rows[c.id][1] for c in group])
    try:
        post = fit_posterior(post, IsotropicPrior(globals_.w, np.array(taus)),
                             closure, steps=cfg.R, lr=cfg.eta, K=cfg.K,
                             rngs=rngs)
    except PosteriorError as exc:
        raise TrainingError(f"round {globals_.t}, client "
                            f"{group[exc.row].id}: {exc}") from exc
    return [ClientState(c.id, VariationalPosterior(mu, pi), tau)
            for c, mu, pi, tau in zip(group, post.mu, post.pi, taus)]


def client_update(client: ClientState, globals_: GlobalState, cfg: TrainConfig,
                  rng: np.random.Generator, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """A reporter's flat base for upload, trained after its head fit: the
    broadcast base by mini-batch SGD on the client's rows ``x``, ``y``, with
    the head held as a draw from the client's fitted posterior per
    mini-batch.  ``rng`` is the client's stream after the head fit's draws."""
    post = client.posterior
    try:
        return sgd_epochs(
            globals_.theta, [(x, y)], cfg.base_lr, cfg.base_epochs,
            cfg.base_batch, [rng], heads=lambda _: sample(
                post, rng.standard_normal(post.d))[None])[0]
    except FloatingPointError as exc:
        raise TrainingError(
            f"round {globals_.t}, client {client.id}: {exc}") from exc


_ROWS: Rows = []   # in a client_pool worker: every client's rows


def _update_worker(group: list[ClientState], globals_: GlobalState,
                   reporters: frozenset[int], cfg: TrainConfig) -> list[Update]:
    """Pool job: ``update_clients`` of one head group on this worker's rows."""
    if not _ROWS:
        raise RuntimeError("pool worker holds no client rows; use client_pool")
    return update_clients(group, _ROWS, globals_, reporters, cfg)


def _init_worker(rows, errstate) -> None:
    _ROWS[:] = rows
    np.seterr(**errstate)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """Ends this worker once ``parent`` is gone: a seed process killed by
    SIGKILL never shuts its pool down."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def client_pool(rows: Rows, workers: int) -> ProcessPoolExecutor:
    """A pool whose workers hold every client's rows (forked ones inherit
    them, spawned ones get them pickled once) and the caller's error state,
    and exit within a second of the seed process."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(rows, np.geterr()))


def _f64(*parts) -> bytes:
    """The parts, each flat, concatenated as little-endian float64 bytes."""
    return np.concatenate(parts, dtype="<f8").tobytes()


def serialize_upload(mu: np.ndarray, tau: float, base: np.ndarray) -> bytes:
    """Reporter payload: head mean, flat base, then exactly one scalar."""
    return _f64(mu, base, [tau])


def deserialize_upload(buf: bytes, d: int,
                       n_base: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Inverse of ``serialize_upload`` for a head of ``d`` and a base of
    ``n_base`` parameters: views of the head mean and the flat base, and
    the confidence."""
    expected = 8 * (d + n_base + 1)
    if len(buf) != expected:
        raise InputError(f"upload payload is {len(buf)} bytes, expected {expected}")
    vec = np.frombuffer(buf, dtype="<f8")
    return vec[:d], float(vec[-1]), vec[d:-1]


def run_round(globals_: GlobalState, clients: list[ClientState], rows: Rows,
              cfg: TrainConfig, pool: ProcessPoolExecutor | None = None,
              ) -> tuple[GlobalState, list[ClientState], np.ndarray]:
    """Execute one communication round; returns (state, clients, reporter ids).

    The round's reporter ids go with ``globals_`` to every head group, in
    process or as one pool job per group, and the updates are walked in
    client order as they arrive.  Each reporter's upload arrives in the
    wire format, goes into the server's sums and is then let go.
    """
    reporters = select_reporters(cfg, globals_.t, len(clients))
    ids = frozenset(reporters.tolist())
    d = globals_.w.size
    n_base = sum(w.size + b.size for w, b in globals_.theta)
    new_clients, taus, heads, sums = [], [], None, None
    groups = [clients[start:start + HEAD_GROUP]
              for start in range(0, len(clients), HEAD_GROUP)]
    try:
        if pool is None:
            results = (update_clients(g, rows, globals_, ids, cfg)
                       for g in groups)
        else:
            # each job's future is dropped once the fold reaches it
            futures = deque(pool.submit(_update_worker, g, globals_, ids, cfg)
                            for g in groups)
            results = (futures.popleft().result() for _ in groups)
        for c, upload in (u for group in results for u in group):
            if upload is not None:
                mu, tau, base = deserialize_upload(upload, d, n_base)
                taus.append(tau)
                heads = aggregate_base(heads, mu, tau)
                sums = aggregate_base(sums, base, len(rows[c.id][1]))
            new_clients.append(c)
    except BrokenProcessPool as exc:
        raise TrainingError(
            f"round {globals_.t}: worker pool failed: {exc}") from exc

    w, theta = globals_.w, globals_.theta   # no reporters: carried over
    if len(reporters):
        w = aggregate_heads(heads, taus)
        total = float(sum(len(rows[j][1]) for j in reporters))
        theta = unflatten(sums / total, [wl.shape for wl, _ in theta])
    return GlobalState(w=w, theta=theta, t=globals_.t + 1), new_clients, reporters


def init_state(cfg: TrainConfig, train_ds: Dataset, partition: Partition,
               ) -> tuple[GlobalState, list[ClientState], Rows]:
    """Every scheme's seeded start: the state, client posteriors and rows
    (``client_rows``); ``InputError`` names every ``cfg`` violation."""
    bad = cfg.violations()
    if bad:
        raise InputError("; ".join(bad))
    rng = rng_mod.stream(cfg.seed, rng_mod.TAG_INIT)
    *base, head = init_mlp(train_ds.input_dim, tuple(cfg.hidden),
                           train_ds.classes, rng)
    w0 = flatten([head])
    pi0 = float(softplus_inv(np.sqrt(cfg.rho0_sq)))
    rows = [client_rows(train_ds, idx) for idx in partition.client_indices]
    clients = [ClientState(j, VariationalPosterior(w0.copy(),
                                                   np.full(w0.size, pi0)),
                           1.0 / cfg.rho0_sq) for j in range(len(rows))]
    return GlobalState(w=w0, theta=base, t=0), clients, rows


def _round_report(globals_: GlobalState, clients: list[ClientState],
                  sizes: list[int], test_ds: Dataset, pm_idx: list[np.ndarray],
                  reporters: np.ndarray) -> metrics.RoundReport:
    """``sizes[j]``, ``pm_idx[j]``: client j's row count, PM test indices."""
    features = forward_base(globals_.theta, test_ds.images)
    width = features.shape[1]

    def head_acc(head_vec, idx):
        logits = head_logits(features[idx], unflatten_head(head_vec, width))
        return metrics.hit_rate(logits, test_ds.labels[idx])

    pm = [head_acc(c.posterior.mu, idx) if len(idx) else None
          for c, idx in zip(clients, pm_idx)]
    return metrics.round_report(
        globals_.t - 1, head_acc(globals_.w, slice(None)), pm, sizes,
        len(reporters), *metrics.stats_snapshot(clients, globals_.w))


def run_training(cfg: TrainConfig, train_ds: Dataset, test_ds: Dataset,
                 partition: Partition,
                 on_round: Callable[[metrics.RoundReport, GlobalState,
                                     list[ClientState]], None],
                 workers: int = 1) -> tuple[GlobalState, list[ClientState]]:
    """Full T-round protocol with per-round evaluation; returns the final
    state and clients.

    ``on_round(report, globals_, clients)`` receives every round's report
    and state as the round ends, e.g. to write it out or checkpoint.
    """
    globals_, clients, rows = init_state(cfg, train_ds, partition)
    pm_idx = [pm_test_indices(partition, test_ds, c.id) for c in clients]
    # one job per head group: more workers than groups would sit idle
    with (client_pool(rows, min(workers, -(-len(rows) // HEAD_GROUP)))
          if workers > 1 else contextlib.nullcontext()) as pool:
        for _ in range(cfg.T):
            globals_, clients, reporters = run_round(globals_, clients, rows,
                                                     cfg, pool)
            on_round(_round_report(globals_, clients, partition.sizes,
                                   test_ds, pm_idx, reporters),
                     globals_, clients)
    return globals_, clients


def write_checkpoint(path, globals_: GlobalState,
                     clients: list[ClientState]) -> None:
    """Binary snapshot: header + little-endian f64 payload.

    Layout: magic "FVEM", version u32, d u32, J u32, base layer count u32,
    per-layer (out, in) u32 pairs, round u64, then w, theta (``nn.flatten``:
    row-major W then b per layer), and per client mu, pi, tau.  The file is written
    beside ``path`` and renamed over it, so an interrupted write never
    leaves a partial checkpoint under ``path``.
    """
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IIII", CHECKPOINT_VERSION, globals_.w.size,
                            len(clients), len(globals_.theta)))
        for w, _ in globals_.theta:
            f.write(struct.pack("<II", *w.shape))
        f.write(struct.pack("<Q", globals_.t))
        f.write(_f64(globals_.w, flatten(globals_.theta)))
        for c in clients:   # one client at a time: no buffer of all J
            f.write(_f64(c.posterior.mu, c.posterior.pi, [c.tau]))
    os.replace(tmp, path)


def read_checkpoint(path) -> tuple[GlobalState, list[ClientState]]:
    """Inverse of write_checkpoint: the global state and every client's.

    Raises InputError naming ``path`` unless the file is exactly as long as
    its header says.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: bad checkpoint magic")
    try:
        version, d, n_clients = struct.unpack_from("<III", raw, 4)
        if version != CHECKPOINT_VERSION:
            raise InputError(f"{path}: unsupported checkpoint version {version}")
        (n_layers,) = struct.unpack_from("<I", raw, 16)
        shapes = [struct.unpack_from("<II", raw, 20 + 8 * k)
                  for k in range(n_layers)]
        offset = 20 + 8 * n_layers
        (t,) = struct.unpack_from("<Q", raw, offset)
    except struct.error as exc:
        raise InputError(f"{path}: truncated checkpoint header") from exc
    offset += 8
    n_theta = sum(o * i + o for o, i in shapes)
    size = offset + 8 * (d + n_theta + n_clients * (2 * d + 1))
    if len(raw) != size:
        raise InputError(f"{path}: checkpoint holds {len(raw)} bytes, its "
                         f"header implies {size}")
    vec = np.frombuffer(raw, dtype="<f8", offset=offset).copy()
    theta = unflatten(vec[d:d + n_theta], shapes)
    rows = vec[d + n_theta:].reshape(n_clients, 2 * d + 1)
    clients = [ClientState(j, VariationalPosterior(r[:d], r[d:-1]),
                           float(r[-1])) for j, r in enumerate(rows)]
    return GlobalState(w=vec[:d], theta=theta, t=int(t)), clients
