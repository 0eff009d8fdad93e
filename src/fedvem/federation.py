"""Server/client protocol for confidence-weighted personalized training.

Each round the server draws a binomial subset of reporters and broadcasts
the latent head w, the shared base theta and the reporter ids.  Every client
recomputes its confidence and trains its head posterior by full-batch
gradient descent on the Monte-Carlo objective: stragglers fit their heads
too, because the posterior feeds their next confidence and their PM
accuracy.  The heads of ``HEAD_GROUP`` clients at a time are fitted as one
stack (``update_clients``); rows never mix, so a client's fit does not
depend on its group.  Only reporters then train a base copy by mini-batch
SGD (``nn.sgd_epochs``), since only an uploaded base is ever read.  The
server aggregates reporter heads by confidence and reporter bases by data
size, adding each upload to its sums as it arrives.

Per-(seed, round, client) random streams make results independent of worker
scheduling and grouping; client updates within a round may run on a process
pool, one head group per job.  Every worker holds all clients' rows
(``client_pool``), so jobs carry no training data.
"""

from __future__ import annotations

import os
import struct
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import metrics, rng as rng_mod
from .data import Dataset, Partition, client_rows, pm_test_indices
from .nn import (InputError, Layer, MlpParams, flatten_head, forward_base,
                 head_logits, init_mlp, sgd_epochs, unflatten_head)
from .variational import (IsotropicPrior, PosteriorError,
                          VariationalPosterior, confidence, fit_posterior,
                          head_loss_closure, sample, softplus_inv)

CHECKPOINT_MAGIC = b"FVEM"
CHECKPOINT_VERSION = 1

# Clients whose heads are fitted as one stack, and so the clients in one
# pool job.  Memory grows with the group: on the drift50 benchmark shape
# peak RSS rose 1.6 % at 10, 2.9 % at 17 and 9 % at all 50 clients over one
# client at a time, and 17 ran no faster than 10.
HEAD_GROUP = 10


class TrainingError(RuntimeError):
    """Numeric failure during a round; names the round and client."""


@dataclass
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
            out.append(f"TrainConfig.s: must satisfy 0 < s <= 1, got {self.s}")
        if self.K < 1:
            out.append(f"TrainConfig.K: must be >= 1, got {self.K}")
        if self.R < 1:
            out.append(f"TrainConfig.R: must be >= 1, got {self.R}")
        if self.rho0_sq <= 0:
            out.append(f"TrainConfig.rho0_sq: must be positive, got {self.rho0_sq}")
        if self.T < 0:
            out.append(f"TrainConfig.T: must be >= 0, got {self.T}")
        if self.eta < 0:
            out.append(f"TrainConfig.eta: must be >= 0, got {self.eta}")
        if self.base_lr < 0:
            out.append(f"TrainConfig.base_lr: must be >= 0, got {self.base_lr}")
        if self.base_epochs < 0:
            out.append("TrainConfig.base_epochs: must be >= 0")
        if self.base_batch < 1:
            out.append("TrainConfig.base_batch: must be >= 1")
        if self.confidence_mode not in ("full", "uncertainty_only", "deviation_only"):
            out.append(
                f"TrainConfig.confidence_mode: unknown mode {self.confidence_mode!r}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            out.append("TrainConfig.hidden: need at least one hidden layer, "
                       f"all widths positive, got {self.hidden}")
        return out


@dataclass
class GlobalState:
    w: np.ndarray          # latent head vector
    theta: list[Layer]     # shared base model
    t: int = 0
    reporters: frozenset[int] = frozenset()   # ids that upload this round


@dataclass
class ClientState:
    id: int
    x: np.ndarray
    y: np.ndarray
    posterior: VariationalPosterior
    tau: float
    # a reporter's base upload, held from its update until the server adds
    # it; [] otherwise, so every client ``run_round`` returns holds []
    theta_local: list[Layer]

    @property
    def n(self) -> int:
        return len(self.x)


def select_reporters(n_clients: int, s: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Each client reports independently with probability s."""
    if not 0 <= s <= 1:
        raise InputError(f"reporting probability must lie in [0, 1], got {s}")
    return np.flatnonzero(rng.random(n_clients) < s)


def aggregate_heads(mus: list[np.ndarray], taus: list[float]) -> np.ndarray:
    """Confidence-weighted mean of reporter head means."""
    if not mus:
        raise InputError("no reporters to aggregate")
    d = mus[0].size
    if any(mu.size != d for mu in mus):
        raise InputError("reporter head dimensions disagree")
    taus = np.asarray(taus, dtype=float)
    stacked = np.stack(mus)
    return (taus[:, None] * stacked).sum(axis=0) / taus.sum()


def aggregate_base(thetas: list[list[Layer]], ns: list[int]) -> list[Layer]:
    """Data-size-weighted average of reporter base models, per parameter."""
    if not ns:
        raise InputError("no reporters to aggregate")
    total = float(sum(ns))
    if total <= 0:
        raise InputError("total reporter data size must be positive")
    sums = None
    for theta, n in zip(thetas, ns):
        sums = add_base(sums, theta, n)
    return [(sw / total, sb / total) for sw, sb in sums]


def add_base(sums: list[Layer] | None, theta: list[Layer],
             n: int) -> list[Layer]:
    """One step of the weighted base sum: ``sums + n * theta`` per
    parameter, from 0 when ``sums`` is None, as ``sum`` runs it."""
    return [(sw + n * w, sb + n * b) for (sw, sb), (w, b)
            in zip(sums or [(0, 0)] * len(theta), theta)]


def update_clients(clients: list[ClientState], globals_: GlobalState,
                   cfg: TrainConfig) -> list[ClientState]:
    """One round of local work against the freshly received (w, theta).

    Order per the protocol: every client recomputes its confidence against
    the new w (round 0 uses the configured initial variance) and trains its
    head posterior for R full-batch steps, ``HEAD_GROUP`` clients to a
    stack, each on its own (seed, round, client) stream; then each client
    in ``globals_.reporters`` trains its base copy (``client_update``) on
    the rest of that stream.
    """
    out = []
    for start in range(0, len(clients), HEAD_GROUP):
        group = clients[start:start + HEAD_GROUP]
        rngs = [rng_mod.stream(cfg.seed, rng_mod.TAG_CLIENT, globals_.t, c.id)
                for c in group]
        out += [client_update(c, globals_, cfg, rng)
                if c.id in globals_.reporters else c
                for c, rng in zip(_fit_heads(group, globals_, cfg, rngs), rngs)]
    return out


def _fit_heads(group: list[ClientState], globals_: GlobalState,
               cfg: TrainConfig, rngs: list[np.random.Generator],
               ) -> list[ClientState]:
    """The group's confidences and head posteriors, fitted as one stack."""
    if globals_.t == 0:
        taus = [1.0 / cfg.rho0_sq] * len(group)
    else:
        taus = [confidence(c.posterior, globals_.w,
                           mode=cfg.confidence_mode).tau for c in group]
    closure = head_loss_closure(
        [forward_base(globals_.theta, c.x) for c in group],
        [c.y for c in group])
    post = VariationalPosterior(np.stack([c.posterior.mu for c in group]),
                                np.stack([c.posterior.pi for c in group]))
    try:
        post = fit_posterior(post, IsotropicPrior(globals_.w, np.array(taus)),
                             closure, steps=cfg.R, lr=cfg.eta, K=cfg.K,
                             rngs=rngs)
    except PosteriorError as exc:
        raise TrainingError(f"round {globals_.t}, client "
                            f"{group[exc.row].id}: {exc}") from exc
    return [replace(c, posterior=VariationalPosterior(mu, pi), tau=tau)
            for c, mu, pi, tau in zip(group, post.mu, post.pi, taus)]


def client_update(client: ClientState, globals_: GlobalState, cfg: TrainConfig,
                  rng: np.random.Generator) -> ClientState:
    """A reporter's base training, after its head fit: a copy of the
    broadcast base by mini-batch SGD, with the head held as a draw from the
    client's fitted posterior per mini-batch.  ``rng`` is the client's
    stream after the head fit's draws."""
    post = client.posterior
    width = globals_.theta[-1][0].shape[0]
    try:
        theta_local = sgd_epochs(
            MlpParams(base=globals_.theta, head=None), client.x, client.y,
            cfg.base_lr, cfg.base_epochs, cfg.base_batch, rng,
            head=lambda: unflatten_head(
                sample(post, rng.standard_normal(post.d)), width)).base
    except FloatingPointError as exc:
        raise TrainingError(
            f"round {globals_.t}, client {client.id}: {exc}") from exc
    return replace(client, theta_local=theta_local)


_ROWS: list[dict] = []   # in a client_pool worker: each client's x and y


def _update_worker(group: list[ClientState], globals_: GlobalState,
                   cfg: TrainConfig) -> list[ClientState]:
    """Pool job: ``update_clients`` of one head group on this worker's rows."""
    if not _ROWS:
        raise RuntimeError("pool worker holds no client rows; use client_pool")
    out = update_clients([replace(c, **_ROWS[c.id]) for c in group],
                         globals_, cfg)
    return [replace(o, x=c.x, y=c.y)   # the job's zero rows
            for o, c in zip(out, group)]


def _init_worker(rows, errstate) -> None:
    _ROWS[:] = rows
    np.seterr(**errstate)


def client_pool(clients: list[ClientState], workers: int) -> ProcessPoolExecutor:
    """A pool whose workers hold every client's rows (forked ones inherit
    them, spawned ones get them pickled once) and the caller's error state."""
    rows = [dict(x=c.x, y=c.y) for c in clients]
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(rows, np.geterr()))


def serialize_upload(mu: np.ndarray, tau: float, theta: list[Layer]) -> bytes:
    """Reporter payload: head mean + base parameters + exactly one scalar."""
    parts = [np.asarray(mu, dtype="<f8").tobytes()]
    for w, b in theta:
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    parts.append(struct.pack("<d", tau))
    return b"".join(parts)


def deserialize_upload(buf: bytes, d: int,
                       theta_like: list[Layer]) -> tuple[np.ndarray, float, list[Layer]]:
    mu = np.frombuffer(buf, dtype="<f8", count=d).copy()
    offset = 8 * d
    theta = []
    for w, b in theta_like:
        wv = np.frombuffer(buf, dtype="<f8", count=w.size, offset=offset)
        offset += 8 * w.size
        bv = np.frombuffer(buf, dtype="<f8", count=b.size, offset=offset)
        offset += 8 * b.size
        theta.append((wv.reshape(w.shape).copy(), bv.copy()))
    (tau,) = struct.unpack_from("<d", buf, offset)
    if offset + 8 != len(buf):
        raise InputError("upload payload has trailing bytes")
    return mu, tau, theta


def run_round(globals_: GlobalState, clients: list[ClientState],
              cfg: TrainConfig, pool: ProcessPoolExecutor | None = None,
              ) -> tuple[GlobalState, list[ClientState], np.ndarray]:
    """Execute one communication round; returns (state, clients, reporter ids).

    The updates are walked in client order as they arrive, one head group
    at a time, in process or one pool job per group.  Each reporter's
    upload goes through the wire format and into the server's sums, and is
    then let go: the returned clients hold no upload (``theta_local == []``).
    """
    reporters = select_reporters(len(clients), cfg.s,
                                 rng_mod.stream(cfg.seed, rng_mod.TAG_REPORTERS,
                                                globals_.t))
    broadcast = replace(globals_, reporters=frozenset(reporters.tolist()))
    d = globals_.w.size
    new_clients, mus, taus, sums = [], [], [], None
    groups = [clients[start:start + HEAD_GROUP]
              for start in range(0, len(clients), HEAD_GROUP)]
    try:
        if pool is None:
            results = (update_clients(g, broadcast, cfg) for g in groups)
        else:
            # jobs and results carry zero rows, and a result gives only what
            # a round changes: the rows stay the arrays ``init_state`` built;
            # each job's future is dropped once the fold reaches it
            futures = deque(pool.submit(
                _update_worker, [replace(c, x=c.x[:0], y=c.y[:0]) for c in g],
                broadcast, cfg) for g in groups)
            results = (futures.popleft().result() for _ in groups)
        updates = (u for group in results for u in group)
        for c, res in zip(clients, updates):
            if c.id in broadcast.reporters:
                mu, tau, theta = deserialize_upload(serialize_upload(
                    res.posterior.mu, res.tau, res.theta_local), d,
                    globals_.theta)
                mus.append(mu)
                taus.append(tau)
                sums = add_base(sums, theta, c.n)
            new_clients.append(replace(c, posterior=res.posterior, tau=res.tau,
                                       theta_local=[]))
    except BrokenProcessPool as exc:
        raise TrainingError(
            f"round {globals_.t}: worker pool failed: {exc}") from exc

    if len(reporters) == 0:   # the state carries over
        w = globals_.w.copy()
        theta = [(wl.copy(), bl.copy()) for wl, bl in globals_.theta]
    else:
        total = float(sum(new_clients[j].n for j in reporters))
        w = aggregate_heads(mus, taus)
        theta = [(sw / total, sb / total) for sw, sb in sums]
    return GlobalState(w=w, theta=theta, t=globals_.t + 1), new_clients, reporters


def init_state(cfg: TrainConfig, train_ds: Dataset,
               partition: Partition) -> tuple[GlobalState, list[ClientState]]:
    """Seeded parameter initialization and per-client posterior setup."""
    rng = rng_mod.stream(cfg.seed, rng_mod.TAG_INIT)
    params = init_mlp(train_ds.input_dim, tuple(cfg.hidden), train_ds.classes, rng)
    w0 = flatten_head(params.head)
    pi0 = float(softplus_inv(np.sqrt(cfg.rho0_sq)))
    clients = []
    for j, idx in enumerate(partition.client_indices):
        post = VariationalPosterior(mu=w0.copy(), pi=np.full(w0.size, pi0))
        x, y = client_rows(train_ds, idx)
        clients.append(ClientState(id=j, x=x, y=y, posterior=post,
                                   tau=1.0 / cfg.rho0_sq, theta_local=[]))
    return GlobalState(w=w0, theta=params.base, t=0), clients


def _round_report(globals_: GlobalState, clients: list[ClientState],
                  test_ds: Dataset, pm_idx: list[np.ndarray],
                  reporters: np.ndarray) -> metrics.RoundReport:
    """``pm_idx[j]`` holds client j's PM test indices (``pm_test_indices``)."""
    features = forward_base(globals_.theta, test_ds.images)

    def head_acc(head_vec, idx):
        logits = head_logits(features[idx], head_vec)
        return float((logits.argmax(axis=1) == test_ds.labels[idx]).mean())

    gm = head_acc(globals_.w, np.arange(len(test_ds)))
    pm = [head_acc(c.posterior.mu, idx) if len(idx) else None
          for c, idx in zip(clients, pm_idx)]
    ratios, deviations = metrics.stats_snapshot(clients, globals_.w)
    return metrics.RoundReport(
        round=globals_.t - 1,
        gm_accuracy=gm,
        client_ids=[c.id for c in clients],
        client_sizes=[c.n for c in clients],
        pm_accuracies=pm,
        confidence_ratios=ratios.tolist(),
        model_deviations=deviations.tolist(),
        reporter_count=int(len(reporters)),
        no_reporters=len(reporters) == 0,
    )


def run_training(cfg: TrainConfig, train_ds: Dataset, test_ds: Dataset,
                 partition: Partition, workers: int = 1,
                 on_round: Callable[[GlobalState, list[ClientState]], None]
                 | None = None,
                 ) -> tuple[GlobalState, list[ClientState], list[metrics.RoundReport]]:
    """Full T-round protocol with per-round evaluation.

    ``on_round(globals_, clients)`` runs after every round's report, e.g.
    to write a checkpoint.  No client holds an upload between rounds or in
    the result (``run_round``).
    """
    bad = cfg.violations()
    if bad:
        raise InputError("; ".join(bad))
    globals_, clients = init_state(cfg, train_ds, partition)
    pm_idx = [pm_test_indices(partition, test_ds, c.id) for c in clients]
    reports: list[metrics.RoundReport] = []
    pool = None
    if workers > 1:
        pool = client_pool(clients, workers)
    try:
        for _ in range(cfg.T):
            globals_, clients, reporters = run_round(globals_, clients, cfg, pool)
            reports.append(_round_report(globals_, clients, test_ds, pm_idx,
                                         reporters))
            if on_round is not None:
                on_round(globals_, clients)
    finally:
        if pool is not None:
            pool.shutdown()
    return globals_, clients, reports


def write_checkpoint(path, globals_: GlobalState,
                     clients: list[ClientState]) -> None:
    """Binary snapshot: header + little-endian f64 payload.

    Layout: magic "FVEM", version u32, d u32, J u32, base layer count u32,
    per-layer (out, in) u32 pairs, round u64, then w, theta (row-major W
    then b per layer), and per client mu, pi, tau.  The file is written
    beside ``path`` and renamed over it, so an interrupted write never
    leaves a partial checkpoint under ``path``.
    """
    d = globals_.w.size
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<III", CHECKPOINT_VERSION, d, len(clients)))
        f.write(struct.pack("<I", len(globals_.theta)))
        for w, _ in globals_.theta:
            f.write(struct.pack("<II", *w.shape))
        f.write(struct.pack("<Q", globals_.t))
        f.write(np.asarray(globals_.w, dtype="<f8").tobytes())
        for w, b in globals_.theta:
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        for c in clients:
            f.write(np.asarray(c.posterior.mu, dtype="<f8").tobytes())
            f.write(np.asarray(c.posterior.pi, dtype="<f8").tobytes())
            f.write(struct.pack("<d", c.tau))
    os.replace(tmp, path)


def read_checkpoint(path) -> tuple[GlobalState, list[dict]]:
    """Inverse of write_checkpoint; clients come back as plain dicts.

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
        offset = 20
        shapes = []
        for _ in range(n_layers):
            shapes.append(struct.unpack_from("<II", raw, offset))
            offset += 8
        (t,) = struct.unpack_from("<Q", raw, offset)
    except struct.error as exc:
        raise InputError(f"{path}: truncated checkpoint header") from exc
    offset += 8
    size = offset + 8 * (d + sum(o * i + o for o, i in shapes)
                         + n_clients * (2 * d + 1))
    if len(raw) != size:
        raise InputError(f"{path}: checkpoint holds {len(raw)} bytes, its "
                         f"header implies {size}")

    def take(count):
        nonlocal offset
        out = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).copy()
        offset += 8 * count
        return out

    w = take(d)
    theta = []
    for out_dim, in_dim in shapes:
        theta.append((take(out_dim * in_dim).reshape(out_dim, in_dim),
                      take(out_dim)))
    clients = []
    for _ in range(n_clients):
        mu = take(d)
        pi = take(d)
        tau = take(1)[0]
        clients.append({"mu": mu, "pi": pi, "tau": float(tau)})
    return GlobalState(w=w, theta=theta, t=int(t)), clients
