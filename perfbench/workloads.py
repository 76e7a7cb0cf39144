"""The four seeded workloads and the timed loop that runs them.

Every workload serves single-user and batch ``recommend`` requests and
applies writes, interleaved in short rounds for the whole run: a slow stretch
of the shared host then hits every metric of the run alike.  Load is
closed-loop with one client, because ``recommend()`` is a synchronous
in-process call.  All requests use k=10 with exclude-seen on.

* ``full-scan`` — frozen factorized model, 50k items x d=48, no index: the
  whole-catalogue score -> mask -> top-k path.  Writes patch item rows of
  the representation cache and retire items.
* ``ann-churn`` — the same catalogue served through a default ``IVFIndex``;
  the same writes now also upsert and delete in the index, and every fourth
  round forces a re-cluster through ``maintain``.
* ``scenerec`` — the paper's model on synthetic ``electronics`` (~8k items,
  ~920 users), full path; single requests compute explanations.  Writes
  retire items and drop the derived caches.
* ``train`` — online BPR training of SceneRec on ``electronics`` at scale 2:
  each write is one training epoch followed by ``service.refresh()``, and
  the freshly trained model is then served.  The initial parameters are
  restored every ``TRAIN_CYCLE_EPOCHS`` epochs; the traced run measures
  serving after ``LATE_EPOCHS`` epochs separately.

Each request's top-10 is checked against an oracle on sampled users; a
mismatch or an exception counts as a failed operation.
"""

from __future__ import annotations

import gc
import resource
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

import numpy as np

from repro.autograd.tensor import no_grad
from repro.data import dataset_config, generate_dataset, leave_one_out_split
from repro.graph.bipartite import UserItemBipartiteGraph
from repro.index import IVFIndex
from repro.models.base import FactorizedRecommender, FactorizedRepresentations
from repro.models.scenerec import SceneRec, SceneRecConfig
from repro.obs import NULL_OBS, Observability
from repro.serving import RecommendationService, RecommendRequest, SceneAffinityExplainer
from repro.training import TrainConfig, Trainer

from perfbench import stats
from perfbench.catalog import END_TO_END, PER_LAYER, SERVING_STAGES
from perfbench.layers import LayerTimer, index_counts, trace_stages, training_phase_totals

K = 10
#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reference-kernel calls timed just before and just after each set-up.
SETUP_REFERENCE_CALLS = 8
#: Every run completes at least this many rounds, so traced runs see both
#: traced and plain rounds.
MIN_ROUNDS = 2
#: Index work counts are read after this many rounds, which every
#: ``ann-churn`` run completes, so they repeat exactly for a seed.
COUNT_ROUNDS = 8
#: Operations whose time makes up a round when traced and plain rounds are
#: compared (the periodic maintain runs in traced rounds only).
ROUND_KINDS = ("single", "batch", "write")
#: Share of each round spent in the reference kernel.
REFERENCE_SHARE = 0.03
#: Reference-kernel time that defines the reference host speed: timings are
#: reported rescaled to a host on which the kernel takes this long.
REFERENCE_NOMINAL_MS = 10.0

# Factorized catalogue (full-scan, ann-churn).
NUM_ITEMS = 50_000
NUM_USERS = 4_000
DIM = 48
CLUSTERS = 96
CLUSTER_SPREAD = 0.35
#: History length = HISTORY_MIN + HISTORY_SCALE * Lomax(HISTORY_SHAPE), capped.
HISTORY_MIN = 5
HISTORY_SHAPE = 1.5
HISTORY_SCALE = 20
HISTORY_MAX = 2_000
WRITE_ROWS = 32
WRITE_DELETES = 4
WRITE_NOISE = 0.2
MAINTAIN_EVERY = 4

# SceneRec datasets: electronics is 950 items x 110 users at scale 1.
SCENEREC_SCALE = 8.4
TRAIN_SCALE = 2.0
#: Epochs after which ``train`` restores the initial parameters.  From the
#: second epoch on, training leaves a growing number of parameters below
#: 1e-300 in magnitude (3, 41, 198 after epochs 2-4 of seed 1), and serving
#: the trained model slows with them; without the restart the serving
#: figures would depend on how many epochs a run fits.
TRAIN_CYCLE_EPOCHS = 2
#: The traced ``train`` run compares serving after this many epochs with
#: serving after one, so the slowdown the restart keeps out of the
#: end-to-end figures is still measured.
LATE_EPOCHS = 5
LATE_REPEATS = 11
TINY_PARAMETER = 1e-300
#: Fixed training triples whose BPR loss must fall below its initial value.
LOSS_TRIPLES = 1024
NUM_NEGATIVES = 10
SCENEREC_DELETES = 4

#: Absolute score tolerance of the oracles: float32 serving of unit-norm
#: d=48 vectors, and float64 SceneRec scoring on two code paths.
FLOAT32_TOL = 1e-5
FLOAT64_TOL = 1e-9


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
class FrozenFactorized(FactorizedRecommender):
    """A factorized model with fixed user and item matrices."""

    name = "frozen-factorized"
    trainable = False

    def __init__(self, users: np.ndarray, items: np.ndarray) -> None:
        super().__init__()
        self._users = users
        self._items = items

    def factorized_representations(self) -> FactorizedRepresentations:
        return FactorizedRepresentations(users=self._users, items=self._items)


def make_catalogue(seed: int, num_items: int = NUM_ITEMS, num_users: int = NUM_USERS):
    """Clustered unit-norm user/item embeddings and heavy-tailed histories.

    Returns ``(users, items, interactions)``: float32 matrices and a sorted
    ``(n, 2)`` array of unique ``(user, item)`` pairs.  Half of each history
    comes from the user's own cluster, so exclude-seen removes items the
    user would otherwise be shown.
    """
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(CLUSTERS, DIM))

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, CLUSTERS, size=count)
        rows = centres[labels] + CLUSTER_SPREAD * rng.normal(size=(count, DIM))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return rows.astype(np.float32), labels

    items, item_clusters = draw(num_items)
    users, user_clusters = draw(num_users)
    by_cluster = [np.flatnonzero(item_clusters == cluster) for cluster in range(CLUSTERS)]
    # Stratified quantiles of the Lomax distribution, shuffled: every seed
    # gets the same multiset of heavy-tailed lengths, so the total filter
    # work does not swing with the few longest histories a seed happens to draw.
    quantiles = (np.arange(num_users) + 0.5) / num_users
    lomax = (1.0 - quantiles) ** (-1.0 / HISTORY_SHAPE) - 1.0
    lengths = HISTORY_MIN + (lomax * HISTORY_SCALE).astype(np.int64)
    lengths = rng.permutation(np.minimum(lengths, min(HISTORY_MAX, num_items)))
    pairs = []
    for user, length in enumerate(lengths):
        own = by_cluster[user_clusters[user]]
        near = rng.choice(own, size=min(int(length) // 2, own.size), replace=False)
        far = rng.integers(0, num_items, size=int(length) - near.size)
        history = np.unique(np.concatenate([near, far]))
        pairs.append(np.column_stack([np.full(history.size, user, dtype=np.int64), history]))
    return users, items, np.concatenate(pairs)


def make_dataset(seed: int, scale: float):
    """The synthetic ``electronics`` dataset at ``scale``, generated from ``seed``."""
    return generate_dataset(replace(dataset_config("electronics", scale=scale), seed=seed))


def reference_inputs() -> tuple[np.ndarray, np.ndarray]:
    """Fixed inputs of the reference kernel, independent of the run seed."""
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((128, DIM)).astype(np.float32),
        rng.standard_normal((10_000, DIM)).astype(np.float32),
    )


def reference_kernel(queries: np.ndarray, items: np.ndarray) -> int:
    """A fixed NumPy + pure-Python kernel: how fast is the host right now?"""
    scores = queries @ items.T
    top = np.argpartition(scores, -K, axis=1)[:, -K:]
    total = int(top.sum())
    for value in range(10_000):
        total += value * value % 7
    return total


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #
def verify_ranking(ids, scores, exact, allowed, tol, exact_order):
    """Check one served top-k list against exact scores.

    ``exact`` holds the exact score of every catalogue item, ``allowed``
    the items the request may return.  With ``exact_order`` the list must
    be the oracle's (score descending, then id ascending), up to swaps of
    scores within ``tol``; otherwise (ANN retrieval) it may miss items but
    must return only allowed items, with exact scores, in order.  Returns
    ``(problem or None, oracle items found, oracle size)``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    candidates = np.flatnonzero(allowed)
    want = min(K, candidates.size)
    if candidates.size > want:
        # Every item scoring at least the want-th best score, ties included.
        pivot = candidates.size - want
        threshold = np.partition(exact[candidates], pivot)[pivot]
        candidates = candidates[exact[candidates] >= threshold]
    oracle = candidates[np.lexsort((candidates, -exact[candidates]))[:want]]
    hits = int(np.intersect1d(ids, oracle).size)
    if ids.size > want or (exact_order and ids.size != want):
        return f"returned {ids.size} items, oracle has {want}", hits, want
    if np.unique(ids).size != ids.size:
        return "duplicate items", hits, want
    if ids.size == 0:
        return None, hits, want
    if not allowed[ids].all():
        return "returned a seen or deleted item", hits, want
    if np.abs(scores - exact[ids]).max() > tol:
        return "served scores differ from the exact scores", hits, want
    if np.any(np.diff(scores) > tol):
        return "items not in descending score order", hits, want
    if exact_order and np.abs(exact[ids] - exact[oracle]).max() > tol:
        return "ranking differs from the oracle", hits, want
    return None, hits, want


# ---------------------------------------------------------------------- #
# Run bookkeeping
# ---------------------------------------------------------------------- #
class Recorder:
    """Operation samples, failures and per-layer samples of one run."""

    def __init__(self) -> None:
        self.samples: "defaultdict[str, list[float]]" = defaultdict(list)
        self.layers: "defaultdict[str, list[float]]" = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.users_served = 0
        self.serve_seconds = 0.0
        self.hits = 0
        self.relevant = 0
        self.tracing = False
        self.round_seconds = 0.0

    def op(self, kind: str, call):
        """Time one operation; an exception counts it failed. Returns ``(ok, result)``."""
        self.attempted += 1
        started = perf_counter()
        try:
            result = call()
        except Exception as error:  # the run goes on and reports the failure
            self.fail(f"{kind}: {type(error).__name__}: {error}")
            return False, None
        seconds = perf_counter() - started
        self.samples[kind].append(seconds)
        if kind in ROUND_KINDS:
            self.round_seconds += seconds
        return True, result

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def layer(self, name: str, value: float) -> None:
        if self.tracing:
            self.layers[name].append(float(value))


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Workload:
    """Shared round structure: writes, single-user requests, one batch."""

    name = ""
    singles_per_round = 1
    batch_users = 1
    explain_single = False
    #: batch rows checked against the oracle each round
    checked_batch_rows = 1
    #: check the first single in even rounds and the batch in odd rounds
    #: only, where one oracle call costs as much as a request
    alternate_checks = False
    exact_order = True
    tol = FLOAT64_TOL

    def __init__(self, seed: int, trace: bool) -> None:
        self.seed = seed
        self.trace = trace
        self.obs = Observability() if trace else None
        self.timer = LayerTimer()
        self.index = None
        self.trainer = None
        self.explainer = None
        self.batch_request = None

    # -- hooks --------------------------------------------------------- #
    def setup(self) -> "dict[str, float]":
        """Build inputs, model and service; return set-up layer seconds."""
        raise NotImplementedError

    def write(self, rng: np.random.Generator, record: Recorder) -> None:
        raise NotImplementedError

    def exact_scores(self, user: int) -> np.ndarray:
        raise NotImplementedError

    def after_round(self, round_index: int, record: Recorder) -> None:
        """Per-round work after the reads (ann-churn's periodic maintain)."""

    # -- shared -------------------------------------------------------- #
    @property
    def num_users(self) -> int:
        return self.graph.num_users

    def set_tracing(self, enabled: bool) -> None:
        """Switch instrumentation on or off for the next round (traced runs only)."""
        self.timer.enabled = enabled
        if self.obs is None:
            return
        bundle = self.obs if enabled else NULL_OBS
        self.service.obs = bundle
        if self.index is not None:
            self.index.bind_obs(bundle)
        if self.trainer is not None:
            self.trainer.obs = bundle

    def round(self, round_index: int, record: Recorder) -> None:
        rng = np.random.default_rng([self.seed, round_index])
        singles = rng.choice(self.num_users, size=self.singles_per_round, replace=False)
        batch = rng.choice(self.num_users, size=self.batch_users, replace=False)
        check_single = not self.alternate_checks or round_index % 2 == 0
        check_batch = not self.alternate_checks or round_index % 2 == 1
        self.write(rng, record)
        for position, user in enumerate(singles):
            self.serve((int(user),), "single", record, int(check_single and position == 0))
        request = self.serve(
            tuple(int(u) for u in batch), "batch", record, self.checked_batch_rows * check_batch
        )
        if self.batch_request is None:
            self.batch_request = request
        self.after_round(round_index, record)

    def serve(self, users, shape: str, record: Recorder, check_rows: int) -> RecommendRequest:
        request = RecommendRequest(
            users=users, k=K, explain=self.explain_single and shape == "single"
        )
        self.timer.take()
        ok, response = record.op(shape, lambda: self.service.recommend(request))
        if not ok:
            return request
        record.users_served += len(users)
        record.serve_seconds += record.samples[shape][-1]
        if record.tracing:
            self.record_request_layers(shape, response, record)
        problem = None
        for row in range(check_rows):
            problem = problem or self.check(response.users[row], response.results[row], request, record)
        if problem:
            record.fail(f"{shape}: user {response.users[0]}: {problem}")
        return request

    def allowed(self, user: int) -> np.ndarray:
        allowed = ~self.deleted
        allowed[self.graph.user_items(user)] = False
        return allowed

    def check(self, user: int, recommendations, request, record: Recorder) -> "str | None":
        ids = [rec.item for rec in recommendations]
        scores = [rec.score for rec in recommendations]
        problem, hits, want = verify_ranking(
            ids, scores, self.exact_scores(user), self.allowed(user), self.tol, self.exact_order
        )
        record.hits += hits
        record.relevant += want
        if problem is None and request.explain and self.explainer is not None and ids:
            expected = self.explainer.affinities(np.asarray(ids), self.graph.user_items(user))
            if expected is not None:
                served = np.array([rec.scene_affinity for rec in recommendations], dtype=np.float64)
                if not np.allclose(served, expected, rtol=0.0, atol=FLOAT64_TOL):
                    problem = "scene affinities differ from the explainer's"
        return problem

    def record_request_layers(self, shape: str, response, record: Recorder) -> None:
        staged = trace_stages(self.obs.tracer)
        if staged is not None:
            stages, total = staged
            for stage in SERVING_STAGES:
                record.layer(f"serving.{stage}_ms.{shape}", stages.get(stage, 0.0) * 1e3)
            record.layer(f"serving.stage_coverage.{shape}", sum(stages.values()) / total)
        timed = self.timer.take()
        if "index.search" in timed:
            record.layer(f"index.search_ms.{shape}", timed["index.search"] * 1e3)
        if "scenerec.score_matrix" in timed:
            user = timed.get("scenerec.user_repr", 0.0)
            item = timed.get("scenerec.item_repr", 0.0)
            record.layer(f"scenerec.user_repr_ms.{shape}", user * 1e3)
            record.layer(f"scenerec.item_repr_ms.{shape}", item * 1e3)
            record.layer(
                f"scenerec.combine_ms.{shape}",
                (timed["scenerec.score_matrix"] - user - item) * 1e3,
            )
        if shape == "single" and self.explainer is not None and response.results[0]:
            ids = np.array([rec.item for rec in response.results[0]])
            history = self.graph.user_items(response.users[0])
            started = perf_counter()
            self.explainer.affinities(ids, history)
            record.layer("explain.affinity_ms", (perf_counter() - started) * 1e3)

    def counts(self) -> "dict[str, float]":
        """Index work counters so far (traced runs with an index only)."""
        if self.obs is None or self.index is None:
            return {}
        return index_counts(self.obs.registry, self.index.name)

    def probe(self, record: Recorder) -> None:
        """Extra per-layer measurements after the rounds (traced runs only)."""

    def alloc_peak_mb(self) -> float:
        """Peak Python-tracked allocation of one batch request, in its own pass."""
        tracemalloc.start()
        try:
            self.service.recommend(self.batch_request)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


class FullScan(Workload):
    name = "full-scan"
    singles_per_round = 8
    batch_users = 256
    checked_batch_rows = 8
    tol = FLOAT32_TOL
    uses_index = False

    def setup(self) -> "dict[str, float]":
        users, items, interactions = make_catalogue(self.seed)
        self.users64 = users.astype(np.float64)
        self.items64 = items.astype(np.float64)
        self.graph = UserItemBipartiteGraph(users.shape[0], items.shape[0], interactions)
        self.deleted = np.zeros(items.shape[0], dtype=bool)
        self.index = IVFIndex() if self.uses_index else None
        self.service = RecommendationService(
            FrozenFactorized(users, items), self.graph, index=self.index, obs=self.obs
        )
        if self.trace and self.index is not None:
            for method in ("build", "search", "upsert", "delete"):
                self.timer.wrap(self.index, method, f"index.{method}")
        self.timer.enabled = self.trace
        started = perf_counter()
        self.service.score_matrix([0])
        layers = {"cache.warm_s": perf_counter() - started}
        if self.index is not None:
            self.service.maintain()
        layers["index.build_s"] = self.timer.take().get("index.build", 0.0)
        return layers

    def exact_scores(self, user: int) -> np.ndarray:
        return self.items64 @ self.users64[user]

    def write(self, rng: np.random.Generator, record: Recorder) -> None:
        live = np.flatnonzero(~self.deleted)
        chosen = rng.choice(live, size=WRITE_ROWS + WRITE_DELETES, replace=False)
        refresh_ids, delete_ids = chosen[:WRITE_ROWS], chosen[WRITE_ROWS:]
        rows = self.items64[refresh_ids] + WRITE_NOISE * rng.normal(size=(WRITE_ROWS, DIM))
        rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
        self.timer.take()
        marks = []

        def write() -> None:
            self.service.refresh_items(refresh_ids, items=rows)
            marks.append(perf_counter())
            self.service.delete_items(delete_ids)

        started = perf_counter()
        ok, _ = record.op("write", write)
        if not ok:
            return
        self.items64[refresh_ids] = rows
        self.deleted[delete_ids] = True
        timed = self.timer.take()
        upsert = timed.get("index.upsert", 0.0)
        record.layer("cache.refresh_items_ms", (marks[0] - started - upsert) * 1e3)
        if self.index is not None:
            record.layer("index.upsert_ms", upsert * 1e3)
            record.layer("index.delete_ms", timed.get("index.delete", 0.0) * 1e3)


class AnnChurn(FullScan):
    name = "ann-churn"
    exact_order = False
    uses_index = True

    def after_round(self, round_index: int, record: Recorder) -> None:
        # Even rounds, so that traced runs (which trace even rounds) see it.
        if round_index % MAINTAIN_EVERY != 2:
            return
        ok, ran = record.op("maintain", lambda: self.service.maintain(force=True))
        if ok and not ran:
            record.fail("maintain(force=True) ran no re-cluster")
        if ok:
            record.layer("index.maintain_s", record.samples["maintain"][-1])


class SceneRecServing(Workload):
    name = "scenerec"
    scale = SCENEREC_SCALE
    singles_per_round = 1
    batch_users = 128
    explain_single = True
    alternate_checks = True

    def setup(self) -> "dict[str, float]":
        started = perf_counter()
        dataset = make_dataset(self.seed, self.scale)
        layers = {"data.generate_s": perf_counter() - started}
        self.split = leave_one_out_split(dataset, num_negatives=NUM_NEGATIVES, rng=self.seed)
        self.graph = dataset.bipartite_graph(self.split.train_interactions)
        scene_graph = dataset.scene_graph()
        self.model = SceneRec(self.graph, scene_graph, SceneRecConfig(seed=self.seed))
        self.service = RecommendationService(self.model, self.graph, scene_graph, obs=self.obs)
        self.deleted = np.zeros(self.graph.num_items, dtype=bool)
        if self.trace:
            for method, name in (
                ("user_representation", "scenerec.user_repr"),
                ("item_representation", "scenerec.item_repr"),
                ("score_matrix", "scenerec.score_matrix"),
            ):
                self.timer.wrap(self.model, method, name)
        self.explainer = SceneAffinityExplainer(self.model)
        # Warm the lazily built explanation contexts of both explainers.
        self.service.recommend(RecommendRequest(users=(0,), k=K, explain=True))
        self.explainer.affinities(np.arange(1), np.arange(1))
        return layers

    def exact_scores(self, user: int) -> np.ndarray:
        """The pairwise ``model.score`` path over the whole catalogue."""
        items = np.arange(self.graph.num_items, dtype=np.int64)
        return self.pairwise_scores(np.full(items.size, user, dtype=np.int64), items)

    def pairwise_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                return np.asarray(self.model.score(users, items), dtype=np.float64)
        finally:
            if was_training:
                self.model.train()

    def write(self, rng: np.random.Generator, record: Recorder) -> None:
        live = np.flatnonzero(~self.deleted)
        ids = rng.choice(live, size=SCENEREC_DELETES, replace=False)

        def write() -> None:
            self.service.delete_items(ids)
            self.service.refresh()

        ok, _ = record.op("write", write)
        if ok:
            self.deleted[ids] = True


class Train(SceneRecServing):
    name = "train"
    scale = TRAIN_SCALE
    singles_per_round = 4
    batch_users = 128
    alternate_checks = False

    def setup(self) -> "dict[str, float]":
        layers = super().setup()
        config = TrainConfig(epochs=1, eval_every=0, seed=self.seed)
        self.trainer = Trainer(self.model, self.split, config, obs=self.obs)
        self.initial = self.parameters()
        self.triples = self.loss_triples()
        self.initial_loss = self.fixed_loss()
        self.epochs = 0
        self.pairs = 0
        self.train_seconds = 0.0
        return layers

    def parameters(self) -> "list[np.ndarray]":
        return [parameter.data.copy() for parameter in self.model.parameters()]

    def restore(self, values: "list[np.ndarray]") -> None:
        for parameter, value in zip(self.model.parameters(), values):
            parameter.data[...] = value

    def loss_triples(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Fixed ``(users, positives, negatives)`` drawn from training pairs and the seed."""
        rng = np.random.default_rng([self.seed, LOSS_TRIPLES])
        pairs = self.split.train_interactions
        chosen = pairs[rng.choice(len(pairs), size=min(LOSS_TRIPLES, len(pairs)), replace=False)]
        num_items = self.graph.num_items
        seen = pairs[:, 0] * num_items + pairs[:, 1]
        negatives = rng.integers(0, num_items, size=len(chosen))
        clash = np.isin(chosen[:, 0] * num_items + negatives, seen)
        while clash.any():
            negatives[clash] = rng.integers(0, num_items, size=int(clash.sum()))
            clash = np.isin(chosen[:, 0] * num_items + negatives, seen)
        return chosen[:, 0], chosen[:, 1], negatives

    def fixed_loss(self) -> float:
        """Mean BPR loss of the fixed triples under the current parameters."""
        users, positives, negatives = self.triples
        margin = self.pairwise_scores(users, positives) - self.pairwise_scores(users, negatives)
        return float(np.logaddexp(0.0, -margin).mean())

    def write(self, rng: np.random.Generator, record: Recorder) -> None:
        if self.epochs and self.epochs % TRAIN_CYCLE_EPOCHS == 0:
            self.restore(self.initial)
        if record.tracing:
            before = training_phase_totals(self.obs.registry, Trainer.PHASES)

        def write():
            history = self.trainer.fit()
            self.service.refresh()
            return history

        ok, history = record.op("write", write)
        if not ok:
            return
        self.epochs += 1
        self.explainer.refresh()
        self.train_seconds += record.samples["write"][-1]
        self.pairs += self.split.num_train
        self.check_loss(history.losses, record)
        if record.tracing:
            after = training_phase_totals(self.obs.registry, Trainer.PHASES)
            for phase in Trainer.PHASES:
                record.layer(f"training.{phase}_s", after[phase] - before[phase])

    def check_loss(self, losses: "list[float]", record: Recorder) -> None:
        """Every epoch's loss is finite, and the fixed triples' loss fell below its start."""
        loss = self.fixed_loss()
        if not (np.all(np.isfinite(losses)) and np.isfinite(loss)):
            record.fail(f"write: non-finite training loss {losses}, fixed-triple loss {loss}")
        elif not loss < self.initial_loss:
            record.fail(
                f"training loss did not fall: fixed-triple loss {self.initial_loss:.4f} "
                f"at the initial parameters, {loss:.4f} after epoch {self.epochs}"
            )

    def probe(self, record: Recorder) -> None:
        """Serving after ``LATE_EPOCHS`` epochs against serving after one.

        Trains from the initial parameters untraced, then alternates the two
        parameter sets, timing one explained single request and one batch
        after each ``refresh()``.  Records the late/early latency ratios and
        the parameters below ``TINY_PARAMETER`` in magnitude after the last
        epoch.
        """
        self.set_tracing(False)
        self.restore(self.initial)
        # A fresh trainer draws the same negatives in every run of the seed.
        trainer = Trainer(self.model, self.split, self.trainer.config)
        epochs = []
        for _ in range(LATE_EPOCHS):
            epochs.append(trainer.fit().losses)
            if len(epochs) == 1:
                early = self.parameters()
        late = self.parameters()
        self.check_loss([loss for losses in epochs for loss in losses], record)
        record.layer(
            "training.tiny_params",
            sum(int(np.count_nonzero((value != 0) & (np.abs(value) < TINY_PARAMETER))) for value in late),
        )
        requests = {
            "single": RecommendRequest(users=(0,), k=K, explain=True),
            "batch": self.batch_request,
        }
        seconds: "defaultdict[tuple[str, str], list[float]]" = defaultdict(list)
        for _ in range(LATE_REPEATS):
            for phase, values in (("early", early), ("late", late)):
                self.restore(values)
                self.service.refresh()
                for shape, request in requests.items():
                    started = perf_counter()
                    self.service.recommend(request)
                    seconds[phase, shape].append(perf_counter() - started)
        for shape in requests:
            record.layer(
                f"training.late_serve_ratio.{shape}",
                stats.median(seconds["late", shape]) / stats.median(seconds["early", shape]),
            )


WORKLOADS = {cls.name: cls for cls in (FullScan, AnnChurn, SceneRecServing, Train)}


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``name`` several times, run its rounds for ``seconds``, report.

    Returns ``{"correct", "attempted", "failed", "metrics", "info"}``; the
    metrics are the end-to-end list, or the per-layer list when ``trace``.
    """
    workload_class = WORKLOADS[name]
    queries, items = reference_inputs()

    def reference_ms(calls: int) -> "list[float]":
        times = []
        for _ in range(calls):
            mark = perf_counter()
            reference_kernel(queries, items)
            times.append((perf_counter() - mark) * 1e3)
        return times

    setup_seconds: list[float] = []
    setup_reference_ms: list[float] = []
    setup_layers: "defaultdict[str, list[float]]" = defaultdict(list)
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        candidate = workload_class(seed, trace)
        before = reference_ms(SETUP_REFERENCE_CALLS)
        started = perf_counter()
        for key, value in candidate.setup().items():
            setup_layers[key].append(value)
        setup_seconds.append(perf_counter() - started)
        setup_reference_ms.append(stats.median(before + reference_ms(SETUP_REFERENCE_CALLS)))
        workload = candidate

    record = Recorder()
    reference: list[float] = []
    traced_rounds: list[float] = []
    plain_rounds: list[float] = []
    counts: "dict[str, float]" = {}
    rounds = 0
    started = perf_counter()
    deadline = started + seconds
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        record.tracing = trace and rounds % 2 == 0
        workload.set_tracing(record.tracing)
        record.round_seconds = 0.0
        round_started = perf_counter()
        workload.round(rounds, record)
        (traced_rounds if record.tracing else plain_rounds).append(record.round_seconds)
        # The reference kernel takes REFERENCE_SHARE of every round (at
        # least one call), so it samples the host across the whole run.
        budget_ms = REFERENCE_SHARE * (perf_counter() - round_started) * 1e3
        spent_ms = 0.0
        while not spent_ms or spent_ms < budget_ms:
            reference.extend(reference_ms(1))
            spent_ms += reference[-1]
        rounds += 1
        if trace and rounds == COUNT_ROUNDS:
            counts = workload.counts()
    measured = perf_counter() - started

    info = {
        "workload": name,
        "rounds": rounds,
        "measured_s": measured,
        "samples": {kind: len(values) for kind, values in sorted(record.samples.items())},
        "ref_kernel_ms": stats.median(reference),
        "setup_ref_kernel_ms": setup_reference_ms,
        "problems": record.problems,
    }
    if isinstance(workload, Train) and workload.train_seconds:
        info["train_pairs_per_s"] = workload.pairs / workload.train_seconds

    if trace:
        workload.set_tracing(True)
        record.tracing = True
        record.layer("serving.alloc_peak_mb.batch", workload.alloc_peak_mb())
        try:
            workload.probe(record)
        except Exception as error:  # reported like a failed operation
            record.fail(f"probe: {type(error).__name__}: {error}")
        for key, values in setup_layers.items():
            record.layer(key, stats.median(values))
        if counts.get("queries"):
            record.layer("index.probes_per_query", counts["probes"] / counts["queries"])
            record.layer("index.scanned_per_query", counts["scanned"] / counts["queries"])
            record.layer("index.reclusters", counts["reclusters"])
        record.layer("bench.ref_kernel_ms", info["ref_kernel_ms"])
        if traced_rounds and plain_rounds:
            overhead = stats.median(traced_rounds) / stats.median(plain_rounds) - 1.0
            record.layer("trace.overhead_pct", overhead * 100.0)
        metrics = {
            metric: stats.median(record.layers[metric]) if record.layers.get(metric) else 0.0
            for metric, _, _ in PER_LAYER
        }
        info["layer_samples"] = {key: len(values) for key, values in sorted(record.layers.items())}
    else:
        raw = end_to_end_metrics(record, setup_seconds, workload.batch_users)
        info["raw"] = raw
        metrics = rescale(raw, info["ref_kernel_ms"])
        metrics["setup_s"] = stats.median(
            seconds * REFERENCE_NOMINAL_MS / ms for seconds, ms in zip(setup_seconds, setup_reference_ms)
        )
        info["tail_pct"] = {
            kind: stats.windowed_tail(record.samples[kind])[1] for kind in ("single", "batch")
        }
    return {
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
        "info": info,
    }


def rescale(raw: "dict[str, float]", ref_kernel_ms: float) -> "dict[str, float]":
    """Rescale the run's timings to the reference host speed.

    The shared host's speed drifts by tens of percent over minutes, and
    every timing of a run moves with the reference kernel timed in the same
    rounds.  Request and write timings are multiplied (throughput divided)
    by ``REFERENCE_NOMINAL_MS / ref_kernel_ms``.  Set-up times are rescaled
    one by one in :func:`run`, by the kernel timed around each set-up;
    recall and memory are not timings.
    """
    speed = REFERENCE_NOMINAL_MS / ref_kernel_ms
    scaled = dict(raw)
    for name in ("single_p50_ms", "single_tail_ms", "batch_p50_ms", "batch_tail_ms", "write_p50_ms"):
        scaled[name] = raw[name] * speed
    scaled["users_per_s"] = raw["users_per_s"] / speed
    return scaled


def users_per_s(record: Recorder, batch_users: int) -> float:
    """Users served over time spent serving: the median over the run's windows."""
    singles, batches = record.samples["single"], record.samples["batch"]
    if len(batches) < stats.WINDOWS:
        return record.users_served / record.serve_seconds
    return stats.median(
        (len(single) + batch_users * len(batch)) / (sum(single) + sum(batch))
        for single, batch in zip(stats.windows(singles), stats.windows(batches))
    )


def end_to_end_metrics(
    record: Recorder, setup_seconds: "list[float]", batch_users: int
) -> "dict[str, float]":
    def p50_ms(kind: str) -> float:
        return stats.median(record.samples[kind]) * 1e3

    def tail_ms(kind: str) -> float:
        return stats.windowed_tail(record.samples[kind])[0] * 1e3

    metrics = {
        "setup_s": stats.median(setup_seconds),
        "single_p50_ms": p50_ms("single"),
        "single_tail_ms": tail_ms("single"),
        "batch_p50_ms": p50_ms("batch"),
        "batch_tail_ms": tail_ms("batch"),
        "users_per_s": users_per_s(record, batch_users),
        "write_p50_ms": p50_ms("write"),
        "recall_at_10": record.hits / record.relevant,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metrics[name] for name, *_ in END_TO_END}
