"""serve_mixed: a closed loop of clients against ``AmalurService`` over a session.

Each round builds a fresh ``DatasetSession`` (LEFT JOIN) with an initial
regression model and starts ``AmalurService(n_workers=2)`` (set-up), then two
client threads each run a fixed script (timed): every request predicts an
8192-row window, except that on every 25th step the writer client appends a
100-row ``DeltaBatch`` to the base table and then asks for a warm-start
regression retrain. A client sends its next request only when the previous
reply has arrived. With a single writer a retrain never queues behind
another client's append, so its latency measures the service, not the
interleaving of two scripts.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List

import numpy as np

from perfbench import reference as ref
from perfbench.harness import Round
from perfbench.workloads import Workload
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.exceptions import AmalurError
from repro.metadata.mappings import ScenarioType
from repro.serving.service import AmalurService
from repro.serving.session import DatasetSession
from repro.system.plan import ModelSpec
from repro.system.requests import DeltaBatch, IntegrationConfig, PredictRequest, TrainRequest

SIZES = {
    False: dict(base_rows=100_000, other_rows=60_000, overlap_rows=40_000, steps=200,
                window=8192, delta_rows=100),
    True: dict(base_rows=600, other_rows=400, overlap_rows=250, steps=60, window=64,
               delta_rows=10),
}
FEATURES, SHARED = 20, 3
CLIENTS = 2
WRITER = 0  # the one client that appends and retrains; the other only predicts
WORKERS = 2
DELTA_EVERY = 25
SESSION = "augment"
REGRESSION = ModelSpec(task="regression")


class ServeMixed(Workload):
    name = "serve_mixed"

    def setup(self) -> None:
        size = SIZES[self.small]
        self.window = size["window"]
        spec = ScenarioSpec(
            ScenarioType.LEFT_JOIN, base_rows=size["base_rows"], other_rows=size["other_rows"],
            base_features=FEATURES, other_features=FEATURES, overlap_rows=size["overlap_rows"],
            overlap_columns=SHARED, seed=self.seed,
        )
        base, other, column_matches, _, target_columns = generate_scenario_tables(spec)
        config = IntegrationConfig(base="S1", other="S2", target_columns=target_columns,
                                   scenario=ScenarioType.LEFT_JOIN, label_column="label")
        self.session = DatasetSession(base, other, config, column_matches=column_matches)
        self.session.train(TrainRequest(model=REGRESSION))
        self.scripts = self._scripts(base, other, size["steps"], size["delta_rows"])
        self.service = AmalurService(n_workers=WORKERS)
        self.service.register_session(SESSION, self.session)

    def _scripts(self, base, other, steps: int, delta_rows: int) -> List[list]:
        """Per client, its fixed list of (kind, request) pairs."""
        base_ids = base.column_values("id")
        other_only = np.setdiff1d(other.column_values("id"), base_ids)
        new_ids = itertools.count(int(max(base_ids.max(), other.column_values("id").max())) + 1)
        value_columns = [c.name for c in base.schema if c.name not in ("id", "label")]
        scripts = []
        for client in range(CLIENTS):
            rng = np.random.default_rng([self.seed, 41, client])
            # Half of each appended batch are new entities, half other-only
            # entities, which fill the join.
            fills = iter(rng.permutation(other_only).tolist())
            script = []
            for step in range(1, steps + 1):
                if client != WRITER or step % DELTA_EVERY:
                    start = int(rng.integers(0, base.n_rows - self.window + 1))
                    window = (start, start + self.window)
                    script.append(("predict", PredictRequest(row_range=window)))
                    continue
                rows: Dict[str, list] = {
                    "id": [next(fills) if i % 2 else next(new_ids) for i in range(delta_rows)],
                    "label": rng.integers(0, 2, delta_rows).tolist(),
                }
                for name in value_columns:
                    rows[name] = np.round(rng.standard_normal(delta_rows), 4).tolist()
                script.append(("delta", DeltaBatch(table="S1", kind="append", rows=rows)))
                script.append(("train", TrainRequest(model=REGRESSION, warm_start=True)))
            scripts.append(script)
        return scripts

    def _client(self, script: list, log: list) -> None:
        try:
            self._run_script(script, log)
        except BaseException as error:  # re-raised on the main thread
            self.client_errors.append(error)

    def _run_script(self, script: list, log: list) -> None:
        for kind, request in script:
            start = time.perf_counter()
            try:
                if kind == "predict":
                    reply = self.service.predict(SESSION, request)
                    rows = len(reply.predictions)
                elif kind == "delta":
                    self.service.apply_delta(SESSION, request)
                    rows = request.n_rows
                else:
                    self.service.train(SESSION, request)
                    rows = 0
                failed = False
            except AmalurError:
                rows, failed = 0, True
            log.append((kind, id(request), time.perf_counter() - start, rows, failed))

    def run_round(self) -> Round:
        logs: List[list] = [[] for _ in range(CLIENTS)]
        self.client_errors: List[BaseException] = []
        clients = [threading.Thread(target=self._client, args=(script, log),
                                    name=f"perfbench-client-{i}")
                   for i, (script, log) in enumerate(zip(self.scripts, logs))]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        seconds = time.perf_counter() - start
        try:
            if self.client_errors:
                raise self.client_errors[0]
            self.service.train(SESSION, TrainRequest(model=REGRESSION))
            served = self.service.predict(SESSION, PredictRequest()).predictions
        finally:
            self.service.close()
        requests = [entry for log in logs for entry in log]
        self.outputs = dict(served=served, requests=requests,
                            tables=(self.session.table("S1"), self.session.table("S2")),
                            target_columns=self.session.config.target_columns)

        def latencies(kind: str) -> List[float]:
            return [e[2] * 1e3 for e in requests if e[0] == kind and not e[4]]

        return Round(
            seconds=seconds, attempted=len(requests), failed=sum(e[4] for e in requests),
            predict_ms=latencies("predict"), train_ms=latencies("train"),
            extra={"requests": requests, "rebuilds": self.session.rebuilds},
        )

    def release(self) -> None:
        super().release()
        self.session = self.service = self.scripts = None

    def check(self) -> List[str]:
        failures: List[str] = []
        out = self.outputs
        short = [e for e in out["requests"] if e[0] == "predict" and not e[4]
                 and e[3] != self.window]
        ref.expect(failures, "every predict returns its window", not short,
                   f"{len(short)} replies with the wrong row count")
        base, other = out["tables"]
        target_columns = out["target_columns"]
        left = {n: base.column_values(n) for n in base.schema.names}
        right = {n: other.column_values(n) for n in other.schema.names}
        matches = ref.key_match(left["id"], right["id"])
        target = ref.assemble_target(
            target_columns, left, right,
            ref.target_rows(base.n_rows, other.n_rows, matches, "left_join"),
        )
        label = target_columns.index("label")
        features = np.delete(target, label, axis=1)
        weights, intercept = ref.normal_solve(features, target[:, label])
        ref.expect_close(failures, "served predictions after the script", out["served"],
                         features @ weights + intercept)
        return failures
