"""Supervised parallel sweep executor: fan (app, scheme, spec, scale) cells
across worker processes under a fault-tolerant supervisor and merge the
results into one :class:`ResultCache`.

The experiment layer is embarrassingly parallel at cell granularity — every
figure/table is a pure function of the cached :class:`AppResult` records —
so the sweep that feeds ``catt all`` fans out over worker processes.  Unlike
the previous bare ``Pool.imap_unordered``, the executor is a **supervisor**
that survives process-level faults:

* **Heartbeat/crash detection + respawn.**  Each worker owns at most one
  cell; a worker that dies (OOM kill, segfault, ``os._exit``) is detected by
  liveness polling, its cell is rescheduled, and a fresh worker is spawned
  in its place.
* **Per-cell deadlines.**  ``SweepPolicy.cell_timeout`` bounds each cell's
  wall clock; a hung worker is terminated and replaced instead of stalling
  the sweep forever.
* **Bounded retries with exponential backoff.**  A failed attempt (crash,
  timeout, raised fault, or degraded result) is retried up to
  ``SweepPolicy.retries`` times, waiting ``backoff * 2**attempt`` between
  attempts.
* **Poison-cell quarantine.**  A cell that exhausts its retries degrades to
  the PR-1 zero-cycle ``AppResult(degraded=True)`` path with a diagnostic —
  it cannot kill the sweep, and it is never written to the disk cache.
* **Commit on completion.**  Every finished cell is written to the
  :class:`ResultCache` (one fsync'd shard put) the moment it is accepted,
  so SIGKILL mid-sweep loses at most the in-flight cells, and a plain rerun
  serves the committed cells from the cache and computes only the rest.
* **Clean interrupts.**  SIGINT terminates the workers (no orphans) and
  re-raises; every completed cell is already in the cache.

Determinism is preserved throughout: the store's shard bytes depend only on
the record set, not on put order; worker spans and metrics are merged in the
caller's cell order regardless of completion order; and chaos faults key on
the *attempt index* (:class:`~repro.testing.faults.ChaosPlan`), so a sweep
with injected crashes/hangs/retries converges to the same cache bytes as a
clean sequential run.

Degraded cells (``AppResult.degraded``) are memoized in-process only, same
as the sequential path — the next sweep retries them.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import pickle as _pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mpc

from ..obs.metrics_registry import registry as _registry
from ..obs.trace import span as _span, tracer as _tracer
from ..options import (
    SimOptions,
    current_options,
    set_active_options,
    use_options,
)
from ..testing.faults import ChaosPlan, check_worker_fault, set_worker_chaos
from ..transform.diagnostics import E_SIM, Diagnostic
from ..workloads import CI_GROUP, CS_GROUP
from .common import AppResult, ResultCache, default_cache, run_app

#: One simulation cell: (app, scheme, spec, scale).
Cell = tuple[str, str, str, str]

_SWEEP_SCHEMES = ("baseline", "bftt", "catt")


def all_cells(scale: str = "bench") -> list[Cell]:
    """Every simulation cell ``catt all`` consumes, in deterministic order.

    CS apps feed fig2/6/7/9/table3 at max L1D and fig10/table3 at 32 KB;
    CI apps only appear in fig8 (max L1D).
    """
    cells: list[Cell] = []
    for app in CS_GROUP:
        for scheme in _SWEEP_SCHEMES:
            for spec in ("max", "32k"):
                cells.append((app, scheme, spec, scale))
    for app in CI_GROUP:
        for scheme in _SWEEP_SCHEMES:
            cells.append((app, scheme, "max", scale))
    return sorted(set(cells))


@dataclass(frozen=True)
class SweepPolicy:
    """Supervision knobs for one sweep.

    ``cell_timeout`` — wall-clock deadline per cell attempt in seconds
    (``None`` disables deadlines); ``retries`` — extra attempts granted to a
    failing cell before it is quarantined as degraded; ``backoff`` — base of
    the exponential retry backoff (``backoff * 2**attempt`` seconds);
    ``poll`` — supervisor heartbeat interval.
    """

    cell_timeout: float | None = None
    retries: int = 2
    backoff: float = 0.05
    poll: float = 0.05

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.poll <= 0:
            raise ValueError(f"poll must be positive, got {self.poll}")


DEFAULT_POLICY = SweepPolicy()

_IN_WORKER = False

#: Test hook: called after every accepted cell completion (both execution
#: paths), once the cell is committed to the cache.  Chaos tests
#: monkeypatch this to interrupt a sweep mid-flight.
_CHECKPOINT_HOOK = None


def _init_worker(options: SimOptions, trace_on: bool,
                 metrics_on: bool) -> None:
    """Worker initializer: carry the parent's resolved configuration over,
    so :func:`repro.options.current_options` in a worker returns what it
    returns in the parent, under any start method."""
    global _IN_WORKER
    _IN_WORKER = True
    set_active_options(options)
    t = _tracer()
    t.reset()
    t.enabled = trace_on
    reg = _registry()
    reg.reset()
    reg.enabled = metrics_on


def _run_cell(cell: Cell) -> tuple[Cell, AppResult, dict | None]:
    """Worker entry point: simulate one cell against a memory-only cache.

    In a pool worker the third element carries the cell's observability
    payload (drained spans + a metrics snapshot) back to the parent, which
    adopts them in caller order — deterministic, like the cache merge.
    """
    app, scheme, spec, scale = cell
    result = run_app(app, scheme, spec, scale, cache=ResultCache(""))
    obs = None
    if _IN_WORKER:
        t, reg = _tracer(), _registry()
        if t.enabled or reg.enabled:
            obs = {
                "spans": t.drain() if t.enabled else [],
                "metrics": reg.snapshot() if reg.enabled else None,
            }
            if reg.enabled:
                reg.reset()
    return cell, result, obs


def _worker_main(conn, options, trace_on, metrics_on,
                 chaos: ChaosPlan | None) -> None:
    """Supervised worker loop: one task at a time over a private pipe.

    Messages out: ``("start", cell, attempt)`` as the heartbeat claiming a
    task, then ``("done", cell, attempt, result, obs)`` or ``("fail", cell,
    attempt, detail)``.  A crash between start and done is what the
    supervisor's liveness polling catches.  The pipe is private to this
    worker — there is deliberately no shared queue, so killing a worker
    (deadline, crash) can never leave a cross-process lock held and wedge
    its siblings.
    """
    _init_worker(options, trace_on, metrics_on)
    set_worker_chaos(chaos)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):   # parent is gone
            return
        if item is None:
            return
        cell, attempt = item
        try:
            conn.send(("start", cell, attempt))
            try:
                check_worker_fault("|".join(cell), attempt)
                _, result, obs = _run_cell(cell)
            except KeyboardInterrupt:
                return
            except BaseException as exc:
                conn.send(("fail", cell, attempt, repr(exc)))
                continue
            conn.send(("done", cell, attempt, result, obs))
        except KeyboardInterrupt:   # parent is shutting the sweep down
            return
        except OSError:             # pipe closed under us: nobody to tell
            return


def _quarantine_result(cell: Cell, kind: str, attempts: int,
                       detail: str) -> AppResult:
    """The degraded ``AppResult`` a poison cell collapses to."""
    app, scheme, spec, scale = cell
    diag = Diagnostic(
        code=E_SIM, stage="sim",
        message=f"({app}, {scheme}, {spec}, {scale}) quarantined after "
                f"{attempts} attempt(s); last failure: {kind} ({detail})",
        kernel=None, severity="error",
        elapsed_seconds=0.0,
        exception=detail,
    )
    return AppResult(app, scheme, spec, scale, total_cycles=0, kernels={},
                     diagnostics=[diag.to_dict()], degraded=True)


class _Worker:
    """One supervised worker process plus its private pipe end."""

    __slots__ = ("proc", "conn", "cell", "attempt", "started")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.cell: Cell | None = None
        self.attempt = 0
        self.started = 0.0


class _Supervisor:
    """Deadline/retry/respawn supervisor over a fleet of sweep workers.

    Each worker communicates over its own duplex pipe — deliberately no
    shared ``mp.Queue``: killing a worker mid-operation on a shared queue
    can leave its cross-process lock held forever and wedge every sibling,
    which is exactly the failure mode a supervisor that kills workers must
    not have.  With private pipes, kill damage is confined to the victim's
    own channel, which is simply closed and replaced.  The supervisor polls
    worker liveness and per-cell deadlines every ``policy.poll`` seconds.
    """

    def __init__(self, ctx, jobs: int, policy: SweepPolicy, initargs,
                 chaos: ChaosPlan | None):
        self.ctx = ctx
        self.jobs = jobs
        self.policy = policy
        self.initargs = initargs
        self.chaos = chaos
        self.workers: list[_Worker] = []
        self.results: dict[Cell, AppResult] = {}
        self.obs: dict[Cell, dict | None] = {}
        self.retried = 0
        self.timeouts = 0
        self.crashes = 0
        self.quarantined = 0
        self.respawns = 0
        self.on_complete = None     # callback(cell, result): cache commit
        self._wid = 0
        self._pending: deque = deque()     # (cell, attempt) ready to run
        self._delayed: list = []           # heap of (ready_ts, cell, attempt)

    # -- worker lifecycle ---------------------------------------------------
    def _spawn(self) -> _Worker:
        wid = self._wid
        self._wid += 1
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, *self.initargs, self.chaos),
            name=f"sweep-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()   # the parent reads/writes only its own end
        return _Worker(proc, parent_conn)

    def _retire(self, worker: _Worker, kill: bool) -> None:
        """Take a worker out of service (already-dead or to-be-killed)."""
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():   # pragma: no cover - stubborn child
                worker.proc.kill()
        worker.proc.join(1.0)
        try:
            worker.conn.close()   # any torn bytes die with the pipe
        except OSError:  # pragma: no cover
            pass

    def _respawn(self, idx: int) -> None:
        self.respawns += 1
        reg = _registry()
        if reg.enabled:
            reg.counter("sweep.respawns").inc()
        self.workers[idx] = self._spawn()

    # -- scheduling ---------------------------------------------------------
    def _dispatch(self) -> None:
        for worker in self.workers:
            if worker.cell is not None:
                continue
            item = self._next_task()
            if item is None:
                return
            try:
                worker.conn.send(item)
            except (BrokenPipeError, OSError):
                # Dead worker: requeue the task, let policing respawn it.
                self._pending.appendleft(item)
                continue
            worker.cell = item[0]
            worker.attempt = item[1]
            worker.started = time.monotonic()

    def _next_task(self):
        while self._pending:
            cell, attempt = self._pending.popleft()
            if cell not in self.results:    # lazily drop superseded retries
                return cell, attempt
        return None

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _, cell, attempt = heapq.heappop(self._delayed)
            if cell not in self.results:
                self._pending.append((cell, attempt))

    def _record_failure(self, cell: Cell, attempt: int, kind: str,
                        detail: str) -> None:
        reg = _registry()
        if attempt < self.policy.retries:
            self.retried += 1
            if reg.enabled:
                reg.counter("sweep.retries").inc()
            ready = time.monotonic() + self.policy.backoff * (2 ** attempt)
            heapq.heappush(self._delayed, (ready, cell, attempt + 1))
        else:
            self.quarantined += 1
            if reg.enabled:
                reg.counter("sweep.quarantined").inc()
            self._accept(cell, _quarantine_result(cell, kind, attempt + 1,
                                                  detail), None)

    def _accept(self, cell: Cell, result: AppResult, obs) -> None:
        self.results[cell] = result
        self.obs[cell] = obs
        if self.on_complete is not None:
            self.on_complete(cell, result)
        if _CHECKPOINT_HOOK is not None:
            _CHECKPOINT_HOOK(cell)

    # -- message handling ---------------------------------------------------
    def _drain(self, worker: _Worker) -> None:
        """Handle every message already sitting in one worker's pipe."""
        while True:
            if not worker.proc.is_alive():
                # Never recv from a dead worker: its last message may be
                # torn mid-write and recv would block forever.  Liveness
                # policing retires the pipe and reschedules the cell — a
                # complete-but-unread final result is recomputed, which is
                # safe because cells are deterministic.
                return
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError, _pickle.UnpicklingError):
                return   # broken channel: policing respawns the worker
            self._handle(worker, msg)

    def _handle(self, worker: _Worker, msg) -> None:
        tag = msg[0]
        if tag == "start":
            _, cell, attempt = msg
            if worker.cell == cell:
                worker.started = time.monotonic()
            return
        if tag == "done":
            _, cell, attempt, result, obs = msg
            if worker.cell == cell:
                worker.cell = None
            if cell in self.results:
                return   # stale duplicate of an already-accepted cell
            if result.degraded and attempt < self.policy.retries:
                # A degraded cell is a failed attempt: retry it before
                # accepting the zero-cycle fallback.
                self._record_failure(cell, attempt, "degraded",
                                     "in-process degradation")
                return
            self._accept(cell, result, obs)
            return
        if tag == "fail":
            _, cell, attempt, detail = msg
            if worker.cell == cell:
                worker.cell = None
            if cell not in self.results:
                self._record_failure(cell, attempt, "fault", detail)

    # -- liveness / deadlines -----------------------------------------------
    def _police(self, now: float) -> None:
        reg = _registry()
        for idx, worker in enumerate(self.workers):
            if not worker.proc.is_alive():
                cell, attempt = worker.cell, worker.attempt
                exitcode = worker.proc.exitcode
                self._retire(worker, kill=False)
                self._respawn(idx)
                if cell is not None and cell not in self.results:
                    self.crashes += 1
                    if reg.enabled:
                        reg.counter("sweep.crashes").inc()
                    self._record_failure(cell, attempt, "crash",
                                         f"worker exited with {exitcode}")
                continue
            if (worker.cell is not None
                    and self.policy.cell_timeout is not None
                    and now - worker.started > self.policy.cell_timeout):
                cell, attempt = worker.cell, worker.attempt
                self._retire(worker, kill=True)
                self._respawn(idx)
                if cell not in self.results:
                    self.timeouts += 1
                    if reg.enabled:
                        reg.counter("sweep.timeouts").inc()
                    self._record_failure(
                        cell, attempt, "timeout",
                        f"exceeded {self.policy.cell_timeout}s deadline")

    # -- main loop ----------------------------------------------------------
    def run(self, todo: list[Cell]) -> None:
        self._pending = deque((cell, 0) for cell in todo)
        target = len(todo)
        for _ in range(min(self.jobs, max(target, 1))):
            self.workers.append(self._spawn())
        try:
            while len(self.results) < target:
                self._dispatch()
                try:
                    ready = _mpc.wait([w.conn for w in self.workers],
                                      timeout=self.policy.poll)
                except OSError:  # pragma: no cover - closed under our feet
                    ready = []
                for conn in ready:
                    for worker in self.workers:
                        if worker.conn is conn:
                            self._drain(worker)
                            break
                now = time.monotonic()
                self._promote_delayed(now)
                self._police(now)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop every worker — no orphaned children, every pipe closed."""
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.proc.join(1.0)
            self._retire(worker, kill=True)
        self.workers = []


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call did."""

    cells: int       # cells requested
    computed: int    # cells actually simulated (not cached)
    cached: int      # cells served from the cache
    degraded: int    # computed cells that failed and degraded
    jobs: int        # worker processes used
    seconds: float
    retried: int = 0       # failed attempts rescheduled with backoff
    timeouts: int = 0      # attempts killed by the per-cell deadline
    crashes: int = 0       # worker processes that died mid-cell
    quarantined: int = 0   # cells degraded after exhausting retries


def format_sweep_health(report: SweepReport) -> str:
    """One-line supervisor summary for the CLI (what the supervisor did)."""
    parts = [f"{report.cells} cells", f"{report.computed} computed",
             f"{report.cached} cached"]
    for label in ("retried", "timeouts", "crashes",
                  "quarantined", "degraded"):
        value = getattr(report, label)
        if value:
            parts.append(f"{value} {label}")
    return (f"sweep health [jobs={report.jobs}]: " + ", ".join(parts)
            + f" in {report.seconds}s")


def run_sweep(
    cells: list[Cell],
    jobs: int = 1,
    cache: ResultCache | None = None,
    options: SimOptions | None = None,
    policy: SweepPolicy | None = None,
    chaos: ChaosPlan | None = None,
) -> SweepReport:
    """Populate ``cache`` with every cell in ``cells``.

    ``jobs > 1`` fans the uncached cells out over supervised worker
    processes; the cache content is identical to a sequential run.
    ``options`` (default: :func:`~repro.options.current_options`) governs
    the in-process cells and is shipped to every worker at spawn, so the
    sweep behaves identically under fork and spawn start methods.  Worker
    span/metric streams are merged back in caller cell order.

    ``policy`` configures supervision (deadlines, retries, backoff);
    ``chaos`` arms process-level fault injection in the workers (tests/CI).

    Each cell is committed to ``cache`` as soon as it finishes (degraded
    cells in-process only), so an interrupted or killed sweep keeps every
    completed cell and rerunning the same sweep computes only the rest.  On
    ``KeyboardInterrupt`` the workers are terminated (no orphans) and the
    interrupt is re-raised.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if options is None:
        options = current_options()
    policy = policy or DEFAULT_POLICY
    cache = cache or default_cache()
    cells = list(dict.fromkeys(cells))
    # Cache keys carry the options signature (suffix only for non-default
    # configurations) so e.g. multi-SM sweeps never collide with — or
    # poison — single-SM records.
    signature = options.signature()
    t0 = time.perf_counter()
    stats = {"retried": 0, "timeouts": 0, "crashes": 0, "quarantined": 0}
    reg = _registry()
    with _span("experiment.sweep", cells=len(cells), jobs=jobs) as sp:
        todo = [c for c in cells
                if cache.get(ResultCache.key(*c, signature=signature)) is None]
        results: dict[Cell, AppResult] = {}
        obs_by_cell: dict[Cell, dict | None] = {}

        def _commit(cell: Cell, result: AppResult) -> None:
            # Degraded cells stay in-process: the next sweep retries them.
            key = ResultCache.key(*cell, signature=signature)
            if result.degraded:
                cache.put_transient(key, result)
            else:
                cache.put(key, result)

        try:
            if jobs > 1 and len(todo) > 1:
                # fork inherits the warmed import state; fall back to spawn
                # where fork is unavailable (it re-imports, only slower).
                method = ("fork" if "fork" in mp.get_all_start_methods()
                          else "spawn")
                ctx = mp.get_context(method)
                initargs = (options, _tracer().enabled, _registry().enabled)
                sup = _Supervisor(ctx, min(jobs, len(todo)), policy,
                                  initargs, chaos)
                sup.on_complete = _commit
                try:
                    sup.run(todo)
                finally:
                    results.update(sup.results)
                    obs_by_cell.update(sup.obs)
                    stats = {"retried": sup.retried,
                             "timeouts": sup.timeouts,
                             "crashes": sup.crashes,
                             "quarantined": sup.quarantined}
            else:
                # Activate the resolved options for the in-process path too,
                # so an explicitly-passed ``options`` governs the cells (and
                # the signature-aware keys above) exactly like it does in
                # workers.
                with use_options(options):
                    for cell in todo:
                        for attempt in range(policy.retries + 1):
                            result = _run_cell(cell)[1]
                            if not result.degraded \
                                    or attempt == policy.retries:
                                break
                            stats["retried"] += 1
                            if reg.enabled:
                                reg.counter("sweep.retries").inc()
                            time.sleep(policy.backoff * (2 ** attempt))
                        results[cell] = result
                        _commit(cell, result)
                        if _CHECKPOINT_HOOK is not None:
                            _CHECKPOINT_HOOK(cell)
        except KeyboardInterrupt:
            # Completed cells are already committed; let the interrupt
            # propagate.
            if reg.enabled:
                reg.counter("sweep.interrupted").inc()
            sp.set(interrupted=True, computed=len(results))
            raise
        finally:
            # Adopt worker spans/metrics in caller order, not completion
            # order, so the telemetry is deterministic too.
            t = _tracer()
            for cell in cells:
                obs = obs_by_cell.get(cell)
                if obs:
                    if obs.get("spans"):
                        t.adopt(obs["spans"])
                    if obs.get("metrics"):
                        reg.merge(obs["metrics"])

        degraded = sum(r.degraded for r in results.values())
        sp.set(computed=len(todo), cached=len(cells) - len(todo),
               degraded=degraded, **stats)
    return SweepReport(
        cells=len(cells),
        computed=len(todo),
        cached=len(cells) - len(todo),
        degraded=degraded,
        jobs=jobs,
        seconds=round(time.perf_counter() - t0, 3),
        **stats,
    )
