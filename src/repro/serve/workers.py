"""Out-of-process shard workers: one child process per fabric shard.

An in-process :class:`~repro.serve.SpMVServer` shard dies when the
*simulation* says so; a :class:`ProcessShard` dies when the **kernel**
says so.  Each shard becomes a real forked child running a threadless
``SpMVServer`` behind a duplex pipe, so the fabric's chaos drills can
SIGKILL an actual pid and the supervision story (exit codes, heartbeat
silence, restart-with-backoff, shared-memory re-attachment) is exercised
against genuine process death instead of a flag.

Design constraints, in the order they shaped the protocol:

* **Zero-copy prepared matrices.**  A primed or submitted
  :class:`~repro.core.engine.PreparedMatrix` is moved into a
  :class:`~repro.core.shm.SharedArena` (idempotent) before crossing the
  pipe, so the child attaches the parent's pages from a descriptor
  instead of deserializing the arrays.  The parent keeps the newest
  handle of each matrix structure (``_primed``: a value refresh replaces
  the older version) to re-warm a respawned child under the same keys;
  if the segment has vanished by then (the ``serve.arena_lost`` fault
  site), the CSR arrays are shipped instead and the child re-prepares
  deterministically under the same tuning point.
* **No pipe deadlock.**  The parent bounds in-flight requests
  (``WorkerConfig.max_inflight``) and eagerly drains replies between
  sends, so parent and child are never both blocked writing.
* **Parent-side admission, key included.**  ``submit`` admits the
  request in the parent (:func:`~repro.serve.server.admit`: validation,
  canonicalization, the serve key), enforces the queue bound and raises
  :class:`~repro.errors.ServerOverloadedError` /
  :class:`~repro.errors.ServerClosedError` synchronously, exactly like
  ``SpMVServer.submit``.  The key crosses the pipe with the request and
  the child's server enqueues it without hashing the matrix again.
* **Typed errors across the pipe.**  A worker-side exception crosses as
  itself when it pickles (every ``repro.errors`` class does -- the
  ``tests/serve/test_pickle_errors.py`` sweep holds that line) and as a
  :class:`~repro.errors.RemoteWorkerError` carrying the original type
  name and full remote traceback when it does not.  A worker failure is
  never an opaque ``PicklingError``.
* **Key-aware resends.**  After the child has served (or been primed
  with) a key, later submits for it send ``operand=None``; the child
  answers from its prepared cache.  If the entry was evicted meanwhile
  the child replies ``needop`` and the parent resends the full operand
  -- at most once per request, so a confused worker cannot loop.

Worker death is detected three ways: a broken pipe on send, an exit
(``Process.is_alive`` / EOF) while waiting for replies, and a reply
timeout (``WorkerConfig.reply_timeout_s``) with the child still alive --
the *hung worker* case, which SIGKILLs the child so the restart starts
clean.  In every case the in-flight futures fail with
:class:`~repro.errors.ShardCrashError` (the fabric replays them on ring
successors) and the shard waits for its
:class:`~repro.serve.ShardSupervisor` to respawn or degrade it.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from ..core.engine import PreparedMatrix, SpMVEngine
from ..errors import (
    RemoteWorkerError,
    ServerClosedError,
    ServerOverloadedError,
    ShardCrashError,
    ValidationError,
)
from .server import (
    Admitted, ServeConfig, ServeFuture, SpMVServer, admit, prime_key,
    structural_key,
)

__all__ = ["WorkerConfig", "ProcessShard"]


@dataclass(frozen=True)
class WorkerConfig:
    """Pipe-protocol and liveness knobs of one :class:`ProcessShard`.

    Attributes
    ----------
    max_inflight:
        Requests allowed on the pipe before the parent must collect a
        reply -- the anti-deadlock bound (parent and child never both
        block writing).
    reply_timeout_s:
        How long :meth:`ProcessShard.drain` waits for any reply from a
        live child before declaring it hung and SIGKILLing it.  This is
        the in-flight half of hang detection; idle-worker silence is the
        supervisor's heartbeat miss budget.
    stop_grace_s:
        Grace period a graceful :meth:`ProcessShard.close` gives the
        child to acknowledge ``stop`` and exit before it is killed.
    """

    max_inflight: int = 8
    reply_timeout_s: float = 5.0
    stop_grace_s: float = 2.0

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.reply_timeout_s <= 0:
            raise ValidationError(
                f"reply_timeout_s must be > 0, got {self.reply_timeout_s}"
            )
        if self.stop_grace_s < 0:
            raise ValidationError(
                f"stop_grace_s must be >= 0, got {self.stop_grace_s}"
            )


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a typed wrapper.

    The wrapper preserves the original type name and the remote
    traceback text, so a worker failure always surfaces as a readable,
    typed :class:`~repro.errors.RemoteWorkerError` -- never as the
    parent-side ``PicklingError``/``EOFError`` soup a raw ``send`` of an
    unpicklable exception produces.
    """
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc):
            return exc
    except Exception:
        pass
    return RemoteWorkerError(
        f"{type(exc).__name__}: {exc}",
        original_type=type(exc).__name__,
        remote_traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )


def _rebuild_csr(data, indices, indptr, shape):
    from scipy import sparse

    return sparse.csr_matrix(
        (np.asarray(data), np.asarray(indices), np.asarray(indptr)),
        shape=tuple(shape),
    )


def _handle_request(conn, server, rid, key, operand, x, timeout_s) -> None:
    try:
        if operand is None:
            operand = server.cache.peek(key)
            if operand is None:
                # Evicted (or never seen): ask the parent to resend the
                # full operand instead of guessing.
                conn.send(("needop", rid))
                return
        # Admitted parent-side: the key arrives with the request.
        future = server._enqueue(Admitted(key, operand, x), timeout_s)
        server.drain()
        error = future.exception(timeout=0)
        if error is not None:
            conn.send(("err", rid, _picklable_error(error)))
            return
        try:
            conn.send(("res", rid, future.result(timeout=0)))
        except Exception as exc:  # unpicklable response payload
            conn.send(("err", rid, _picklable_error(exc)))
    except BaseException as exc:
        try:
            conn.send(("err", rid, _picklable_error(exc)))
        except Exception:  # pragma: no cover - pipe already gone
            pass


def _worker_main(conn, engine, serve_config, name: str) -> None:
    """Child-process request loop: a threadless server behind a pipe.

    Messages in: ``req`` / ``prime`` / ``prime_csr`` / ``ping`` /
    ``hang`` / ``stop``.  Messages out: ``res`` / ``err`` / ``needop`` /
    ``primed`` / ``pong`` / ``stopped``.  Every per-message failure is
    caught and surfaced as a typed reply; only a broken pipe (parent
    gone) ends the loop silently.
    """
    # A forked child inherits the parent's ambient fault scope; the plan
    # draws must stay parent-side (deterministic regardless of worker
    # scheduling), so the inherited plan is dropped before serving.
    from ..fault import injection as _injection

    _injection._ACTIVE = None
    server = SpMVServer(engine, serve_config, start=False)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            except Exception as exc:
                # The payload was consumed but failed to deserialize
                # (e.g. a shared arena unlinked mid-flight): the stream
                # is still framed, but the request id is lost -- tell
                # the parent to fail everything outstanding.
                try:
                    conn.send(("bad", _picklable_error(exc)))
                    continue
                except Exception:
                    return
            kind = msg[0]
            if kind == "req":
                _handle_request(conn, server, *msg[1:])
            elif kind == "prime":
                key, payload = msg[1], msg[2]
                try:
                    prepared = pickle.loads(payload)
                    if server.cache.peek(key) is None:
                        server.cache.put(key, prepared)
                    conn.send(("primed", key, True, None))
                except BaseException as exc:
                    conn.send(("primed", key, False, _picklable_error(exc)))
            elif kind == "prime_csr":
                key = msg[1]
                try:
                    csr = _rebuild_csr(*msg[2])
                    if server.cache.peek(key) is None:
                        server.cache.put(key, server.engine.prepare(csr))
                    conn.send(("primed", key, True, None))
                except BaseException as exc:
                    conn.send(("primed", key, False, _picklable_error(exc)))
            elif kind == "ping":
                conn.send(("pong", msg[1], server.stats()))
            elif kind == "hang":
                # The serve.worker_hang fault site: stop reading the
                # pipe forever.  Only SIGKILL gets this worker back.
                while True:
                    time.sleep(3600)
            elif kind == "stop":
                try:
                    conn.send(("stopped", server.stats()))
                except Exception:  # pragma: no cover - pipe already gone
                    pass
                return
    finally:
        conn.close()


class _WorkerRequest:
    __slots__ = ("rid", "admitted", "timeout_s", "future", "resends")

    def __init__(self, rid, admitted: Admitted, timeout_s, future):
        self.rid = rid
        self.admitted = admitted
        self.timeout_s = timeout_s
        self.future = future
        self.resends = 0


class ProcessShard:
    """A shard server living in a real child process.

    Drop-in for the slots of :class:`~repro.serve.SpMVServer` the fabric
    touches -- ``submit`` / ``drain`` / ``prime`` / ``queue_depth`` /
    ``kill`` / ``close`` / ``stats`` -- plus the process-lifecycle verbs
    the supervisor drives: :meth:`kill_process` (real SIGKILL),
    :meth:`inject_hang`, :meth:`ping` / :attr:`pong_seq` heartbeats and
    :meth:`respawn`.

    Parameters
    ----------
    engine:
        The engine forked into every child (and used parent-side for
        serve keys).  Fork inheritance means the child needs no engine
        pickling -- custom engines (the chaos drill's corrupted shard)
        work unchanged.
    config:
        Per-worker :class:`~repro.serve.ServeConfig`; the queue bound is
        enforced parent-side, ``batch_window_s`` is forced to 0 (the
        child is threadless).
    worker_config:
        :class:`WorkerConfig` pipe/liveness knobs.
    start:
        ``True`` (default) forks the child immediately; ``False`` leaves
        the shard down until :meth:`spawn` (supervisor-managed pools use
        this to control spawn order).
    """

    def __init__(
        self,
        engine: SpMVEngine | None = None,
        config: ServeConfig | None = None,
        *,
        name: str = "worker",
        worker_config: WorkerConfig | None = None,
        observer=None,
        start: bool = True,
        clock=time.monotonic,
    ):
        self.engine = engine if engine is not None else SpMVEngine(backend="fast")
        config = config if config is not None else ServeConfig()
        if config.batch_window_s != 0.0:
            config = replace(config, batch_window_s=0.0)
        self.config = config
        self.worker = worker_config if worker_config is not None else WorkerConfig()
        self.name = name
        self.obs = observer if observer is not None else self.engine.observer
        self._clock = clock
        self._ctx = mp.get_context("fork")
        self._lock = threading.RLock()
        self._proc = None
        self._conn = None
        self._queue: deque[_WorkerRequest] = deque()
        self._sent: dict[int, _WorkerRequest] = {}
        #: structural key -> (serve key, parent-side PreparedMatrix) of
        #: the newest primed version (or the first submitted one),
        #: re-warmed on respawn.
        self._primed: dict[str, tuple[str, PreparedMatrix]] = {}
        self._child_keys: set[str] = set()
        self._rid = 0
        self._closed = False
        self._dead = True
        self._ping_seq = 0
        self._pong_seq = 0
        self._last_stats: dict = {}
        self.last_exit_code: int | None = None
        self.last_error: BaseException | None = None
        # Lifetime counters (survive respawns).
        self.n_requests = 0
        self.n_responses = 0
        self.n_shed = 0
        self.n_spawns = 0
        self.n_kills = 0
        self.n_hangs = 0
        self.n_deaths = 0
        self.n_needop = 0
        self.n_csr_reprimes = 0
        if start:
            self.spawn()

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        return (
            not self._dead
            and self._proc is not None
            and self._proc.is_alive()
        )

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    @property
    def pong_seq(self) -> int:
        return self._pong_seq

    @property
    def ping_seq(self) -> int:
        return self._ping_seq

    def spawn(self) -> None:
        """Fork a fresh child (no-op while one is alive)."""
        with self._lock:
            if self._closed:
                raise ServerClosedError(
                    f"worker {self.name} is closed; cannot spawn"
                )
            if self.alive:
                return
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.engine, self.config, self.name),
                name=f"spmv-worker-{self.name}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._proc = proc
            self._conn = parent_conn
            self._dead = False
            self._child_keys.clear()
            self._ping_seq = 0
            self._pong_seq = 0
            self.last_exit_code = None
            self.last_error = None
            self.n_spawns += 1
            self.obs.counter("worker.spawns", "shard worker processes forked").inc(
                worker=self.name
            )

    def respawn(self) -> str:
        """Fresh child + cache re-warm; the supervisor's restart verb.

        Re-primes every key the previous incarnation owned: via the
        shared-arena descriptor when the segment still exists, falling
        back to shipping the CSR arrays for a deterministic in-child
        re-prepare when attachment fails (``serve.arena_lost``).
        Returns ``"cold"`` (nothing to warm), ``"shared"`` (all keys
        re-attached) or ``"csr"`` (at least one key needed the
        fallback).  Raises if the child cannot be warmed at all.
        """
        with self._lock:
            self.spawn()
            mode = "cold"
            for key, prepared in list(self._primed.values()):
                primed_how = self._send_prime(key, prepared)
                if primed_how == "csr":
                    mode = "csr"
                elif mode == "cold":
                    mode = "shared"
            return mode

    # ------------------------------------------------------------------ #
    # Submission (parent-side admission)
    # ------------------------------------------------------------------ #

    def submit(
        self,
        matrix,
        x: np.ndarray,
        *,
        timeout_s: float | None = None,
    ) -> ServeFuture:
        """Enqueue ``y = A @ x`` on the worker; returns a future.

        Same admission contract as :meth:`SpMVServer.submit` -- the
        bounded queue and closed-state checks happen here in the parent,
        synchronously, so fabric probe accounting and shed counters see
        identical behavior.  A ``PreparedMatrix`` operand is moved into
        shared memory (idempotent) so the child maps it zero-copy, and
        is retained as a re-warm handle for restarts.
        """
        return self._enqueue(admit(self.engine, matrix, x), timeout_s)

    def _enqueue(self, req: Admitted, timeout_s: float | None) -> ServeFuture:
        """Queue an admitted request; its key is sent over the pipe."""
        with self._lock:
            if self._closed:
                raise ServerClosedError(
                    f"worker {self.name} is closed; request refused"
                )
            if self._dead:
                raise ServerClosedError(
                    f"worker {self.name} is down (awaiting supervisor "
                    f"restart); request refused"
                )
            pending = len(self._queue) + len(self._sent)
            if pending >= self.config.queue_depth:
                self.n_shed += 1
                self.obs.counter(
                    "serve.shed", "requests refused by admission control"
                ).inc()
                raise ServerOverloadedError(
                    f"queue depth {self.config.queue_depth} reached on "
                    f"worker {self.name}; request shed (retry with backoff)",
                    queue_depth=self.config.queue_depth,
                    pending=pending,
                )
            if isinstance(req.operand, PreparedMatrix):
                req.operand.share()
                self._primed.setdefault(
                    structural_key(req.key), (req.key, req.operand)
                )
            self._rid += 1
            future = ServeFuture()
            self._queue.append(_WorkerRequest(self._rid, req, timeout_s, future))
            self.n_requests += 1
            self.obs.counter("serve.requests", "requests admitted").inc()
        return future

    def multiply(self, matrix, x, *, timeout_s: float | None = None):
        """Blocking convenience: :meth:`submit` + :meth:`drain` + result."""
        future = self.submit(matrix, x, timeout_s=timeout_s)
        self.drain()
        return future.result()

    def queue_depth(self) -> int:
        """Queued + in-flight occupancy (see :meth:`SpMVServer.queue_depth`)."""
        with self._lock:
            return len(self._queue) + len(self._sent)

    def prime(self, prepared: PreparedMatrix) -> str:
        """Warm the child's cache with ``prepared`` (shared zero-copy).

        Shares the buffers (idempotent), retains the parent-side handle
        for restart re-warming, and -- when a child is up -- installs it
        into the child's prepared cache so the first request for the key
        is already a cache hit.  Returns the serve key.
        """
        key = prime_key(self.engine, prepared)
        self._install(key, prepared)
        return key

    def _install(self, key: str, prepared: PreparedMatrix) -> None:
        """:meth:`prime` under a precomputed key (the fabric's entry)."""
        with self._lock:
            prepared.share()
            # One re-warm handle per structure: a value refresh replaces
            # the older version instead of pinning its segment forever.
            self._primed[structural_key(key)] = (key, prepared)
            if self.alive:
                self._send_prime(key, prepared)

    # ------------------------------------------------------------------ #
    # Pipe pump
    # ------------------------------------------------------------------ #

    def drain(self) -> int:
        """Pump until every queued request has a reply; returns count.

        Keeps at most ``max_inflight`` requests on the pipe, eagerly
        collecting replies between sends.  A reply timeout with the
        child still alive is the hung-worker signal: the child is
        SIGKILLed, in-flight futures fail with
        :class:`~repro.errors.ShardCrashError`, and the shard waits for
        its supervisor.
        """
        done0 = self.n_responses
        with self._lock:
            if self._dead:
                self._fail_outstanding(self._death_error())
                return 0
            while self._queue or self._sent:
                while (
                    self._queue
                    and len(self._sent) < self.worker.max_inflight
                    and not self._dead
                ):
                    self._send_request(self._queue.popleft())
                if self._dead or not self._sent:
                    # Death mid-send (futures already failed), or every
                    # send bounced -- nothing left to wait for.
                    if self._dead:
                        break
                    continue
                status = self._recv_one(self.worker.reply_timeout_s)
                if status == "timeout":
                    self._on_death(hung=True)
                if status in ("timeout", "dead"):
                    break
            if self._dead:
                self._fail_outstanding(self._death_error())
        return self.n_responses - done0

    def pump_replies(self) -> int:
        """Collect whatever replies are already on the pipe (non-blocking)."""
        n = 0
        with self._lock:
            while self.alive and self._conn.poll(0):
                if self._recv_one(0.0) != "msg":
                    break
                n += 1
        return n

    def _send_request(self, wreq: _WorkerRequest) -> bool:
        key, operand, x = wreq.admitted
        if key in self._child_keys and wreq.resends == 0:
            operand = None  # the child serves it from its cache
        try:
            self._conn.send(("req", wreq.rid, key, operand, x, wreq.timeout_s))
        except (BrokenPipeError, OSError):
            self._queue.appendleft(wreq)
            self._on_death(hung=False)
            return False
        self._sent[wreq.rid] = wreq
        return True

    def _recv_one(self, timeout: float) -> str:
        """Wait for one message: ``"msg"`` | ``"dead"`` | ``"timeout"``."""
        deadline = self._clock() + timeout
        while True:
            try:
                ready = self._conn.poll(min(max(deadline - self._clock(), 0.0), 0.05))
            except (BrokenPipeError, OSError):
                self._on_death(hung=False)
                return "dead"
            if ready:
                try:
                    msg = self._conn.recv()
                except (EOFError, OSError):
                    self._on_death(hung=False)
                    return "dead"
                self._dispatch(msg)
                return "msg"
            if self._proc is None or not self._proc.is_alive():
                # Sweep messages written before the child died, then
                # declare the death.
                try:
                    while self._conn.poll(0):
                        self._dispatch(self._conn.recv())
                except (EOFError, OSError):
                    pass
                self._on_death(hung=False)
                return "dead"
            if self._clock() >= deadline:
                return "timeout"

    def _dispatch(self, msg) -> None:
        kind = msg[0]
        if kind == "res":
            req = self._sent.pop(msg[1], None)
            if req is not None:
                self._child_keys.add(req.admitted.key)
                self.n_responses += 1
                req.future._complete(msg[2])
        elif kind == "err":
            req = self._sent.pop(msg[1], None)
            if req is not None:
                self.n_responses += 1
                req.future._fail(msg[2])
        elif kind == "needop":
            req = self._sent.pop(msg[1], None)
            if req is not None:
                self._child_keys.discard(req.admitted.key)
                req.resends += 1
                if req.resends > 1:
                    self.n_responses += 1
                    req.future._fail(RemoteWorkerError(
                        f"worker {self.name} requested the operand for "
                        f"{req.admitted.key} twice; giving up",
                        original_type="needop-loop",
                    ))
                else:
                    self.n_needop += 1
                    self._queue.appendleft(req)
        elif kind == "pong":
            self._pong_seq = max(self._pong_seq, msg[1])
            self._last_stats = msg[2]
        elif kind == "primed":
            self._last_primed = msg
        elif kind == "bad":
            # The child lost a request id mid-deserialize: everything
            # outstanding is ambiguous, fail it all with the cause.
            for req in list(self._sent.values()):
                self.n_responses += 1
                req.future._fail(msg[1])
            self._sent.clear()

    def _send_prime(self, key: str, prepared: PreparedMatrix) -> str:
        """Install one key child-side; returns ``"shared"`` or ``"csr"``."""
        payload = pickle.dumps(prepared)
        reply = self._prime_roundtrip(("prime", key, payload))
        if reply[2]:
            self._child_keys.add(key)
            return "shared"
        # Attach failed (arena unlinked / vanished): ship the CSR arrays
        # and let the child re-prepare under the same deterministic
        # tuning; the parent-side handle keeps answering reference_csr()
        # even when its segment is gone because the views live on.
        csr = prepared.reference_csr()
        reply = self._prime_roundtrip(
            ("prime_csr", key, (csr.data, csr.indices, csr.indptr, csr.shape))
        )
        if not reply[2]:
            raise reply[3]
        self.n_csr_reprimes += 1
        self.obs.counter(
            "worker.csr_reprimes",
            "restart re-primes that fell back to shipping CSR arrays",
        ).inc(worker=self.name)
        self._child_keys.add(key)
        return "csr"

    def _prime_roundtrip(self, msg) -> tuple:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError):
            self._on_death(hung=False)
            raise self._death_error() from None
        deadline = self._clock() + self.worker.reply_timeout_s
        while True:
            status = self._recv_one(max(deadline - self._clock(), 0.01))
            if status == "timeout":
                self._on_death(hung=True)
                raise self._death_error()
            if status == "dead":
                raise self._death_error()
            if self._last_primed is not None:
                reply, self._last_primed = self._last_primed, None
                return reply

    #: ``primed`` replies are routed here by ``_dispatch`` so the
    #: roundtrip helper can interleave with request replies without
    #: losing either.
    _last_primed: tuple | None = None

    # ------------------------------------------------------------------ #
    # Death & chaos verbs
    # ------------------------------------------------------------------ #

    def ping(self) -> int:
        """Send one heartbeat; the child answers with a ``pong`` + stats."""
        with self._lock:
            if not self.alive:
                return -1
            self._ping_seq += 1
            try:
                self._conn.send(("ping", self._ping_seq))
            except (BrokenPipeError, OSError):
                self._on_death(hung=False)
                return -1
            return self._ping_seq

    def inject_hang(self) -> bool:
        """Make the child stop reading its pipe (``serve.worker_hang``)."""
        with self._lock:
            if not self.alive:
                return False
            try:
                self._conn.send(("hang",))
            except (BrokenPipeError, OSError):
                self._on_death(hung=False)
                return False
            return True

    def kill_process(self, error: BaseException | None = None) -> int:
        """SIGKILL the child (``serve.worker_kill``); returns orphan count.

        Unlike :meth:`kill` the shard is *not* closed: in-flight futures
        fail (the fabric replays them) and the shard waits for its
        supervisor to :meth:`respawn` it.
        """
        with self._lock:
            if not self.alive:
                return 0
            doomed = len(self._queue) + len(self._sent)
            self.n_kills += 1
            self.obs.counter(
                "worker.kills", "shard workers SIGKILLed"
            ).inc(worker=self.name)
            try:
                self._proc.kill()
            except Exception:  # pragma: no cover - already reaped
                pass
            self._on_death(hung=False, error=error)
            return doomed

    def _death_error(self) -> BaseException:
        if self.last_error is not None:
            return self.last_error
        return ShardCrashError(
            f"worker {self.name} is down", shard=self.name
        )

    def _on_death(self, *, hung: bool, error: BaseException | None = None) -> None:
        if self._dead:
            return
        self._dead = True
        if hung:
            self.n_hangs += 1
            self.obs.counter(
                "worker.hangs", "workers SIGKILLed after reply-timeout silence"
            ).inc(worker=self.name)
            try:
                self._proc.kill()
            except Exception:  # pragma: no cover - already gone
                pass
        if self._proc is not None:
            self._proc.join(timeout=5.0)
            self.last_exit_code = self._proc.exitcode
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass
            self._conn = None
        if error is None:
            reason = (
                "went silent (reply timeout) and was SIGKILLed"
                if hung
                else f"died (exit code {self.last_exit_code})"
            )
            error = ShardCrashError(
                f"worker {self.name} {reason} with requests in flight",
                shard=self.name,
            )
        self.last_error = error
        self.n_deaths += 1
        self.obs.counter(
            "worker.deaths", "shard worker processes lost"
        ).inc(worker=self.name, hung=str(hung).lower())
        self._fail_outstanding(error)

    def _fail_outstanding(self, error: BaseException) -> None:
        doomed = list(self._sent.values()) + list(self._queue)
        self._sent.clear()
        self._queue.clear()
        for req in doomed:
            self.n_responses += 1
            req.future._fail(error)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def kill(self, error: BaseException | None = None) -> int:
        """Permanent abrupt shutdown (the ``SpMVServer.kill`` contract).

        The fabric's ``kill_shard`` calls this for shards it has marked
        dead-forever; the worker is SIGKILLed *and* the shard refuses
        all further work (no supervisor restart).
        """
        with self._lock:
            doomed = len(self._queue) + len(self._sent)
            if self.alive:
                try:
                    self._proc.kill()
                except Exception:  # pragma: no cover
                    pass
                self._on_death(hung=False, error=error)
            elif error is not None or self._queue or self._sent:
                self._fail_outstanding(
                    error if error is not None else self._death_error()
                )
            self._closed = True
            self._primed.clear()
            return doomed

    def close(self, drain: bool = True) -> None:
        """Graceful stop: finish queued work, ask the child to exit.

        ``drain=False`` fails queued futures and SIGKILLs instead.  The
        parent's shared-arena handles are released (refcount down; the
        owner's release unlinks).  Idempotent.
        """
        with self._lock:
            if self._closed and not self.alive:
                return
            if not drain:
                self.kill()
                return
            if self.alive:
                self.drain()
            self._closed = True
            if self.alive:
                try:
                    self._conn.send(("stop",))
                    deadline = self._clock() + self.worker.stop_grace_s
                    while self._clock() < deadline:
                        if self._conn.poll(0.01):
                            msg = self._conn.recv()
                            if msg[0] == "stopped":
                                self._last_stats = msg[1]
                                break
                            self._dispatch(msg)
                        elif not self._proc.is_alive():
                            break
                except (BrokenPipeError, EOFError, OSError):
                    pass
                self._proc.join(timeout=self.worker.stop_grace_s)
                if self._proc.is_alive():
                    self._proc.kill()
                    self._proc.join(timeout=5.0)
                self.last_exit_code = self._proc.exitcode
                self._dead = True
                if self._conn is not None:
                    try:
                        self._conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    self._conn = None
            self._fail_outstanding(ServerClosedError(
                f"worker {self.name} closed before the request was dispatched"
            ))

    def __enter__(self) -> "ProcessShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """JSON-able snapshot, shaped like :meth:`SpMVServer.stats`.

        Child-side numbers (cache, batches) are the last ones the child
        reported (heartbeat pongs and the stop handshake refresh them);
        parent-side admission and lifecycle counters are always current.
        """
        child = dict(self._last_stats)
        cache = child.get("cache") or {
            "hits": 0, "misses": 0, "evictions": 0,
            "entries": 0, "total_bytes": 0,
        }
        with self._lock:
            return {
                "requests": self.n_requests,
                "responses": self.n_responses,
                "shed": self.n_shed,
                "batches": child.get("batches", 0),
                "batched_requests": child.get("batched_requests", 0),
                "batch_fallbacks": child.get("batch_fallbacks", 0),
                "deadline_expiries": child.get("deadline_expiries", 0),
                "breaker_rejections": child.get("breaker_rejections", 0),
                "internal_errors": child.get("internal_errors", 0),
                "queued": len(self._queue) + len(self._sent),
                "cache": cache,
                "worker": {
                    "pid": self.pid,
                    "alive": self.alive,
                    "exit_code": self.last_exit_code,
                    "spawns": self.n_spawns,
                    "kills": self.n_kills,
                    "hangs": self.n_hangs,
                    "deaths": self.n_deaths,
                    "needop": self.n_needop,
                    "csr_reprimes": self.n_csr_reprimes,
                    "primed_keys": len(self._primed),
                },
            }
