"""Remote execution: ship task batches to worker daemons over TCP.

:class:`RemoteExecutor` is the multi-host analogue of
:class:`~repro.exec.supervise.SupervisedExecutor`: the same cost-packed
chunking, the same :class:`~repro.exec.supervise.RetryPolicy`, the same
per-task acks-as-heartbeats, bisection on lost assignments, and
quarantine semantics — one shared dispatch core
(:class:`~repro.exec.supervise._Dispatch`) decides all of them for both
executors — but the "workers" are
:class:`WorkerServer` daemons (``scripts/worker.py``) reached over
length-prefixed, CRC-checked frames instead of forked processes reached
over pipes.  Tasks are already plain-data, fingerprinted payloads
(:class:`~repro.exec.task.SimTask`), so shipping them to another host
cannot change what they compute: completed remote results are
bitwise-identical to a fault-free serial run, pinned by the same golden
digests as every other executor.

Failure contract (the PR-8 semantics, verbatim, over a network):

* **Lease-based ownership** — an assignment's deadline is the policy's
  slack plus the sum of its unacknowledged tasks' cost-derived budgets;
  every per-task result message is an ack that shrinks the budget and
  extends the lease.  A silent worker (hung, partitioned, or just gone)
  blows its lease, the connection is dropped, and the lost tasks
  re-dispatch with **bisection** — the PR-8 poison-isolation bound: a
  task that provably kills whatever runs it is isolated in at most
  ``log2(chunk)`` resubmissions, then quarantined (or raised).
* **Reconnect with backoff** — a lost connection retries with
  exponential backoff under a **resumable session id**: the daemon
  keeps a per-session result cache keyed by task fingerprint, so
  re-dispatched tasks that already ran are answered instantly instead
  of recomputed.  After ``max_reconnects`` consecutive failures the
  worker is written off as dead.
* **Straggler mitigation** — when a worker sits idle and nothing is
  queued, the tail half of the busiest in-flight assignment is
  *stolen*: re-packed into a speculative duplicate assignment, resolved
  first-result-wins.  Safe because results are deterministic per
  fingerprint — whichever copy lands first *is* the answer.
* **Graceful degradation** — zero reachable workers (at startup or
  mid-batch) falls back to a local
  :class:`~repro.exec.supervise.SupervisedExecutor` with a warning,
  never an error.

Chaos testing rides the same seeded :class:`~repro.exec.faults.FaultPlan`
scheme: the wire kinds (``conn-drop`` / ``frame-corrupt`` /
``partition`` / ``delay``) fire at the daemon's *send* boundary — after
the task ran and was cached — so an injected network fault costs a
round-trip, not a recompute, and the schedule is a pure function of
``(plan, fingerprint, attempt)``.

Security note: frames are pickled Python objects.  The checksum detects
*corruption*, not tampering — run workers only on hosts/networks you
trust, exactly like any other pickle-based RPC
(``multiprocessing.connection`` included).
"""

from __future__ import annotations

import argparse
import itertools
import pickle
import select
import socket
import struct
import threading
import time
import uuid
import warnings
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from . import faults
from .executors import Executor, ProgressFn, chunk_tasks
from .supervise import (RetryPolicy, SupervisedExecutor, _Assignment,
                        _Dispatch, _Lease, _run_units)
from .task import SimTask, SimTaskResult, cache_key

__all__ = ["FrameError", "RemoteExecutor", "RemoteStats", "WorkerServer",
           "add_workers_argument", "parse_workers", "recv_frame",
           "send_frame", "serve_worker", "workers_from_args"]

#: Client poll tick, mirroring the supervisor's.
_TICK_S = 0.05

# ----------------------------------------------------------------------
# Wire format: 4-byte magic, big-endian (crc32, length) header, pickled
# payload.  The CRC covers the *uncorrupted* payload, so a frame whose
# bytes were damaged in flight (or by the frame-corrupt chaos fault)
# fails the checksum instead of unpickling garbage.

_MAGIC = b"RPX1"
_HEADER = struct.Struct(">II")
#: Refuse absurd frame lengths outright — a desynced or hostile stream
#: must not convince the client to buffer gigabytes.
_MAX_FRAME = 1 << 28


class FrameError(RuntimeError):
    """A frame failed its magic, length bound, or checksum.

    Always treated as a broken connection: once the byte stream has
    desynced there is no way to find the next frame boundary, so the
    peer is dropped and (client-side) the reconnect path takes over.
    """


class _DropConnection(Exception):
    """Internal: the conn-drop chaos fault — abandon this connection."""


def _corrupted(payload: bytes) -> bytes:
    """Flip the first bytes of ``payload`` (chaos: frame-corrupt)."""
    return bytes(b ^ 0xFF for b in payload[:16]) + payload[16:]


def send_frame(sock: socket.socket, obj, corrupt: bool = False) -> None:
    """Pickle ``obj`` and send it as one checksummed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = _MAGIC + _HEADER.pack(zlib.crc32(payload) & 0xFFFFFFFF,
                                   len(payload))
    sock.sendall(header + (_corrupted(payload) if corrupt else payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        data = sock.recv(n - len(buf))
        if not data:
            raise ConnectionError("connection closed mid-frame")
        buf.extend(data)
    return bytes(buf)


def recv_frame(sock: socket.socket):
    """Blocking read of one frame (daemon side / client handshake)."""
    header = _recv_exact(sock, len(_MAGIC) + _HEADER.size)
    if header[:len(_MAGIC)] != _MAGIC:
        raise FrameError(f"bad frame magic {header[:len(_MAGIC)]!r}")
    crc, length = _HEADER.unpack(header[len(_MAGIC):])
    if length > _MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds limit")
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("frame checksum mismatch")
    return pickle.loads(payload)


def _parse_frames(buf: bytearray) -> List:
    """Pop every complete frame off ``buf`` (client's per-conn buffer)."""
    out = []
    header_len = len(_MAGIC) + _HEADER.size
    while len(buf) >= header_len:
        if bytes(buf[:len(_MAGIC)]) != _MAGIC:
            raise FrameError(f"bad frame magic {bytes(buf[:4])!r}")
        crc, length = _HEADER.unpack(bytes(buf[len(_MAGIC):header_len]))
        if length > _MAX_FRAME:
            raise FrameError(f"frame length {length} exceeds limit")
        if len(buf) < header_len + length:
            break
        payload = bytes(buf[header_len:header_len + length])
        del buf[:header_len + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise FrameError("frame checksum mismatch")
        out.append(pickle.loads(payload))
    return out


# ----------------------------------------------------------------------
# Worker daemon.


class WorkerServer:
    """A worker daemon serving :class:`RemoteExecutor` clients.

    Thread-per-connection; each connection carries one assignment at a
    time (mirroring one local worker process).  Results are cached per
    *session* keyed by task fingerprint, capped LRU at ``cache_size``
    entries — a client that reconnects under its session id and
    re-dispatches tasks whose results were lost in flight gets instant
    cache hits instead of recomputes.

    ``injector`` overrides fault injection explicitly (tests); when
    ``None``, the daemon uses :func:`repro.exec.faults.injector_from_env`
    — armed only in processes marked by
    :func:`~repro.exec.faults.mark_worker_process`, which
    :func:`serve_worker` (and so ``scripts/worker.py``) does.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 injector: Optional[faults.FaultInjector] = None,
                 cache_size: int = 4096):
        self.host = host
        self.port = port
        self.injector = injector
        self.cache_size = max(int(cache_size), 1)
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: Dict[str, "OrderedDict[str, SimTaskResult]"] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Bind, listen, and serve in background threads; return the
        bound port (useful with ``port=0``)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(16)
        sock.settimeout(0.2)       # so the accept loop can see stop()
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept",
            daemon=True)
        self._accept_thread.start()
        return self.port

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (or KeyboardInterrupt)."""
        if self._sock is None:
            self.start()
        try:
            while not self._stop.is_set():
                thread = self._accept_thread
                if thread is None or not thread.is_alive():
                    break
                thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            sock = self._sock
            if sock is None:
                return
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn,),
                             name="repro-worker-conn",
                             daemon=True).start()

    # -- session cache -----------------------------------------------------

    def _session(self, sid: str) -> "OrderedDict[str, SimTaskResult]":
        with self._lock:
            return self._sessions.setdefault(sid, OrderedDict())

    def _cache_get(self, cache, key: str) -> Optional[SimTaskResult]:
        with self._lock:
            result = cache.get(key)
            if result is not None:
                cache.move_to_end(key)
            return result

    def _cache_put(self, cache, key: str,
                   result: SimTaskResult) -> None:
        with self._lock:
            cache[key] = result
            cache.move_to_end(key)
            while len(cache) > self.cache_size:
                cache.popitem(last=False)

    # -- per-connection protocol -------------------------------------------

    def _active_injector(self) -> Optional[faults.FaultInjector]:
        if self.injector is not None:
            return self.injector
        try:
            return faults.injector_from_env()
        except ValueError:
            return None

    def _serve_conn(self, sock: socket.socket) -> None:
        try:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            hello = recv_frame(sock)
            if not (isinstance(hello, tuple) and len(hello) >= 2
                    and hello[0] == "hello"):
                return
            sid = hello[1] or uuid.uuid4().hex
            cache = self._session(sid)
            send_frame(sock, ("welcome", sid))
            while not self._stop.is_set():
                msg = recv_frame(sock)
                kind = msg[0] if isinstance(msg, tuple) and msg else None
                if kind == "bye":
                    return
                if kind == "ping":
                    send_frame(sock, ("pong",))
                elif kind == "run" and len(msg) == 5:
                    _, aid, attempt, positions, tasks = msg
                    self._run_assignment(sock, cache, aid, attempt,
                                         positions, tasks)
        except _DropConnection:
            pass
        except (FrameError, ConnectionError, OSError, EOFError,
                pickle.PickleError):
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _run_assignment(self, sock, cache, aid: int, attempt: int,
                        positions: List[int],
                        tasks: List[SimTask]) -> None:
        """Run one assignment; per-task result messages double as the
        client's heartbeat acks, exactly like the local supervised
        worker's (:func:`repro.exec.supervise._worker_main`)."""
        injector = self._active_injector()
        keys = [cache_key(task) for task in tasks]
        todo = []
        for j, key in enumerate(keys):
            cached = self._cache_get(cache, key)
            if cached is None:
                todo.append(j)
            else:
                # Session replay: the task already ran here (its result
                # was lost in flight) — answer from cache, skip in-task
                # faults (the task is not re-executing).
                self._send_result(sock, injector, key, attempt,
                                  ("result", aid, positions[j], cached))
        for k, out, detail in _run_units([tasks[j] for j in todo],
                                         attempt, injector):
            j = todo[k]
            if detail is not None:
                send_frame(sock, ("failure", aid, positions[j], detail))
                continue
            self._cache_put(cache, keys[j], out)
            self._send_result(sock, injector, keys[j], attempt,
                              ("result", aid, positions[j], out))
        send_frame(sock, ("done", aid))

    def _send_result(self, sock, injector, key: str, attempt: int,
                     message) -> None:
        """Send one result frame, applying any scheduled wire fault.

        Faults fire *after* the result is computed and cached, so the
        client's re-dispatch under the same session costs a round-trip,
        not a recompute.
        """
        kind = (injector.on_wire(key, attempt)
                if injector is not None else None)
        if kind == "conn-drop":
            raise _DropConnection(key)
        if kind == "partition":
            time.sleep(injector.plan.partition_s)
        elif kind == "delay":
            time.sleep(injector.plan.delay_s)
        send_frame(sock, message, corrupt=(kind == "frame-corrupt"))


def serve_worker(host: str = "127.0.0.1", port: int = 0,
                 cache_size: int = 4096,
                 on_ready: Optional[Callable[[int], None]] = None) -> None:
    """Run one worker daemon in this process until interrupted.

    Marks the process as a worker first
    (:func:`~repro.exec.faults.mark_worker_process`), so a
    ``REPRO_FAULTS`` plan arms in-task and wire faults *here* — never in
    the dispatching client, whose serial-fallback runs must stay clean.
    ``on_ready`` (if given) receives the bound port once listening.
    """
    faults.mark_worker_process()
    server = WorkerServer(host=host, port=port, cache_size=cache_size)
    bound = server.start()
    if on_ready is not None:
        on_ready(bound)
    server.serve_forever()


# ----------------------------------------------------------------------
# Client.


@dataclass
class RemoteStats:
    """Cumulative counters, mostly for the chaos tests and logs."""

    conn_losses: int = 0        # connections dropped mid-assignment
    reconnects: int = 0         # successful session-resuming reconnects
    dead_workers: int = 0       # workers written off after max_reconnects
    lease_expiries: int = 0     # assignments whose heartbeat lease blew
    frame_errors: int = 0       # corrupt frames (checksum/magic/pickle)
    retries: int = 0            # single-task retries
    bisections: int = 0         # crash-triggered chunk splits
    resubmissions: int = 0      # assignments requeued after a crash
    steals: int = 0             # work-stealing re-packs of batch tails
    duplicates: int = 0         # tasks speculatively duplicated by steals
    serial_fallbacks: int = 0   # in-process last-resort executions
    quarantined: int = 0        # tasks finalized as failure results
    local_fallbacks: int = 0    # batches degraded to the local pool


class _Conn:
    """One worker address plus its connection/assignment state."""

    __slots__ = ("addr", "sock", "buf", "session", "state", "failures",
                 "retry_at", "running")

    def __init__(self, addr: Tuple[str, int]):
        self.addr = addr
        self.sock: Optional[socket.socket] = None
        self.buf = bytearray()
        self.session: Optional[str] = None
        #: offline | idle | busy | backoff | dead
        self.state = "offline"
        self.failures = 0          # consecutive connect failures
        self.retry_at = 0.0
        self.running: Optional[_Lease] = None

    @property
    def name(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"


def parse_workers(spec: Union[str, Sequence]) -> List[Tuple[str, int]]:
    """``"host:port,host:port"`` (or a sequence of strings / (host,
    port) pairs) -> a list of addresses.  Listing an address twice opens
    two lanes to that daemon — the unit of client-side parallelism is
    the connection."""
    if isinstance(spec, str):
        parts: List = [part.strip() for part in spec.split(",")
                       if part.strip()]
    else:
        parts = list(spec)
    addrs: List[Tuple[str, int]] = []
    for part in parts:
        if isinstance(part, (tuple, list)) and len(part) == 2:
            host, port = str(part[0]), int(part[1])
        else:
            host, sep, text = str(part).rpartition(":")
            try:
                port = int(text)
            except ValueError:
                sep = ""
            if not sep or not host:
                raise ValueError(
                    f"worker address must be HOST:PORT, got {part!r}")
        # getaddrinfo would wrap 70000 to 4464 and dial the wrong
        # daemon, or reject -1 only after the reconnect backoffs.
        if not 1 <= port <= 65535:
            raise ValueError(f"worker port must be in 1-65535, got "
                             f"{port} in {part!r}")
        addrs.append((host, port))
    return addrs


class RemoteExecutor(Executor):
    """Fan tasks out to remote worker daemons.

    The "pool" is a set of TCP connections to :class:`WorkerServer`
    daemons.  This class is only the transport — sockets, sessions,
    reconnect with backoff, work stealing, and local fallback; the
    failure contract (see the module docstring) is the same
    :class:`~repro.exec.supervise._Dispatch` core the local supervised
    executor runs, under the same
    :class:`~repro.exec.supervise.RetryPolicy`.

    ``fallback_jobs`` sizes the local
    :class:`~repro.exec.supervise.SupervisedExecutor` used when zero
    workers are reachable (default: one per local core).  The fallback
    is created lazily and owned by this executor — ``close()`` releases
    it exactly once.
    """

    def __init__(self, workers: Union[str, Sequence],
                 chunk_size: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None,
                 fallback_jobs: Optional[int] = None,
                 connect_timeout_s: float = 5.0,
                 reconnect_base_s: float = 0.2,
                 reconnect_max_s: float = 5.0,
                 max_reconnects: int = 4,
                 steal: bool = True):
        addrs = parse_workers(workers)
        if not addrs:
            raise ValueError("RemoteExecutor needs at least one worker "
                             "address (HOST:PORT)")
        self.addrs = addrs
        self.jobs = len(addrs)
        self.chunk_size = chunk_size
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = RemoteStats()
        self.fallback_jobs = fallback_jobs
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_max_s = reconnect_max_s
        self.max_reconnects = max_reconnects
        self.steal = steal
        self._conns: List[_Conn] = []
        self._fallback: Optional[SupervisedExecutor] = None
        self._aids = itertools.count(1)

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        return self._collect(tasks, progress)

    # -- connection lifecycle ---------------------------------------------

    def _ensure_conns(self) -> List[_Conn]:
        if not self._conns:
            self._conns = [_Conn(addr) for addr in self.addrs]
        return self._conns

    def _backoff(self, conn: _Conn) -> None:
        conn.failures += 1
        if conn.failures > self.max_reconnects:
            conn.state = "dead"
            self.stats.dead_workers += 1
        else:
            conn.state = "backoff"
            conn.retry_at = time.monotonic() + min(
                self.reconnect_base_s * 2.0 ** (conn.failures - 1),
                self.reconnect_max_s)

    def _open(self, conn: _Conn) -> bool:
        """Connect + handshake; on failure schedule a backoff retry."""
        resuming = conn.session is not None
        try:
            sock = socket.create_connection(
                conn.addr, timeout=self.connect_timeout_s)
            try:
                sock.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
            except OSError:
                pass
            # Stay under a timeout permanently: sends that wedge (peer
            # gone but TCP hasn't noticed) surface as socket.timeout
            # instead of blocking the dispatch loop forever.
            sock.settimeout(self.connect_timeout_s)
            send_frame(sock, ("hello", conn.session))
            msg = recv_frame(sock)
            if not (isinstance(msg, tuple) and len(msg) >= 2
                    and msg[0] == "welcome"):
                sock.close()
                raise FrameError(f"bad handshake from {conn.name}")
            conn.session = msg[1]
        except (OSError, FrameError, ConnectionError, EOFError,
                pickle.PickleError):
            self._backoff(conn)
            return False
        conn.sock = sock
        conn.buf = bytearray()
        conn.state = "idle"
        conn.failures = 0
        if resuming:
            self.stats.reconnects += 1
        return True

    def _lost(self, conn: _Conn) -> Optional[_Lease]:
        """Drop the connection; return its in-flight lease (if any)."""
        lease, conn.running = conn.running, None
        sock, conn.sock = conn.sock, None
        conn.buf = bytearray()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self._backoff(conn)
        return lease

    def _ensure_fallback(self) -> SupervisedExecutor:
        if self._fallback is None:
            self._fallback = SupervisedExecutor(self.fallback_jobs,
                                                policy=self.policy)
        return self._fallback

    def _run_local(self, tasks: List[SimTask], positions: Set[int],
                   reason: str) -> Iterator[Tuple[int, SimTaskResult]]:
        """Graceful degradation: run ``positions`` on the local
        supervised pool, warning (not erroring) about the downgrade."""
        order = sorted(positions)
        warnings.warn(
            f"remote execution degraded ({reason}); running "
            f"{len(order)} task(s) on the local supervised pool",
            RuntimeWarning, stacklevel=3)
        self.stats.local_fallbacks += 1
        fallback = self._ensure_fallback()
        stream = fallback.run_iter([tasks[pos] for pos in order])
        try:
            for j, result in stream:
                yield order[j], result
        finally:
            # Deterministic teardown: if this generator is abandoned
            # mid-stream, close the inner one *now* so the fallback's
            # busy workers are reaped immediately, not at GC time.
            stream.close()

    # -- the dispatch loop -------------------------------------------------

    def run_iter(self, tasks: Sequence[SimTask]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        tasks = list(tasks)
        if not tasks:
            return
        conns = self._ensure_conns()
        for conn in conns:
            # Stale state from an abandoned batch: drop the lease, keep
            # the socket warm.  Late frames carry old assignment ids
            # and are discarded by the dispatch core's aid check.
            conn.running = None
            if conn.state == "busy":
                conn.state = "idle"
            if conn.state in ("offline", "backoff"):
                self._open(conn)
        if not any(c.state in ("idle", "busy") for c in conns):
            yield from self._run_local(tasks, set(range(len(tasks))),
                                       "no reachable workers")
            return

        core = _Dispatch(tasks, chunk_tasks(tasks, self.jobs,
                                            self.chunk_size),
                         self.policy, self.stats, self._aids)
        speculated: Set[int] = set()

        def crash(conn: _Conn, kind: str, now: float) -> None:
            if kind == "worker-death":
                self.stats.conn_losses += 1
            lease = self._lost(conn)
            if lease is not None:
                core.on_lost(lease, kind, now)

        def launch(conn: _Conn, assignment: _Assignment,
                   now: float) -> bool:
            try:
                send_frame(conn.sock, (
                    "run", assignment.aid, assignment.attempt,
                    list(assignment.positions),
                    [tasks[pos] for pos in assignment.positions]))
            except (OSError, ConnectionError):
                # Never started remotely — no attempt consumed; the
                # caller requeues the assignment unchanged.
                self.stats.conn_losses += 1
                self._lost(conn)
                return False
            conn.running = core.lease(assignment, now, conn)
            conn.state = "busy"
            return True

        def dispatch(now: float) -> None:
            while True:
                idle = next((c for c in conns if c.state == "idle"),
                            None)
                if idle is None:
                    return
                assignment = core.next_ready(now)
                if assignment is None:
                    return
                if not launch(idle, assignment, now):
                    core.requeue(assignment, now)

        def maybe_steal(now: float) -> None:
            """Idle lane + empty queue: speculatively duplicate the
            tail half of the busiest in-flight assignment."""
            if not self.steal:
                return
            for idle in [c for c in conns if c.state == "idle"]:
                if core.due(now):
                    return            # real work exists; dispatch wins
                victim_tail: Optional[List[int]] = None
                for victim in conns:
                    lease = victim.running
                    if victim.state != "busy" or lease is None:
                        continue
                    avail = [pos for pos in lease.assignment.positions
                             if pos in lease.unacked
                             and pos in core.pending
                             and pos not in speculated]
                    if avail and (victim_tail is None
                                  or len(avail) > len(victim_tail)):
                        victim_tail = avail
                        victim_attempt = lease.assignment.attempt
                if victim_tail is None:
                    return
                tail = victim_tail[len(victim_tail) // 2:]
                speculated.update(tail)
                self.stats.steals += 1
                self.stats.duplicates += len(tail)
                if not launch(idle, core.assignment(tail, victim_attempt),
                              now):
                    speculated.difference_update(tail)

        try:
            while core.pending:
                now = time.monotonic()
                for conn in conns:
                    if conn.state == "backoff" and now >= conn.retry_at:
                        self._open(conn)
                dispatch(now)
                maybe_steal(now)
                by_sock = {conn.sock: conn for conn in conns
                           if conn.state in ("idle", "busy")
                           and conn.sock is not None}
                if by_sock:
                    try:
                        readable, _, _ = select.select(
                            list(by_sock), [], [], _TICK_S)
                    except (OSError, ValueError):
                        readable = list(by_sock)
                else:
                    if not any(c.state == "backoff" for c in conns):
                        break         # every worker is dead
                    time.sleep(_TICK_S)
                    readable = []
                now = time.monotonic()
                for sock in readable:
                    conn = by_sock[sock]
                    if conn.sock is not sock:
                        continue      # dropped earlier this tick
                    try:
                        while True:
                            r, _, _ = select.select([sock], [], [], 0)
                            if not r:
                                break
                            data = sock.recv(1 << 16)
                            if not data:
                                raise ConnectionError("EOF")
                            conn.buf.extend(data)
                        msgs = _parse_frames(conn.buf)
                    except (ConnectionError, OSError):
                        crash(conn, "worker-death", now)
                        continue
                    except (FrameError, pickle.PickleError, EOFError,
                            AttributeError, ValueError, IndexError):
                        self.stats.frame_errors += 1
                        crash(conn, "worker-death", now)
                        continue
                    for msg in msgs:
                        core.on_message(conn.running, msg)
                yield from core.flush()
                now = time.monotonic()
                for conn in conns:
                    lease = conn.running
                    if conn.state != "busy" or lease is None:
                        continue
                    if lease.done:
                        conn.running = None
                        conn.state = "idle"
                    elif now > lease.deadline:
                        self.stats.lease_expiries += 1
                        crash(conn, "timeout", now)
                yield from core.flush()
        except BaseException:
            # Abort (failure, ^C, or an abandoned generator): drop the
            # leases but keep healthy sockets warm — late frames from
            # these assignments are discarded by their stale aids.
            for conn in conns:
                conn.running = None
                if conn.state == "busy":
                    conn.state = "idle"
            raise
        if core.pending:
            # Mid-batch total loss: every worker written off with work
            # still owed.  Degrade, don't die.
            yield from self._run_local(tasks, core.pending,
                                       "all workers lost mid-batch")

    def close(self) -> None:
        # Detach everything *first* (same discipline as the local
        # executors): a repeated close() — e.g. after a mid-batch
        # fallback already tore things down — is a clean no-op, and
        # the lazily-created fallback pool is released exactly once.
        conns, self._conns = self._conns, []
        fallback, self._fallback = self._fallback, None
        for conn in conns:
            sock, conn.sock = conn.sock, None
            if sock is not None:
                try:
                    send_frame(sock, ("bye",))
                except (OSError, ConnectionError):
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
        if fallback is not None:
            fallback.close()


# ----------------------------------------------------------------------
# CLI surface, shared by sweep.py / run_experiments.py /
# train_assets.py.


def add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="dispatch simulation batches to these repro worker "
             "daemons (scripts/worker.py) instead of local processes; "
             "list an address twice for two parallel lanes.  Zero "
             "reachable workers degrades to the local supervised pool "
             "with a warning")


def workers_from_args(args: argparse.Namespace
                      ) -> Optional[List[Tuple[str, int]]]:
    spec = getattr(args, "workers", None)
    if not spec:
        return None
    return parse_workers(spec)
