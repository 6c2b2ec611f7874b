"""A line-framed JSON wire protocol over plain sockets.

One TCP connection carries one session.  Requests and responses are
single JSON objects, one per ``\\n``-terminated line (UTF-8, no binary
framing — trivially debuggable with ``nc``):

Requests::

    {"op": "hello", "tenant": "t0", "priority": 5, "timeout": 2.0}
    {"op": "query", "sql": "SELECT ...", "id": 7,
     "timeout": 1.0, "parallel": false}
    {"op": "close"}

Responses::

    {"ok": true, "session_id": "s0001"}                      (hello)
    {"ok": true, "id": 7, "columns": ["c"], "rows": [[1]],
     "row_count": 1}                                         (query)
    {"ok": false, "id": 7, "error_class": "QueryRejectedError",
     "message": "..."}                                       (failure)

The server closes the session when the connection drops — for any
reason, including an abrupt client disconnect mid-query — which
cancels the session's in-flight queries cooperatively (see
``docs/SERVING.md``).  :class:`WireClient` is the matching stdlib-only
client; it re-raises failures as their original
:mod:`repro.errors` exception types.
"""

from __future__ import annotations

import json
import socket
import threading

from repro import errors as _errors
from repro.errors import DatabaseError


#: bound on waiting for each wire thread when the server closes
JOIN_SECONDS = 2.0


def _jsonable(value):
    """A result cell as a plain JSON value (numpy scalars unwrapped)."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (str, bytes)):
        return item()
    return value


class WireServer:
    """Serves the wire protocol for one :class:`~.server.Server`."""

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0):
        self._server = server
        self._socket = socket.create_server((host, port))
        self.host, self.port = self._socket.getsockname()[:2]
        self._closed = False
        self._lock = threading.Lock()
        #: open client connections and the threads serving them
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-wire-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _ = self._socket.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:  # close()'s wake-up connection
                    connection.close()
                    return
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name="repro-wire-conn",
                    daemon=True,
                )
                self._connections[connection] = thread
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        session = None
        # The reader holds a reference on the socket: close() alone
        # leaves the fd open until both are closed.
        reader = connection.makefile("r", encoding="utf-8")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as error:
                    self._respond(
                        connection,
                        {
                            "ok": False,
                            "error_class": "SqlSyntaxError",
                            "message": f"bad request framing: {error}",
                        },
                    )
                    continue
                session, stop = self._handle(
                    connection, session, request
                )
                if stop:
                    break
        except OSError:
            pass  # client went away; fall through to cleanup
        finally:
            # A dropped connection closes the session, which cancels
            # its in-flight queries cooperatively.
            if session is not None:
                session.close(reason="client disconnected")
            with self._lock:
                self._connections.pop(connection, None)
            for handle in (reader, connection):
                try:
                    handle.close()
                except OSError:
                    pass

    def _handle(self, connection, session, request):
        op = request.get("op")
        request_id = request.get("id")
        try:
            if op == "hello":
                session = self._server.open_session(
                    tenant=str(request.get("tenant", "default")),
                    priority=int(request.get("priority", 0)),
                    timeout_seconds=request.get("timeout"),
                )
                self._respond(
                    connection,
                    {"ok": True, "session_id": session.session_id},
                )
                return session, False
            if op == "close":
                self._respond(connection, {"ok": True})
                return session, True
            if op == "query":
                if session is None:
                    raise DatabaseError(
                        "no session: send a hello request first"
                    )
                result = session.execute(
                    str(request["sql"]),
                    timeout_seconds=request.get("timeout"),
                    parallel=bool(request.get("parallel", False)),
                )
                self._respond(
                    connection,
                    {
                        "ok": True,
                        "id": request_id,
                        "columns": list(result.schema.names),
                        "rows": [
                            [_jsonable(value) for value in row]
                            for row in result.rows
                        ],
                        "row_count": result.row_count,
                    },
                )
                return session, False
            raise DatabaseError(f"unknown wire op {op!r}")
        except Exception as error:
            self._respond(
                connection,
                {
                    "ok": False,
                    "id": request_id,
                    "error_class": type(error).__name__,
                    "message": str(error),
                },
            )
            return session, False

    @staticmethod
    def _respond(connection: socket.socket, payload: dict) -> None:
        try:
            connection.sendall(
                (json.dumps(payload) + "\n").encode("utf-8")
            )
        except OSError:
            pass  # client gone; its session closes on loop exit

    def close(self) -> None:
        """Stop accepting, drop open connections, join the threads.

        A dropped connection closes its session, which cancels the
        session's in-flight queries cooperatively; each thread is
        waited for up to :data:`JOIN_SECONDS`.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = dict(self._connections)
        # accept() does not notice its listener closing under it.  Two
        # wake-ups: shutting the listener down fails a blocked accept()
        # on Linux; elsewhere (ENOTCONN) a throwaway connection wakes
        # the loop, which then sees _closed.
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            try:
                socket.create_connection(self.address, timeout=1.0).close()
            except OSError:
                pass
        self._accept_thread.join(JOIN_SECONDS)
        self._socket.close()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client already went away
        for thread in connections.values():
            thread.join(JOIN_SECONDS)

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class WireClient:
    """A blocking stdlib client for the wire protocol."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        priority: int = 0,
        timeout_seconds: float | None = None,
    ):
        self._socket = socket.create_connection((host, port))
        self._reader = self._socket.makefile("r", encoding="utf-8")
        self._lock = threading.Lock()
        hello = {"op": "hello", "tenant": tenant, "priority": priority}
        if timeout_seconds is not None:
            hello["timeout"] = timeout_seconds
        response = self.request(hello)
        self.session_id = response.get("session_id", "")

    def request(self, payload: dict) -> dict:
        """Send one request line, read one response line."""
        with self._lock:
            self._socket.sendall(
                (json.dumps(payload) + "\n").encode("utf-8")
            )
            line = self._reader.readline()
        if not line:
            raise ConnectionError("wire server closed the connection")
        response = json.loads(line)
        if not response.get("ok", False):
            error_type = getattr(
                _errors, response.get("error_class", ""), DatabaseError
            )
            if not (
                isinstance(error_type, type)
                and issubclass(error_type, Exception)
            ):
                error_type = DatabaseError
            raise error_type(response.get("message", "wire error"))
        return response

    def query(
        self,
        sql: str,
        timeout_seconds: float | None = None,
        parallel: bool = False,
        request_id=None,
    ) -> dict:
        """Execute *sql*; returns the decoded response payload.

        Failures re-raise as their original exception types
        (``QueryRejectedError``, ``QueryTimeoutError``, ...).
        """
        payload = {"op": "query", "sql": sql, "parallel": parallel}
        if timeout_seconds is not None:
            payload["timeout"] = timeout_seconds
        if request_id is not None:
            payload["id"] = request_id
        return self.request(payload)

    def close(self) -> None:
        try:
            self.request({"op": "close"})
        except (OSError, ConnectionError):
            pass
        for handle in (self._reader, self._socket):
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
