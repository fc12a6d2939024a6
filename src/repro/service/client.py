"""A dependency-free client for the study-service gateway.

:class:`StudyServiceClient` talks to :mod:`repro.service.gateway` over
stdlib ``urllib`` — submit suites, follow their NDJSON event streams,
fetch finished traces by fingerprint and comparisons by key.  The CLI's
``submit`` / ``jobs`` / ``fetch`` subcommands and the gateway tests are
built on it; it is also the reference consumer of the HTTP API.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.service.jobs import ServiceError

__all__ = ["GatewayError", "StudyServiceClient"]


class GatewayError(ServiceError):
    """An HTTP error from the gateway, with its status and JSON message."""

    def __init__(self, status: int, message: str):
        super().__init__(f"gateway returned {status}: {message}")
        self.status = status
        self.message = message


class StudyServiceClient:
    """Talks to one study-service gateway on behalf of one tenant."""

    def __init__(self, base_url: str, tenant: str = "default",
                 timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, object]] = None,
                 timeout: Optional[float] = None):
        url = f"{self.base_url}{path}"
        data = None
        headers = {"X-Repro-Tenant": self.tenant}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = Request(url, data=data, headers=headers, method=method)
        try:
            return urlopen(request,
                           timeout=timeout if timeout is not None
                           else self.timeout)
        except HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8"))
                message = message.get("error", str(message))
            except Exception:
                message = exc.reason
            raise GatewayError(exc.code, str(message)) from None
        except URLError as exc:
            raise ServiceError(
                f"cannot reach study service at {url}: {exc.reason}"
            ) from None

    def _json(self, method: str, path: str,
              payload: Optional[Dict[str, object]] = None
              ) -> Dict[str, object]:
        with self._request(method, path, payload) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- submissions -------------------------------------------------------------------

    def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Submit a study/suite/sweep payload; returns the job snapshot."""
        payload = dict(payload)
        payload.setdefault("tenant", self.tenant)
        return self._json("POST", "/jobs", payload)

    def job(self, job_id: str) -> Dict[str, object]:
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, object]]:
        path = "/jobs" if tenant is None else f"/jobs?tenant={tenant}"
        return self._json("GET", path)["jobs"]

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    # -- event streams -----------------------------------------------------------------

    def events(self, job_id: str, since: int = 0,
               heartbeats: bool = False,
               timeout: Optional[float] = None
               ) -> Iterator[Dict[str, object]]:
        """Stream the job's NDJSON events until it reaches a terminal state.

        ``since`` skips events below that sequence number (resume a
        dropped stream without replaying).  Heartbeat lines keep the
        socket alive through long quiet stretches and are filtered out
        unless ``heartbeats=True``.
        """
        stream_timeout = timeout if timeout is not None \
            else max(self.timeout, 3600.0)
        with self._request("GET", f"/jobs/{job_id}/events?since={since}",
                           timeout=stream_timeout) as response:
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                if event.get("event") == "heartbeat" and not heartbeats:
                    continue
                yield event

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, object]:
        """Follow the event stream to completion; returns the final
        snapshot.  Raises :class:`GatewayError` on a failed job."""
        for _ in self.events(job_id, timeout=timeout):
            pass
        snapshot = self.job(job_id)
        if snapshot.get("state") == "failed":
            raise GatewayError(
                500, f"job {job_id} failed: {snapshot.get('error')}")
        return snapshot

    # -- results -----------------------------------------------------------------------

    def result(self, job_id: str) -> Dict[str, object]:
        """The finished job's snapshot incl. its result summary (409
        until the job completes)."""
        return self._json("GET", f"/jobs/{job_id}/result")

    def fetch_trace(self, fingerprint: str) -> bytes:
        """The finished trace's exact cached bytes (the ``.npz`` dump).

        Buffers the whole body; prefer :meth:`fetch_trace_to` when the
        destination is a file — multi-month traces run to hundreds of
        megabytes, and holding them in one bytes object defeats the
        out-of-core data plane the service sits in front of.
        """
        with self._request("GET", f"/results/{fingerprint}") as response:
            return response.read()

    def fetch_trace_to(self, fingerprint: str, path: Union[str, Path],
                       chunk_size: int = 1 << 20) -> int:
        """Stream the finished trace's bytes straight to ``path``.

        Chunks of ``chunk_size`` bytes go from the socket to the file
        without ever accumulating the body in memory.  The bytes written
        are exactly what :meth:`fetch_trace` would return.  Returns the
        number of bytes written.
        """
        path = Path(path)
        written = 0
        with self._request("GET", f"/results/{fingerprint}") as response:
            with open(path, "wb") as sink:
                while True:
                    chunk = response.read(chunk_size)
                    if not chunk:
                        break
                    sink.write(chunk)
                    written += len(chunk)
        return written

    def fetch_comparison(self, key: str) -> Dict[str, object]:
        return self._json("GET", f"/comparisons/{key}")

    # -- telemetry ---------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._json("GET", "/healthz")

    def stats(self) -> Dict[str, object]:
        return self._json("GET", "/stats")

    def metrics(self) -> str:
        """The gateway's ``/metrics`` Prometheus text exposition, raw."""
        with self._request("GET", "/metrics") as response:
            return response.read().decode("utf-8")
