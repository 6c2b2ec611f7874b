"""Deterministic, seedable fault injection for resilience testing.

The engine's hot paths contain *fault points* — named sites where a
test or a ``REPRO_FAULTS`` environment spec can ask for failures:

========================  ====================================================
site                      fires in
========================  ====================================================
``worker.task``           :class:`repro.db.parallel.WorkerPool`, once per
                          dispatched task (before the task function runs)
``worker.morsel``         the morsel-driven scan loop, once per stolen morsel
``device.gemm``           :class:`repro.device.gpu.SimulatedGpu` ``gemm``
                          kernels (host kernels are never faulted, so the
                          GPU-to-host fallback escapes the fault)
``odbc.fetch``            :class:`repro.core.client.odbc.OdbcConnection`
                          transfer attempts (fetch and upload)
``cache.load``            :class:`repro.core.modeljoin.cache.ModelCache.get`
                          (corrupt-payload flips bits in the cached model
                          before checksum verification)
``modeljoin.build``       the native ModelJoin's shared model build
                          (cache-miss path, before the model table scan)
``io.block_read``         :class:`repro.db.storage.blockio.ColumnFileReader`
                          block reads (disk-resident scans); the reader
                          itself retries with bounded backoff, so scans
                          survive transient disk faults without help from
                          the pipeline retry layer
``compile.kernel``        :class:`repro.db.compile.kernels.FusedKernel` and
                          :class:`~repro.db.compile.kernels.CompiledExpr`
                          invocations (inside the error-wrapping scope, so
                          an injected fault surfaces as a
                          :class:`~repro.errors.KernelExecutionError` and
                          exercises the engine's one-shot interpreted
                          fallback + compile circuit breaker)
``serve.admit``           :meth:`repro.db.serve.admission.AdmissionQueue.
                          admit`, once per admission attempt (an injected
                          fault surfaces as a
                          :class:`~repro.errors.QueryRejectedError`, so a
                          chaos-faulted admission behaves exactly like a
                          deterministic shed: the client gets an immediate
                          rejection, never a hang)
``train.step``            :class:`repro.db.train.operator.TrainOperator`,
                          once per minibatch *before* the forward pass, so
                          a retried batch reruns against untouched weights
                          (bit-exact retry); retries exhausted fail the
                          whole ``CREATE MODEL`` atomically — no partial
                          model table, no catalog entry
========================  ====================================================

Policies: :meth:`FaultInjector.raise_once` (raise the first *count*
times), :meth:`FaultInjector.raise_with_probability`,
:meth:`FaultInjector.delay_ms` (inject latency instead of failure) and
:meth:`FaultInjector.corrupt_payload` (sites that own a payload consult
:func:`corrupts` and mutate it themselves).

**Zero overhead when disabled** — the hot paths guard every site with a
single module-attribute falsy check::

    if faults.ACTIVE is not None:
        faults.ACTIVE.fire("worker.task")

so a build without faults installed pays one ``LOAD_ATTR`` +
``POP_JUMP_IF`` per site visit and nothing else; the perf ledger
(``benchmarks/ledger``) runs every workload fault-free, so any per-site
cost lands in its end-to-end bounds.

**Determinism** — each site draws from its own ``random.Random`` seeded
from ``(seed, crc32(site))``, so the *k*-th draw at a site is a pure
function of the seed regardless of which thread happens to make it.
Under a multi-threaded pool the set of faulted calls is therefore
deterministic in aggregate (same count over the same number of visits)
even though thread interleaving may move a fault between workers.

This module is a leaf: it imports only :mod:`repro.errors`, so any
layer (device, client, operators) may use it without cycles.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random

from repro.errors import InjectedFaultError, ReproError

#: the sites wired into the engine (free-form sites are allowed too —
#: this tuple exists for documentation and spec validation hints)
KNOWN_SITES = (
    "worker.task",
    "worker.morsel",
    "device.gemm",
    "odbc.fetch",
    "cache.load",
    "modeljoin.build",
    "io.block_read",
    "compile.kernel",
    "serve.admit",
    "train.step",
)

RAISE_ONCE = "once"
RAISE_WITH_PROBABILITY = "probability"
DELAY_MS = "delay"
CORRUPT_PAYLOAD = "corrupt"


@dataclass
class FaultPolicy:
    """One armed behavior at a site (a site may stack several)."""

    kind: str
    probability: float = 1.0
    delay_ms: float = 0.0
    #: remaining raises for count-limited policies (``None`` = unlimited)
    remaining: int | None = None

    def describe(self) -> str:
        if self.kind == RAISE_ONCE:
            return f"once(remaining={self.remaining})"
        if self.kind == RAISE_WITH_PROBABILITY:
            return f"prob({self.probability})"
        if self.kind == DELAY_MS:
            return f"delay({self.delay_ms}ms, p={self.probability})"
        return f"corrupt(p={self.probability})"


@dataclass
class _Site:
    policies: list[FaultPolicy] = field(default_factory=list)
    rng: Random = field(default_factory=Random)
    visits: int = 0
    raised: int = 0
    delayed: int = 0
    corrupted: int = 0


class FaultInjector:
    """A registry of fault policies keyed by site name.

    Thread-safe; all decisions happen under one lock (the fault path is
    not a hot path — disabled sites never reach the injector at all).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._lock = threading.Lock()
        self._sites: dict[str, _Site] = {}

    # ------------------------------------------------------------------
    # policy registration
    # ------------------------------------------------------------------
    def _site(self, site: str) -> _Site:
        entry = self._sites.get(site)
        if entry is None:
            entry = _Site(
                rng=Random((self.seed << 32) ^ zlib.crc32(site.encode()))
            )
            self._sites[site] = entry
        return entry

    def register(self, site: str, policy: FaultPolicy) -> "FaultInjector":
        with self._lock:
            self._site(site).policies.append(policy)
        return self

    def raise_once(self, site: str, count: int = 1) -> "FaultInjector":
        """Raise :class:`InjectedFaultError` the first *count* visits."""
        return self.register(
            site, FaultPolicy(RAISE_ONCE, remaining=count)
        )

    def raise_with_probability(
        self, site: str, probability: float
    ) -> "FaultInjector":
        return self.register(
            site,
            FaultPolicy(RAISE_WITH_PROBABILITY, probability=probability),
        )

    def delay_ms(
        self, site: str, delay_ms: float, probability: float = 1.0
    ) -> "FaultInjector":
        """Sleep *delay_ms* (with *probability*) instead of failing."""
        return self.register(
            site,
            FaultPolicy(
                DELAY_MS, probability=probability, delay_ms=delay_ms
            ),
        )

    def corrupt_payload(
        self, site: str, probability: float = 1.0
    ) -> "FaultInjector":
        """Arm payload corruption; the site calls :meth:`corrupts`."""
        return self.register(
            site, FaultPolicy(CORRUPT_PAYLOAD, probability=probability)
        )

    # ------------------------------------------------------------------
    # fault points
    # ------------------------------------------------------------------
    def fire(self, site: str) -> None:
        """Visit a site: may sleep (delay policies) or raise.

        Raises :class:`InjectedFaultError` when a raise policy trips.
        Corrupt policies are ignored here — they only answer
        :meth:`corrupts`.
        """
        sleep_seconds = 0.0
        error: InjectedFaultError | None = None
        with self._lock:
            entry = self._sites.get(site)
            if entry is None:
                return
            entry.visits += 1
            for policy in entry.policies:
                if policy.kind == DELAY_MS:
                    if (
                        policy.probability >= 1.0
                        or entry.rng.random() < policy.probability
                    ):
                        sleep_seconds += policy.delay_ms / 1000.0
                        entry.delayed += 1
                elif policy.kind == RAISE_ONCE:
                    if policy.remaining and policy.remaining > 0:
                        policy.remaining -= 1
                        entry.raised += 1
                        error = InjectedFaultError(site)
                        break
                elif policy.kind == RAISE_WITH_PROBABILITY:
                    if entry.rng.random() < policy.probability:
                        entry.raised += 1
                        error = InjectedFaultError(site)
                        break
        if sleep_seconds > 0.0:
            time.sleep(sleep_seconds)
        if error is not None:
            raise error

    def corrupts(self, site: str) -> bool:
        """Whether the site should corrupt its payload on this visit."""
        with self._lock:
            entry = self._sites.get(site)
            if entry is None:
                return False
            entry.visits += 1
            for policy in entry.policies:
                if policy.kind != CORRUPT_PAYLOAD:
                    continue
                if policy.remaining is not None:
                    if policy.remaining <= 0:
                        continue
                    policy.remaining -= 1
                    entry.corrupted += 1
                    return True
                if (
                    policy.probability >= 1.0
                    or entry.rng.random() < policy.probability
                ):
                    entry.corrupted += 1
                    return True
        return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """Per-site visit/fault counts, JSON-friendly."""
        with self._lock:
            return {
                site: {
                    "policies": [p.describe() for p in entry.policies],
                    "visits": entry.visits,
                    "raised": entry.raised,
                    "delayed": entry.delayed,
                    "corrupted": entry.corrupted,
                }
                for site, entry in self._sites.items()
            }

    def total_faults(self) -> int:
        with self._lock:
            return sum(
                entry.raised + entry.delayed + entry.corrupted
                for entry in self._sites.values()
            )


#: the installed injector; ``None`` means fault injection is disabled
#: and every fault point reduces to one falsy check
ACTIVE: FaultInjector | None = None


def install(injector: FaultInjector) -> FaultInjector:
    """Install *injector* as the process-wide active injector."""
    global ACTIVE
    ACTIVE = injector
    return injector


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


@contextmanager
def active(injector: FaultInjector):
    """Context manager: install on entry, uninstall on exit."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


# ----------------------------------------------------------------------
# REPRO_FAULTS environment hook
# ----------------------------------------------------------------------
ENV_VAR = "REPRO_FAULTS"


def parse_spec(spec: str) -> FaultInjector:
    """Build an injector from a ``REPRO_FAULTS`` spec string.

    Grammar (entries separated by ``,``)::

        seed=<int>
        <site>=once[:<count>]
        <site>=prob:<p>
        <site>=delay:<ms>[:<p>]
        <site>=corrupt[:<p>]

    Example: ``seed=7,worker.task=prob:0.1,odbc.fetch=once:2``.
    """
    entries = [part.strip() for part in spec.split(",") if part.strip()]
    seed = 0
    policies: list[tuple[str, str]] = []
    for entry in entries:
        if "=" not in entry:
            raise ReproError(
                f"bad {ENV_VAR} entry {entry!r}: expected key=value"
            )
        key, value = entry.split("=", 1)
        key, value = key.strip(), value.strip()
        if key == "seed":
            seed = int(value)
        else:
            policies.append((key, value))
    injector = FaultInjector(seed=seed)
    for site, value in policies:
        parts = value.split(":")
        kind = parts[0]
        if kind == "once":
            count = int(parts[1]) if len(parts) > 1 else 1
            injector.raise_once(site, count=count)
        elif kind == "prob":
            injector.raise_with_probability(site, float(parts[1]))
        elif kind == "delay":
            probability = float(parts[2]) if len(parts) > 2 else 1.0
            injector.delay_ms(
                site, float(parts[1]), probability=probability
            )
        elif kind == "corrupt":
            probability = float(parts[1]) if len(parts) > 1 else 1.0
            injector.corrupt_payload(site, probability=probability)
        else:
            raise ReproError(
                f"bad {ENV_VAR} policy {value!r} for site {site!r} "
                "(want once/prob/delay/corrupt)"
            )
    return injector


def install_from_env(environ=os.environ) -> FaultInjector | None:
    """Install an injector from ``$REPRO_FAULTS`` if set (else no-op).

    Lets any tier-1 test run or benchmark execute under a fault spec::

        REPRO_FAULTS='seed=7,worker.task=prob:0.05' \\
            PYTHONPATH=src python -m pytest -q
    """
    spec = environ.get(ENV_VAR)
    if not spec:
        return None
    return install(parse_spec(spec))
