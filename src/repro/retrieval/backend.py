"""Retrieval serving backends: protocol and registry.

The serving layer exposes every Hamming index through one interface so the
evaluation harness, the CLI, and the benchmarks can swap implementations
freely:

- :class:`RetrievalBackend` — the structural protocol every index satisfies:
  incremental :meth:`~RetrievalBackend.add` (append semantics),
  :meth:`~RetrievalBackend.remove` by stable id, top-k
  :meth:`~RetrievalBackend.search` and :meth:`~RetrievalBackend.radius_search`.
- :func:`register_backend` / :func:`make_backend` — a tiny name registry.
  ``"bruteforce"`` is the bit-packed linear-scan
  :class:`~repro.retrieval.engine.HammingIndex`; ``"sharded"`` is the
  hash-partitioned :class:`~repro.retrieval.sharded.ShardedIndex` over
  brute-force shards.  Both are tested to agree bit-for-bit.

Stable ids: rows are numbered in insertion order starting at 0 and keep
their id for the lifetime of the index — ``remove()`` never renumbers.
While no rows have been removed, ids coincide with row positions in the
concatenation of all ``add()`` calls.
"""

from __future__ import annotations

import inspect
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError


@runtime_checkable
class RetrievalBackend(Protocol):
    """Structural interface of a Hamming retrieval index.

    Implementations index ±1 code matrices and answer exact top-k and
    Hamming-radius queries over the *alive* rows, identifying results by
    stable insertion-order ids.
    """

    n_bits: int

    def add(self, codes: np.ndarray) -> "RetrievalBackend":  # pragma: no cover
        """Append ±1 codes; newly added rows get the next stable ids."""
        ...

    def remove(self, ids: np.ndarray) -> int:  # pragma: no cover
        """Remove rows by stable id; returns how many were removed."""
        ...

    def search(
        self, query_codes: np.ndarray, top_k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        """Exact top-k Hamming ranking: (ids, distances), ties by id."""
        ...

    def radius_search(
        self, query_codes: np.ndarray, radius: int
    ) -> list[np.ndarray]:  # pragma: no cover
        """All alive ids within Hamming ``radius`` per query, sorted."""
        ...

    def __len__(self) -> int:  # pragma: no cover
        """Number of alive (searchable) rows."""
        ...


_REGISTRY: dict[str, Callable[..., RetrievalBackend]] = {}


def register_backend(name: str):
    """Class decorator registering a backend factory under ``name``."""

    def decorate(factory: Callable[..., RetrievalBackend]):
        if name in _REGISTRY:
            raise ConfigurationError(f"backend {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return decorate


def _ensure_builtin_backends() -> None:
    # Importing the modules runs their register_backend decorators; done
    # lazily so `repro.retrieval.backend` has no import cycle with them.
    import repro.retrieval.engine  # noqa: F401
    import repro.retrieval.sharded  # noqa: F401


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    _ensure_builtin_backends()
    return tuple(sorted(_REGISTRY))


def backend_options(name: str) -> tuple[str, ...]:
    """Keyword options a registered backend's constructor accepts."""
    _ensure_builtin_backends()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown retrieval backend {name!r}; "
            f"choose from {sorted(_REGISTRY)}"
        ) from None
    parameters = list(inspect.signature(factory).parameters.values())
    return tuple(
        p.name
        for p in parameters[1:]  # first parameter is n_bits, always given
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    )


def make_backend(name: str, n_bits: int, **kwargs) -> RetrievalBackend:
    """Instantiate a registered backend by name.

    Unknown keyword arguments raise :class:`ConfigurationError` naming the
    backend and its accepted options instead of escaping as a bare
    ``TypeError`` from the constructor.
    """
    accepted = backend_options(name)  # raises on unknown backend names
    factory = _REGISTRY[name]
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown and not any(
        p.kind == p.VAR_KEYWORD
        for p in inspect.signature(factory).parameters.values()
    ):
        raise ConfigurationError(
            f"backend {name!r} does not accept option(s) "
            f"{', '.join(map(repr, unknown))}; accepted options: "
            f"{', '.join(accepted) or '(none)'}"
        )
    return factory(n_bits, **kwargs)

