"""Kernel layer for the branch-and-bound hot path.

Three interchangeable engines implement the per-node search kernels
(intersection, degree counting, k-core / bicore peeling, colouring
bound) behind the solver-facing ``engine=`` seam:

* ``"set"`` — the original adjacency-set implementation, kept for
  differential testing and the ablation benchmarks;
* ``"bitset"`` — vertex subsets packed into arbitrary-precision ints
  (:mod:`repro.kernels.bitset` + :mod:`repro.kernels.active`);
* ``"numpy"`` — numpy = vectorised MDC/DCC search, everything else
  shared: the bitset engine's phases, with the branch and bound on
  uint64 mask matrices (vectorised popcount and batch peeling,
  :mod:`repro.kernels.npmask`); optional, gated on numpy being
  importable.

Engines are described by :class:`EngineSpec` records in
:data:`ENGINE_REGISTRY` — the single lookup that
:func:`validate_engine`, the benchmarks and the differential test
matrix all consume.  The choice is a library-level ``engine=``
argument only: the CLI and the serve daemon always run
:data:`DEFAULT_ENGINE`.
"""

from dataclasses import dataclass, field
from typing import Callable

from .active import (
    active_edge_count_mask,
    bicore_active_mask,
    coloring_upper_bound_active_mask,
    degeneracy_ordering_mask,
    degree_in_active,
    intersect_active,
    k_core_active_mask,
)
from .bitset import (
    adjacency_masks,
    bits_of,
    full_mask,
    is_subset,
    iter_bits,
    left_side_mask,
    lowest_set_bit,
    mask_of,
    popcount,
)


def _always() -> bool:
    return True


def _numpy_importable() -> bool:
    # Imported on first probe, so ``import repro`` never loads numpy.
    from . import npmask
    return npmask.HAVE_NUMPY


@dataclass(frozen=True)
class EngineSpec:
    """Capability descriptor for one kernel backend.

    ``probe`` answers whether the backend is usable in this
    interpreter (e.g. whether numpy imported); ``requirement`` names
    what to install when it is not.  ``supports_parallel`` gates the
    multiprocessing fan-out — an engine qualifies only if its
    adjacency state survives the pack/unpack worker boundary.
    """

    name: str
    description: str
    representation: str
    supports_parallel: bool
    probe: Callable[[], bool] = field(default=_always, repr=False)
    requirement: str | None = None

    def available(self) -> bool:
        """Whether the backend is usable in this interpreter."""
        return self.probe()


ENGINE_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add a backend to :data:`ENGINE_REGISTRY` (insertion-ordered)."""
    ENGINE_REGISTRY[spec.name] = spec
    return spec


register_engine(EngineSpec(
    name="set",
    description="adjacency-set reference implementation",
    representation="frozenset neighbourhoods, set candidate pools",
    supports_parallel=False,
))
register_engine(EngineSpec(
    name="bitset",
    description="arbitrary-precision int masks",
    representation="one Python int per vertex subset",
    supports_parallel=True,
))
register_engine(EngineSpec(
    name="numpy",
    description="bitset phases, vectorised uint64 MDC/DCC search",
    representation="int masks; (n, ceil(n/64)) uint64 matrix + rows "
                   "inside the search",
    supports_parallel=True,
    probe=_numpy_importable,
    requirement="numpy (pip install repro[numpy])",
))

#: Registered backend names, registration order.  Membership does not
#: imply availability — see :func:`available_engines`.
ENGINES = tuple(ENGINE_REGISTRY)
DEFAULT_ENGINE = "bitset"


def engine_spec(engine: str) -> EngineSpec:
    """Look up a backend descriptor, or raise for unknown names."""
    spec = ENGINE_REGISTRY.get(engine)
    if spec is None:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    return spec


def available_engines() -> tuple[str, ...]:
    """Names of the backends usable in this interpreter."""
    return tuple(
        name for name, spec in ENGINE_REGISTRY.items()
        if spec.available())


def validate_engine(engine: str, workers: int = 0) -> str:
    """Check an ``engine`` switch value, returning it unchanged.

    Raises ``ValueError`` for names missing from the registry, for
    registered backends whose runtime requirement is absent (with the
    requirement spelled out — e.g. ``engine="numpy"`` without numpy),
    and for a serial-only backend when ``workers > 1`` asks for a
    process-pool fan-out.
    """
    spec = engine_spec(engine)
    if not spec.available():
        raise ValueError(
            f"engine {engine!r} is not available in this environment; "
            f"it requires {spec.requirement or 'an optional dependency'}")
    if workers > 1 and not spec.supports_parallel:
        raise ValueError(
            f"parallel execution requires an engine with parallel "
            f"support; engine {engine!r} is serial-only")
    return engine


__all__ = [
    "EngineSpec",
    "ENGINE_REGISTRY",
    "register_engine",
    "engine_spec",
    "available_engines",
    "ENGINES",
    "DEFAULT_ENGINE",
    "validate_engine",
    "active_edge_count_mask",
    "bicore_active_mask",
    "coloring_upper_bound_active_mask",
    "degeneracy_ordering_mask",
    "degree_in_active",
    "intersect_active",
    "k_core_active_mask",
    "adjacency_masks",
    "bits_of",
    "full_mask",
    "is_subset",
    "iter_bits",
    "left_side_mask",
    "lowest_set_bit",
    "mask_of",
    "popcount",
]
