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

The names are the constant :data:`ENGINES`;
:func:`validate_engine` checks an ``engine=`` value (numpy must
import, and ``set`` runs serial only) and :func:`available_engines`
lists the backends usable here, the differential test matrix's axis.
The choice is a library-level ``engine=`` argument only: the CLI and
the serve daemon always run :data:`DEFAULT_ENGINE`.
"""

#: The backend names.  Membership does not imply availability — see
#: :func:`available_engines`.
ENGINES = ("set", "bitset", "numpy")
DEFAULT_ENGINE = "bitset"


def _numpy_importable() -> bool:
    # Imported on first call, so ``import repro`` never loads numpy.
    from . import npmask
    return npmask.HAVE_NUMPY


def available_engines() -> tuple[str, ...]:
    """Names of the backends usable in this interpreter."""
    if _numpy_importable():
        return ENGINES
    return tuple(name for name in ENGINES if name != "numpy")


def validate_engine(engine: str, workers: int = 0) -> str:
    """Check an ``engine`` switch value, returning it unchanged.

    Raises ``ValueError`` for names not in :data:`ENGINES`, for
    ``engine="numpy"`` without numpy (with the install hint spelled
    out), and for the serial-only ``set`` engine when ``workers > 1``
    asks for a process-pool fan-out.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "numpy" and not _numpy_importable():
        raise ValueError(
            f"engine {engine!r} is not available in this environment; "
            f"it requires numpy (pip install repro[numpy])")
    if workers > 1 and engine == "set":
        raise ValueError(
            f"parallel execution requires an engine with parallel "
            f"support; engine {engine!r} is serial-only")
    return engine


__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "available_engines",
    "validate_engine",
]
