"""`repro-analyze`: domain-aware static analysis for the Caraoke repo.

The repo's hardest-won guarantees — seeded end-to-end determinism,
bit-for-bit ablation pins, unit-suffixed arithmetic — are enforced at
runtime by regression tests, which catch violations only after they
ship. This package moves that enforcement to the tool layer: a small
AST-based framework (`python -m tools.analyze`, `make analyze`) with a
registry of domain-aware checkers:

* ``determinism``   — unseeded RNG construction, legacy ``np.random``
  global state, stdlib ``random``, wall-clock reads in library code,
  and RNG *stream-discipline* violations (a function that accepts an
  ``rng`` parameter but mints a fresh generator internally).
* ``unit-suffix``   — propagates the ``_s``/``_hz``/``_m``/``_mps``/
  ``_db`` naming convention through assignments, ``+``/``-``,
  comparisons, and keyword arguments, flagging cross-unit mixing.
* ``rng-policy``    — every ``rng`` field/attribute must be routed
  through :func:`repro.utils.as_rng` (or spawned from a parent stream).
* ``ablation-api``  — public callables exposing ``combining`` /
  ``opportunistic`` / ``scheduling`` / ``handoff`` must document the
  allowed values.
* ``unused-import`` — the original ``tools/lint.py`` pass, registered
  as the first checker.

Findings can be suppressed per line with ``# repro: allow[<rule>]``
(with a justification after the closing bracket), or grandfathered in
the tracked baseline file ``tools/analyze/baseline.json``. See
``docs/ANALYSIS.md`` for the full workflow.
"""

from __future__ import annotations

from .core import (
    Checker,
    Finding,
    ModuleInfo,
    all_checkers,
    get_checker,
    load_baseline,
    register,
    run_analysis,
)

# Importing the checkers package populates the registry as a side effect.
from . import checkers  # noqa: F401  (registration import)

__all__ = [
    "Checker",
    "Finding",
    "ModuleInfo",
    "all_checkers",
    "get_checker",
    "load_baseline",
    "register",
    "run_analysis",
]
