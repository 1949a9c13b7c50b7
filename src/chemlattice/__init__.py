"""Stochastic cluster-chemistry simulator with a rough-set lattice layer.

Molecules carry a cluster assignment and an activity bit; clusters merge
when mostly inactive and split when mostly active, with global
activation/inactivation at full aggregation/monomerization.  Noise and a
population-level coherence kick couple the two levels.  The lattice side
enumerates closure fixed points of binary relations and checks
quantum-logic laws.  The harness turns both into reproducible artifacts.

Names are imported from their modules (``sim_core``, ``interplay``,
``lattice``, ``analysis``, ``harness``, ``errors``); the package itself
exports only ``__version__``.
"""

__version__ = "0.1.0"
