"""Equivalence checking (the Synopsys DPV substitute).

The paper proves each behavioural/optimized RTL pair equivalent with a
commercial formal tool.  Here:

* :mod:`~repro.verify.bdd` — a reduced ordered binary decision diagram
  engine built from scratch (unique table, ITE with memoization, node
  budget);
* :mod:`~repro.verify.equiv` — the checking strategy: exhaustive simulation
  when the input space is small, otherwise a BDD proof over a miter netlist
  (``domain_constraint AND (a != b)`` must be the zero BDD), falling back to
  randomized simulation with a documented trial count when the BDD budget
  blows up.  Input bits the domain fixes (the high-order bits shared by an
  input's lowest and highest value) enter the miter as constants, and the
  variable order is read off the miter: fan-in DFS first reach for a miter
  with a variable shift, else words in first-reach order with their bits
  interleaved MSB-first.

Input domain constraints (the paper's "input constraints", e.g. Figure 1's
``x >= 128``) restrict the quantification domain of the proof.

Checks are *interruptible*: :func:`~repro.verify.equiv.check_equivalent`
takes an absolute ``deadline`` (on an injectable clock) and the BDD engine
a node quota — a blowing-up proof stops and degrades to randomized trials,
and a check cut short before any confidence was reached reports
``method="timeout"`` with ``equivalent=None``, which is how a
budget-governed ``Verify`` stage stays inside its pool.
"""

from repro.verify.bdd import BDD, BddDeadlineError, BddLimitError
from repro.verify.equiv import EquivalenceResult, check_equivalent, prove_equivalent

__all__ = [
    "BDD",
    "BddLimitError",
    "BddDeadlineError",
    "check_equivalent",
    "prove_equivalent",
    "EquivalenceResult",
]
