"""A from-scratch equality-saturation engine (the `egg` substrate).

The paper builds its RTL optimizer on the Rust `egg` library (Willsey et al.,
POPL 2021).  This package reimplements the same machinery in Python:

* :mod:`~repro.egraph.unionfind` — disjoint sets with path halving,
* :mod:`~repro.egraph.enode` — canonicalizable e-nodes,
* :mod:`~repro.egraph.core` — the flat struct-of-arrays storage and
  congruence engine (hashcons over signature tuples, eager union-time
  re-keying, egg-style e-class analyses, compact pickling),
* :mod:`~repro.egraph.egraph` — the object-shaped ``EGraph``/``EClass`` API,
  a thin façade over the core,
* :mod:`~repro.egraph.pattern` — pattern language (class and attribute
  variables, constraint tails, ``(const ?s)`` leaves, computed attributes),
* :mod:`~repro.egraph.query` — compiled multi-pattern e-matching (all active
  rules' arms lowered into one query plan over the core arrays),
* :mod:`~repro.egraph.rewrite` — declarative rules (ordered arms with
  search-time guards and apply-time conditions, compiled right-hand-side
  builders) and dynamic ones (callable searchers and appliers),
* :mod:`~repro.egraph.runner` — saturation runner with a backoff scheduler,
* :mod:`~repro.egraph.extract` — cost-directed extraction (one bottom-up
  fixpoint over the core, one decomposable cost protocol),
* :mod:`~repro.egraph.serialize` — persistent e-graph artifacts (versioned
  save/load format for warm starts) and cross-graph absorption (stitching).
"""

from repro.egraph.unionfind import UnionFind
from repro.egraph.enode import ENode
from repro.egraph.core import CoreGraph, GraphSnapshot
from repro.egraph.egraph import Analysis, EClass, EGraph
from repro.egraph.pattern import AttrVar, Pattern, PatternNode, PatternVar, parse_pattern
from repro.egraph.rewrite import Rewrite, rewrite
from repro.egraph.runner import Runner, RunnerReport, StopReason
from repro.egraph.extract import (
    AstDepthCost,
    AstSizeCost,
    CostFunction,
    ExtractReport,
    ExtractTable,
    Extractor,
)
from repro.egraph.serialize import (
    EGraphFormatError,
    EGraphHeader,
    SavedEGraph,
    absorb_graph,
    load_egraph,
    read_header,
    save_egraph,
)

__all__ = [
    "UnionFind",
    "ENode",
    "CoreGraph",
    "GraphSnapshot",
    "EGraph",
    "EClass",
    "Analysis",
    "Pattern",
    "PatternVar",
    "PatternNode",
    "AttrVar",
    "parse_pattern",
    "Rewrite",
    "rewrite",
    "Runner",
    "RunnerReport",
    "StopReason",
    "Extractor",
    "ExtractTable",
    "ExtractReport",
    "CostFunction",
    "AstSizeCost",
    "AstDepthCost",
    "EGraphFormatError",
    "EGraphHeader",
    "SavedEGraph",
    "absorb_graph",
    "load_egraph",
    "read_header",
    "save_egraph",
]
