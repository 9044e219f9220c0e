"""Content-addressed result cache for the optimization service.

Two submissions that describe the *same optimization problem* should pay
for one pipeline run.  "Same problem" is structural, not nominal: the
design's elaborated :class:`~repro.ir.expr.Expr` DAG is canonicalized so
that alpha-renaming the inputs or reordering the children of commutative
operators does not change the key, while any semantic difference (widths,
constants, operator structure, input-range constraints, schedule knobs,
budget class) does.

The digest itself lives below the pipeline in :mod:`repro.ir.digest` (the
pipeline's warm-start stages stamp and check it too) and is re-exported
here.  A job's key binds each output *name* to its root's canonical
digest, so two designs that compute the same set of functions under
swapped output names get distinct keys — their records report different
per-output costs.

The cache itself is two-tier: a bounded in-memory LRU in front of an
optional on-disk JSON file the daemon persists on shutdown and reloads on
start.  Only ``status == "ok"`` records are admitted — errors always rerun.
Disk writes are atomic (tempfile + ``os.replace``) and a corrupt/unreadable
disk tier degrades to an empty cache instead of killing daemon startup.

Beside the record tier sits the **warm-start artifact tier**: persisted
e-graphs (see :mod:`repro.egraph.serialize`) in a ``<cache>.egraphs/``
directory, keyed by *family* — the design label + ruleset knobs — rather
than by exact content digest.  An *edited* design misses the record cache
(its canonical digest changed) but still finds its family's saturated
e-graph and warm-starts from it instead of saturating cold.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

from repro.egraph.serialize import EGraphFormatError, read_header
from repro.ir.digest import _digest, canonical_digest, output_digests
from repro.pipeline.budget import Budget
from repro.pipeline.schedule import job_schedule_key, key_fields
from repro.pipeline.session import Job, RunRecord, resolve_design

__all__ = [
    "canonical_digest",
    "budget_class",
    "job_cache_key",
    "job_digest",
    "schedule_key",
    "warm_family",
    "ResultCache",
]

logger = logging.getLogger(__name__)


def budget_class(budget: Budget | None) -> str:
    """Coarse resource class a submission ran under.

    Quota fields define the class; the absolute ``deadline`` is an artifact
    of *when* a run happened and is excluded — two runs given the same
    ``time_s`` wall are the same class regardless of start time.
    """
    if budget is None:
        return "unbudgeted"
    return _digest(
        budget.time_s,
        budget.nodes,
        budget.iters,
        budget.matches,
        budget.bdd_nodes,
    )


#: Job fields that select *what gets computed* (anything that can change
#: the record's payload), in key order.  ``name`` is a label and ``design``
#: is replaced by the structural digest; ``budget`` is classed separately.
_SCHEDULE_FIELDS = key_fields("record")


def job_digest(job: Job) -> str:
    """Canonical structural digest of the job's design (source-aware)."""
    return canonical_digest(*resolve_design(job))


#: Digest of the ruleset-selecting knobs — the same key the pipeline's
#: ``WarmStart``/``SaveEGraph`` stages stamp into artifact headers, so the
#: service and a direct CLI run agree on artifact compatibility.
schedule_key = job_schedule_key


def warm_family(job: Job) -> str:
    """Warm-start family: design *label* + ruleset knobs.

    Deliberately label-keyed, not content-keyed — an edited revision of a
    design keeps its label, so it maps to the same family and finds the
    previous revision's saturated e-graph.
    """
    return _digest("egraph-family", job.design, schedule_key(job))


def job_cache_key(job: Job) -> str:
    """Content address of a job: design structure + schedule + budget class.

    The design contributes each output's root digest under the canonical
    labeling of its elaborated roots (memoized in the registry for registry
    designs, or elaborated from ``job.source`` for ad-hoc submissions), so
    registry aliases of the same structure — or a copy with renamed inputs
    — share cache entries.  Output names stay bound to their roots: the
    record reports per-output results, so a design whose outputs swap
    their logic is a different problem.
    """
    structure = tuple(sorted(output_digests(*resolve_design(job)).items()))
    schedule = tuple(getattr(job, name) for name in _SCHEDULE_FIELDS)
    classes = (budget_class(job.budget), budget_class(job.verify_budget))
    return _digest(structure, schedule, classes)


class ResultCache:
    """Two-tier content-addressed store of ``status == "ok"`` records.

    The memory tier is a bounded LRU; the optional disk tier is one JSON
    file (key → record dict) written by :meth:`persist` and read by
    :meth:`load`.  ``get`` promotes disk hits into memory and returns a
    *copy* of the stored record with ``cache_hit=True`` — the stored entry
    itself stays exactly as the original run produced it.
    """

    def __init__(self, capacity: int = 128, path: str | Path | None = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._memory: OrderedDict[str, RunRecord] = OrderedDict()
        self._disk: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        keys = set(self._memory)
        keys.update(self._disk)
        return len(keys)

    # ---------------------------------------------------------------- tiers
    def get(self, key: str) -> RunRecord | None:
        record = self._memory.get(key)
        if record is None and key in self._disk:
            record = RunRecord.from_dict(self._disk[key])
            self._remember(key, record)
        if record is None:
            self.misses += 1
            return None
        self._memory.move_to_end(key)
        self.hits += 1
        # Deep copy through JSON so callers can't mutate the stored entry.
        return replace(RunRecord.from_json(record.to_json()), cache_hit=True)

    def put(self, key: str, record: RunRecord) -> bool:
        """Admit a record; returns False (and stores nothing) on errors."""
        if record.status != "ok":
            return False
        self._remember(key, record)
        if self.path is not None:
            self._disk[key] = record.as_dict()
        return True

    def _remember(self, key: str, record: RunRecord) -> None:
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    # ----------------------------------------------------------- disk tier
    def load(self) -> int:
        """Read the disk tier (if any); returns the number of entries.

        A corrupt or unreadable tier (torn write from a pre-atomic-persist
        crash, wrong permissions, non-dict payload) is logged and dropped —
        the daemon starts with an empty cache instead of dying on startup.
        """
        if self.path is None or not self.path.exists():
            return 0
        try:
            loaded = json.loads(self.path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            logger.warning(
                "result cache %s unreadable (%s); starting empty", self.path, exc
            )
            self._disk = {}
            return 0
        if not isinstance(loaded, dict):
            logger.warning(
                "result cache %s holds %s, expected an object; starting empty",
                self.path,
                type(loaded).__name__,
            )
            self._disk = {}
            return 0
        self._disk = loaded
        return len(self._disk)

    def persist(self) -> int:
        """Write the disk tier atomically; returns the entry count.

        Memory-tier records overwrite same-key disk entries unconditionally
        — the in-memory record is always at least as fresh.  The JSON lands
        via tempfile + ``os.replace`` so a crash mid-write leaves the
        previous file intact instead of a truncated one.
        """
        if self.path is None:
            return 0
        for key, record in self._memory.items():
            self._disk[key] = record.as_dict()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self._disk, handle, sort_keys=True)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return len(self._disk)

    # -------------------------------------------------- warm-start artifacts
    @property
    def egraph_dir(self) -> Path | None:
        """Directory of persisted e-graph artifacts (None when pathless)."""
        if self.path is None:
            return None
        return self.path.parent / (self.path.name + ".egraphs")

    def egraph_path(self, family: str) -> Path | None:
        """Where the artifact for ``family`` lives (whether or not it exists).

        Artifacts are written by the pipeline's ``SaveEGraph`` stage during
        the run itself (atomically, file-based — so the tier works across
        process pools); the cache only hands out paths and validates them.
        """
        directory = self.egraph_dir
        if directory is None:
            return None
        return directory / f"{family}.egraph"

    def get_egraph(self, family: str) -> Path | None:
        """Path to a *valid* artifact for ``family``, else None.

        Validity means the file exists and its header parses at the current
        format version — cheap (one line of JSON), no unpickling.
        """
        path = self.egraph_path(family)
        if path is None or not path.exists():
            return None
        try:
            read_header(path)
        except EGraphFormatError as exc:
            logger.warning("ignoring e-graph artifact %s: %s", path, exc)
            return None
        return path

    # ------------------------------------------------------------ telemetry
    def stats(self) -> dict:
        directory = self.egraph_dir
        artifacts = (
            len(list(directory.glob("*.egraph")))
            if directory is not None and directory.is_dir()
            else 0
        )
        return {
            "entries": len(self),
            "memory_entries": len(self._memory),
            "disk_entries": len(self._disk),
            "egraph_artifacts": artifacts,
            "hits": self.hits,
            "misses": self.misses,
        }
