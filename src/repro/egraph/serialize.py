"""Persistent e-graph artifacts: a versioned save/load format + graph import.

A saturated e-graph is expensive to build and cheap to reuse, so it becomes a
first-class artifact with two consumers:

* **warm starts** — a later run re-interns its (possibly edited) design roots
  into the persisted graph and saturates only the delta (the persisted
  equivalences are already there, so unchanged cones re-saturate in one
  no-op iteration);
* **cross-cone stitching** — per-output shard graphs are absorbed into one
  graph (:func:`absorb_graph`), re-uniting the inter-output sharing that
  shared-nothing cones gave up.

File format (version 2): one JSON header line, then a pickle payload.

The header is plain text on purpose — ``read_header`` can answer "is this
artifact compatible?" (format version, canonical design digest, schedule
key, the objective of the stored extraction table) without unpickling a
multi-megabyte graph.  The payload is the pickle of ``(egraph, root_ids,
input_ranges, extract_table)``: the graph goes through the compact
:meth:`CoreGraph.__reduce__`, which ships the member and parent orders so
the revived graph iterates exactly as the saved one did; unpickling derives
the hashcons and indices, exactly as process-pool shard shipping already
does.  ``extract_table`` is the greedy extractor's solved fixpoint
(:class:`~repro.egraph.extract.ExtractTable`) on that very graph, or
``None``; the header's ``objective`` names its key function (``""`` when
there is no table).  Version 2 added the table and the orders; artifacts of
other versions load as a ``"version"`` error.  Writes are atomic (tempfile +
``os.replace``), so a crash mid-save never corrupts a previously good
artifact.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.egraph.core import CoreGraph
from repro.egraph.egraph import EGraph
from repro.egraph.extract import ExtractTable

__all__ = [
    "FORMAT_VERSION",
    "EGraphFormatError",
    "EGraphHeader",
    "SavedEGraph",
    "absorb_graph",
    "load_egraph",
    "read_header",
    "save_egraph",
]

#: First line of every artifact, before the JSON header is even parsed.
MAGIC = "repro-egraph"

#: Bumped whenever the payload layout changes; ``load_egraph`` refuses
#: artifacts from other versions (a stale artifact is a cold start, never
#: a crash).
FORMAT_VERSION = 2


class EGraphFormatError(ValueError):
    """Raised when an artifact is missing, corrupt, or incompatible.

    ``reason`` is a short machine-readable code ("io", "header", "magic",
    "version", "digest", "schedule", "payload") — warm-start fallbacks
    record it so a cold start is attributable from the run record.
    """

    def __init__(self, message: str, reason: str = "format") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class EGraphHeader:
    """The cheap-to-read first line of an artifact."""

    format: int
    digest: str
    schedule: str
    nodes: int
    classes: int
    roots: tuple[str, ...]
    #: Objective tag of the stored extraction table ("" = no table).
    objective: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "magic": MAGIC,
            "format": self.format,
            "digest": self.digest,
            "schedule": self.schedule,
            "nodes": self.nodes,
            "classes": self.classes,
            "roots": list(self.roots),
            "objective": self.objective,
        }


@dataclass
class SavedEGraph:
    """A loaded artifact: the revived graph plus its provenance."""

    header: EGraphHeader
    egraph: EGraph
    root_ids: dict[str, int]
    input_ranges: dict = field(default_factory=dict)
    #: The greedy extraction solved on this graph, if one was saved.
    extract_table: ExtractTable | None = None


def save_egraph(
    path: str | Path,
    egraph: EGraph,
    root_ids: dict[str, int],
    *,
    digest: str = "",
    schedule: str = "",
    input_ranges: dict | None = None,
    extract_table: ExtractTable | None = None,
) -> EGraphHeader:
    """Persist ``egraph`` atomically; returns the header that was written.

    ``digest`` should be the service cache's canonical DAG digest of the
    design the graph was saturated from, and ``schedule`` its schedule key —
    both are free-form strings here; ``load_egraph`` compares them verbatim.
    ``extract_table`` is stored only when it was solved on exactly this
    graph: same fingerprint, and no pending work for the pickle's rebuild
    to drain (a rebuilt graph could price its classes differently).
    """
    path = Path(path)
    core = egraph.core
    if extract_table is not None and not (
        core.is_clean and extract_table.fits(core, extract_table.objective)
    ):
        extract_table = None
    header = EGraphHeader(
        format=FORMAT_VERSION,
        digest=digest,
        schedule=schedule,
        nodes=egraph.node_count,
        classes=egraph.class_count,
        roots=tuple(sorted(root_ids)),
        objective=extract_table.objective if extract_table is not None else "",
    )
    payload = (egraph, dict(root_ids), dict(input_ranges or {}), extract_table)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header.as_dict(), sort_keys=True).encode())
            handle.write(b"\n")
            # Streamed: the payload never sits in memory whole next to
            # the graph it encodes.
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return header


def _parse_header(line: bytes, path: Path) -> EGraphHeader:
    try:
        raw = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EGraphFormatError(
            f"{path}: unreadable artifact header", reason="header"
        ) from exc
    if not isinstance(raw, dict) or raw.get("magic") != MAGIC:
        raise EGraphFormatError(f"{path}: not a {MAGIC} artifact", reason="magic")
    if raw.get("format") != FORMAT_VERSION:
        raise EGraphFormatError(
            f"{path}: format {raw.get('format')!r}, "
            f"this build reads {FORMAT_VERSION}",
            reason="version",
        )
    try:
        return EGraphHeader(
            format=int(raw["format"]),
            digest=str(raw["digest"]),
            schedule=str(raw["schedule"]),
            nodes=int(raw["nodes"]),
            classes=int(raw["classes"]),
            roots=tuple(raw["roots"]),
            objective=str(raw["objective"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise EGraphFormatError(
            f"{path}: malformed header fields", reason="header"
        ) from exc


def read_header(path: str | Path) -> EGraphHeader:
    """Parse only the first line — no unpickling, O(header) I/O."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            line = handle.readline()
    except OSError as exc:
        raise EGraphFormatError(
            f"{path}: cannot read artifact", reason="io"
        ) from exc
    return _parse_header(line, path)


def load_egraph(
    path: str | Path,
    *,
    expect_digest: str | None = None,
    expect_schedule: str | None = None,
) -> SavedEGraph:
    """Load an artifact, verifying compatibility before unpickling.

    ``expect_digest`` / ``expect_schedule`` (when given) must match the
    header verbatim; a mismatch raises :class:`EGraphFormatError` — callers
    treat every such error as "cold start", never as fatal.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            header = _parse_header(handle.readline(), path)
            if expect_digest is not None and header.digest != expect_digest:
                raise EGraphFormatError(
                    f"{path}: digest {header.digest[:12]}… does not match "
                    f"the requested design",
                    reason="digest",
                )
            if expect_schedule is not None and header.schedule != expect_schedule:
                raise EGraphFormatError(
                    f"{path}: saved under a different schedule key",
                    reason="schedule",
                )
            payload = handle.read()
    except OSError as exc:
        raise EGraphFormatError(
            f"{path}: cannot read artifact", reason="io"
        ) from exc
    try:
        egraph, root_ids, input_ranges, extract_table = pickle.loads(payload)
    except Exception as exc:  # truncated/corrupt payloads raise many types
        raise EGraphFormatError(
            f"{path}: corrupt artifact payload", reason="payload"
        ) from exc
    if not isinstance(egraph, EGraph) or not (
        extract_table is None or isinstance(extract_table, ExtractTable)
    ):
        raise EGraphFormatError(
            f"{path}: payload is not an e-graph", reason="payload"
        )
    return SavedEGraph(
        header=header,
        egraph=egraph,
        root_ids=dict(root_ids),
        input_ranges=dict(input_ranges),
        extract_table=extract_table,
    )


def absorb_graph(target: EGraph, source: EGraph | CoreGraph) -> dict[int, int]:
    """Import every equivalence of ``source`` into ``target``.

    Returns ``{source canonical class id -> target canonical class id}``.

    Nodes are re-interned bottom-up: a node is inserted once all its
    (source-canonical) children are mapped; when two source nodes share a
    class, their target classes are unioned — so everything ``source``
    proved equal stays equal in ``target``, while ``target``'s hashcons
    dedups shared subexpressions between the graphs (the stitch phase's
    whole point).  Insertion runs to a fixpoint; a node whose children never
    resolve (possible only for equivalences routed through classes with no
    surviving acyclic member path) is dropped, which loses an equivalence
    but never soundness.
    """
    core = source.core if isinstance(source, EGraph) else source
    find = core.uf.find
    mapping: dict[int, int] = {}
    pending = [nid for nid in range(len(core.node_op)) if core.node_alive[nid]]
    while pending:
        deferred: list[int] = []
        progressed = False
        for nid in pending:
            kids = tuple(find(child) for child in core._kid_tups[nid])
            if any(kid not in mapping for kid in kids):
                deferred.append(nid)
                continue
            new_id = target.add_node(
                core.ops[core.node_op[nid]],
                core.attrs[core.node_attr[nid]],
                tuple(mapping[kid] for kid in kids),
            )
            src_class = find(core.node_class[nid])
            prev = mapping.get(src_class)
            if prev is None:
                mapping[src_class] = new_id
            elif target.find(prev) != target.find(new_id):
                mapping[src_class] = target.union(prev, new_id)
            progressed = True
        if not progressed:
            break
        pending = deferred
    target.rebuild()
    return {src: target.find(dst) for src, dst in mapping.items()}
