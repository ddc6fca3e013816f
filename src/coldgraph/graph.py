"""Interaction-graph data model, segmentation and neighborhood sampling.

The graph holds three node kinds (user, item, group) and five undirected
relations: group-item (GI), group-user (GU), user-item (UI), plus the two
implicit relations user-user (UU) and group-group (GG) derived from shared
items.  Each relation is one read-only (m, 2) array of edges, kept as numpy
arrays from file to training graph; a GI or UI relation carries an int64
timestamp array when every one of its edges is stamped, and none otherwise.
The warm/cold split (:class:`EvalSplit`) is read-only index and edge arrays
as well, from :func:`segment` through the ``split.txt`` manifest to
evaluation.  Everything is immutable after construction and safe to share
across workers.

Episodes are sampled a batch at a time, over the graph's CSR neighbor lists:
:func:`sample_episode` draws every target's K-sampled tree of each relation
with array operations and returns it as a numbered :class:`Forest`.
"""

from __future__ import annotations

import bisect
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

KINDS = ("user", "item", "group")

RELATIONS = ("GI", "GU", "UI", "UU", "GG")

#: (kind of endpoint a, kind of endpoint b) per relation
RELATION_KINDS: dict[str, tuple[str, str]] = {
    "GI": ("group", "item"),
    "GU": ("group", "user"),
    "UI": ("user", "item"),
    "UU": ("user", "user"),
    "GG": ("group", "group"),
}

#: relations walked when sampling a neighborhood for each node kind
RELATIONS_BY_KIND: dict[str, tuple[str, ...]] = {
    "group": ("GI", "GU", "GG"),
    "user": ("UI", "UU"),
    "item": ("UI",),
}

TIMESTAMPED_RELATIONS = ("GI", "UI")


class InteractionGraph:
    """Immutable multi-relation graph over users, items and groups.

    Each relation is stored once, as arrays: ``edges[rel]`` is a read-only
    (m, 2) intp array of (a, b) rows in input order (the chronology
    surrogate when timestamps are missing), duplicates dropped after their
    first occurrence and same-kind pairs stored as (min, max).
    ``timestamps[rel]`` is a read-only int64 array of the rows' times when
    every row of a non-empty GI/UI relation carries one, and None otherwise:
    a partly stamped relation counts as unstamped.  Each relation side also
    has sorted CSR neighbor lists derived from the edges (:meth:`csr`).
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        edges: Mapping[str, Sequence[tuple[int, int]] | np.ndarray],
        timestamps: Mapping[str, Sequence[int | None] | np.ndarray | None] | None = None,
    ):
        self.counts = {k: int(counts.get(k, 0)) for k in KINDS}
        for k, n in self.counts.items():
            if n < 0:
                raise ValueError(f"negative count for kind {k}")
        timestamps = timestamps or {}
        self.edges: dict[str, np.ndarray] = {}
        self.timestamps: dict[str, np.ndarray | None] = {}
        for rel in RELATIONS:
            self.edges[rel], self.timestamps[rel] = self._normalize(
                rel, edges.get(rel, ()), timestamps.get(rel)
            )
        self._csr = self._build_csr()

    def _normalize(self, rel, raw, ts):
        ka, kb = RELATION_KINDS[rel]
        pairs = np.asarray(raw, dtype=np.intp).reshape(len(raw), 2)
        if ts is not None:
            ts = np.asarray(ts)
            if ts.shape != (len(pairs),):
                raise ValueError(f"{rel}: timestamp list does not match edge list")
            if rel not in TIMESTAMPED_RELATIONS and np.not_equal(ts, None).any():
                raise ValueError(f"{rel} edges cannot carry timestamps")
        a, b = pairs[:, 0], pairs[:, 1]
        bad_a = (a < 0) | (a >= self.counts[ka])
        bad_b = (b < 0) | (b >= self.counts[kb])
        loop = (a == b) & (ka == kb)
        bad = np.flatnonzero(bad_a | bad_b | loop)
        if bad.size:  # name the first offending edge in input order
            i = bad[0]
            if bad_a[i]:
                raise ValueError(f"{rel}: endpoint {a[i]} out of range for kind {ka}")
            if bad_b[i]:
                raise ValueError(f"{rel}: endpoint {b[i]} out of range for kind {kb}")
            raise ValueError(f"{rel}: self-loop on node {a[i]}")
        if ka == kb:
            pairs = np.sort(pairs, axis=1)
        # keep each pair's first occurrence, in input order
        _, first = np.unique(pairs[:, 0] * self.counts[kb] + pairs[:, 1], return_index=True)
        first.sort()
        pairs = pairs[first]
        pairs.flags.writeable = False
        if ts is not None:  # kept only when every kept row is stamped
            ts = ts[first]
            ts = ts.astype(np.int64) if ts.size and np.not_equal(ts, None).all() else None
        if ts is not None:
            ts.flags.writeable = False
        return pairs, ts

    def _build_csr(self):
        csr: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        for rel, (ka, kb) in RELATION_KINDS.items():
            a, b = self.edges[rel][:, 0], self.edges[rel][:, 1]
            if ka == kb:  # one symmetric neighbor list serves both sides
                a, b = np.concatenate([a, b]), np.concatenate([b, a])
            for kind, rows, cols in ((ka, a, b), (kb, b, a)):
                if (rel, kind) in csr:
                    continue
                indptr = np.zeros(self.counts[kind] + 1, dtype=np.intp)
                np.cumsum(np.bincount(rows, minlength=self.counts[kind]), out=indptr[1:])
                indices = cols[np.lexsort((cols, rows))]
                indptr.flags.writeable = indices.flags.writeable = False
                csr[(rel, kind)] = (indptr, indices)
        return csr

    def csr(self, rel: str, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, indices) neighbor lists of ``kind``'s nodes in one
        relation: node i's neighbors are ``indices[indptr[i]:indptr[i + 1]]``,
        ascending."""
        if kind not in RELATION_KINDS[rel]:
            raise ValueError(f"kind {kind!r} does not participate in relation {rel}")
        return self._csr[(rel, kind)]

    def num_edges(self, rel: str | None = None) -> int:
        if rel is not None:
            return len(self.edges[rel])
        return sum(len(v) for v in self.edges.values())


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


class IdMap:
    """External-id to dense-index mapping, one namespace per node kind."""

    def __init__(self):
        self.forward: dict[str, dict[str, int]] = {k: {} for k in KINDS}

    def intern(self, kind: str, external: str) -> int:
        table = self.forward[kind]
        idx = table.get(external)
        if idx is None:
            idx = len(table)
            table[external] = idx
        return idx

    def count(self, kind: str) -> int:
        return len(self.forward[kind])

    def save(self, path: Path) -> None:
        lines = []
        for kind in KINDS:
            for ext, idx in sorted(self.forward[kind].items(), key=lambda kv: kv[1]):
                lines.append(f"{kind}\t{ext}\t{idx}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_edge_file(path: Path, with_ts: bool):
    rows = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    except FileNotFoundError:
        raise FileNotFoundError(f"missing edge file: {path}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if with_ts and len(parts) == 3:
            a, b, ts = parts
            try:
                rows.append((a, b, int(ts)))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad timestamp {ts!r}") from None
        elif len(parts) == 2:
            a, b = parts
            rows.append((a, b, None))
        else:
            raise ValueError(
                f"{path}:{lineno}: expected {2 + int(with_ts)} tab-separated fields, got {len(parts)}"
            )
        if not parts[0] or not parts[1]:
            raise ValueError(f"{path}:{lineno}: empty id")
    return rows


def load_edges(
    user_item: Path, group_item: Path, group_user: Path
) -> tuple[InteractionGraph, IdMap]:
    """Read the three tab-separated edge files into a densely indexed graph.

    Rows are ``left<TAB>right[<TAB>timestamp]``; duplicate rows deduplicate,
    lines starting with ``#`` are ignored, and an empty file yields an empty
    relation.  Returns the graph plus the external-id mapping.
    """
    ids = IdMap()
    rows = {
        "UI": _parse_edge_file(user_item, with_ts=True),
        "GI": _parse_edge_file(group_item, with_ts=True),
        "GU": _parse_edge_file(group_user, with_ts=False),
    }
    edges = {}
    for rel, table in rows.items():  # interned relation after relation, row by row
        ka, kb = RELATION_KINDS[rel]
        edges[rel] = [(ids.intern(ka, a), ids.intern(kb, b)) for a, b, _ in table]
    stamps = {rel: [t for _, _, t in table] for rel, table in rows.items()}
    graph = InteractionGraph({k: ids.count(k) for k in KINDS}, edges, stamps)
    return graph, ids


_EDGE_FILES = {
    "UI": "user_item.tsv",
    "GI": "group_item.tsv",
    "GU": "group_user.tsv",
    "UU": "user_user.tsv",
    "GG": "group_group.tsv",
}


def _write_relation(graph: InteractionGraph, rel: str, directory: Path) -> None:
    """One ``a<TAB>b[<TAB>timestamp]`` line per edge, timestamps when stamped."""
    ts = graph.timestamps[rel]
    rows = graph.edges[rel] if ts is None else np.column_stack([graph.edges[rel], ts])
    line = "\t".join(["%d"] * rows.shape[1]) + "\n"
    text = (line * len(rows)) % tuple(rows.ravel().tolist())  # one format call per file
    (directory / _EDGE_FILES[rel]).write_text(text, encoding="utf-8")


def export_edges(graph: InteractionGraph, directory: Path) -> None:
    """Write the observed relations back out as canonical edge files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for rel in ("UI", "GI", "GU"):
        _write_relation(graph, rel, directory)


def save_graph_cache(graph: InteractionGraph, directory: Path) -> None:
    """Persist all five relations (and counts) for later pipeline stages."""
    directory = Path(directory)
    export_edges(graph, directory)
    for rel in ("UU", "GG"):
        _write_relation(graph, rel, directory)
    counts = [f"{k}\t{graph.counts[k]}" for k in KINDS]
    (directory / "counts.tsv").write_text("\n".join(counts) + "\n", encoding="utf-8")


def load_graph_cache(directory: Path) -> InteractionGraph:
    """Read back what :func:`save_graph_cache` wrote, one integer parse per
    relation file (a third column holds timestamps); ValueError if malformed."""
    directory = Path(directory)
    counts = {}
    for line in (directory / "counts.tsv").read_text(encoding="utf-8").splitlines():
        kind, n = line.split("\t")
        counts[kind] = int(n)
    edges: dict[str, np.ndarray] = {}
    ts: dict[str, np.ndarray | None] = {}
    for rel, name in _EDGE_FILES.items():
        text = (directory / name).read_text(encoding="utf-8")
        rows = np.zeros((0, 2), np.intp)
        if text.strip():  # loadtxt warns on an empty file
            rows = np.loadtxt(io.StringIO(text), dtype=np.intp, delimiter="\t", ndmin=2)
        if rows.shape[1] not in (2, 3):
            raise ValueError(f"{directory / name}: expected 2 or 3 columns, got {rows.shape[1]}")
        edges[rel], ts[rel] = rows[:, :2], rows[:, 2] if rows.shape[1] == 3 else None
    return InteractionGraph(counts, edges, ts)


# ---------------------------------------------------------------------------
# implicit relations
# ---------------------------------------------------------------------------


def _co_interaction_pairs(graph: InteractionGraph, rel: str, threshold: int) -> np.ndarray:
    """(a, b) anchor pairs, a < b in ascending order, sharing strictly more
    than ``threshold`` neighbors.

    Counts the pairs that each neighbor's ascending anchor list contributes,
    one ``triu_indices`` block per distinct neighbor degree.
    """
    ka, kb = RELATION_KINDS[rel]
    indptr, indices = graph.csr(rel, kb)
    deg = np.diff(indptr)
    n = graph.counts[ka]
    keys = [np.zeros(0, dtype=np.intp)]
    for m in np.unique(deg[deg > 1]).tolist():
        anchors = indices[indptr[:-1][deg == m][:, None] + np.arange(m)]
        i, j = np.triu_indices(m, 1)
        keys.append((anchors[:, i] * n + anchors[:, j]).ravel())
    pairs, shared = np.unique(np.concatenate(keys), return_counts=True)
    return np.stack(np.divmod(pairs[shared > threshold], max(n, 1)), axis=1)


def build_implicit(graph: InteractionGraph, c_u: int, c_g: int) -> InteractionGraph:
    """Rebuild UU and GG from shared-item counts (strictly more than c_u/c_g)."""
    if c_u < 0 or c_g < 0:
        raise ValueError("sharing thresholds must be non-negative")
    edges = dict(graph.edges)
    edges["UU"] = _co_interaction_pairs(graph, "UI", c_u)
    edges["GG"] = _co_interaction_pairs(graph, "GI", c_g)
    return InteractionGraph(graph.counts, edges, graph.timestamps)


# ---------------------------------------------------------------------------
# segmentation into warm / cold evaluation sets
# ---------------------------------------------------------------------------

COLD_ANCHOR_KEEP = 10  # interactions retained per cold group/user
COLD_ITEM_KEEP = 5  # interacting groups/users retained per cold item


#: manifest record tag -> (EvalSplit field, its keys, integers per row)
_SPLIT_FIELDS = {
    "warm": ("warm", KINDS, 1),
    "cold": ("cold", KINDS, 1),
    "train": ("train_n", ("GI", "UI"), 2),
    "test": ("test_n", ("GI", "UI"), 2),
    "drop": ("dropped", ("GI", "UI"), 2),
    "flag": ("flagged", KINDS, 1),
}


def _sorted_array(values, width: int) -> np.ndarray:
    """Read-only intp array: the distinct node indices ascending (width 1),
    or (m, 2) edges ordered by (a, b) (width 2)."""
    rows = np.asarray(values, dtype=np.intp).reshape(-1, width)
    rows = np.unique(rows) if width == 1 else rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class EvalSplit:
    """Warm/cold node partition plus the cold nodes' chronological edge split.

    ``warm``, ``cold`` and ``flagged`` map each node kind to a sorted,
    read-only intp array of node indices.  ``train_n``/``test_n`` map GI and
    UI to the cold-anchored edges as read-only (m, 2) intp arrays sorted by
    (anchor, item); ``dropped`` holds the edges removed by the cold-node
    truncation rules.  ``flagged`` nodes had too few retained interactions to
    evaluate (all edges went to training).  Construction takes any integer
    sequences and stores them in this form (node indices deduplicated).
    """

    warm: dict[str, np.ndarray]
    cold: dict[str, np.ndarray]
    train_n: dict[str, np.ndarray]
    test_n: dict[str, np.ndarray]
    dropped: dict[str, np.ndarray]
    flagged: dict[str, np.ndarray]
    n_g: int
    n_u: int
    n_i: int
    c_percent: float

    def __post_init__(self):
        for name, _, width in _SPLIT_FIELDS.values():
            table = {k: _sorted_array(v, width) for k, v in getattr(self, name).items()}
            object.__setattr__(self, name, table)


def _ranks(groups: np.ndarray) -> np.ndarray:
    """Position of each element within its run of an array sorted by group."""
    return np.arange(groups.size) - np.searchsorted(groups, groups)


def segment(
    graph: InteractionGraph, n_g: int, n_u: int, n_i: int, c_percent: float
) -> EvalSplit:
    """Partition nodes into warm/cold sets and split cold edges in time.

    Groups with more than ``n_g`` GI interactions are warm, users analogously
    over UI.  Warm items are those with more than ``n_i`` interactions counted
    only from warm anchors, so cold evaluation data never inflates an item's
    status.  Cold groups/users keep their first ``COLD_ANCHOR_KEEP``
    interactions and cold items their first ``COLD_ITEM_KEEP``; of each cold
    anchor's retained edges, the earliest ``ceil(c_percent * deg)`` (at least
    one) become training edges and the remainder test edges.  Anchors left
    without test edges are flagged and excluded from evaluation.

    Time order is (timestamp, other endpoint) in a fully stamped relation
    and file position otherwise; a cold item pools its GI and UI edges by
    (timestamp or file position, relation, anchor).
    """
    if min(n_g, n_u, n_i) < 0:
        raise ValueError("thresholds must be non-negative")
    if not (0.0 < c_percent < 1.0):
        raise ValueError("c_percent must lie in (0, 1)")

    anchor_kind = {"GI": "group", "UI": "user"}  # in relation-name order
    a = {rel: graph.edges[rel][:, 0] for rel in anchor_kind}
    b = {rel: graph.edges[rel][:, 1] for rel in anchor_kind}
    when = {
        rel: np.arange(len(a[rel])) if graph.timestamps[rel] is None else graph.timestamps[rel]
        for rel in anchor_kind
    }
    degree = {kind: np.diff(graph.csr(rel, kind)[0]) for rel, kind in anchor_kind.items()}
    warm = {"group": degree["group"] > n_g, "user": degree["user"] > n_u}
    # warm-item rule: count only interactions whose anchor is itself warm
    item_counts = np.zeros(graph.counts["item"], dtype=np.intp)
    for rel, kind in anchor_kind.items():
        item_counts += np.bincount(b[rel][warm[kind][a[rel]]], minlength=graph.counts["item"])
    warm["item"] = item_counts > n_i

    # each relation's edges by anchor, then in time order; cold anchors keep
    # their earliest interactions
    order = {rel: np.lexsort((b[rel], when[rel], a[rel])) for rel in anchor_kind}
    cold_edge = {rel: ~warm[kind][a[rel]] for rel, kind in anchor_kind.items()}
    dropped = {}
    for rel, o in order.items():
        dropped[rel] = np.zeros(len(o), dtype=bool)
        dropped[rel][o] = cold_edge[rel][o] & (_ranks(a[rel][o]) >= COLD_ANCHOR_KEEP)

    # cold items keep their earliest surviving interactions, pooled over GI+UI
    live = {rel: np.flatnonzero(~dropped[rel]) for rel in anchor_kind}

    def pool(column):
        return np.concatenate([column[rel][live[rel]] for rel in anchor_kind])

    item = pool(b)
    rel_id = np.repeat([0, 1], [live[rel].size for rel in anchor_kind])  # GI before UI
    pooled = np.lexsort((pool(a), rel_id, pool(when), item))
    late = np.zeros(len(item), dtype=bool)
    late[pooled] = ~warm["item"][item[pooled]] & (_ranks(item[pooled]) >= COLD_ITEM_KEEP)
    for rel, part in zip(anchor_kind, np.split(late, [live["GI"].size])):
        dropped[rel][live[rel][part]] = True

    train_n, test_n, flagged = {}, {}, {}
    for rel, kind in anchor_kind.items():
        o = order[rel]
        retained = o[cold_edge[rel][o] & ~dropped[rel][o]]
        n = np.bincount(a[rel][retained], minlength=graph.counts[kind])
        k = np.maximum(1, np.ceil(c_percent * n))
        evaluable = (n >= 2) & (k < n)
        to_train = _ranks(a[rel][retained]) < np.where(evaluable, k, n)[a[rel][retained]]
        train_n[rel] = graph.edges[rel][retained[to_train]]
        test_n[rel] = graph.edges[rel][retained[~to_train]]
        flagged[kind] = np.flatnonzero(~warm[kind] & ~evaluable)
    flagged["item"] = ()

    return EvalSplit(
        warm={k: np.flatnonzero(w) for k, w in warm.items()},
        cold={k: np.flatnonzero(~w) for k, w in warm.items()},
        train_n=train_n,
        test_n=test_n,
        dropped={rel: graph.edges[rel][d] for rel, d in dropped.items()},
        flagged=flagged,
        n_g=n_g,
        n_u=n_u,
        n_i=n_i,
        c_percent=c_percent,
    )


def make_training_graph(graph: InteractionGraph, split: EvalSplit) -> InteractionGraph:
    """Graph visible during training: no dropped edges, no test edges."""
    edges = dict(graph.edges)
    timestamps = dict(graph.timestamps)
    n = graph.counts["item"]
    for rel in ("GI", "UI"):
        removed = np.concatenate([split.dropped[rel], split.test_n[rel]])
        removed = removed[(removed[:, 1] >= 0) & (removed[:, 1] < n)]  # keys stay exact
        keep = ~np.isin(edges[rel][:, 0] * n + edges[rel][:, 1], removed[:, 0] * n + removed[:, 1])
        edges[rel] = edges[rel][keep]
        if timestamps[rel] is not None:
            timestamps[rel] = timestamps[rel][keep]
    return InteractionGraph(graph.counts, edges, timestamps)


# ---------------------------------------------------------------------------
# episode sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Forest:
    """One relation's sampled trees of an episode batch, as numbered rows.

    Each distinct (tree, node) pair is one row of its node kind:
    ``nodes[kind][r]`` is the table index of row r, and the n targets are
    rows 0..n-1 of the target kind.  ``kinds[l]`` is the kind of the nodes
    at depth l.  ``layers[l]`` = (tree, parent, child) lists the edges that
    expand the nodes first reached at depth l: the tree's batch position, a
    parent row of ``kinds[l]`` and a child row of ``kinds[l + 1]``, grouped
    by parent in row order, children by ascending table index.  A node
    reached again deeper in its tree keeps its children, so it adds no
    edge; nodes first reached at the last depth are leaves.

    Each kind's rows are numbered by the depth that first reached them:
    ``prefix[kind][t]`` counts the rows of ``kind`` first reached at depth
    t or less, and they are exactly rows 0..prefix[kind][t]-1.  So the
    parents of ``layers[t]`` are rows prefix[kinds[t]][t-1] (0 for t = 0)
    to prefix[kinds[t]][t]-1, and the edges of the rows first reached at
    depth t or less are the edges of their kind in ``layers[0..t]``.
    """

    relation: str
    kinds: tuple[str, ...]
    nodes: Mapping[str, np.ndarray]
    layers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    prefix: Mapping[str, tuple[int, ...]]

    def edge_count(self) -> int:
        return sum(child.size for _, _, child in self.layers)


@dataclass(frozen=True)
class EpisodeBatch:
    """Masked, sampled neighborhoods of n targets of one kind.

    Simulates a cold-start view of each warm target: ``forests[rel]`` holds
    every target's tree in relation ``rel``, with at most K sampled
    neighbors per expanded node, so at most K**l nodes reach depth l.
    """

    kind: str
    targets: np.ndarray
    depth: int
    forests: Mapping[str, Forest]

    def __len__(self) -> int:
        return int(self.targets.size)

    def edge_count(self) -> int:
        return sum(f.edge_count() for f in self.forests.values())

    def first_order(self, rel: str) -> tuple[np.ndarray, np.ndarray]:
        """Each target's number of sampled neighbors in ``rel``, and their
        rows, target after target."""
        _, parent, child = self.forests[rel].layers[0]
        return np.bincount(parent, minlength=len(self)), child


_GAMMA = 0x9E3779B97F4A7C15


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array (arithmetic wraps)."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def _episode_keys(seed, kind, rel, parent_kind, targets, parents, neighbors) -> np.ndarray:
    """uint64 sampling key of each (target, parent, neighbor) edge candidate.

    A pure function of its arguments: neither the depth nor the batch
    enters, so a node keeps the same children wherever it is expanded.
    """
    h = np.array([seed], dtype=np.uint64)
    fields = (KINDS.index(kind), RELATIONS.index(rel), KINDS.index(parent_kind))
    for values in (*fields, targets, parents, neighbors):
        h = _mix((h + _GAMMA) ^ np.asarray(values, dtype=np.uint64))
    return h


def _number(seen: tuple[np.ndarray, np.ndarray], keys: np.ndarray):
    """Rows of the ``keys``: a seen key keeps its row, and the distinct new
    keys get the next rows in ascending key order.

    ``seen`` is (sorted keys, their rows).  Returns (the row of each key,
    the new keys, the updated ``seen``).
    """
    seen_keys, seen_rows = seen
    uniq, inverse = np.unique(keys, return_inverse=True)
    at = np.searchsorted(seen_keys, uniq)
    old = at < seen_keys.size
    old[old] = seen_keys[at[old]] == uniq[old]
    new = ~old
    rows = np.empty(uniq.size, dtype=np.intp)
    rows[old] = seen_rows[at[old]]
    rows[new] = seen_rows.size + np.arange(np.count_nonzero(new))
    merged = np.concatenate([seen_keys, uniq[new]])
    order = np.argsort(merged, kind="stable")
    return rows[inverse], uniq[new], (merged[order], np.concatenate([seen_rows, rows[new]])[order])


def _sample_forest(
    graph: InteractionGraph, rel: str, kind: str, targets: np.ndarray, k: int, depth: int, seed: int
) -> Forest:
    """Every target's depth-``depth`` tree in one relation, breadth first:
    each depth expands the (tree, node) pairs first reached at the one
    before."""
    ka, kb = RELATION_KINDS[rel]
    other = {ka: kb, kb: ka}
    kinds = tuple(kind if level % 2 == 0 else other[kind] for level in range(depth + 1))
    span = {c: max(graph.counts[c], 1) for c in other}
    n = targets.size
    # per kind, the (tree * span + node) keys of its rows so far
    seen = {c: (np.zeros(0, np.intp), np.zeros(0, np.intp)) for c in other}
    _, _, seen[kind] = _number(seen[kind], np.arange(n) * span[kind] + targets)
    nodes = {c: [np.zeros(0, np.intp)] for c in other}
    nodes[kind].append(targets)
    prefix = {c: [seen[c][1].size] for c in other}
    tree, row, node = np.arange(n), np.arange(n), targets  # the frontier
    layers = []
    for level in range(depth):
        indptr, indices = graph.csr(rel, kinds[level])
        start = indptr[node]
        deg = indptr[node + 1] - start
        par = np.repeat(np.arange(node.size), deg)
        nb = indices[np.repeat(start - np.cumsum(deg) + deg, deg) + np.arange(par.size)]
        big = np.flatnonzero(deg[par] > k)
        if big.size:  # keep the k smallest keys of each parent with more
            big_par = par[big]
            keys = _episode_keys(
                seed, kind, rel, kinds[level], targets[tree[big_par]], node[big_par], nb[big]
            )
            # by parent, then by key (a parent's keys are distinct); two
            # argsorts beat one lexsort with a uint64 key several times over
            order = np.argsort(keys)
            order = order[np.argsort(big_par[order], kind="stable")]
            rank = np.arange(big.size) - np.searchsorted(big_par, big_par)
            keep = np.ones(par.size, dtype=bool)
            keep[big[order[rank >= k]]] = False
            par, nb = par[keep], nb[keep]
        child_kind = kinds[level + 1]
        first_new = seen[child_kind][1].size
        child, new, seen[child_kind] = _number(seen[child_kind], tree[par] * span[child_kind] + nb)
        layers.append((tree[par], row[par], child))
        tree, node = np.divmod(new, span[child_kind])
        row = first_new + np.arange(new.size)
        nodes[child_kind].append(node)
        for c in other:
            prefix[c].append(seen[c][1].size)
    return Forest(
        rel,
        kinds,
        {c: np.concatenate(v) for c, v in nodes.items()},
        tuple(layers),
        {c: tuple(p) for c, p in prefix.items()},
    )


def sample_episode(
    graph: InteractionGraph,
    kind: str,
    targets: Sequence[int],
    k: int,
    depth: int,
    seed: int,
    member_depth_bonus: bool = True,
) -> EpisodeBatch:
    """Sample reproducible masked neighborhoods around targets of one kind.

    Each expanded node keeps the min(K, degree) neighbors with the smallest
    hashed keys, a uniform K-subset without replacement (random-key
    sampling, Efraimidis & Spirakis, IPL 2006); each depth is deduplicated
    per tree.  The key hashes (seed, target kind, target, relation, parent
    kind, parent, neighbor), so a node has the same children at every
    depth and a target's tree does not depend on the rest of the batch.
    Group GU trees go one level deeper than ``depth`` (when
    ``member_depth_bonus``) so the sampled members can themselves be
    embedded with a full depth-``depth`` recursion for the member-aggregate
    channel.  A zero-degree relation yields empty layers.
    """
    if k < 1 or depth < 1:
        raise ValueError("k and depth must be at least 1")
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    bad = targets[(targets < 0) | (targets >= graph.counts[kind])]
    if bad.size:
        raise ValueError(f"{kind} targets not in graph: {bad.tolist()}")
    forests = {}
    for rel in RELATIONS_BY_KIND[kind]:
        d = depth + 1 if (rel == "GU" and kind == "group" and member_depth_bonus) else depth
        forests[rel] = _sample_forest(graph, rel, kind, targets, k, d, seed)
    return EpisodeBatch(kind, targets, depth, forests)


# ---------------------------------------------------------------------------
# synthetic graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the clustered synthetic benchmark graph.

    ``occasional_fraction`` of the groups interact with items at
    ``occasional_scale`` times the usual probability, producing the activity
    skew that real interaction data has and the cold-start split needs.
    """

    n_users: int = 200
    n_items: int = 300
    n_groups: int = 80
    n_clusters: int = 4
    intra_p: float = 0.15
    inter_p: float = 0.01
    group_size_min: int = 2
    group_size_max: int = 5
    occasional_fraction: float = 0.0
    occasional_scale: float = 1.0
    ts_min: int = 0
    ts_max: int = 100_000
    seed: int = 0

    def validate(self) -> None:
        if min(self.n_users, self.n_items, self.n_groups, self.n_clusters) <= 0:
            raise ValueError("counts must be positive")
        for p in (self.intra_p, self.inter_p, self.occasional_fraction):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")
        if not (0.0 <= self.occasional_scale <= 1.0):
            raise ValueError("occasional_scale must lie in [0, 1]")
        if not (1 <= self.group_size_min <= self.group_size_max):
            raise ValueError("bad group size range")
        if self.ts_min > self.ts_max:
            raise ValueError("bad timestamp range")


# Cells (left rows x right nodes) drawn at once by generate_synthetic.
_HIT_BLOCK_CELLS = 1 << 17


def generate_synthetic(spec: SyntheticSpec) -> InteractionGraph:
    """Build a clustered bipartite graph with groups inheriting member clusters.

    Users, items and groups are assigned round-robin to latent clusters; an
    interaction edge appears with ``intra_p`` inside a cluster and ``inter_p``
    across clusters.  Timestamps are uniform over the configured range and the
    whole construction is a pure function of the seed.

    The UI and GI hits are drawn in blocks of whole rows, about
    ``_HIT_BLOCK_CELLS`` cells each.  Consecutive draws of one generator equal
    one draw of their stacked shape and leave it in the same state, so the
    graph is the one a single dense n_left x n_right draw gives, while memory
    stays at a block times n_right (plus the edges).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    user_cluster = np.arange(spec.n_users) % spec.n_clusters
    item_cluster = np.arange(spec.n_items) % spec.n_clusters
    group_cluster = np.arange(spec.n_groups) % spec.n_clusters

    def bipartite(left_cluster, right_cluster, left_scale=None):
        step = max(1, _HIT_BLOCK_CELLS // right_cluster.size)
        blocks = []
        for lo in range(0, left_cluster.size, step):
            rows = slice(lo, lo + step)
            same = left_cluster[rows, None] == right_cluster[None, :]
            prob = np.where(same, spec.intra_p, spec.inter_p)
            if left_scale is not None:
                prob = prob * left_scale[rows, None]
            hits = np.argwhere(rng.random(prob.shape) < prob)
            hits[:, 0] += lo
            blocks.append(hits)
        return np.concatenate(blocks)

    ui = bipartite(user_cluster, item_cluster)
    occasional = rng.random(spec.n_groups) < spec.occasional_fraction
    group_scale = np.where(occasional, spec.occasional_scale, 1.0)
    gi = bipartite(group_cluster, item_cluster, group_scale)

    gu = []
    for g in range(spec.n_groups):
        pool = np.flatnonzero(user_cluster == group_cluster[g])
        size = int(rng.integers(spec.group_size_min, spec.group_size_max + 1))
        if size > pool.size:
            raise ValueError(
                f"group size {size} infeasible: cluster {group_cluster[g]} has {pool.size} users"
            )
        members = rng.choice(pool, size=size, replace=False)
        gu.extend((g, int(u)) for u in sorted(members))

    def stamps(n):
        return rng.integers(spec.ts_min, spec.ts_max + 1, size=n)

    return InteractionGraph(
        {"user": spec.n_users, "item": spec.n_items, "group": spec.n_groups},
        {"UI": ui, "GI": gi, "GU": gu},
        {"UI": stamps(len(ui)), "GI": stamps(len(gi))},
    )


# ---------------------------------------------------------------------------
# split manifest and stats
# ---------------------------------------------------------------------------

MANIFEST_HEADER = "coldgraph-split v1"


def write_split_manifest(split: EvalSplit, path: Path) -> None:
    """Node records kind by kind (warm, then cold), edge records section by
    section, then flags; each record list is written in one format call."""
    params = f"param n_g {split.n_g}\nparam n_u {split.n_u}\nparam n_i {split.n_i}\n"
    parts = [f"{MANIFEST_HEADER}\n{params}param c_percent {split.c_percent!r}\n"]
    order = [(tag, kind) for kind in KINDS for tag in ("warm", "cold")]
    order += [(tag, rel) for tag in ("train", "test", "drop") for rel in ("GI", "UI")]
    for tag, key in order + [("flag", kind) for kind in KINDS]:
        name, _, width = _SPLIT_FIELDS[tag]
        rows = getattr(split, name)[key]
        line = f"{tag} {key}" + " %d" * width + "\n"
        parts.append(line * len(rows) % tuple(rows.ravel().tolist()))
    Path(path).write_text("".join(parts), encoding="utf-8")


_INTEGER_CHARS = str.maketrans("", "", "-0123456789")


def _manifest_sections(body: list[str]):
    """(params, records) of a manifest body, parsed a section at a time:
    sorted, the lines of each section (``param`` or ``tag key``) are one
    block.  None when a line is not laid out as the writer writes it or a
    parameter repeats; ValueError when a value is not an integer."""
    lines = sorted(body)
    lo, hi = bisect.bisect_left(lines, "param "), bisect.bisect_left(lines, "param!")
    params = [line.split() for line in lines[lo:hi]]
    if any(len(words) != 3 for words in params) or len({w[1] for w in params}) < len(params):
        return None
    counted = bisect.bisect_right(lines, "") + hi - lo  # the empty lines and the params
    records = {}
    for tag, (_, keys, width) in _SPLIT_FIELDS.items():
        records[tag] = {}
        for key in keys:
            head = f"{tag} {key} "
            lo = bisect.bisect_left(lines, head)
            hi = bisect.bisect_left(lines, head[:-1] + "!", lo)  # "!" sorts right after " "
            counted += hi - lo
            block = "\n".join(lines[lo:hi])
            values = block.replace(head, "")
            words = values.split()
            # each line: the head, then ``width`` integers parted by single spaces
            layout = "\n".join([" " * (width - 1)] * (hi - lo))
            if (
                block.count(head) != hi - lo
                or len(words) != (hi - lo) * width
                or values.translate(_INTEGER_CHARS) != layout
            ):
                return None
            records[tag][key] = np.array(words, dtype=np.intp).reshape(-1, width)
    if counted != len(lines):
        return None
    return {name: value for _, name, value in params}, records


def _manifest_lines(path: Path, text: list[str]):
    """(params, records) of a manifest read line by line, as strings;
    raises ValueError naming the first line that is not a record."""
    params: dict[str, str] = {}
    records = {tag: {key: [] for key in keys} for tag, (_, keys, _) in _SPLIT_FIELDS.items()}
    for lineno, line in enumerate(text[1:], 2):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "param" and len(parts) == 3:
            params[parts[1]] = parts[2]
            continue
        _, keys, width = _SPLIT_FIELDS.get(parts[0], (None, (), 0))
        if len(parts) != 2 + width or parts[1] not in keys:
            raise ValueError(f"{path}:{lineno}: bad record {line!r}")
        records[parts[0]][parts[1]].append(parts[2:])
    return params, records


def read_split_manifest(path: Path) -> EvalSplit:
    """Inverse of :func:`write_split_manifest`; raises ValueError for a bad line or value.

    The sections are parsed as arrays; a file that does not parse that way
    is read again line by line, which names its first bad line.
    """
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or text[0].strip() != MANIFEST_HEADER:
        raise ValueError(f"{path}: not a {MANIFEST_HEADER!r} manifest")
    try:
        parsed = _manifest_sections(text[1:])
    except ValueError:  # a value that is not an integer, reported below
        parsed = None
    params, records = parsed or _manifest_lines(path, text)
    try:
        return EvalSplit(
            **{name: {key: np.asarray(records[tag][key], dtype=np.intp) for key in keys}
               for tag, (name, keys, _) in _SPLIT_FIELDS.items()},
            **{name: int(params[name]) for name in ("n_g", "n_u", "n_i")},
            c_percent=float(params["c_percent"]),
        )
    except (KeyError, ValueError) as err:
        raise ValueError(f"{path}: bad manifest: {err}") from None


def stats_summary(graph: InteractionGraph) -> str:
    """Human-readable counts and sparsity figures for a graph."""
    n_u, n_i, n_g = (graph.counts[k] for k in ("user", "item", "group"))
    ui, gi = graph.num_edges("UI"), graph.num_edges("GI")
    ui_sparsity = ui / (n_u * n_i) if n_u and n_i else 0.0
    gi_sparsity = gi / (n_g * n_i) if n_g and n_i else 0.0
    rows = [
        ("Users", f"{n_u:,}"),
        ("Items", f"{n_i:,}"),
        ("Groups", f"{n_g:,}"),
        ("U-I Interactions", f"{ui:,}"),
        ("G-I Interactions", f"{gi:,}"),
        ("U-U Edges", f"{graph.num_edges('UU'):,}"),
        ("G-G Edges", f"{graph.num_edges('GG'):,}"),
        ("G-U Edges", f"{graph.num_edges('GU'):,}"),
        ("U-I Sparsity", f"{100.0 * ui_sparsity:.4f}%"),
        ("G-I Sparsity", f"{100.0 * gi_sparsity:.4f}%"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
