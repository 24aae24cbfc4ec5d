"""Spanning-tree extraction from excursion paths.

Three routes to a tree live here:

* extract_tree: the recursive subexcursion decomposition driven by a set of
  marked times, producing an ordered rooted tree;
* lifo_tree: the last-in-first-out queue genealogy of all jumps (jump =
  arrival, jump size = service time, path value = server load);
* the labelled spanning trees built on top of either route, with leaf labels
  1..k, a root leaf 0 and branch points b1, b2, ... ordered by their least
  leaf pairs.  The genealogy route reads only the ancestor chains of the k
  customers in service at the marks (paths._ancestor_indices), never the
  full genealogy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import (PathDomainError, StepPath, _ancestor_indices, _g_d_window,
                    running_min, tau)


class _Cemetery:
    """Designated output when a spanning tree lacks k distinct leaves."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "∂"

    def canonical(self):
        return "∂"


CEMETERY = _Cemetery()


@dataclass(frozen=True)
class OrderedTree:
    """Ordered rooted tree as a set of words (tuples of child ranks).

    mark_words records, for each input mark in argument order, the word of
    the vertex that mark produced (its leaf, or the subtree root that
    absorbed it).
    """

    words: frozenset
    mark_words: tuple = ()

    def validate(self):
        if () not in self.words:
            raise ValueError("missing root")
        for w in self.words:
            if w and w[:-1] not in self.words:
                raise ValueError(f"parent of {w} missing")
            if w and w[-1] > 1 and w[:-1] + (w[-1] - 1,) not in self.words:
                raise ValueError(f"sibling gap at {w}")
        return self


class LabelledTree:
    """Graph tree rooted at a vertex labelled 0, leaves 1..k, branch points
    b1, b2, ...; no vertex of degree 2 except possibly the root."""

    def __init__(self, k, parents):
        self.k = int(k)
        self.parents = dict(parents)
        self._canon = "|".join(
            f"{lab}:{self.parents[lab]}" for lab in self._label_order() if lab in self.parents)

    def _label_order(self):
        labels = [str(i) for i in range(1, self.k + 1)]
        nb = sum(1 for lab in self.parents if lab.startswith("b"))
        labels += [f"b{i}" for i in range(1, nb + 1)]
        return labels

    def canonical(self):
        return self._canon

    def branch_count(self):
        return sum(1 for lab in self.parents if lab.startswith("b"))

    def __eq__(self, other):
        return isinstance(other, LabelledTree) and self._canon == other._canon

    def __hash__(self):
        return hash(self._canon)

    def __repr__(self):
        return f"LabelledTree(k={self.k}, {self._canon})"

    def to_json(self):
        return {"k": self.k, "parents": self.parents}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["k"], obj["parents"])


_ROOT = object()  # sentinel for the root leaf labelled 0


def build_labelled(k, root, children, leaf_label):
    """Labelled tree from a rooted adjacency.

    children maps node -> ordered child list; leaf_label maps exactly the k
    leaf nodes to labels 1..k.  Vertices of degree 2 are removed by merging
    their two incident edges (the root is exempt).  Branch points are named
    b1, b2, ... by the lexicographic order of (i(b), j(b)), the least pair of
    leaf labels whose most recent common ancestor is b.
    """

    def shrink(v):
        while v not in leaf_label and len(children.get(v, ())) == 1:
            v = children[v][0]
        return v

    cc = {}
    stack = [root]
    while stack:
        v = stack.pop()
        kids = [shrink(c) for c in children.get(v, ())]
        if v in leaf_label and kids:
            raise ValueError("labelled leaf has children")
        cc[v] = kids
        stack.extend(kids)

    # least leaf label under each node, and the least-pair key per branch;
    # cc holds every node after its parent, so the reversed walk meets
    # children first
    leaf_min = {}
    for v in reversed(cc):
        leaf_min[v] = (leaf_label[v] if v in leaf_label
                       else min(leaf_min[c] for c in cc[v]))

    branch_keys = []
    for v, kids in cc.items():
        if v is root or v in leaf_label:
            continue
        if len(kids) < 2:
            raise ValueError("internal vertex of degree 2 survived contraction")
        mins = sorted(leaf_min[c] for c in kids)
        branch_keys.append(((mins[0], mins[1]), v))
    branch_keys.sort(key=lambda kv: kv[0])
    name = {v: f"b{i + 1}" for i, (_, v) in enumerate(branch_keys)}
    name[root] = "0"
    for v, lab in leaf_label.items():
        name[v] = str(lab)

    parents = {}
    stack = [root]
    while stack:
        v = stack.pop()
        for c in cc[v]:
            parents[name[c]] = name[v]
            stack.append(c)
    return LabelledTree(k, parents)


# -- recursive extraction ----------------------------------------------------


def extract_tree(path: StepPath, marks):
    """Ordered tree of the subexcursion decomposition at the marked times.

    marks may be any sequence of times in [0, domain_end); marks are allowed
    to coincide with jump times (a mark at the subtree-root jump is absorbed
    into that root).  The vertex reached by each mark is reported in
    mark_words, in the order of the marks argument.
    """
    if path.kind != "excursion":
        raise PathDomainError("extract_tree needs an excursion-type path")
    marks = np.asarray(marks, dtype=float).reshape(-1)
    k = marks.size
    words = {()}
    mark_word = [None] * k
    if k == 0:
        return OrderedTree(frozenset(words), ())
    order = np.argsort(marks, kind="stable")
    times = path.times
    # frames: (word, window_start, window_end, sorted mark times, mark ids)
    frames = [((), 0.0, path.domain_end, marks[order], order)]
    while frames:
        word, a, e, mts, mids = frames.pop()
        words.add(word)
        if mts.size <= 1:
            if mts.size == 1:
                mark_word[mids[0]] = word
            continue
        # most recent common ancestor jump of the marks inside this window
        r = running_min(path, mts[0], mts[-1])
        ia = np.searchsorted(times, a, side="right")
        i1 = np.searchsorted(times, mts[0], side="right")
        below = np.nonzero(path._lefts[ia:i1] < r)[0]
        b = float(times[ia + below[-1]]) if below.size else a
        b_next = np.searchsorted(times, b, side="right")
        classes = {}
        for t, mid in zip(mts, mids):
            if t == b:
                mark_word[mid] = word
                continue
            gd = _g_d_window(path, b_next, b, e, float(t))
            classes.setdefault(gd, ([], []))
            classes[gd][0].append(t)
            classes[gd][1].append(mid)
        for rank, ((g, d), (cts, cids)) in enumerate(classes.items(), start=1):
            frames.append((word + (rank,), g, d,
                           np.asarray(cts), np.asarray(cids, dtype=int)))
    return OrderedTree(frozenset(words), tuple(mark_word))


def to_labelled(tree: OrderedTree, leaf_perm):
    """Labelled spanning tree of an extraction result.

    leaf_perm is a permutation of 1..k applied to the marks in their argument
    order; a root leaf labelled 0 is attached above the tree root.  Returns
    CEMETERY when the marks do not sit on k distinct leaves.
    """
    k = len(tree.mark_words)
    perm = list(leaf_perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("leaf_perm must be a permutation of 1..k")
    if len(set(tree.mark_words)) < k:
        return CEMETERY
    children = {}
    for w in tree.words:
        children.setdefault(w, [])
        if w:
            children.setdefault(w[:-1], [])
    for w in tree.words:
        if w:
            children[w[:-1]].append(w)
    for w in children:
        children[w].sort()
    if any(children[w] for w in tree.mark_words):
        return CEMETERY
    leaf_label = {w: perm[i] for i, w in enumerate(tree.mark_words)}
    children[_ROOT] = [()]
    return build_labelled(k, _ROOT, children, leaf_label)


# -- LIFO genealogy ----------------------------------------------------------


@dataclass
class MarkedGenealogy:
    """Full LIFO tree over the jumps of an excursion path.

    Vertices are jump indices in arrival order; parent is -1 at a root, and
    every parent precedes its children.
    """

    parent: np.ndarray
    children: list
    arrival: np.ndarray

    @property
    def n(self):
        return self.arrival.size

    def depth(self, v):
        d = 1
        while self.parent[v] >= 0:
            v = self.parent[v]
            d += 1
        return d

    def ancestors(self, v):
        """Vertex chain from the root down to v, inclusive."""
        chain = [v]
        while self.parent[v] >= 0:
            v = self.parent[v]
            chain.append(v)
        chain.reverse()
        return chain

    def to_ordered(self):
        """The ordered tree of the genealogy, children ranked in arrival
        order; mark_words holds the word of each vertex in arrival order.

        Every root gets the empty word, so a forest (a later jump whose left
        limit returns to 0) is read with its roots merged.
        """
        words = [()] * self.n
        for v in range(self.n):
            for rank, c in enumerate(self.children[v], start=1):
                words[c] = words[v] + (rank,)
        return OrderedTree(frozenset(words), tuple(words))


def lifo_tree(path: StepPath):
    """LIFO genealogy by a single forward stack sweep.

    Customer j is a child of i when j arrives while i is in service, i.e.
    the left limit at j's arrival is still above i's arrival left limit.
    """
    if path.kind != "excursion":
        raise PathDomainError("lifo_tree needs an excursion-type path")
    n = path.times.size
    lefts = path._lefts
    parent = np.full(n, -1, dtype=np.int64)
    children = [[] for _ in range(n)]
    stack = []
    for j in range(n):
        v = lefts[j]
        while stack and v <= lefts[stack[-1]]:
            stack.pop()
        if stack:
            parent[j] = stack[-1]
            children[stack[-1]].append(j)
        stack.append(j)
    return MarkedGenealogy(parent=parent, children=children, arrival=path.times)


def serve_projection(path: StepPath, t):
    """Arrival time q(t) of the customer in service at time t.

    Equals tau(path, t, x(t)); always a jump time of the path.
    """
    q = tau(path, t, path.eval(t))
    return float(q)


# -- the two spanning-tree routes -------------------------------------------


def spanning_from_marks(path: StepPath, marks, leaf_perm):
    """Labelled spanning tree extracted directly at the marked times."""
    return to_labelled(extract_tree(path, marks), leaf_perm)


def spanning_from_projection(path: StepPath, marks, leaf_perm):
    """Labelled subtree of the LIFO genealogy spanned by the root and the
    in-service vertices q(mark_i).

    Only the k ancestor chains are built: the chain of mark t is the record
    jumps up to t (paths._ancestor_indices), which ends at the customer q(t)
    that serve_projection names, or the root chain [0] when the root is in
    service; it equals lifo_tree(path).ancestors(q(t)).  As in to_labelled,
    a root leaf labelled 0 is attached above the genealogy root (jump 0),
    which is then contracted when it has degree 2 and named as a branch
    point otherwise.  CEMETERY when the q's are not k distinct leaves of the
    spanned subtree.
    """
    if path.kind != "excursion":
        raise PathDomainError("spanning_from_projection needs an excursion-type path")
    marks = np.asarray(marks, dtype=float).reshape(-1)
    k = marks.size
    perm = list(leaf_perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("leaf_perm must be a permutation of 1..k")
    chains = [_ancestor_indices(path, float(t)).tolist() or [0] for t in marks]
    qs = [chain[-1] for chain in chains]
    qset = set(qs)
    if len(qset) < k or any(qset.intersection(chain[:-1]) for chain in chains):
        return CEMETERY
    spanned = {}
    for chain in chains:
        for p, c in zip(chain, chain[1:]):
            spanned.setdefault(p, set()).add(c)
    children = {v: sorted(cs) for v, cs in spanned.items()}
    children[_ROOT] = [0]
    leaf_label = {v: perm[i] for i, v in enumerate(qs)}
    return build_labelled(k, _ROOT, children, leaf_label)
