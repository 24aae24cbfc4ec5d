"""Line-breaking construction of the glued-segment random tree.

Each atom theta_i runs an independent Poisson clock of rate theta_i on the
half line.  First arrivals are join points xi_i; second and later arrivals,
ranked over all atoms, are the cutpoints eta_1 < eta_2 < ...  The segment
(eta_m, eta_{m+1}] is glued at the join point of eta_m's colour, which always
precedes eta_m, so the procedure is well defined.  Distances are the
Euclidean lengths along the glued segments.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .theta import ThetaParam
from .trees import build_labelled

DIST_TOL = 1e-9


@dataclass
class LineBrokenTree:
    """Realization of the line-breaking tree after k cutpoints.

    Segments are 0-based: segment s spans (eta_s, eta_{s+1}] with eta_0 = 0;
    coordinate 0 is the root; leaf i sits at eta_i, the tip of segment i-1.
    attach[s] = (parent_segment, coordinate) for s >= 1; colors[m-1] is the
    1-based atom index of cutpoint eta_m; joins maps atom index -> xi_i.
    """

    theta: ThetaParam
    etas: list
    colors: list
    joins: dict
    attach: list = field(default_factory=list)
    _droot: list = field(default_factory=list)

    def __post_init__(self):
        if not self.attach:
            self.attach = [None]
            for s in range(1, self.k):
                coord = self.joins[self.colors[s - 1]]
                if not coord < self.etas[s - 1]:
                    raise ValueError("join point does not precede its cutpoint")
                self.attach.append((self.segment_of(coord), coord))
        # distance from the root to each segment's attach point
        self._droot = [0.0]
        for s in range(1, self.k):
            ps, coord = self.attach[s]
            self._droot.append(self._droot[ps] + (coord - self.seg_start(ps)))

    @property
    def k(self):
        return len(self.etas)

    def seg_start(self, s):
        return 0.0 if s == 0 else self.etas[s - 1]

    def segment_of(self, p):
        """Segment holding coordinate p, under the convention that a segment
        owns its right endpoint (so eta_i belongs to segment i-1)."""
        self._check(p)
        return min(bisect_left(self.etas, p), self.k - 1)

    def _check(self, p):
        if not 0.0 <= p <= self.etas[-1]:
            raise ValueError(f"position {p} not on a realized segment")

    def dist_to_root(self, p):
        s = self.segment_of(p)
        return self._droot[s] + (p - self.seg_start(s))

    def leaf_position(self, i):
        if not 1 <= i <= self.k:
            raise ValueError("leaf index out of range")
        return self.etas[i - 1]

    def to_json(self):
        return {
            "segments": [[self.seg_start(s), self.etas[s]] for s in range(self.k)],
            "attachments": [list(a) if a else None for a in self.attach],
            "colors": self.colors,
            "joins": {str(i): x for i, x in self.joins.items()},
        }


def sample_line_breaking(theta: ThetaParam, k, rng):
    """Run the per-atom Poisson clocks until k cutpoints are ranked."""
    atoms = theta.atoms
    if atoms.size == 0:
        raise ValueError("theta has no atoms")
    if k < 1:
        raise ValueError("k must be at least 1")
    heap = list(zip(rng.exponential(1.0 / atoms).tolist(), range(1, atoms.size + 1)))
    heapq.heapify(heap)
    joins, etas, colors = {}, [], []
    while len(etas) < k:
        t, i = heapq.heappop(heap)
        if i in joins:
            etas.append(t)
            colors.append(i)
        else:
            joins[i] = t
        heapq.heappush(heap, (t + rng.exponential(1.0 / atoms[i - 1]), i))
    return LineBrokenTree(theta=theta, etas=etas, colors=colors, joins=joins)


def distance(tree: LineBrokenTree, a, b):
    """Length of the unique tree path between coordinates a and b."""
    tree._check(a)
    tree._check(b)
    sa, xa = tree.segment_of(a), a
    sb, xb = tree.segment_of(b), b
    while sa != sb:
        if sa > sb:
            sa, xa = tree.attach[sa]
        else:
            sb, xb = tree.attach[sb]
    m = min(xa, xb)
    dm = tree._droot[sa] + (m - tree.seg_start(sa))
    return (tree.dist_to_root(a) - dm) + (tree.dist_to_root(b) - dm)


def reduced_tree(tree: LineBrokenTree, k):
    """Labelled shape of the union of the first k segments.

    Leaf i is the tip eta_i, the root leaf 0 is coordinate 0; attach points
    become branch points and pass-through points of degree 2 are suppressed.
    """
    if not 1 <= k <= tree.k:
        raise ValueError("k exceeds the realized tree")
    pts = {s: [] for s in range(k)}
    entry = {0: ("root",)}
    for s in range(1, k):
        ps, coord = tree.attach[s]
        node = ("p", ps, coord)
        entry[s] = node
        if all(n != node for _, n in pts[ps]):
            pts[ps].append((coord, node))
    for i in range(1, k + 1):
        pts[i - 1].append((tree.etas[i - 1], ("leaf", i)))
    children = {}
    for s in range(k):
        prev = entry[s]
        for _, node in sorted(pts[s], key=lambda cn: cn[0]):
            children.setdefault(prev, []).append(node)
            prev = node
    leaf_label = {("leaf", i): i for i in range(1, k + 1)}
    return build_labelled(k, ("root",), children, leaf_label)


def branch_degree(tree: LineBrokenTree, atom_index, k):
    """Degree of the join point of the given atom in the k-segment tree:
    one direction toward the root, one through direction when the join is
    interior to a realized segment, plus one per attached segment."""
    if not 1 <= k <= tree.k:
        raise ValueError("k exceeds the realized tree")
    pos = tree.joins.get(atom_index)
    if pos is None or pos > tree.etas[k - 1]:
        return 0
    deg = 1 + sum(1 for m in range(1, k) if tree.colors[m - 1] == atom_index)
    if pos not in tree.etas:
        deg += 1
    return deg


def branch_count_on_path(tree: LineBrokenTree, a, b, eps):
    """Number of join points with theta above eps on the geodesic [a, b]."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = distance(tree, a, b)
    count = 0
    for i, pos in tree.joins.items():
        if tree.theta.atoms[i - 1] <= eps or pos > tree.etas[-1]:
            continue
        if abs(distance(tree, a, pos) + distance(tree, pos, b) - d) <= DIST_TOL:
            count += 1
    return count


def rescale(tree: LineBrokenTree, c):
    """Scale every position by 1/c; in law this turns a theta sample into a
    c*theta sample.  The shape is invariant and distances divide by c."""
    if c <= 0:
        raise ValueError("c must be positive")
    return LineBrokenTree(
        theta=ThetaParam(tree.theta.atoms * c, tree.theta.tail_l2 * c * c,
                         tree.theta.nominal_alpha),
        etas=[e / c for e in tree.etas],
        colors=list(tree.colors),
        joins={i: x / c for i, x in tree.joins.items()},
    )
