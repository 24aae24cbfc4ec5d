import sys

import numpy as np
import pytest

from icrtlab.paths import StepPath
from icrtlab.rng import make_generator
from icrtlab.samplers import sample_marks, sample_X_n
from icrtlab.trees import (CEMETERY, LabelledTree, OrderedTree, build_labelled,
                           extract_tree, lifo_tree, serve_projection,
                           spanning_from_marks, spanning_from_projection,
                           to_labelled)


@pytest.fixture
def exc():
    return StepPath(1.0, -1.0, [0.0, 0.25], [0.4, 0.6], kind="excursion")


@pytest.fixture
def nested3():
    # each jump nests inside the previous one's subexcursion
    return StepPath(1.0, -1.0, [0.0, 0.1, 0.2], [0.5, 0.3, 0.2],
                    kind="excursion")


class TestExtract:
    def test_two_marks_star(self, exc):
        t = extract_tree(exc, [0.1, 0.3])
        assert t.words == frozenset({(), (1,), (2,)})
        assert t.mark_words == ((1,), (2,))

    def test_mark_order_tracked(self, exc):
        t = extract_tree(exc, [0.3, 0.1])
        assert t.mark_words == ((2,), (1,))

    def test_single_mark(self, exc):
        t = extract_tree(exc, [0.5])
        assert t.words == frozenset({()})
        assert t.mark_words == ((),)

    def test_marks_at_jump_times_nested(self, nested3):
        t = extract_tree(nested3, nested3.times)
        assert t.words == frozenset({(), (1,), (1, 1)})
        assert t.mark_words == ((), (1,), (1, 1))

    def test_trunk_marks_become_sibling_leaves(self, exc):
        # both marks sit on the trunk above the nested jump: degenerate
        # windows, so each becomes its own child of the root
        t = extract_tree(exc, [0.3, 0.6])
        assert t.mark_words == ((1,), (2,))

    def test_ordered_tree_validate(self, exc):
        extract_tree(exc, [0.1, 0.3, 0.6]).validate()
        with pytest.raises(ValueError):
            OrderedTree(frozenset({(), (2,)})).validate()


class TestToLabelled:
    def test_star(self, exc):
        lt = to_labelled(extract_tree(exc, [0.1, 0.3]), [1, 2])
        assert lt.canonical() == "1:b1|2:b1|b1:0"

    def test_perm_applied(self, exc):
        lt = to_labelled(extract_tree(exc, [0.1, 0.3]), [2, 1])
        assert lt.canonical() == "1:b1|2:b1|b1:0"  # star is symmetric

    def test_single_leaf_edge(self, exc):
        lt = to_labelled(extract_tree(exc, [0.5]), [1])
        assert lt.parents == {"1": "0"}

    def test_cemetery_on_duplicate(self, nested3):
        # marks at all jump times sit on a chain: inner marks have children
        t = extract_tree(nested3, nested3.times)
        assert to_labelled(t, [1, 2, 3]) is CEMETERY

    def test_cemetery_repr(self):
        assert repr(CEMETERY) == "∂"
        assert CEMETERY.canonical() == "∂"

    def test_branch_order_three_leaves(self):
        # two nested subexcursions: leaves 2,3 deeper than leaf 1
        p = StepPath(1.0, -1.0, [0.0, 0.3, 0.35], [0.4, 0.3, 0.3],
                     kind="excursion")
        lt = to_labelled(extract_tree(p, [0.1, 0.4, 0.5]), [1, 2, 3])
        assert lt.k == 3
        # b1 splits {1} from {2,3}; b2 is the deeper branch point
        assert lt.parents["b2"] == "b1"
        assert lt.parents["1"] == "b1"
        assert lt.parents["2"] == "b2"
        assert lt.parents["3"] == "b2"

    def test_labelled_tree_json(self):
        lt = LabelledTree(2, {"1": "b1", "2": "b1", "b1": "0"})
        again = LabelledTree.from_json(lt.to_json())
        assert again == lt
        assert hash(again) == hash(lt)


class TestLifo:
    def test_nested_chain(self, nested3):
        gen = lifo_tree(nested3)
        assert gen.parent.tolist() == [-1, 0, 1]
        tree = gen.to_ordered()
        assert tree.words == frozenset({(), (1,), (1, 1)})
        assert tree.mark_words == ((), (1,), (1, 1))
        assert gen.depth(2) == 3
        assert gen.ancestors(2) == [0, 1, 2]

    def test_two_children(self):
        p = StepPath(1.0, -1.0, [0.0, 0.2, 0.6], [0.5, 0.25, 0.25],
                     kind="excursion")
        gen = lifo_tree(p)
        assert gen.parent.tolist() == [-1, 0, 0]
        assert gen.children[0] == [1, 2]

    def test_forest_roots_share_empty_word(self):
        # the second jump's left limit returns to 0, so it starts a new root
        p = StepPath(1.0, -1.0, [0.0, 0.5], [0.5, 0.5], kind="excursion")
        gen = lifo_tree(p)
        assert gen.parent.tolist() == [-1, -1]
        tree = gen.to_ordered()
        assert tree.words == frozenset({()})
        assert tree.mark_words == ((), ())

    def test_serve_projection(self, exc):
        assert serve_projection(exc, 0.1) == 0.0
        assert serve_projection(exc, 0.3) == 0.25
        assert serve_projection(exc, 0.9) == 0.0


class TestTwoRoutes:
    def test_equal_on_simple_case(self, exc):
        marks = np.array([0.3, 0.6, 0.1])
        perm = [1, 2, 3]
        a = spanning_from_marks(exc, marks, perm)
        b = spanning_from_projection(exc, marks, perm)
        # marks 0.3, 0.6 both serve the jump at 0.25: projection collides
        assert b is CEMETERY
        assert a is not CEMETERY

    def test_agreement_rate_high(self):
        rng = make_generator(21)
        n, k, match = 500, 3, 0
        reps = 60
        for rep in range(reps):
            g = make_generator(21, 0, rep)
            x, _ = sample_X_n(np.full(n, 1.0 / n), g)
            marks = sample_marks(k, g, x)
            a = spanning_from_marks(x, marks, [1, 2, 3])
            b = spanning_from_projection(x, marks, [1, 2, 3])
            if (a is CEMETERY and b is CEMETERY) or a == b:
                match += 1
        assert match >= reps * 0.7

    def test_projection_root_exempt_from_suppression(self):
        # single mark: the spanned subtree is a root-to-leaf chain
        p = StepPath(1.0, -1.0, [0.0, 0.2], [0.5, 0.5], kind="excursion")
        b = spanning_from_projection(p, [0.3], [1])
        assert b.parents == {"1": "0"}

    def test_single_mark_served_by_root(self, exc):
        # the genealogy root is leaf 1, below the root leaf 0
        a = spanning_from_marks(exc, [0.1], [1])
        b = spanning_from_projection(exc, [0.1], [1])
        assert a == b
        assert b.parents == {"1": "0"}

    def test_root_leaf_above_branch_at_root_jump(self):
        # the root customer (jump at 0) has children c1 (0.1) and c4 (0.6);
        # c1 has children c2 (0.15) and c3 (0.3).  The marks sit in c2, c3
        # and c4, so the marks first branch at the root jump: that jump is a
        # branch point below the root leaf 0 in both routes.
        p = StepPath(1.0, -1.0, [0.0, 0.1, 0.15, 0.3, 0.6],
                     [0.4, 0.3, 0.05, 0.05, 0.2], kind="excursion")
        marks = [0.17, 0.32, 0.7]
        a = spanning_from_marks(p, marks, [1, 2, 3])
        b = spanning_from_projection(p, marks, [1, 2, 3])
        assert a == b
        assert b.canonical() == "1:b1|2:b1|3:b2|b1:b2|b2:0"


def reference_projection(path, marks, leaf_perm):
    """spanning_from_projection read off the full LIFO genealogy: the served
    customers q(t), their chains lifo_tree(path).ancestors(q), the genealogy
    root below a root leaf 0."""
    gen = lifo_tree(path)
    qs = [int(np.searchsorted(path.times, serve_projection(path, float(t))))
          for t in marks]
    k = len(qs)
    if len(set(qs)) < k:
        return CEMETERY
    chains = [gen.ancestors(v) for v in qs]
    qset = set(qs)
    for v, chain in zip(qs, chains):
        if qset.intersection(chain[:-1]) - {v}:
            return CEMETERY
    spanned = {}
    for chain in chains:
        for p, c in zip(chain, chain[1:]):
            spanned.setdefault(p, set()).add(c)
    children = {v: sorted(cs) for v, cs in spanned.items()}
    root_leaf = object()
    children[root_leaf] = [int(np.nonzero(gen.parent < 0)[0][0])]
    leaf_label = {v: leaf_perm[i] for i, v in enumerate(qs)}
    return build_labelled(k, root_leaf, children, leaf_label)


class TestProjectionChains:
    """The chain-based projection equals the full-genealogy reference."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_random_excursions(self, k):
        outcomes = set()
        for rep in range(200):
            g = make_generator(41, k, rep)
            x, _ = sample_X_n(np.full(500, 1.0 / 500), g)
            perm = (g.permutation(k) + 1).tolist()
            for marks in (sample_marks(k, g, x),
                          x.times[np.sort(g.choice(x.times.size, k, replace=False))]):
                b = spanning_from_projection(x, marks, perm)
                assert b == reference_projection(x, marks, perm)
                outcomes.add(b is CEMETERY)
        assert outcomes == ({False} if k == 1 else {False, True})

    @pytest.mark.parametrize("times,sizes,marks,expected", [
        # marks at jump times: the jump's own customer is in service
        pytest.param([0.0, 0.2, 0.6], [0.5, 0.25, 0.25], [0.2, 0.6],
                     "1:b1|2:b1|b1:0", id="jump-times-siblings"),
        pytest.param([0.0, 0.2, 0.6], [0.5, 0.25, 0.25], [0.0, 0.2, 0.6],
                     "∂", id="jump-times-with-root"),
        pytest.param([0.0, 0.1, 0.2], [0.5, 0.3, 0.2], [0.0, 0.1, 0.2],
                     "∂", id="jump-times-nested"),
        # a mark served by the root: its chain is the root alone
        pytest.param([0.0, 0.25], [0.4, 0.6], [0.1], "1:0", id="root-served"),
        pytest.param([0.0, 0.2, 0.6], [0.5, 0.25, 0.25], [0.1, 0.3, 0.65],
                     "∂", id="root-served-above-others"),
        # at the end x = 0: no left limit lies below it, the root serves
        pytest.param([0.0, 0.25], [0.4, 0.6], [1.0], "1:0", id="end-mark"),
        pytest.param([0.0, 0.25], [0.4, 0.6], [0.3, 1.0], "∂", id="end-mark-above"),
        # equal left limits: customer 1 has left when customer 2 arrives
        pytest.param([0.0, 0.25, 0.5], [0.5, 0.25, 0.25], [0.375, 0.625],
                     "1:b1|2:b1|b1:0", id="equal-left-limits"),
        # two marks served by one customer
        pytest.param([0.0, 0.2, 0.6], [0.5, 0.25, 0.25], [0.1, 0.9],
                     "∂", id="root-served-twice"),
        pytest.param([0.0, 0.25], [0.4, 0.6], [0.3, 0.6, 0.1],
                     "∂", id="child-served-twice"),
        # nested q's: one served customer is an ancestor of another
        pytest.param([0.0, 0.1, 0.2], [0.5, 0.3, 0.2], [0.05, 0.15],
                     "∂", id="nested-root-child"),
        pytest.param([0.0, 0.1, 0.15, 0.3, 0.6], [0.4, 0.3, 0.05, 0.05, 0.2],
                     [0.12, 0.17, 0.7], "∂", id="nested-grandchild"),
        pytest.param([0.0, 0.1, 0.15, 0.3, 0.6], [0.4, 0.3, 0.05, 0.05, 0.2],
                     [0.17, 0.32, 0.7], "1:b1|2:b1|3:b2|b1:b2|b2:0",
                     id="branch-at-root"),
    ])
    def test_hand_built(self, times, sizes, marks, expected):
        p = StepPath(1.0, -1.0, times, sizes, kind="excursion")
        perm = list(range(1, len(marks) + 1))
        b = spanning_from_projection(p, marks, perm)
        assert b == reference_projection(p, marks, perm)
        assert b.canonical() == expected


def test_build_labelled_deep_caterpillar():
    # spine s0 -> s1 -> ... with one leaf per spine vertex: depth ~ 20 000
    m = 19_999
    children = {"root": [("s", 0)]}
    for i in range(m):
        nxt = ("s", i + 1) if i < m - 1 else ("l", m)
        children[("s", i)] = [("l", i), nxt]
    leaf_label = {("l", i): i + 1 for i in range(m + 1)}
    limit = sys.getrecursionlimit()
    lt = build_labelled(m + 1, "root", children, leaf_label)
    assert sys.getrecursionlimit() == limit
    assert lt.branch_count() == m
    assert lt.parents["b1"] == "0"
    assert lt.parents[f"b{m}"] == f"b{m - 1}"
    assert lt.parents["1"] == "b1"
    assert lt.parents[str(m)] == lt.parents[str(m + 1)] == f"b{m}"
