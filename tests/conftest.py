import random

import pytest

from dualxp.bundled import poole_instance, poole_model
from dualxp.model import (
    DecisionTree,
    FeatureSpace,
    Instance,
    Leaf,
    Split,
    TreeStructure,
    validated,
)
from dualxp.synth import random_instance, random_space, random_tree

# feature indices of the book-recommendation tree
A, T, L, W = 0, 1, 2, 3
READS, SKIPS = 0, 1


@pytest.fixture(scope="session")
def poole():
    return poole_model()


@pytest.fixture(scope="session")
def e1(poole):
    return poole_instance(poole.space, A="known", T="new", L="long", W="home")


@pytest.fixture(scope="session")
def e2(poole):
    return poole_instance(poole.space, A="known", T="new", L="short", W="work")


# the worked instance with prediction skips; identical point to e1
e3_fixture = e1


@pytest.fixture(scope="session")
def constant_tree():
    space = FeatureSpace(("X", "Y"), (("a", "b"), ("0", "1")))
    return validated(DecisionTree(
        space, ("c0", "c1"), TreeStructure((Leaf(0),), 0)
    ))


@pytest.fixture(scope="session")
def three_class_tree():
    """class k1/k2/k3 determined entirely by X in {a, b, c}; Y vacuous."""
    space = FeatureSpace(("X", "Y"), (("a", "b", "c"), ("0", "1")))
    return validated(DecisionTree(
        space, ("k1", "k2", "k3"),
        TreeStructure((Split(0, (1, 2, 3)), Leaf(0), Leaf(1), Leaf(2)), 0),
    ))


def shared_children_tree():
    """A tree whose splits share children, built without the parser: node 3
    is reached three ways and node 4 two ways, so a search that does not
    remember visited nodes expands them again."""
    space = FeatureSpace(("X", "Y", "Z"), (("a", "b"), ("0", "1", "2"), ("p", "q")))
    return validated(DecisionTree(space, ("k0", "k1", "k2"), TreeStructure((
        Split(0, (1, 2)),
        Split(1, (3, 4, 3)),
        Split(1, (4, 3, 5)),
        Split(2, (6, 7)),
        Leaf(2),
        Leaf(0),
        Leaf(0),
        Leaf(1),
    ), 0)))


def shared_chain(n: int) -> DecisionTree:
    """n binary splits in a row, each with both children on the next one,
    and the last one deciding the class: 2^(n-1) paths through n + 2 nodes."""
    space = FeatureSpace(tuple(f"x{i}" for i in range(n)), (("a", "b"),) * n)
    nodes = [Split(i, (i + 1, i + 1)) for i in range(n - 1)]
    nodes += [Split(n - 1, (n, n + 1)), Leaf(0), Leaf(1)]
    return DecisionTree(space, ("c0", "c1"), TreeStructure(tuple(nodes), 0))


def random_shared_tree(rng: random.Random, space: FeatureSpace, n_classes: int,
                       n_splits: int) -> DecisionTree:
    """A random decision tree whose splits share children.  Each split takes
    its children from the nodes made before it, mostly the latest ones, that
    do not split on its feature anywhere below; the last split is the root,
    and the nodes it does not reach are dropped."""
    nodes = [Leaf(c) for c in range(n_classes)]
    below = [frozenset()] * n_classes  # the features split on under each node
    for _ in range(n_splits):
        f = rng.randrange(space.n_features)
        options = [i for i, b in enumerate(below) if f not in b]
        kids = tuple(rng.choice(options[-6:] if rng.random() < 0.7 else options)
                     for _ in range(space.domain_size(f)))
        nodes.append(Split(f, kids))
        below.append(frozenset({f}).union(*(below[k] for k in kids)))
    reached = {len(nodes) - 1}
    for i in range(len(nodes) - 1, -1, -1):
        if i in reached and isinstance(nodes[i], Split):
            reached.update(nodes[i].children)
    ids = {old: new for new, old in enumerate(sorted(reached))}
    kept = tuple(
        Split(nodes[i].feature, tuple(ids[k] for k in nodes[i].children))
        if isinstance(nodes[i], Split) else nodes[i]
        for i in sorted(reached)
    )
    return validated(DecisionTree(
        space, tuple(f"c{i}" for i in range(n_classes)),
        TreeStructure(kept, len(kept) - 1)))


def first_target_path(tree: TreeStructure, ranges, targets):
    """Reference for a decision tree's witness search: a recursive preorder
    walk of the Leaf and Split objects, with no memory of visited nodes,
    that tries each split's children in the order of its feature's range.
    The first leaf with class in `targets` wins, and the completion takes
    the branch values on its path and each other feature's first listed
    value; None if it reaches no such leaf."""
    def walk(node_id, path):
        node = tree.nodes[node_id]
        if isinstance(node, Leaf):
            return path if node.value in targets else None
        for v in ranges[node.feature]:
            found = walk(node.children[v], {**path, node.feature: v})
            if found is not None:
                return found
        return None

    path = walk(tree.root, {})
    if path is None:
        return None
    return tuple(path.get(f, r[0]) for f, r in enumerate(ranges))


def ascending_ranges(space: FeatureSpace, instance: Instance, kept):
    """Per feature, the instance's value alone if it is in `kept`, else
    the feature's whole domain in ascending order."""
    return [(v,) if f in kept else tuple(range(space.domain_size(f)))
            for f, v in enumerate(instance.values)]


def make_corpus(n_models: int, instances_per_model: int = 5, seed: int = 7,
                max_features: int = 6):
    """Random (tree, instance) pairs for cross-checking against brute force."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_models):
        space = random_space(rng, rng.randint(2, max_features))
        tree = random_tree(rng, space, rng.randint(2, 3))
        for _ in range(instances_per_model):
            corpus.append((tree, random_instance(rng, space)))
    return corpus


@pytest.fixture(scope="session")
def small_corpus():
    return make_corpus(40)
