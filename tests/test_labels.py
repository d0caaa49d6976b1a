"""The label format: one table of collection labels per n, one antichain-label rule.

``lattices.collection_labels`` holds the :func:`collection_label` of every
collection over n sources, and ``lattices.antichain_label`` joins the
members' labels, or gives ``∅-chain`` for no member.  Every antichain
label, the lattice index's labels and the MI labels read them.  The
references below are the former statements: labels built one collection
at a time, and the DOT of every nested concept lattice as it was written
while each label was built that way.
"""

import hashlib

import numpy as np
import pytest

from pidlattice import (
    Antichain,
    BaseConcept,
    ValidationError,
    collection_label,
    concept_lattice,
    enumerate_antichains,
    lattice_to_dot,
)
from pidlattice.concepts import MI_KEYS, domain_labels
from pidlattice.lattices import EMPTY_CHAIN_LABEL, collection_labels, lattice_index


def per_collection_join(alpha: Antichain) -> str:
    """The former ``Antichain.label``: each member labelled on its own, then joined."""
    if alpha.is_empty:
        return EMPTY_CHAIN_LABEL
    return "".join(collection_label(m) for m in alpha.masks)


def seeded_antichains(n: int, seed: int, count: int) -> list[Antichain]:
    """The two degenerate antichains, then ``count`` antichains of random collections' minimal members."""
    rng = np.random.default_rng(seed)
    found = [Antichain(n, ()), Antichain.of(n, [0])]
    for _ in range(count):
        drawn = set(rng.integers(1, 1 << n, size=rng.integers(1, 9)).tolist())
        found.append(Antichain.of(n, [s for s in drawn if not any(t != s and t & ~s == 0 for t in drawn)]))
    return found


@pytest.mark.parametrize("n", range(1, 9))
def test_the_collection_labels_are_each_collections_label(n):
    labels = collection_labels(n)
    assert type(labels) is tuple and len(labels) == 1 << n
    assert list(labels) == [collection_label(s) for s in range(1 << n)]
    assert collection_labels(n) is labels


@pytest.mark.parametrize("n", [0, 9, True, 2.0])
def test_the_collection_labels_refuse_a_source_count_outside_the_boundary_range(n):
    with pytest.raises(ValidationError, match="source count"):
        collection_labels(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_an_antichains_label_is_its_index_label(n):
    labels = lattice_index(n).labels
    assert [alpha.label() for alpha in enumerate_antichains(n)] == list(labels)
    assert [per_collection_join(alpha) for alpha in enumerate_antichains(n)] == list(labels)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_mi_labels_are_the_collection_labels(n):
    labels = domain_labels(MI_KEYS, n)
    assert labels == [collection_label(s) for s in range(1 << n)]
    labels[0] = "changed by a caller"  # each call hands out its own list; the cached table stays
    assert domain_labels(MI_KEYS, n)[0] == "{}"


@pytest.mark.parametrize("n", [6, 7, 8])
def test_labels_above_five_sources_join_the_collection_labels(n):
    antichains = seeded_antichains(n, seed=n, count=200)
    assert antichains[0].label() == EMPTY_CHAIN_LABEL and antichains[1].label() == "{}"
    assert [alpha.label() for alpha in antichains] == [per_collection_join(alpha) for alpha in antichains]


# sha256 of lattice_to_dot(concept_lattice(concept, 5)), recorded while each
# antichain label was joined from its members' labels one collection at a time.
DOT_SHA256 = {
    "redundancy": "9fde82d3ea1be70082f53f58f8a17da27fd7aaf51b228894e4fd20b0836e9600",
    "weak-synergy": "14f6fa3705f8c14f6988a4b68f2a68fc8245a7fcbfb61b1122c5b1b4dc218395",
    "union": "80f338e3d067c06b7aae12855a906f32049ffb06d009d8e000b7780a031930e5",
    "vulnerable": "0e7c204d1d5c2b94faf9783149600ace8f30aed53a71244f7f59db9c7d2e6964",
    "redundancy-partner": "e96b434b58e7ceaaad53cf26e08c474ce9bce92dda3d07149f65ca0fb8875a68",
    "restricted": "063ce858b51e2d7a066747c88a72262c48763c710d278aac8a39f962ab718e7f",
    "union-partner": "7d487d1b49f38088f7821b09cfcda28ef8e120701186c85eca689eb69dbb7a4e",
    "vulnerable-partner": "56d68d3fe837f8cb1a3b07305fad45fe20451a437c89a33e5c3d651a3e9e3b04",
}


@pytest.mark.parametrize("tag", DOT_SHA256)
def test_the_dot_of_each_nested_concept_lattice_is_unchanged(tag):
    dot = lattice_to_dot(concept_lattice(BaseConcept.from_tag(tag), 5))
    assert hashlib.sha256(dot.encode()).hexdigest() == DOT_SHA256[tag]
