"""A mass at or below MASS_EPS is dropped once, when a distribution is built.

``JointDistribution._keep`` drops those masses before it stores the
columns, so every marginal the entropy routes form is a sum of kept
masses and ``distributions._shannon`` takes them as they come.  The former
``_shannon``, which filtered every marginal again, is kept here as the
reference: on complete and incomplete tables, every entropy, mutual
information and conditional mutual information is the same to the bit
under both, and a spy finds no array at or below MASS_EPS reaching it.
"""

import itertools

import numpy as np
import pytest

from pidlattice import JointDistribution, conditional_mi, mutual_information, random_joint
from pidlattice import distributions
from pidlattice.distributions import MASS_EPS


def filtering_shannon(probs: np.ndarray) -> float:
    """The former entropy: masses at or below MASS_EPS filtered out of every marginal."""
    probs = probs[probs > MASS_EPS]
    return -float((probs * np.log2(probs)).sum())


def thinned(dist: JointDistribution, seed: int) -> JointDistribution:
    """``dist`` with about half of its cells given a mass of 0, at least one kept, renormalised."""
    rng = np.random.default_rng(seed)
    masses = np.array(list(dist.pmf.values()))
    masses[rng.random(len(masses)) < 0.5] = 0.0
    masses[rng.integers(len(masses))] += 0.5
    masses /= masses.sum()
    return JointDistribution(dist.source_alphabets, dist.target_alphabet, dict(zip(dist.pmf, masses.tolist())))


def plug_in(sizes: tuple[int, ...], samples: int, seed: int) -> JointDistribution:
    """Relative frequencies of seeded samples whose target depends on the first two sources."""
    rng = np.random.default_rng(seed)
    states = rng.integers(0, sizes, size=(samples, len(sizes)))
    states[:, -1] = np.where(rng.random(samples) < 0.7, (states[:, 0] + states[:, 1]) % sizes[-1], states[:, -1])
    rows, counts = np.unique(states, axis=0, return_counts=True)
    pmf = dict(zip(map(tuple, rows.tolist()), (counts / samples).tolist()))
    return JointDistribution(sizes[:-1], sizes[-1], pmf)


def small_tables():
    """Every alphabet shape in {1, 2, 3}^(n + 1) for n = 1, 2, complete and thinned."""
    for n in (1, 2):
        for shape in itertools.product((1, 2, 3), repeat=n + 1):
            dist = random_joint(n, sum(shape), shape[:-1], shape[-1])
            yield f"{shape}", dist
            yield f"{shape}-thinned", thinned(dist, sum(shape))


TABLES = {
    **{f"n{n}-seed{seed}": (lambda n=n, seed=seed: random_joint(n, seed)) for n in (3, 4, 5) for seed in range(2)},
    **{
        f"n{n}-seed{seed}-thinned": (lambda n=n, seed=seed: thinned(random_joint(n, seed), seed))
        for n in (3, 4, 5)
        for seed in range(2)
    },
    "dirichlet-16x16x16-to-16": lambda: random_joint(3, 7, (16, 16, 16), 16),
    "plug-in-32x32x32x32-to-16": lambda: plug_in((32, 32, 32, 32, 16), 20_000, 5),
}


def rebuilt(dist: JointDistribution) -> JointDistribution:
    """A fresh distribution over the same columns, with no entropy cached yet."""
    return JointDistribution(dist.source_alphabets, dist.target_alphabet, dist.pmf)


def information_bits(monkeypatch, dist: JointDistribution, shannon) -> dict:
    """Every entropy, I(a : T) and I(a : T | g) of ``dist`` by ``float.hex``, with ``shannon`` in use."""
    with monkeypatch.context() as patch:
        patch.setattr(distributions, "_shannon", shannon)
        fresh = rebuilt(dist)
        bits = {("H", *key): value.hex() for key, value in fresh._entropies.items()}
        for a in range(1 << dist.n):
            bits[("I", a)] = mutual_information(fresh, a).hex()
            for g in range(1 << dist.n):
                bits[("I|", a, g)] = conditional_mi(fresh, a, g).hex()
    return bits


def same_bits_as_the_filtering_entropy(monkeypatch, dist: JointDistribution) -> None:
    ours = information_bits(monkeypatch, dist, distributions._shannon)
    assert len(ours) == (2 << dist.n) + (1 << dist.n) + (1 << 2 * dist.n)
    assert ours == information_bits(monkeypatch, dist, filtering_shannon)


def test_small_tables_include_complete_and_incomplete_ones():
    cells = [len(dist.pmf) == np.prod((*dist.source_alphabets, dist.target_alphabet)) for _, dist in small_tables()]
    assert any(cells) and not all(cells)


def test_every_small_shape_keeps_its_bits(monkeypatch):
    for _, dist in small_tables():
        same_bits_as_the_filtering_entropy(monkeypatch, dist)


@pytest.mark.parametrize("name", TABLES)
def test_seeded_and_wide_tables_keep_their_bits(monkeypatch, name):
    dist = TABLES[name]()
    complete = len(dist.pmf) == np.prod((*dist.source_alphabets, dist.target_alphabet))
    assert complete == ("thinned" not in name and "plug-in" not in name)
    same_bits_as_the_filtering_entropy(monkeypatch, dist)


EDGES = {
    "zero": 0.0,
    "below-eps": float(np.nextafter(MASS_EPS, 0.0)),
    "at-eps": MASS_EPS,
    "above-eps": float(np.nextafter(MASS_EPS, 1.0)),
}


def edge_pmfs():
    """A 2 x 2 -> 2 pmf holding each edge mass, and a complete one whose smallest mass is just above MASS_EPS."""
    cells = list(itertools.product(range(2), repeat=3))
    masses = [*EDGES.values(), 0.25, 0.25, 0.25, 0.25]
    yield "every-edge", dict(zip(cells, masses))
    yield "complete", dict(zip(cells, [EDGES["above-eps"], *[1 / 7] * 7]))


def built(pmf: dict, how: str) -> JointDistribution:
    """``pmf`` built from Python floats, from numpy scalars or from columns."""
    if how == "floats":
        return JointDistribution((2, 2), 2, pmf)
    if how == "numpy-scalars":  # not exact floats, so each mass is compared one by one
        return JointDistribution((2, 2), 2, {s: np.float64(p) for s, p in pmf.items()})
    columns = distributions._PmfView(np.array(list(pmf), np.int64), np.array(list(pmf.values())))
    return JointDistribution((2, 2), 2, columns)


@pytest.mark.parametrize("how", ["floats", "numpy-scalars", "columns"])
@pytest.mark.parametrize("name", ["every-edge", "complete"])
def test_no_mass_at_or_below_eps_reaches_the_entropy(monkeypatch, name, how):
    pmf = dict(edge_pmfs())[name]
    dist = built(pmf, how)
    kept = {s for s, p in pmf.items() if p > MASS_EPS}
    assert set(dist.pmf) == kept
    if name == "every-edge":
        assert [p for s, p in pmf.items() if s in kept] == [EDGES["above-eps"], 0.25, 0.25, 0.25, 0.25]
    seen = []

    def spy(probs):
        seen.append(probs.copy())
        assert probs.size and probs.min() > MASS_EPS, probs
        return filtering_shannon(probs)

    monkeypatch.setattr(distributions, "_shannon", spy)
    assert len(dist._entropies) == 2 << dist.n
    assert len(seen) == 2 << dist.n
    assert min(p.min() for p in seen) == EDGES["above-eps"]
