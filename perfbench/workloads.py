"""The benchmark's workloads and the constants its checks compare against.

This module imports nothing, so a worker can load it before it times
``import pidlattice``.
"""

# Concept tags in ``BaseConcept`` order; decomposing workloads take op i
# under CONCEPTS[i % 10].
NESTED = (
    "redundancy",
    "weak-synergy",
    "union",
    "vulnerable",
    "redundancy-partner",
    "restricted",
    "union-partner",
    "vulnerable-partner",
)
CONCEPTS = NESTED + ("unique", "unique-partner")
# Concepts whose reference decomposition reads values at partner-mapped antichains.
PARTNERS = frozenset({"redundancy-partner", "restricted", "union-partner", "vulnerable-partner"})

# name -> (source count, ops per cycle).  A timed window always ends on a
# cycle boundary, so every run of n5-roundtrip holds each concept equally often.
WORKLOADS = {
    "n5-roundtrip": (5, len(CONCEPTS)),
    "n4-lattice": (4, 1),
    "wide-dense": (3, 1),
    "wide-sparse": (4, 1),
}

# Antichain counts for n = 1..5; a decomposition has DEDEKIND[n] - 2 atoms.
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}

# SHA-256 of ``lattice_to_dot(concept_lattice(concept, 4))``, recorded from
# the code this benchmark was written against; the CLI output must stay
# byte-identical.
N4_DOT_SHA256 = {
    "redundancy": "e8f57e9c6fc1dc84f9eae90ee9e8d6e510eeee2dad1da9b6c0259936c706b847",
    "weak-synergy": "83523a9118b1503f0d5e72398439b194046be4805c36d5fc57f2a4746597e9d7",
    "union": "cdad386e493aea7b85775bc22b12d90ebdfc229ad70158324563b4ca9a342359",
    "vulnerable": "e08497ab72b46596b75444b71808555f79ceead4b8cc5922ff615f92ad3b2889",
    "redundancy-partner": "e5c6fb62458d22f4937fc800008ab9d501684835ae83164df2fa2a77f7514376",
    "restricted": "2bab453308d4864a727a3b9fe367fad4d464d914b5f60ca692243a8ac7a55938",
    "union-partner": "677d1f40dcff31cb08b53cd10f07f796fedb39841a91fa1e895d756dcb979d9f",
    "vulnerable-partner": "2d6ca08efc3eaa6010066fa04c743f94e06c2cc316f445a800cf9f1d310469c9",
}
