"""Seeded inputs for the benchmark's workloads.

The generators use numpy only, so no input passes through the code under
test.  ``generate`` writes a workload's files into a work directory and
returns its manifest: each file with the cell count, the support and the
digest ``JointDistribution.digest()`` must give for it, plus the per-op
schedule where the workload has one.  The same seed writes the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import NESTED

MASS_EPS = 1e-15  # the library drops masses at or below this before hashing

N5_POOL = 20  # n5-roundtrip op i decomposes file i % N5_POOL
WIDE_POOL = 3  # wide op i loads file i % WIDE_POOL
ORDER_POOL = 16  # n4-lattice op i builds the lattices in order i % ORDER_POOL

DENSE_SHAPE = (16, 16, 16, 16)  # sources (16, 16, 16), target 16: 65,536 cells
SPARSE_SHAPE = (32, 32, 32, 32, 16)  # 2^24 cells
SPARSE_SAMPLES = 1 << 14
SPARSE_NOISE = 0.1  # share of samples whose target is shifted at random


def joint_digest(sizes, target: int, entries) -> str:
    """The digest ``JointDistribution.digest()`` gives for these masses.

    Re-implements the library's documented payload: sorted
    ``[state, mass]`` pairs of the kept masses, alphabets, sorted keys.
    """
    payload = {
        "source_alphabets": list(sizes),
        "target_alphabet": target,
        "pmf": sorted([list(s), p] for s, p in entries if p > MASS_EPS),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_joint(path: Path, shape, states: np.ndarray, masses: np.ndarray) -> dict:
    """Write one distribution in the library's JSON format; return its manifest entry."""
    sizes, target = list(shape[:-1]), int(shape[-1])
    entries = list(zip(states.tolist(), masses.tolist()))
    doc = {
        "n_sources": len(sizes),
        "source_alphabets": sizes,
        "target_alphabet": target,
        "pmf": [{"state": s, "p": p} for s, p in entries],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return {
        "path": path.name,
        "digest": joint_digest(sizes, target, entries),
        "cells": math.prod(shape),
        "support": sum(p > MASS_EPS for _, p in entries),
    }


def _dirichlet_files(rng, work: Path, prefix: str, shape, count: int) -> list[dict]:
    """Full-support symmetric Dirichlet(1) tables, states in row-major order."""
    cells = math.prod(shape)
    states = np.array(np.unravel_index(np.arange(cells), shape)).T
    return [
        _write_joint(work / f"{prefix}-{k:02d}.json", shape, states, rng.dirichlet(np.ones(cells)))
        for k in range(count)
    ]


def _sparse_files(rng, work: Path, count: int) -> list[dict]:
    """Plug-in estimates from seeded samples: target = seeded linear map of the
    sources mod 16, shifted by a random non-zero amount for a share of samples."""
    *src_sizes, target = SPARSE_SHAPE
    files = []
    for k in range(count):
        coef = rng.integers(1, target, size=len(src_sizes))
        src = rng.integers(0, src_sizes[0], size=(SPARSE_SAMPLES, len(src_sizes)))
        shift = rng.integers(1, target, size=SPARSE_SAMPLES)
        noisy = rng.random(SPARSE_SAMPLES) < SPARSE_NOISE
        tgt = (src @ coef + np.where(noisy, shift, 0)) % target
        states, counts = np.unique(np.column_stack([src, tgt]), axis=0, return_counts=True)
        files.append(
            _write_joint(work / f"sparse-{k:02d}.json", SPARSE_SHAPE, states, counts / SPARSE_SAMPLES)
        )
    return files


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs for this seed into ``work`` and return the manifest."""
    rng = np.random.default_rng(seed)
    manifest = {"workload": workload, "seed": seed, "files": [], "orders": []}
    if workload == "n5-roundtrip":
        manifest["files"] = _dirichlet_files(rng, work, "n5", (2,) * 6, N5_POOL)
    elif workload == "n4-lattice":
        manifest["orders"] = [
            [NESTED[j] for j in rng.permutation(len(NESTED))] for _ in range(ORDER_POOL)
        ]
    elif workload == "wide-dense":
        manifest["files"] = _dirichlet_files(rng, work, "dense", DENSE_SHAPE, WIDE_POOL)
    elif workload == "wide-sparse":
        manifest["files"] = _sparse_files(rng, work, WIDE_POOL)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest
