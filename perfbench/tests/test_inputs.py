"""The seed fixes the inputs, and the recorded digests are the library's."""

import pytest

import inputs
from pidlattice import load_joint


def _generate(tmp_path, workload, seed, label):
    work = tmp_path / label
    work.mkdir()
    manifest = inputs.generate(workload, seed, work)
    return manifest, {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.fixture
def small_pools(monkeypatch):
    monkeypatch.setattr(inputs, "N5_POOL", 3)
    monkeypatch.setattr(inputs, "WIDE_POOL", 1)


@pytest.mark.parametrize("workload", ["n5-roundtrip", "n4-lattice", "wide-dense", "wide-sparse"])
def test_same_seed_writes_identical_files(tmp_path, small_pools, workload):
    _, first = _generate(tmp_path, workload, 7, "a")
    _, second = _generate(tmp_path, workload, 7, "b")
    _, other = _generate(tmp_path, workload, 8, "c")
    assert first == second
    assert first != other


@pytest.mark.parametrize("workload", ["n5-roundtrip", "wide-dense", "wide-sparse"])
def test_recorded_digest_is_the_librarys(tmp_path, small_pools, workload):
    manifest, _ = _generate(tmp_path, workload, 3, "a")
    for entry in manifest["files"]:
        dist = load_joint(tmp_path / "a" / entry["path"])
        assert dist.digest() == entry["digest"]
        assert len(dist.pmf) == entry["support"]


def test_sparse_input_is_a_plug_in_estimate_over_max_cells(tmp_path, small_pools):
    manifest, _ = _generate(tmp_path, "wide-sparse", 1, "a")
    (entry,) = manifest["files"]
    assert entry["cells"] == 1 << 24
    assert 0.9 * inputs.SPARSE_SAMPLES < entry["support"] <= inputs.SPARSE_SAMPLES
    dist = load_joint(tmp_path / "a" / entry["path"])
    assert all((p * inputs.SPARSE_SAMPLES).is_integer() for p in dist.pmf.values())
