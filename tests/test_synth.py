import json

import numpy as np
import pytest

from refclass.corpus import load_corpus
from refclass.scheme import load_scheme
from refclass.synth import POISSON_MEAN_MAX, RNG_ALGORITHM, SynthParams, generate


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestGenerate:
    def test_same_seed_same_files(self, tmp_path):
        params = SynthParams(n_papers=50, n_categories=5, seed=3,
                             journal_noise=0.2, misc_fraction=0.1,
                             multidisciplinary_fraction=0.1)
        generate(params).write(tmp_path / "a")
        generate(params).write(tmp_path / "b")
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        base = dict(n_papers=50, n_categories=5, journal_noise=0.2)
        generate(SynthParams(seed=1, **base)).write(tmp_path / "a")
        generate(SynthParams(seed=2, **base)).write(tmp_path / "b")
        assert read_all(tmp_path / "a") != read_all(tmp_path / "b")

    def test_output_loads_as_corpus(self, tmp_path):
        paths = generate(SynthParams(
            n_papers=40, n_categories=4, seed=9, misc_fraction=0.2,
            multidisciplinary_fraction=0.1)).write(tmp_path)
        scheme = load_scheme(paths["scheme"])
        corpus = load_corpus(paths["papers"], paths["journals"],
                             paths["references"], scheme)
        assert len(corpus) == 40
        assert scheme.size == 4

    def test_planted_labels_are_regular_codes(self, tmp_path):
        sc = generate(SynthParams(n_papers=30, n_categories=6, seed=4))
        paths = sc.write(tmp_path)
        scheme = load_scheme(paths["scheme"])
        assert all(scheme.is_regular(code) for code in sc.labels.values())

    def test_metadata_records_rng(self, tmp_path):
        paths = generate(SynthParams(n_papers=10, n_categories=2, seed=1)).write(tmp_path)
        meta = json.loads(paths["metadata"].read_text())
        assert meta["rng"] == RNG_ALGORITHM
        assert meta["params"]["seed"] == 1

    def test_short_ref_fraction_plants_ineligible_papers(self, tmp_path):
        sc = generate(SynthParams(n_papers=200, n_categories=4, seed=8,
                                  short_ref_fraction=0.3))
        counts = {}
        for pid, _ in sc.ref_rows:
            counts[pid] = counts.get(pid, 0) + 1
        short = sum(1 for pid, _ in sc.paper_rows if counts.get(pid, 0) < 3)
        assert short > 0

    def test_seed_mandatory(self):
        with pytest.raises(TypeError):
            SynthParams(n_papers=10, n_categories=2)

    @pytest.mark.parametrize("field, value", [
        ("n_areas", 0), ("n_areas", 9), ("pool_per_category", 0),
        ("refs_per_paper_mean", -1.0), ("refs_per_paper_mean", float("nan")),
        ("journal_noise", -0.5), ("misc_fraction", 1.5),
        ("multidisciplinary_fraction", -0.1), ("ref_noise", 2.0),
        ("ref_noise", float("nan")), ("short_ref_fraction", -1.0),
        ("short_ref_fraction", 1.01), ("refs_per_paper_mean", float("inf")),
        ("refs_per_paper_mean", 1e19)])
    def test_bad_value_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            SynthParams(n_papers=10, n_categories=8, seed=1, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_areas", 1), ("n_areas", 8), ("pool_per_category", 1),
        ("refs_per_paper_mean", 0.0), ("ref_noise", 1.0), ("short_ref_fraction", 1.0),
        ("journal_noise", 0.0)])
    def test_bounds_are_accepted(self, field, value):
        generate(SynthParams(n_papers=10, n_categories=8, seed=1, **{field: value}))

    def test_refs_mean_bound_is_numpys_poisson_limit(self):
        # the largest mean numpy's sampler takes is accepted, the next float
        # is not, by numpy or by the check (nothing is generated at that mean)
        SynthParams(n_papers=10, n_categories=8, seed=1,
                    refs_per_paper_mean=POISSON_MEAN_MAX)
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_MEAN_MAX, size=1)
        above = float(np.nextafter(POISSON_MEAN_MAX, np.inf))
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(above, size=1)
        with pytest.raises(ValueError, match="^refs_per_paper_mean "):
            SynthParams(n_papers=10, n_categories=8, seed=1, refs_per_paper_mean=above)
