"""Seeded synthetic corpus generator with planted category communities.

Papers get a planted category; each planted category owns a pool of
references and papers cite (mostly) their own pool, so co-citation carries
the planted signal.  Journal assignments follow the planted label with
configurable label noise plus configurable miscellaneous and
multidisciplinary journal fractions.  Everything is a pure function of the
seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .scheme import write_table

RNG_ALGORITHM = "numpy-default-rng-pcg64"

MULTI_CODE = 1000

# the largest mean numpy's Poisson sampler accepts: int64's maximum less ten
# of its square roots, as numpy computes it
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SynthParams:
    n_papers: int
    n_categories: int
    seed: int
    n_areas: int | None = None
    refs_per_paper_mean: float = 8.0
    pool_per_category: int | None = None
    journal_noise: float = 0.0
    misc_fraction: float = 0.0
    multidisciplinary_fraction: float = 0.0
    ref_noise: float = 0.0
    short_ref_fraction: float = 0.0

    def __post_init__(self):
        if self.n_papers < 1 or self.n_categories < 1:
            raise ValueError("need at least one paper and one category")
        if self.seed is None:
            raise ValueError("seed is mandatory")
        # (field, least, greatest value); n_areas and the pool may be None, for the default
        for name, lo, hi in (("n_areas", 1, self.n_categories),
                             ("pool_per_category", 1, math.inf),
                             ("refs_per_paper_mean", 0, POISSON_MEAN_MAX),
                             ("journal_noise", 0, 1),
                             ("misc_fraction", 0, 1), ("multidisciplinary_fraction", 0, 1),
                             ("ref_noise", 0, 1), ("short_ref_fraction", 0, 1)):
            value = getattr(self, name)
            if value is not None and not lo <= value <= hi:
                raise ValueError(f"{name} {value!r} is outside [{lo}, {hi}]")
        bands = self.journal_noise + self.misc_fraction + self.multidisciplinary_fraction
        if bands > 1.0:
            raise ValueError("journal_noise + misc + multidisciplinary fractions exceed 1")


@dataclass
class SynthCorpus:
    params: SynthParams
    scheme_rows: list[tuple[int, int, str]]
    journal_rows: list[tuple[str, int, float]]
    paper_rows: list[tuple[str, str]]
    ref_rows: list[tuple[str, str]]
    labels: dict[str, int]  # paper_id -> planted category code

    def write(self, out_dir) -> dict[str, Path]:
        """Write the corpus tables; byte-identical for identical params."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, header, rows in (
                ("scheme", ("code", "area_code", "kind"), self.scheme_rows),
                ("journals", ("journal_id", "code", "degree"), self.journal_rows),
                ("papers", ("paper_id", "journal_id"), self.paper_rows),
                ("references", ("paper_id", "reference_id"), self.ref_rows),
                ("labels", ("paper_id", "category_code"), sorted(self.labels.items()))):
            paths[name] = out / f"{name}.csv"
            write_table(paths[name], header, rows)
        meta = {"params": asdict(self.params), "rng": RNG_ALGORITHM}
        paths["metadata"] = out / "metadata.json"
        paths["metadata"].write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return paths


def _category_codes(params: SynthParams):
    """Planted label -> category code, plus scheme rows."""
    n_areas = params.n_areas or max(1, params.n_categories // 4)
    area_codes = [1100 + 100 * a for a in range(n_areas)]
    # the k-th category is area k % n_areas's (k // n_areas)-th
    codes = [area_codes[k % n_areas] + 2 + k // n_areas for k in range(params.n_categories)]
    rows = [(MULTI_CODE, MULTI_CODE, "multidisciplinary")]
    for a, area in enumerate(area_codes):
        rows.append((area + 1, area, "misc"))
    for k in sorted(range(params.n_categories), key=lambda k: codes[k]):
        rows.append((codes[k], area_codes[k % n_areas], "regular"))
    return codes, area_codes, rows


def generate(params: SynthParams) -> SynthCorpus:
    rng = np.random.default_rng(params.seed)
    n, k = params.n_papers, params.n_categories
    codes, area_codes, scheme_rows = _category_codes(params)
    n_areas = len(area_codes)

    journal_rows = [(f"J{code}", code, 1.0) for code in sorted(codes)]
    journal_rows += [(f"JM{area}", area + 1, 1.0) for area in area_codes]
    journal_rows.append(("JMULTI", MULTI_CODE, 1.0))

    labels = rng.integers(0, k, size=n)
    band = rng.random(n)
    wrong_offset = rng.integers(1, k, size=n) if k > 1 else np.zeros(n, dtype=int)
    b1 = params.journal_noise
    b2 = b1 + params.misc_fraction
    b3 = b2 + params.multidisciplinary_fraction

    pool = params.pool_per_category or max(5, round(n / k))
    base_refs = rng.poisson(params.refs_per_paper_mean, size=n)
    n_refs = np.maximum(base_refs, 3)
    if params.short_ref_fraction > 0:
        short = rng.random(n) < params.short_ref_fraction
        n_refs = np.where(short, rng.integers(0, 3, size=n), n_refs)
    total_slots = int(n_refs.sum())
    slot_cat = np.repeat(labels, n_refs)
    if params.ref_noise > 0 and k > 1:
        noisy = rng.random(total_slots) < params.ref_noise
        shift = rng.integers(1, k, size=total_slots)
        slot_cat = np.where(noisy, (slot_cat + shift) % k, slot_cat)
    slot_idx = rng.integers(0, pool, size=total_slots)

    width = len(str(n))
    paper_ids = [f"P{i:0{width}d}" for i in range(n)]
    paper_rows = []
    for i, pid in enumerate(paper_ids):
        lbl = int(labels[i])
        if band[i] < b1 and k > 1:
            journal = f"J{codes[(lbl + int(wrong_offset[i])) % k]}"
        elif band[i] < b2:
            journal = f"JM{area_codes[lbl % n_areas]}"
        elif band[i] < b3:
            journal = "JMULTI"
        else:
            journal = f"J{codes[lbl]}"
        paper_rows.append((pid, journal))

    ref_rows = []
    pos = 0
    for i, pid in enumerate(paper_ids):
        for s in range(int(n_refs[i])):
            ref_rows.append((pid, f"R{codes[slot_cat[pos]]}_{slot_idx[pos]}"))
            pos += 1
    assert pos == total_slots

    planted = {pid: codes[int(labels[i])] for i, pid in enumerate(paper_ids)}
    return SynthCorpus(params, scheme_rows, journal_rows, paper_rows, ref_rows, planted)
