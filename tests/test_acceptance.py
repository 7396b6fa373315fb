"""End-to-end acceptance checks for the full pipeline.

Each test exercises one contract of the package -- agreement with the dense
reference implementation, structural invariants, determinism, scale,
planted-structure recovery, metric correctness, eligibility reporting, and
linear scaling -- and prints a single ``[acceptance] name: PASS/FAIL`` line.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from refclass.assign import PruneConfig, prune_classification
from refclass.cli import main as cli_main
from refclass.corpus import load_corpus, misc_exclusive_papers
from refclass.engine import EngineConfig, run
from refclass.metrics import (area_aggregate, area_flow, assignment_histogram,
                              category_correlation, category_sizes,
                              coincidence_percentage, granularity,
                              rank_metrics, refs_per_paper_acv,
                              same_area_retention, size_cv)
from refclass.oracle import dense_run, max_component_difference
from refclass.scheme import JournalAssignment, fractionalize_journal, load_scheme
from refclass.synth import SynthParams, generate

from conftest import build_corpus, build_scheme, prune_vector

ORACLE_TOLERANCE = 1e-12
METRIC_TOLERANCE = 1e-9


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _load(paths):
    scheme = load_scheme(paths["scheme"])
    corpus = load_corpus(paths["papers"], paths["journals"],
                         paths["references"], scheme)
    return scheme, corpus


def _winner(vec: dict[int, float]) -> int:
    return min(vec.items(), key=lambda kv: (-kv[1], kv[0]))[0]


# ---------------------------------------------------------------------------
# 1. agreement with the dense reference implementation


def test_engine_matches_dense_reference_on_random_corpora(tmp_path):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        params = SynthParams(
            n_papers=int(rng.integers(20, 101)),
            n_categories=int(rng.integers(2, 17)),
            seed=int(rng.integers(0, 2**31)),
            journal_noise=float(rng.uniform(0.0, 0.3)),
            misc_fraction=float(rng.uniform(0.0, 0.2)),
            multidisciplinary_fraction=float(rng.uniform(0.0, 0.15)),
            ref_noise=float(rng.uniform(0.0, 0.2)),
            short_ref_fraction=float(rng.uniform(0.0, 0.15)),
        )
        _, corpus = _load(generate(params).write(tmp_path / f"c{trial}"))
        for fractional in (False, True):
            config = EngineConfig(fractional=fractional)
            jl, u1 = run(corpus, config)
            oracle_jl, oracle_u1 = dense_run(corpus, config)
            worst = max(worst,
                        max_component_difference(jl.weights.toarray(), oracle_jl),
                        max_component_difference(u1.weights.toarray(), oracle_u1))
    elapsed = time.perf_counter() - t0
    _report("engine-vs-dense-reference",
            worst <= ORACLE_TOLERANCE and elapsed < 10.0,
            f"20 corpora, max diff {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. structural invariants under generated inputs

INV_SCHEME = build_scheme(
    [(1102, 1100), (1103, 1100), (1104, 1100), (1202, 1200), (1203, 1200)],
    multi=1000, misc={1100: 1101, 1200: 1201})

INV_JOURNALS = {
    "J1102": [(1102, 1.0)], "J1103": [(1103, 1.0)], "J1104": [(1104, 1.0)],
    "J1202": [(1202, 1.0)], "J1203": [(1203, 1.0)],
    "JM1100": [(1101, 1.0)], "JM1200": [(1201, 1.0)],
    "JMULTI": [(1000, 1.0)],
    "JMIX": [(1102, 2.0), (1203, 1.0)],
}


@st.composite
def small_papers(draw):
    """{paper id: (journal id, [reference ids])} over INV_JOURNALS."""
    n = draw(st.integers(1, 5))
    papers = {}
    for i in range(n):
        jid = draw(st.sampled_from(sorted(INV_JOURNALS)))
        n_refs = draw(st.integers(3, 6))
        refs = [f"r{draw(st.integers(0, 7))}" for _ in range(n_refs)]
        papers[f"p{i}"] = (jid, refs)
    return papers


def small_corpora():
    return small_papers().map(lambda papers: build_corpus(INV_SCHEME, INV_JOURNALS, papers))


weight_vectors = st.dictionaries(
    st.integers(0, 9),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    min_size=1, max_size=8)


def _run_property(name, prop):
    try:
        prop()
    except BaseException:
        _report(name, False)
        raise
    _report(name, True, "1000 generated cases")


def test_invariant_vectors_stay_normalized():
    @settings(max_examples=1000, deadline=None)
    @given(corpus=small_corpora(), iterations=st.integers(1, 3))
    def prop(corpus, iterations):
        config = EngineConfig(fractional=True, max_iterations=iterations)
        jl, u1 = run(corpus, config)
        for c in (jl, u1):
            for vec in c.vectors.values():
                assert abs(math.fsum(vec.values()) - 1.0) <= 1e-9
                assert all(w > 0 for w in vec.values())

    _run_property("invariant-normalization", prop)


def test_invariant_limited_support_stays_within_journal_support():
    support = {jid: set(fractionalize_journal(JournalAssignment(jid, tuple(a)), INV_SCHEME))
               for jid, a in INV_JOURNALS.items()}

    @settings(max_examples=1000, deadline=None)
    @given(papers=small_papers(), fractional=st.booleans())
    def prop(papers, fractional):
        corpus = build_corpus(INV_SCHEME, INV_JOURNALS, papers)
        jl, _ = run(corpus, EngineConfig(fractional=fractional))
        for pid, vec in jl.vectors.items():
            assert set(vec) <= support[papers[pid][0]]

    _run_property("invariant-limited-support", prop)


def test_invariant_prune_is_monotone_in_threshold():
    @settings(max_examples=1000, deadline=None)
    @given(vector=weight_vectors,
           t1=st.floats(min_value=0.01, max_value=1.0),
           t2=st.floats(min_value=0.01, max_value=1.0))
    def prop(vector, t1, t2):
        lo, hi = sorted((t1, t2))
        assert (set(prune_vector(vector, PruneConfig(hi)))
                <= set(prune_vector(vector, PruneConfig(lo))))

    _run_property("invariant-prune-monotone", prop)


def test_invariant_prune_is_idempotent():
    @settings(max_examples=1000, deadline=None)
    @given(vector=weight_vectors, t=st.floats(min_value=0.01, max_value=1.0))
    def prop(vector, t):
        config = PruneConfig(t)
        once = prune_vector(vector, config)
        twice = prune_vector(once, config)
        assert set(once) == set(twice)
        assert all(abs(once[k] - twice[k]) <= 1e-12 for k in once)

    _run_property("invariant-prune-idempotent", prop)


def test_invariant_fractional_weighting_ignores_duplicated_slots():
    @settings(max_examples=1000, deadline=None)
    @given(papers=small_papers())
    def prop(papers):
        corpus = build_corpus(INV_SCHEME, INV_JOURNALS, papers)
        doubled = build_corpus(
            INV_SCHEME, INV_JOURNALS,
            {pid: (jid, refs * 2) for pid, (jid, refs) in papers.items()})
        config = EngineConfig(fractional=True)
        jl_a, u1_a = run(corpus, config)
        jl_b, u1_b = run(doubled, config)
        for a, b in ((jl_a, jl_b), (u1_a, u1_b)):
            assert a.paper_ids.tolist() == b.paper_ids.tolist()
            assert max_component_difference(
                a.weights.toarray(), b.weights.toarray()) <= ORACLE_TOLERANCE

    _run_property("invariant-fractional-duplication", prop)


def test_invariant_incidence_transpose_identity():
    @settings(max_examples=1000, deadline=None)
    @given(papers=small_papers())
    def prop(papers):
        corpus = build_corpus(INV_SCHEME, INV_JOURNALS, papers)
        incidence = corpus.matrices()[0]
        dense = incidence.toarray()
        assert np.array_equal(incidence.T.toarray().T, dense)
        citations = Counter(rid for _, refs in papers.values() for rid in refs)
        assert corpus.ref_ids.tolist() == sorted(citations)
        assert dense.sum(axis=0).tolist() == [citations[r] for r in corpus.ref_ids]
        assert dense.sum(axis=1).tolist() == [
            len(papers[p][1]) for p in corpus.paper_ids]

    _run_property("invariant-transpose-identity", prop)


# ---------------------------------------------------------------------------
# 3. determinism across worker counts


def test_thread_count_does_not_change_output_bytes(tmp_path):
    corpus_dir = tmp_path / "corpus"
    generate(SynthParams(n_papers=3000, n_categories=8, seed=13,
                         journal_noise=0.1, misc_fraction=0.1,
                         multidisciplinary_fraction=0.05)).write(corpus_dir)
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"threads{threads}"
        assert cli_main(["run", "--dir", str(corpus_dir), "--out", str(out),
                         "--threads", str(threads)]) == 0
        # run.log records wall time, so skip it
        outputs[threads] = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run.log"}
    ok = outputs[1] == outputs[8] and len(outputs[1]) > 12
    _report("determinism-across-threads", ok,
            f"{len(outputs[1])} files compared")


# ---------------------------------------------------------------------------
# 4. convergence at scale


def test_large_corpus_converges_with_decreasing_residuals(tmp_path):
    params = SynthParams(n_papers=100_000, n_categories=16, seed=11,
                         journal_noise=0.1, misc_fraction=0.1,
                         multidisciplinary_fraction=0.05)
    _, corpus = _load(generate(params).write(tmp_path))
    t0 = time.perf_counter()
    jl, _ = run(corpus, EngineConfig(fractional=True))
    elapsed = time.perf_counter() - t0
    trace = jl.residual_trace
    decreasing = all(b < a for a, b in zip(trace, trace[1:]))
    ok = (jl.converged and decreasing and jl.iterations_run <= 10
          and elapsed < 60.0)
    _report("large-corpus-convergence", ok,
            f"{jl.iterations_run} iterations, residuals "
            f"{[round(r, 1) for r in trace]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. planted-structure recovery


def _recovery(pruned, labels, scheme):
    hits = sum(1 for pid, vec in pruned.vectors.items()
               if scheme.code_of(_winner(vec)) == labels[pid])
    return hits / len(pruned.vectors)


def test_planted_categories_are_recovered(tmp_path):
    clean = generate(SynthParams(n_papers=400, n_categories=8, seed=5))
    scheme, corpus = _load(clean.write(tmp_path / "clean"))
    jl, _ = run(corpus, EngineConfig(fractional=True))
    pruned = prune_classification(jl, PruneConfig(0.8))
    single_rate = (sum(1 for v in pruned.vectors.values() if len(v) == 1)
                   / len(pruned.vectors))
    clean_recovery = _recovery(pruned, clean.labels, scheme)

    noisy = generate(SynthParams(n_papers=400, n_categories=8, seed=5,
                                 journal_noise=0.1))
    scheme_n, corpus_n = _load(noisy.write(tmp_path / "noisy"))
    _, u1 = run(corpus_n, EngineConfig(fractional=True))
    noisy_recovery = _recovery(prune_classification(u1, PruneConfig(0.8)),
                               noisy.labels, scheme_n)

    ok = (single_rate == 1.0 and clean_recovery == 1.0
          and noisy_recovery >= 0.90)
    _report("planted-structure-recovery", ok,
            f"clean single rate {single_rate:.3f}, clean recovery "
            f"{clean_recovery:.3f}, noisy recovery {noisy_recovery:.3f}")


# ---------------------------------------------------------------------------
# 6. metrics versus an independent brute force


def test_metrics_match_independent_brute_force(tmp_path):
    params = SynthParams(n_papers=300, n_categories=6, seed=21,
                         journal_noise=0.15, misc_fraction=0.2,
                         multidisciplinary_fraction=0.1, ref_noise=0.1)
    synth = generate(params)
    scheme, corpus = _load(synth.write(tmp_path))
    config = EngineConfig(fractional=True)
    jl, u1 = run(corpus, config)
    a = prune_classification(jl, PruneConfig(0.8))
    b = prune_classification(u1, PruneConfig(0.8))

    k = scheme.size
    pids = sorted(a.vectors)
    assert sorted(b.vectors) == pids
    A = np.array([[a.vectors[p].get(c, 0.0) for c in range(k)] for p in pids])
    B = np.array([[b.vectors[p].get(c, 0.0) for c in range(k)] for p in pids])
    errors = {}

    sa, sb = A.sum(axis=0), B.sum(axis=0)
    lib_sizes = category_sizes(a)
    errors["sizes"] = max(abs(sa[c] - lib_sizes.get(c, 0.0)) for c in range(k))
    errors["granularity"] = abs(granularity(a) - len(pids) / float((sa ** 2).sum()))
    nz = sa[sa > 0]
    errors["size-cv"] = abs(size_cv(a) - float(nz.std() / nz.mean()))

    slots = Counter(pid for pid, _ in synth.ref_rows)
    counts = np.array([slots[p] for p in pids], dtype=float)
    cvs = []
    for c in range(k):
        w = A[:, c]
        if w.sum() <= 0:
            continue
        mean = float((w * counts).sum() / w.sum())
        if mean <= 0:
            continue
        var = float((w * (counts - mean) ** 2).sum() / w.sum())
        cvs.append(math.sqrt(max(var, 0.0)) / mean)
    errors["refs-acv"] = abs(refs_per_paper_acv(
        a, corpus.ref_counts[a.rows]) - float(np.mean(cvs)))

    errors["coincidence"] = abs(
        coincidence_percentage(a, b)
        - 100.0 * float(np.minimum(A, B).sum(axis=1).mean()))

    def brute_ranks(src, dst):
        ranks, missing = [], 0
        for i in range(len(pids)):
            w = src[i]
            winner = int(np.flatnonzero(w == w.max())[0])
            if dst[i, winner] == 0.0:
                missing += 1
                continue
            better = int((dst[i] > dst[i, winner]).sum())
            tied_before = int(((dst[i] == dst[i, winner])
                               & (np.arange(k) < winner) & (dst[i] > 0)).sum())
            ranks.append(1 + better + tied_before)
        return (float(np.mean(ranks)) if ranks else float("nan")), missing

    ab, ba = rank_metrics(a, b)
    for stats, (avg, missing), tag in ((ab, brute_ranks(A, B), "a-in-b"),
                                       (ba, brute_ranks(B, A), "b-in-a")):
        assert stats.missing == missing
        errors[f"rank-{tag}"] = (0.0 if math.isnan(avg) and math.isnan(stats.avg_rank)
                                 else abs(stats.avg_rank - avg))

    hist = assignment_histogram(a)
    lens = (A > 0).sum(axis=1)
    errors["histogram"] = max(
        abs(hist.average - float(lens.mean())),
        max(abs(hist.percentages[str(band)]
                - 100.0 * float((lens == band).sum()) / len(pids))
            for band in (1, 2, 3, 4)),
        abs(hist.percentages["5+"] - 100.0 * float((lens >= 5).sum()) / len(pids)))

    errors["correlation"] = abs(
        category_correlation(a, b) - float(np.corrcoef(sa, sb)[0, 1]))

    areas = list(scheme.area_codes)
    area_col = np.zeros((k, len(areas)))
    for c in range(k):
        area_col[c, areas.index(scheme.area_of_index(c))] = 1.0
    agg = area_aggregate(a, scheme)
    brute_agg = 100.0 * (sa @ area_col) / sa.sum()
    errors["area-aggregate"] = max(
        abs(agg[areas[i]] - brute_agg[i]) for i in range(len(areas)))

    flow_areas, flow = area_flow(a, b, scheme)
    assert flow_areas == areas
    brute_flow = (A @ area_col).T @ (B @ area_col)
    errors["area-flow"] = float(np.abs(flow - brute_flow).max())

    home_area = misc_exclusive_papers(corpus)
    retention = same_area_retention(home_area[jl.rows], jl, scheme)
    jl_vectors = jl.vectors
    by_area: dict[int, list[float]] = {}
    for pid, area in zip(corpus.paper_ids, home_area.tolist()):
        if area < 0 or pid not in jl_vectors:
            continue
        inside = sum(w for c, w in jl_vectors[pid].items()
                     if scheme.area_of_index(c) == area)
        by_area.setdefault(area, []).append(100.0 * inside)
    errors["retention"] = max(
        abs(retention[area] - float(np.mean(vals)))
        for area, vals in by_area.items())
    retention_full = all(v == 100.0 for v in retention.values())

    worst = max(errors.values())
    ok = worst <= METRIC_TOLERANCE and retention_full and (home_area >= 0).any()
    _report("metrics-vs-brute-force", ok,
            f"{len(errors)} indicators, max error {worst:.2e}, "
            f"limited-variant retention {sorted(retention.values())}")


# ---------------------------------------------------------------------------
# 7. eligibility reporting


def test_short_reference_papers_reported_unreclassified(tmp_path):
    params = SynthParams(n_papers=500, n_categories=5, seed=17,
                         short_ref_fraction=0.2)
    paths = generate(params).write(tmp_path)

    with open(paths["references"], encoding="utf-8") as fh:
        ref_counts = Counter(row["paper_id"] for row in csv.DictReader(fh))
    with open(paths["papers"], encoding="utf-8") as fh:
        paper_ids = [row["paper_id"] for row in csv.DictReader(fh)]
    planted_short = {p for p in paper_ids if ref_counts[p] < 3}
    expected = len(planted_short) / len(paper_ids)

    _, corpus = _load(paths)
    jl, u1 = run(corpus, EngineConfig(fractional=True))
    reported = jl.unreclassified / len(corpus)
    ok = (set(corpus.paper_ids) - set(jl.paper_ids) == planted_short
          and set(corpus.paper_ids) - set(u1.paper_ids) == planted_short
          and jl.unreclassified == u1.unreclassified == len(planted_short)
          and reported == expected and planted_short)
    _report("eligibility-reporting", ok,
            f"planted {expected:.4f}, reported {reported:.4f}")


# ---------------------------------------------------------------------------
# 8. linear iteration cost


def test_iteration_cost_scales_linearly(tmp_path):
    # all corpora are loaded first and the sizes timed round-robin, so that
    # every size samples the same minutes of machine speed
    sizes = (10_000, 20_000, 40_000, 80_000)
    config = EngineConfig(fractional=True, max_iterations=1, per_paper_threshold=1e-30)
    corpora = {}
    for n in sizes:
        params = SynthParams(n_papers=n, n_categories=16, seed=29,
                             journal_noise=0.1, misc_fraction=0.1)
        _, corpora[n] = _load(generate(params).write(tmp_path / str(n)))
        run(corpora[n], config)  # warm-up
    best = dict.fromkeys(sizes, math.inf)
    for _ in range(3):
        for n in sizes:
            t0 = time.perf_counter()
            run(corpora[n], config)
            best[n] = min(best[n], time.perf_counter() - t0)
    per_paper = {n: best[n] / n for n in sizes}
    ratios = [per_paper[b] / per_paper[a] for a, b in zip(sizes, sizes[1:])]
    ok = all(r <= 1.3 for r in ratios)
    _report("linear-scaling", ok,
            "per-doubling per-paper time ratios "
            + str([round(r, 2) for r in ratios]))
