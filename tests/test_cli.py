import csv
import json
import shutil
import warnings
import weakref

import pytest

from refclass import cli, engine, report
from refclass.assign import PruneConfig
from refclass.cli import main, parse_variant
from refclass.engine import read_classification, write_classification
from refclass.metrics import coincidence_percentage
from refclass.scheme import load_scheme
from refclass.synth import SynthParams, generate

from conftest import MALFORMED_SIDECARS, MALFORMED_TABLES, from_vectors


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    generate(SynthParams(n_papers=60, n_categories=6, seed=7,
                         journal_noise=0.1, misc_fraction=0.1,
                         multidisciplinary_fraction=0.05)).write(out)
    return out


@pytest.fixture(scope="module")
def short_refs_dir(tmp_path_factory):
    """A corpus where 30% of the papers have fewer than three references, and
    ``zero.csv``, a classification of three papers that have none."""
    out = tmp_path_factory.mktemp("short-refs")
    corpus = generate(SynthParams(n_papers=60, n_categories=6, seed=7,
                                  short_ref_fraction=0.3))
    corpus.write(out)
    citing = {pid for pid, _ in corpus.ref_rows}
    uncited = [pid for pid, _ in corpus.paper_rows if pid not in citing][:3]
    assert len(uncited) == 3
    (out / "zero.csv").write_text("paper_id,category_code,weight\n" + "".join(
        f"{pid},{corpus.labels[pid]},1.0\n" for pid in uncited))
    return out


@pytest.fixture
def one_paper_table(corpus_dir, tmp_path):
    """A classification table that puts the corpus's first paper in one category."""
    with open(corpus_dir / "papers.csv", newline="") as fh:
        pid = list(csv.DictReader(fh))[0]["paper_id"]
    with open(corpus_dir / "scheme.csv", newline="") as fh:
        code = next(r["code"] for r in csv.DictReader(fh) if r["kind"] == "regular")
    table = tmp_path / "x.csv"
    table.write_text(f"paper_id,category_code,weight\n{pid},{code},1.0\n")
    return table


def read_outputs(path, skip=("run.log",)):
    # run.log records wall-clock seconds, so it is excluded from
    # byte-for-byte comparisons
    return {p.name: p.read_bytes()
            for p in sorted(path.rglob("*"))
            if p.is_file() and p.name not in skip}


class TestParseVariant:
    def test_thresholded(self):
        assert parse_variant("JL-F-0.8") == ("JL", "F", PruneConfig(0.8))

    def test_raw(self):
        assert parse_variant("U1-NF") == ("U1", "NF", None)
        assert parse_variant("U1-NF-raw") == ("U1", "NF", None)

    def test_bad_token(self):
        with pytest.raises(cli.CliError):
            parse_variant("XX-F-0.8")

    def test_threshold_out_of_range(self):
        with pytest.raises(cli.CliError, match="U1-NF-1.5"):
            parse_variant("U1-NF-1.5")


def assert_outputs_do_not_depend_on_the_block_budget(tmp_path, monkeypatch, categories,
                                                     areas, flags):
    """``refclass run FLAGS`` with all 12 variants, three raw ones and a
    --compare table writes the same 52 files at budgets of 7 and 2^10 entries
    as at the default, on a 300-paper corpus with 20% short-reference papers."""
    corpus = generate(SynthParams(
        n_papers=300, n_categories=categories, n_areas=areas, seed=5,
        journal_noise=0.3, ref_noise=0.3, misc_fraction=0.1,
        multidisciplinary_fraction=0.2, short_ref_fraction=0.2))
    corpus.write(tmp_path / "corpus")
    planted = tmp_path / "planted.csv"
    planted.write_text("paper_id,category_code,weight\n" + "".join(
        f"{pid},{code},1.0\n" for pid, code in sorted(corpus.labels.items())))
    variants = ",".join(list(cli.ALL_VARIANTS) + ["U1-NF-raw", "U1-F-raw", "JL-F-raw"])

    def outputs(budget):
        monkeypatch.setattr(engine, "_BLOCK_ENTRIES", budget)
        out = tmp_path / f"out-{budget}"
        assert main(["run", "--dir", str(tmp_path / "corpus"), "--out", str(out),
                     *flags, "--variants", variants,
                     "--compare", f"planted={planted}"]) == 0
        return read_outputs(out)

    default = outputs(engine._BLOCK_ENTRIES)
    assert len(default) == 52  # 15 variants and their sidecars, 22 report files
    for budget in (7, 1 << 10):
        assert outputs(budget) == default, budget


class TestRun:
    def test_produces_all_twelve_variants(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        for variant in cli.ALL_VARIANTS:
            assert f"{variant}.csv" in files
            assert f"{variant}.csv.meta.json" in files
        log = (out / "run.log").read_text()
        assert "threads" not in log
        stages = [line.split() for line in log.splitlines() if line.startswith("stage=")]
        assert [words[0] for words in stages] == [
            "stage=ingest", "stage=run-NF", "stage=prune-write-NF", "stage=run-F",
            "stage=prune-write-F", "stage=report"]
        peaks = []
        for _, seconds, peak in stages:
            assert seconds.startswith("seconds=") and float(seconds[8:]) >= 0
            assert peak.startswith("peak_rss_mib=")
            peaks.append(float(peak[13:]))
        assert 0 < peaks[0] and peaks == sorted(peaks)
        assert (out / "report" / "structure.csv").exists()
        assert (out / "report" / "retention.csv").exists()

    def test_interleaved_variants_match_one_variant_runs(self, corpus_dir, tmp_path):
        # raw and pruned variants of both weightings, interleaved: each weighting
        # is run, pruned and written before the next, and every file is the one
        # a run asking for that variant alone writes
        variants = ["U1-NF-raw", "JL-F-0.8", "U1-NF-0.5", "JL-F"]
        out = tmp_path / "all"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out),
                     "--variants", ",".join(variants)]) == 0
        labels = [v.removesuffix("-raw") for v in variants]
        for variant, label in zip(variants, labels):
            alone = tmp_path / variant
            assert main(["run", "--dir", str(corpus_dir), "--out", str(alone),
                         "--variants", variant]) == 0
            for name in (f"{label}.csv", f"{label}.csv.meta.json"):
                assert (out / name).read_bytes() == (alone / name).read_bytes()
        meta = json.loads((out / "report" / "metadata.json").read_text())
        assert meta["classifications"] == sorted(labels + ["initial"])

    def test_raw_classifications_are_dropped_before_the_next_weighting(
            self, corpus_dir, tmp_path, monkeypatch):
        # when F runs, of NF's raw classifications only the requested raw
        # variant is still alive
        raws, alive_at_run = [], []

        def propagate(corpus, config):
            alive_at_run.append(sorted(r().variant_label for r in raws if r() is not None))
            jl, u1_rows, u1_stalled = engine_propagate(corpus, config)
            raws.append(weakref.ref(jl))
            return jl, u1_rows, u1_stalled

        def unlimited(*args):
            u1 = engine_unlimited(*args)
            raws.append(weakref.ref(u1))
            return u1

        engine_propagate, engine_unlimited = cli.propagate, cli.unlimited
        monkeypatch.setattr(cli, "propagate", propagate)
        monkeypatch.setattr(cli, "unlimited", unlimited)
        assert main(["run", "--dir", str(corpus_dir), "--out", str(tmp_path / "out"),
                     "--variants", "U1-NF-raw,JL-NF-0.8,JL-F-0.8"]) == 0
        assert alive_at_run == [[], ["U1-NF"]]

    @pytest.mark.parametrize("categories, areas", [(16, None), (285, 26)])
    def test_pruned_u1_files_do_not_depend_on_a_raw_u1_variant(
            self, tmp_path, monkeypatch, categories, areas):
        # without a raw U1 variant, each U1 row block is pruned as the U1 pass
        # makes it; with one, the assembled U1 matrix is pruned whole.  The
        # blocks are cut small, so that there are several, and papers without
        # references stall in both phases, so that the sidecars count stalls
        generate(SynthParams(n_papers=300, n_categories=categories, n_areas=areas, seed=5,
                             journal_noise=0.3, ref_noise=0.3, multidisciplinary_fraction=0.2,
                             short_ref_fraction=0.2)).write(tmp_path / "corpus")
        monkeypatch.setattr(engine, "_BLOCK_ENTRIES", 1 << 12)
        pruned = ["U1-F-0.5", "U1-F-0.8", "U1-NF-0.67"]
        for name, raw in (("streamed", []), ("assembled", ["U1-NF-raw", "U1-F-raw"])):
            assert main(["run", "--dir", str(tmp_path / "corpus"), "--out",
                         str(tmp_path / name), "--min-refs", "0",
                         "--variants", ",".join(pruned + raw)]) == 0
        for label in pruned:
            for name in (f"{label}.csv", f"{label}.csv.meta.json"):
                assert (tmp_path / "streamed" / name).read_bytes() == \
                    (tmp_path / "assembled" / name).read_bytes()
        log = (tmp_path / "streamed" / "run.log").read_text()
        jl_stalled = next(int(line.rpartition("stalled=")[2]) for line in log.splitlines()
                          if line.startswith("F: iterations="))
        meta = json.loads((tmp_path / "streamed" / "U1-F-0.5.csv.meta.json").read_text())
        assert meta["stalled"] > jl_stalled > 0

    @pytest.mark.parametrize("categories, areas", [(16, None), (285, 26)])
    def test_outputs_do_not_depend_on_the_block_budget(self, tmp_path, monkeypatch,
                                                       categories, areas):
        # every bounded pass (the loop's products, the support's ranges, the
        # U1 blocks, the ranking, the writer's chunks, row_fsums' ranges) cuts
        # by engine._BLOCK_ENTRIES: a budget of 7 entries, whose quarter is 1,
        # and one of 2^10 must write the default run's bytes.  With --min-refs
        # 0 every row is eligible, and the short-reference rows stall
        assert_outputs_do_not_depend_on_the_block_budget(
            tmp_path, monkeypatch, categories, areas, ["--min-refs", "0"])

    @pytest.mark.parametrize("categories, areas", [(16, None), (285, 26)])
    def test_outputs_with_ineligible_rows_do_not_depend_on_the_block_budget(
            self, tmp_path, monkeypatch, categories, areas):
        # at the default --min-refs 3 a fifth of the papers are ineligible:
        # the paper blocks cover every row, so a block mixes eligible and
        # ineligible rows and its support entries start mid-block
        assert_outputs_do_not_depend_on_the_block_budget(
            tmp_path, monkeypatch, categories, areas, [])

    def test_without_a_raw_u1_variant_the_u1_matrix_is_never_assembled(
            self, corpus_dir, tmp_path, monkeypatch):
        def no_collect(*args):
            raise AssertionError("the U1 matrix was assembled")

        monkeypatch.setattr(cli, "collect_rows", no_collect)
        out = tmp_path / "out"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out)]) == 0
        for variant in cli.ALL_VARIANTS:
            assert (out / f"{variant}.csv").exists()
        with pytest.raises(AssertionError, match="assembled"):
            main(["run", "--dir", str(corpus_dir), "--out", str(tmp_path / "raw"),
                  "--variants", "U1-F-0.8,U1-F-raw"])

    def test_report_places_only_the_compare_table(self, corpus_dir, tmp_path,
                                                  monkeypatch, one_paper_table):
        # both engine runs and initial are built on the corpus's index, so none
        # of them is placed on it; the compare table is placed once, when it is
        # read, and the report finds it already there
        placed = []

        def counting(c, index):
            if c.index is not index:
                placed.append(c.variant_label)
            return engine.on_index(c, index)

        monkeypatch.setattr(cli, "on_index", counting)
        monkeypatch.setattr(report, "on_index", counting)
        assert main(["run", "--dir", str(corpus_dir), "--out", str(tmp_path / "out"),
                     "--compare", f"x={one_paper_table}"]) == 0
        assert placed == ["x"]

    def test_missing_out_is_an_error(self, corpus_dir, capsys):
        assert main(["run", "--dir", str(corpus_dir)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_zero_variants_is_an_error(self, corpus_dir, tmp_path, capsys):
        code = main(["run", "--dir", str(corpus_dir),
                     "--out", str(tmp_path / "o"), "--variants", ""])
        assert code != 0
        assert "variants" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        args = ["run", "--dir", str(corpus_dir), "--variants",
                "JL-F-0.8,U1-F-0.8,U1-NF-raw"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")

    def test_config_file_supplies_defaults(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps({
            "dir": str(corpus_dir), "variants": "JL-NF-0.5", "out": str(out)}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (out / "JL-NF-0.5.csv").exists()
        # every key applies, whatever its built-in default
        cfg.write_text(json.dumps({"threads": 4, "max_iterations": 7, "min_refs": 5,
                                   "no_ineligible_citers": True}))
        args = cli.parse_args(["run", "--config", str(cfg), "--out", str(out)])
        assert (args.threads, args.max_iterations, args.min_refs) == (4, 7, 5)
        assert args.no_ineligible_citers is True
        # explicit flags win, also 0 and values equal to the built-in default
        args = cli.parse_args(["run", "--config", str(cfg), "--out", str(out),
                               "--min-refs", "0", "--max-iterations", "50",
                               "--threads", "1"])
        assert (args.threads, args.max_iterations, args.min_refs) == (1, 50, 0)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iteration": 7}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "max_iteration" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("threshold_mode", "bogus"),
        ("min_refs", 2.5),
        ("max-iterations", "7x"),
        ("threads", True),
        ("threshold", None),
        ("threshold", [1e-6, "x"]),
        ("no_ineligible_citers", 1),
        ("no_ineligible_citers", "true"),
        ("variants", 5),
        ("compare", [{"x": "y"}]),
    ])
    def test_config_value_the_flag_rejects_fails_before_any_work(
            self, corpus_dir, tmp_path, capsys, monkeypatch, key, value):
        def no_tables(*args, **kwargs):
            raise AssertionError("a table was read")

        monkeypatch.setattr(cli, "load_scheme", no_tables)
        monkeypatch.setattr(cli, "load_corpus", no_tables)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps({"dir": str(corpus_dir), "out": str(out), key: value}))
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key {key!r}")
        assert not out.exists()

    def test_config_values_take_the_flags_types_and_repeats(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "min_refs": "4", "threshold": 2, "threshold-mode": "absolute",
            "no_ineligible_citers": False, "compare": ["a=x.csv"], "variants": "JL-F-0.8"}))
        args = cli.parse_args(["run", "--config", str(cfg), "--compare", "b=y.csv"])
        assert (args.min_refs, args.threshold, args.threshold_mode) == (4, 2.0, "absolute")
        assert args.no_ineligible_citers is False
        assert args.compare == ["a=x.csv", "b=y.csv"]
        assert args.variants == "JL-F-0.8"

    def test_config_that_is_not_an_object_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([["min_refs", 3]]))
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: not a JSON object\n"

    def test_compare_table_with_unknown_paper_is_an_error(self, corpus_dir, tmp_path,
                                                          capsys):
        table = tmp_path / "x.csv"
        table.write_text("paper_id,category_code,weight\nnot-a-paper,1102,1.0\n")
        assert main(["run", "--dir", str(corpus_dir), "--out", str(tmp_path / "o"),
                     "--variants", "JL-F-0.8", "--compare", f"x={table}"]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: paper_id not-a-paper is not in the corpus\n")

    def test_empty_compare_table_is_an_error_before_anything_is_written(
            self, corpus_dir, tmp_path, capsys):
        table = tmp_path / "empty.csv"
        table.write_text("paper_id,category_code,weight\n")
        out = tmp_path / "o"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out),
                     "--variants", "JL-F-0.8", "--compare", f"e={table}"]) == 1
        assert capsys.readouterr().err == f"error: {table}: no classification rows\n"
        assert not out.exists()

    def test_compare_table_of_papers_without_references_gets_nan_acv(
            self, short_refs_dir, tmp_path):
        # no category has a positive mean reference count, so the table's ACV is
        # undefined; the report is written whole.  The table's papers are all
        # ineligible, so it has no pair and no flow file.
        out = tmp_path / "out"
        assert main(["run", "--dir", str(short_refs_dir), "--out", str(out),
                     "--variants", "JL-F-0.8",
                     "--compare", f"z={short_refs_dir / 'zero.csv'}"]) == 0
        with open(out / "report" / "acv.csv", newline="") as fh:
            acv = {row["classification"]: row["acv_all"] for row in csv.DictReader(fh)}
        assert acv["z"] == "nan"
        assert acv["JL-F-0.8"] != "nan"
        meta = json.loads((out / "report" / "metadata.json").read_text())
        assert meta["tables"] == ["structure.csv", "acv.csv", "pairwise.csv", "areas.csv",
                                  "flow_initial_to_JL-F-0.8.csv"]
        with open(out / "report" / "pairwise.csv", newline="") as fh:
            assert [(row["a"], row["b"]) for row in csv.DictReader(fh)] == [
                ("JL-F-0.8", "initial")]

    def test_constant_category_sizes_give_nan_correlation(self, tmp_path):
        # two categories, one paper each: every classification has sizes [1, 1]
        data = tmp_path / "data"
        data.mkdir()
        tables = {
            "scheme": "code,area_code,kind\n1102,1100,regular\n1103,1100,regular\n",
            "journals": "journal_id,code,degree\nJA,1102,1.0\nJB,1103,1.0\n",
            "papers": "paper_id,journal_id\np1,JA\np2,JB\n",
            "references": "paper_id,reference_id\n" + "".join(
                f"{p},{r}\n" for p, refs in (("p1", "r1 r2 r3"), ("p2", "r4 r5 r6"))
                for r in refs.split()),
        }
        for name, text in tables.items():
            (data / f"{name}.csv").write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--dir", str(data), "--out", str(out),
                         "--variants", "JL-F-0.8"]) == 0
        with open(out / "report" / "pairwise.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["size_correlation"] for row in rows] == ["nan"]

    @pytest.mark.parametrize("flags, message", [
        (["--variants", "JL-F-0.8,U1-NF-1.5"], "threshold must be in (0, 1]"),
        (["--threshold", "0"], "convergence threshold must be positive"),
        (["--max-iterations", "0"], "max_iterations must be >= 1"),
        (["--threshold", "nan"], "convergence threshold must be positive and finite"),
        (["--threshold-mode", "absolute", "--threshold", "inf"],
         "convergence threshold must be positive and finite"),
        (["--min-refs", "-2"], "min_refs must be >= 0"),
    ])
    def test_bad_setting_fails_before_any_work(self, corpus_dir, tmp_path, capsys,
                                               monkeypatch, flags, message):
        def no_ingest(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "load_corpus", no_ingest)
        out = tmp_path / "out"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out)] + flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        if "--variants" not in flags:  # the settings oracle takes
            assert main(["oracle", "--dir", str(corpus_dir)] + flags) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("variants, first, second, label", [
        ("JL-F-0.8,JL-F-0.80,U1-NF,U1-NF-raw", "JL-F-0.8", "JL-F-0.80", "JL-F-0.8"),
        ("U1-NF,JL-F-0.5,U1-NF-raw", "U1-NF", "U1-NF-raw", "U1-NF"),
        ("JL-NF-0.5,JL-NF-0.5", "JL-NF-0.5", "JL-NF-0.5", "JL-NF-0.5"),
    ])
    def test_variants_naming_one_label_are_an_error(self, corpus_dir, tmp_path, capsys,
                                                    monkeypatch, variants, first,
                                                    second, label):
        def no_ingest(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "load_corpus", no_ingest)
        out = tmp_path / "out"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out),
                     "--variants", variants]) == 1
        assert capsys.readouterr().err == (
            f"error: variants {first!r} and {second!r} both name {label}\n")
        assert not out.exists()

    @pytest.mark.parametrize("variants, name", [
        ("JL-F-0.8", "initial"),
        ("JL-F-0.8", "JL-F-0.8"),
        ("U1-NF-raw", "U1-NF"),
    ])
    def test_compare_name_of_a_produced_classification_is_an_error(
            self, corpus_dir, tmp_path, capsys, one_paper_table, variants, name):
        out = tmp_path / "out"
        table = one_paper_table
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out),
                     "--variants", variants, "--compare", f"{name}={table}"]) == 1
        assert capsys.readouterr().err == (
            f"error: --compare name {name!r} is already in use\n")
        assert not out.exists()

    def test_repeated_compare_name_is_an_error(self, corpus_dir, tmp_path, capsys,
                                               one_paper_table):
        out = tmp_path / "out"
        table = one_paper_table
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out),
                     "--variants", "JL-F-0.8",
                     "--compare", f"x={table}", "--compare", f"x={table}"]) == 1
        assert capsys.readouterr().err == "error: --compare name 'x' is already in use\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", "a,b", 'a"b', "x/y", "x\\y"])
    def test_compare_name_that_breaks_the_report_is_an_error(
            self, corpus_dir, tmp_path, capsys, monkeypatch, one_paper_table, name):
        def no_ingest(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "load_corpus", no_ingest)
        out = tmp_path / "out"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out),
                     "--variants", "JL-F-0.8", "--compare", f"{name}={one_paper_table}"]) == 1
        assert capsys.readouterr().err.startswith("error: --compare ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_tables_come_from_dir_only(self, corpus_dir, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, *out]) == 1
        assert capsys.readouterr().err == "error: --dir required\n"
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit):
            cli.parse_args([command, "--dir", str(corpus_dir),
                            "--papers", str(corpus_dir / "papers.csv")])

    def test_does_not_mutate_inputs(self, corpus_dir, tmp_path):
        before = read_outputs(corpus_dir)
        main(["run", "--dir", str(corpus_dir), "--out", str(tmp_path / "o"),
              "--variants", "JL-F-0.8"])
        assert read_outputs(corpus_dir) == before


class TestSynthCommand:
    def test_seed_reproducibility(self, tmp_path):
        for name in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / name), "--seed", "42",
                         "--papers", "30", "--categories", "4"]) == 0
        assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")


    @pytest.mark.parametrize("flags, field", [
        (["--areas", "0"], "n_areas"), (["--pool", "0"], "pool_per_category"),
        (["--areas", "40", "--categories", "8"], "n_areas"),
        (["--ref-noise", "2"], "ref_noise"), (["--journal-noise", "-0.5"], "journal_noise"),
        (["--short-ref-fraction", "-1"], "short_ref_fraction"),
        (["--refs-mean", "-1"], "refs_per_paper_mean"),
        (["--refs-mean", "inf"], "refs_per_paper_mean"),
        (["--refs-mean", "1e19"], "refs_per_paper_mean"),
        (["--refs-mean", "nan"], "refs_per_paper_mean")])
    def test_bad_value_is_an_error_that_names_the_field(self, tmp_path, capsys, flags,
                                                        field):
        out = tmp_path / "corpus"
        assert main(["synth", "--out", str(out), "--seed", "1", "--papers", "30"]
                    + flags) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} ")
        assert not out.exists()


class TestOracleCommand:
    def test_pass_on_small_corpus(self, corpus_dir, capsys):
        assert main(["oracle", "--dir", str(corpus_dir)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_threads_flag_warns_first(self, corpus_dir, capsys):
        assert main(["oracle", "--dir", str(corpus_dir), "--threads", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: --threads is deprecated and has no effect\n"
        assert captured.out.splitlines()[-1].startswith("PASS")

    def test_refuses_oversized_corpus(self, tmp_path, capsys, monkeypatch):
        def no_run(corpus, config):
            raise AssertionError("the engine ran")

        monkeypatch.setattr("refclass.oracle.ORACLE_MAX_PAPERS", 10)
        monkeypatch.setattr(cli, "run", no_run)
        big = tmp_path / "big"
        generate(SynthParams(n_papers=30, n_categories=3, seed=1)).write(big)
        assert main(["oracle", "--dir", str(big)]) == 2
        assert "refused" in capsys.readouterr().err

    def test_detects_corrupted_engine(self, corpus_dir, capsys, monkeypatch):
        import refclass.cli as cli_mod
        real_run = cli_mod.run

        def broken_run(corpus, config):
            jl, u1 = real_run(corpus, config)
            jl.weights.data[0] += 1e-6  # the first paper's first category
            return jl, u1

        monkeypatch.setattr(cli_mod, "run", broken_run)
        assert main(["oracle", "--dir", str(corpus_dir)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestMetricsCommand:
    def test_report_from_existing_files(self, corpus_dir, tmp_path):
        run_out = tmp_path / "run"
        main(["run", "--dir", str(corpus_dir), "--out", str(run_out),
              "--variants", "JL-F-0.8,U1-F-0.8"])
        report = tmp_path / "report"
        assert main([
            "metrics", "--scheme", str(corpus_dir / "scheme.csv"),
            "--classification", f"jl={run_out / 'JL-F-0.8.csv'}",
            "--classification", f"u1={run_out / 'U1-F-0.8.csv'}",
            "--corpus-dir", str(corpus_dir),
            "--origin", "jl",
            "--out", str(report)]) == 0
        assert (report / "structure.csv").exists()
        assert (report / "pairwise.csv").exists()
        assert (report / "flow_jl_to_u1.csv").exists()
        meta = json.loads((report / "metadata.json").read_text())
        assert meta["formulas"]["coincidence"] == "min-overlap-v1"

    def test_report_of_the_run_files_equals_the_run_report(self, tmp_path):
        # the run's classifications, read back and placed on the corpus's index,
        # give its report byte for byte; initial is written from the library.
        # A fifth of the papers have too few references, so every table holds
        # a strict subset of the corpus
        data = tmp_path / "data"
        generate(SynthParams(n_papers=300, n_categories=16, seed=5, journal_noise=0.3,
                             ref_noise=0.3, misc_fraction=0.1,
                             multidisciplinary_fraction=0.2,
                             short_ref_fraction=0.2)).write(data)
        out = tmp_path / "run"
        assert main(["run", "--dir", str(data), "--out", str(out)]) == 0
        scheme = load_scheme(data / "scheme.csv")
        corpus = cli._load_corpus(data, scheme)
        assert corpus.ref_counts.min() < 3
        write_classification(cli._initial_classification(corpus, 3), scheme,
                             tmp_path / "initial.csv")
        tables = [f"{v}={out / v}.csv" for v in cli.ALL_VARIANTS]
        tables.append(f"initial={tmp_path / 'initial.csv'}")
        report_dir = tmp_path / "report"
        assert main(["metrics", "--scheme", str(data / "scheme.csv"),
                     *(arg for t in tables for arg in ("--classification", t)),
                     "--corpus-dir", str(data), "--origin", "initial",
                     "--out", str(report_dir)]) == 0
        run_report = read_outputs(out / "report")
        assert {"acv.csv", "pairwise.csv", "retention.csv",
                "flow_initial_to_U1-F-0.8.csv"} <= run_report.keys()
        assert read_outputs(report_dir) == run_report

    def test_papers_without_references_get_nan_acv(self, short_refs_dir, tmp_path):
        report = tmp_path / "report"
        assert main(["metrics", "--scheme", str(short_refs_dir / "scheme.csv"),
                     "--classification", f"z={short_refs_dir / 'zero.csv'}",
                     "--corpus-dir", str(short_refs_dir), "--out", str(report)]) == 0
        assert (report / "acv.csv").read_text() == "classification,acv_all\nz,nan\n"

    @pytest.mark.parametrize("case", sorted(MALFORMED_SIDECARS))
    def test_malformed_sidecar_is_an_error(self, corpus_dir, tmp_path, capsys,
                                           one_paper_table, case):
        text, words = MALFORMED_SIDECARS[case]
        sidecar = engine.sidecar_path(one_paper_table)
        sidecar.write_text(text)
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"x={one_paper_table}",
                     "--out", str(tmp_path / "report")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {sidecar}: {words}")
        assert not (tmp_path / "report").exists()

    def test_unknown_origin_is_an_error(self, corpus_dir, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(run_out),
                     "--variants", "JL-F-0.8"]) == 0
        report = tmp_path / "report"
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"jl={run_out / 'JL-F-0.8.csv'}",
                     "--origin", "typo", "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            "error: --origin 'typo' is not a --classification name\n")
        assert not report.exists()

    def test_repeated_classification_name_is_an_error(self, corpus_dir, tmp_path,
                                                      capsys, one_paper_table):
        table = one_paper_table
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"x={table}", "--classification", f"x={table}",
                     "--out", str(tmp_path / "report")]) == 1
        assert "--classification name 'x' is already in use" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["", "a,b", 'a"b', "x/y", "x\\y"])
    def test_name_that_breaks_the_report_is_an_error(self, corpus_dir, tmp_path, capsys,
                                                     one_paper_table, name):
        report = tmp_path / "report"
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"{name}={one_paper_table}",
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err.startswith("error: --classification ")
        assert not report.exists()

    def test_paper_ids_with_delimiter_or_quote_round_trip(self, corpus_dir, tmp_path):
        # ids with a comma, a quote, non-ASCII letters, or a trailing NUL that
        # alone tells them from another paper's id (P05 stays in the corpus)
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        names = {"P00": "a,b", "P02": 'a"b', "P03": "Zürich-東京", "P04": "P05\0",
                 "P06": 'é,"\0'}
        for table in ("papers.csv", "references.csv"):
            with open(data / table, newline="", encoding="utf-8") as fh:
                rows = [[names.get(r[0], r[0]), *r[1:]] for r in csv.reader(fh)]
            with open(data / table, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        assert main(["run", "--dir", str(data), "--out", str(out),
                     "--variants", "JL-F-0.8"]) == 0
        table = out / "JL-F-0.8.csv"
        text = table.read_text(encoding="utf-8")
        assert '\n"a,b",' in text and '\n"a""b",' in text and '\n"é,""\0",' in text
        assert main(["metrics", "--scheme", str(data / "scheme.csv"),
                     "--classification", f"x={table}", "--corpus-dir", str(data),
                     "--out", str(tmp_path / "report")]) == 0
        scheme = load_scheme(data / "scheme.csv")
        back = read_classification(table, scheme)
        assert {*names.values(), "P05"} <= set(back.paper_ids)
        write_classification(back, scheme, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == table.read_bytes()

    def test_ids_that_differ_by_a_trailing_nul_are_two_papers(self, corpus_dir, tmp_path):
        # "P00\0" is a second paper with P00's journal and references, so every
        # variant gives the two the same rows
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        for table in ("papers.csv", "references.csv"):
            with open(data / table, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            with open(data / table, "a", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(
                    ["P00\0", *r[1:]] for r in rows if r[0] == "P00")
        out = tmp_path / "out"
        assert main(["run", "--dir", str(data), "--out", str(out),
                     "--variants", "U1-F-0.8"]) == 0
        report_dir = tmp_path / "report"
        assert main(["metrics", "--scheme", str(data / "scheme.csv"),
                     "--classification", f"U1-F-0.8={out / 'U1-F-0.8.csv'}",
                     "--corpus-dir", str(data), "--out", str(report_dir)]) == 0
        back = read_classification(out / "U1-F-0.8.csv", load_scheme(data / "scheme.csv"))
        assert {"P00", "P00\0"} <= set(back.paper_ids)
        assert len(back.paper_ids) == 61
        assert (report_dir / "structure.csv").read_text().splitlines() == [
            row for row in (out / "report" / "structure.csv").read_text().splitlines()
            if not row.startswith("initial,")]
        # two classifications on indexes of their own align those ids as two papers
        a = from_vectors("a", {"P0": {0: 1.0}, "P1": {0: 1.0}, "P1\0": {1: 1.0}}, 3)
        b = from_vectors("b", {"P1": {1: 1.0}, "P1\0": {1: 1.0}}, 3)
        assert coincidence_percentage(a, b) == 50.0

    def test_table_with_unknown_paper_is_an_error(self, corpus_dir, tmp_path, capsys):
        table = tmp_path / "x.csv"
        table.write_text("paper_id,category_code,weight\nnot-a-paper,1102,1.0\n")
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"x={table}", "--corpus-dir", str(corpus_dir),
                     "--out", str(tmp_path / "report")]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: paper_id not-a-paper is not in the corpus\n")

    def test_empty_classification_is_an_error(self, corpus_dir, tmp_path, capsys):
        table = tmp_path / "empty.csv"
        table.write_text("paper_id,category_code,weight\n")
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"e={table}",
                     "--out", str(tmp_path / "report")]) == 1
        assert capsys.readouterr().err == f"error: {table}: no classification rows\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
    def test_malformed_classification_is_an_error(self, corpus_dir, tmp_path,
                                                   capsys, case):
        body, line, field = MALFORMED_TABLES[case]
        path = tmp_path / "x.csv"
        path.write_text("paper_id,category_code,weight\n" + body)
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"x={path}",
                     "--out", str(tmp_path / "report")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, line {line}: ")
        assert field in err
