import csv
import json
import shutil
import warnings

import pytest

from refclass import cli
from refclass.assign import PruneConfig
from refclass.cli import main, parse_variant
from refclass.engine import read_classification
from refclass.scheme import load_scheme
from refclass.synth import SynthParams, generate

from conftest import MALFORMED_TABLES


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    generate(SynthParams(n_papers=60, n_categories=6, seed=7,
                         journal_noise=0.1, misc_fraction=0.1,
                         multidisciplinary_fraction=0.05)).write(out)
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


class TestRun:
    def test_produces_all_twelve_variants(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--dir", str(corpus_dir), "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        for variant in cli.ALL_VARIANTS:
            assert f"{variant}.csv" in files
            assert f"{variant}.csv.meta.json" in files
        assert "threads" not in (out / "run.log").read_text()
        assert (out / "report" / "structure.csv").exists()
        assert (out / "report" / "retention.csv").exists()

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

    def test_compare_table_with_unknown_paper_is_an_error(self, corpus_dir, tmp_path,
                                                          capsys):
        table = tmp_path / "x.csv"
        table.write_text("paper_id,category_code,weight\nnot-a-paper,1102,1.0\n")
        assert main(["run", "--dir", str(corpus_dir), "--out", str(tmp_path / "o"),
                     "--variants", "JL-F-0.8", "--compare", f"x={table}"]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: paper_id not-a-paper is not in the corpus\n")

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
        monkeypatch.setattr("refclass.oracle.ORACLE_MAX_PAPERS", 10)
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

    def test_paper_ids_with_delimiter_or_quote_round_trip(self, corpus_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        names = {"P00": "a,b", "P02": 'a"b'}
        for table in ("papers.csv", "references.csv"):
            with open(data / table, newline="") as fh:
                rows = [[names.get(r[0], r[0]), *r[1:]] for r in csv.reader(fh)]
            with open(data / table, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        assert main(["run", "--dir", str(data), "--out", str(out),
                     "--variants", "JL-F-0.8"]) == 0
        table = out / "JL-F-0.8.csv"
        text = table.read_text()
        assert '\n"a,b",' in text and '\n"a""b",' in text
        assert main(["metrics", "--scheme", str(data / "scheme.csv"),
                     "--classification", f"x={table}", "--corpus-dir", str(data),
                     "--out", str(tmp_path / "report")]) == 0
        back = read_classification(table, load_scheme(data / "scheme.csv"))
        assert {"a,b", 'a"b'} <= set(back.paper_ids)

    def test_table_with_unknown_paper_is_an_error(self, corpus_dir, tmp_path, capsys):
        table = tmp_path / "x.csv"
        table.write_text("paper_id,category_code,weight\nnot-a-paper,1102,1.0\n")
        assert main(["metrics", "--scheme", str(corpus_dir / "scheme.csv"),
                     "--classification", f"x={table}", "--corpus-dir", str(corpus_dir),
                     "--out", str(tmp_path / "report")]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: paper_id not-a-paper is not in the corpus\n")

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
