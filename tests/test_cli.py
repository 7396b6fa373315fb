import json

import pytest

from refclass import cli
from refclass.cli import main, parse_variant
from refclass.synth import SynthParams, generate

from conftest import MALFORMED_TABLES


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    generate(SynthParams(n_papers=60, n_categories=6, seed=7,
                         journal_noise=0.1, misc_fraction=0.1,
                         multidisciplinary_fraction=0.05)).write(out)
    return out


def read_outputs(path, skip=("run.log",)):
    # run.log records wall-clock seconds, so it is excluded from
    # byte-for-byte comparisons
    return {p.name: p.read_bytes()
            for p in sorted(path.rglob("*"))
            if p.is_file() and p.name not in skip}


class TestParseVariant:
    def test_thresholded(self):
        assert parse_variant("JL-F-0.8") == ("JL", "F", 0.8)

    def test_raw(self):
        assert parse_variant("U1-NF") == ("U1", "NF", None)
        assert parse_variant("U1-NF-raw") == ("U1", "NF", None)

    def test_bad_token(self):
        with pytest.raises(cli.CliError):
            parse_variant("XX-F-0.8")


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
