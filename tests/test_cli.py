"""Each subcommand exercised through ``main()`` the way the console script calls it."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import bitextkit
from bitextkit import __version__
from bitextkit.cli import main
from bitextkit.core import META_FILENAME, SentenceList, write_records, write_sentences
from bitextkit.pipeline import PipelineConfig, SplitSpec
from bitextkit.scoring import N_MAX
from test_core import assert_reaped, writer_pids  # noqa: F401 (a fixture)
from test_scoring import neumaier_sum

CORPUS = Path(__file__).parent / "data" / "corpus"
RAW = CORPUS / "raw"


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @staticmethod
    def _configs(monkeypatch, *argvs):
        """The config each argv's command hands its stage (or the n_max it
        hands BLEU), with every stage stubbed so nothing is written."""
        seen = []

        def stage(result):
            return lambda config, *rest: seen.append(config) or result

        for name, result in [("stage_preprocess", ([], None)), ("stage_sbd", {}), ("stage_align", {}),
                             ("stage_split", None)]:
            monkeypatch.setattr(f"bitextkit.cli.{name}", stage(result))
        monkeypatch.setattr("bitextkit.cli.corpus_bleu", lambda hyps, refs, n_max: seen.append(n_max) or 0.0)
        for argv in argvs:
            assert main(argv) == 0, argv
        return seen

    _STAGES = [
        ("preprocess", [str(RAW)]),
        ("sbd", [str(CORPUS / "out" / "01_preprocess")]),
        ("align", [str(CORPUS / "out" / "02_sbd")]),
        ("split", [str(CORPUS / "out" / "04_dedup" / "pairs.tsv"), str(CORPUS / "out" / "02_sbd")]),
    ]

    def test_defaults_are_the_library_defaults(self, tmp_path, monkeypatch):
        hyp = str(CORPUS / "mt_zh2en" / "A01.txt")
        argvs = [[name, *paths, str(tmp_path)] for name, paths in self._STAGES] + [["bleu", hyp, hyp]]
        *configs, bleu = self._configs(monkeypatch, *argvs)
        assert configs == [PipelineConfig(Path(paths[-1]), tmp_path) for _, paths in self._STAGES]
        assert all(config.split == SplitSpec() for config in configs)
        assert bleu == N_MAX

    def test_every_stage_flag_sets_its_field(self, tmp_path, monkeypatch):
        settings = {
            "preprocess": (["--patterns", "p.txt", "--no-truecase"], dict(patterns=Path("p.txt"), truecase=False)),
            "sbd": (["--en-method", "punkt", "--abbreviations", "a.txt"],
                    dict(en_sbd="punkt", abbreviations=Path("a.txt"))),
            "align": (["--method", "bleualign", "--params", "l.txt", "--min-score", "0.1",
                       "--src-mt", "zh2en", "--tgt-mt", "en2zh"],
                      dict(method="bleualign", params_file=Path("l.txt"), min_score=0.1,
                           mt_src=Path("zh2en"), mt_tgt=Path("en2zh"), jobs=3)),
            "split": (["--test", "5", "--dev", "6"], dict(split=SplitSpec(5, 6))),
        }
        # of the stage commands, only align reads --jobs
        argvs = [
            [*(["--jobs", "3"] if name == "align" else []), name, *paths, str(tmp_path), *settings[name][0]]
            for name, paths in self._STAGES
        ]
        hyp = str(CORPUS / "mt_zh2en" / "A01.txt")
        *configs, bleu = self._configs(monkeypatch, *argvs, ["bleu", hyp, hyp, "--n-max", "3"])
        for (name, paths), config in zip(self._STAGES, configs, strict=True):
            given = settings[name][1]
            default = PipelineConfig(Path(paths[-1]), tmp_path)
            assert all(getattr(default, key) != value for key, value in given.items()), name
            assert config == replace(default, **given), name
        assert bleu == 3 != N_MAX

    @staticmethod
    def _paths(command, out):
        golden, hyp = CORPUS / "out", CORPUS / "mt_zh2en" / "A01.txt"
        pairs, gold = golden / "04_dedup" / "pairs.tsv", CORPUS / "gold" / "A01.tsv"
        return [str(p) for p in {
            "ingest": [RAW, out], "preprocess": [RAW, out], "sbd": [golden / "01_preprocess", out],
            "align": [golden / "02_sbd", out], "dedup": [pairs, out], "split": [pairs, golden / "02_sbd", out],
            "eval": [gold, gold], "stats": [pairs], "bleu": [hyp, hyp],
        }[command]]

    @pytest.mark.parametrize(
        "flag, value, command",
        [("--config", str(CORPUS / "config.json"), command)
         for command in ("ingest", "preprocess", "sbd", "align", "dedup", "split", "eval", "stats", "bleu")]
        + [("--jobs", "2", command)
           for command in ("ingest", "preprocess", "sbd", "dedup", "split", "eval", "stats", "bleu")],
    )
    def test_global_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, flag, value, command):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, value, command, *self._paths(command, tmp_path / "out")])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: {flag} is not read by {command}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--theta1", "--theta2", "--iterations"])
    def test_removed_moore_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        sbd = str(CORPUS / "out" / "02_sbd")
        with pytest.raises(SystemExit) as excinfo:
            main(["align", sbd, str(tmp_path / "a"), "--method", "moore", flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_align_help_lists_no_moore_setting(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["align", "-h"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--min-score" in out
        assert not any(flag in out for flag in ("--theta1", "--theta2", "--iterations"))

    def test_run_without_config_is_an_error(self, capsys):
        assert main(["--log-format", "json", "run"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["level"] == "ERROR"
        assert "--config" in record["message"]


class TestRun:
    def test_full_pipeline_from_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "input": str(RAW),
                    "output": "out",
                    "method": "gc",
                    "truecase": False,
                    "split": {"test_sentence_target": 25, "dev_sentence_target": 25},
                    "hash": "blake2b-64",
                }
            ),
            encoding="utf-8",
        )
        assert main(["--config", str(config), "--jobs", "2", "run"]) == 0
        out = tmp_path / "out"
        assert (out / "run_log.jsonl").is_file()
        start = json.loads((out / "run_log.jsonl").read_text().splitlines()[0])
        assert start["jobs"] == 2
        assert (out / "05_split" / "manifest.tsv").is_file()

    def test_broken_config_returns_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": "raw", "output": "out", "hash": "md5"}))
        assert main(["--config", str(config), "run"]) == 1
        assert "unsupported hash" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_an_error(self, tmp_path, capsys, stages, jobs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(RAW), "output": "out"}), encoding="utf-8")
        assert main(["--config", str(config), "--jobs", jobs, "run"]) == 1
        assert main(["--jobs", jobs, "align", str(stages / "s" / "02_sbd"), str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err.count("jobs must be >= 1") == 2
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "key, value, method",
        [("min_score", 1.0, "bleualign"), ("min_score", -0.01, "bleualign"), ("min_score", math.nan, "moore")],
    )
    def test_bad_aligner_threshold_fails_before_any_stage(
        self, tmp_path, capsys, stages, key, value, method
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"input": str(RAW), "output": "out", "method": method, key: value}),
            encoding="utf-8",
        )
        assert main(["--config", str(config), "run"]) == 1
        flag = "--" + key.replace("_", "-")
        sbd = str(stages / "s" / "02_sbd")
        assert main(["align", sbd, str(tmp_path / "a"), "--method", method, flag, str(value)]) == 1
        err = capsys.readouterr().err
        assert f"{config}: {key} must be in" in err
        assert err.count(f"{key} must be in") == 2
        assert not (tmp_path / "out").exists() and not (tmp_path / "a").exists()

    def test_bleualign_without_mt_src_fails_before_any_stage(self, tmp_path, capsys, stages):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"input": str(RAW), "output": "out", "method": "bleualign"}), encoding="utf-8"
        )
        assert main(["--config", str(config), "run"]) == 1
        sbd = str(stages / "s" / "02_sbd")
        assert main(["align", sbd, str(tmp_path / "a"), "--method", "bleualign"]) == 1
        err = capsys.readouterr().err
        assert f"{config}: bleualign requires mt_src" in err
        assert err.count("bleualign requires mt_src") == 2
        assert not (tmp_path / "out").exists() and not (tmp_path / "a").exists()

    @pytest.mark.parametrize("method", ["gc", "bleualign"])
    def test_saved_length_params_reproduce_the_alignments(self, tmp_path, monkeypatch, method):
        """A run's ``03_align/length_params.txt``, read back as config
        ``params_file`` and as ``align --params``, gives that run's
        ``03_align`` byte for byte."""
        settings = json.loads((CORPUS / "config.json").read_text(encoding="utf-8"))
        settings.update(
            input=str(RAW), method=method, mt_src=str(CORPUS / "mt_zh2en"), mt_tgt=str(CORPUS / "mt_en2zh")
        )
        config = tmp_path / "config.json"

        def run(output, params_file=None):
            settings.update(output=output, params_file=params_file)
            config.write_text(json.dumps(settings), encoding="utf-8")
            assert main(["--config", str(config), "run"]) == 0

        def refit(length_pairs):
            raise AssertionError("length params fitted again")

        run("fit")
        monkeypatch.setattr("bitextkit.pipeline.estimate_length_params", refit)
        # params_file is relative to the config's directory, as output is
        run("loaded", "fit/03_align/length_params.txt")
        fitted = tmp_path / "fit" / "03_align"
        argv = ["align", str(tmp_path / "fit" / "02_sbd"), str(tmp_path / "flag"), "--method", method,
                "--src-mt", settings["mt_src"], "--tgt-mt", settings["mt_tgt"],
                "--min-score", str(settings["min_score"]), "--params", str(fitted / "length_params.txt")]
        assert main(argv) == 0
        names = sorted(p.name for p in fitted.iterdir())
        assert len(names) == 13 and "length_params.txt" in names
        for other in ("loaded", "flag"):
            align = tmp_path / other / "03_align"
            assert sorted(p.name for p in align.iterdir()) == names
            for name in names:
                assert (align / name).read_bytes() == (fitted / name).read_bytes(), (other, name)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("truecase", "false", "truecase must be true or false, got 'false'"),
            ("jobs", 1.5, "jobs must be >= 1 and an integer, got 1.5"),
            ("jobs", True, "jobs must be >= 1 and an integer, got True"),
            ("jobs", "2", "jobs must be >= 1 and an integer, got '2'"),
            ("split", {"dev_sentence_target": 2.5}, "dev_sentence_target must be an integer >= 0, got 2.5"),
            ("input", None, "input must be a string, got None"),
            ("output", None, "output must be a string, got None"),
            ("output", ["out"], "output must be a string, got ['out']"),
            ("mt_src", 3, "mt_src must be a string or null, got 3"),
            ("patterns", False, "patterns must be a string or null, got False"),
        ],
    )
    def test_config_value_of_the_wrong_type_fails_before_any_stage(
        self, tmp_path, capsys, key, value, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(RAW), "output": "out", key: value}), encoding="utf-8")
        assert main(["--config", str(config), "run"]) == 1
        assert f"{config}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("theta_1", 0.9), ("bleu", {"n_max": 2}), ("theta1", 0.99), ("theta2", 0.5), ("em_iterations", 4)],
    )
    def test_unknown_top_level_key_fails_before_any_stage(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(RAW), "output": "out", key: value}), encoding="utf-8")
        assert main(["--config", str(config), "run"]) == 1
        err = capsys.readouterr().err
        assert f"{config}: " in err and f"'{key}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b'{"input": "raw\xff"}', b'{"input": "raw", }'])
    def test_config_that_does_not_parse_is_named(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_bytes(text)
        assert main(["--config", str(config), "run"]) == 1
        # the running interpreter's own message: json's wording differs between versions
        with pytest.raises(ValueError) as excinfo:
            json.loads(text.decode("utf-8"))
        assert f"{config}: {excinfo.value}" in capsys.readouterr().err


class TestWriteFailure:
    """Files are written by one writer process, in the order the stages hand
    them over. A file that fails to write fails the stage that handed it
    over, and the disk is left as a failed write in that stage leaves it."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_directory_in_the_way_of_a_sentence_file_fails_sbd(self, tmp_path, capsys, writer_pids, jobs):
        corpus = tmp_path / "c"
        shutil.copytree(CORPUS, corpus, ignore=shutil.ignore_patterns("out", "gold", "golden"))
        out = corpus / "out"
        planted = out / "02_sbd" / "A01-en.tsv"
        planted.mkdir(parents=True)
        assert main(["--config", str(corpus / "config.json"), "--jobs", jobs, "run"]) == 1
        err = capsys.readouterr().err
        assert f"sbd stage failed: [Errno 21] Is a directory: '{planted}.partial' -> '{planted}'" in err
        golden = CORPUS / "out"
        want = {"01_preprocess", "removal_log.tsv", "paragraph_report.csv", "02_sbd", "02_sbd/A01-zh.tsv"}
        want |= {f"01_preprocess/{p.name}" for p in (golden / "01_preprocess").iterdir()}
        written = {p.relative_to(out).as_posix() for p in out.rglob("*")} - {"02_sbd/A01-en.tsv"}
        assert written == want  # nothing later, and no .partial file
        for rel in want:
            if (out / rel).is_file():
                assert (out / rel).read_bytes() == (golden / rel).read_bytes(), rel
        assert len(writer_pids) == 1
        assert_reaped(writer_pids)


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """preprocess -> sbd -> align run once; later tests read the artifacts."""
    root = tmp_path_factory.mktemp("stages")
    assert main(["preprocess", str(RAW), str(root / "p"), "--no-truecase"]) == 0
    assert main(["sbd", str(root / "p" / "01_preprocess"), str(root / "s")]) == 0
    assert main(["align", str(root / "s" / "02_sbd"), str(root / "a"), "--method", "gc"]) == 0
    return root


class TestStageCommands:
    def test_two_jobs_print_each_worker_warning_once(self, tmp_path):
        # every pass-1 posterior is below 0.99, so pass 2 of each article
        # warns in a worker; eight articles are enough for two workers
        shapes = (
            (("一二三。", "四五六。"), ("One two three.", "Four five six.", "Seven eight nine.")),
            (("一二三。",), ("One two.", "Four five.")),
        )
        articles = {pair_id: shapes[k % 2] for k, pair_id in enumerate("ABCDEFGH")}
        sbd = tmp_path / "02_sbd"
        sbd.mkdir()
        rows = []
        for pair_id, sides in articles.items():
            for lang, text in zip(("zh", "en"), sides):
                doc_id = f"{pair_id}-{lang}"
                rows.append((doc_id, pair_id, lang, "2021-01-01", ""))
                write_sentences(SentenceList(doc_id, lang, text, (0,) * len(text)), sbd / f"{doc_id}.tsv")
        write_records(sbd / META_FILENAME, rows)
        src = Path(bitextkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        # the console script's main, with each pool it starts announced on stdout
        code = (
            "import sys\n"
            "from concurrent import futures\n"
            "from bitextkit.cli import main\n"
            "class AnnouncedPool(futures.ProcessPoolExecutor):\n"
            "    def __init__(self, max_workers):\n"
            "        print(f'pool of {max_workers} workers', flush=True)\n"
            "        super().__init__(max_workers)\n"
            "futures.ProcessPoolExecutor = AnnouncedPool\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "--jobs", "2", "--log-format", "json",
             "align", str(sbd), str(tmp_path / "a"), "--method", "moore"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines().count("pool of 2 workers") == 1
        records = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith("{")]
        assert [(r["level"], r["message"]) for r in records] == [
            ("WARNING", "no confident sentence pairs to train on; pass 2 uses the length model"),
            *(
                ("WARNING", f"{pair_id}-zh: translation table shares no vocabulary with the "
                 "document; using length model only")
                for pair_id in articles
            ),
        ]

    def test_ingest(self, tmp_path, capsys):
        assert main(["ingest", str(RAW), str(tmp_path / "docs")]) == 0
        assert "ingested 24 documents" in capsys.readouterr().out
        assert (tmp_path / "docs" / "metadata.tsv").is_file()

    def test_bad_regex_in_pattern_file_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("en:(unclosed\n", encoding="utf-8")
        rc = main(["preprocess", str(RAW), str(tmp_path / "out"), "--patterns", str(bad)])
        assert rc == 1
        assert f"{bad} line 1: bad regex '(unclosed'" in capsys.readouterr().err

    def test_pattern_line_with_a_tab_fails_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("en:^See\tAlso\n", encoding="utf-8")
        rc = main(["preprocess", str(RAW), str(tmp_path / "out"), "--patterns", str(bad)])
        assert rc == 1
        assert f"{bad} line 1: a pattern line may not hold a tab" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_doc_id_outside_the_directory_fails_before_writing(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(RAW, raw)
        meta = raw / "metadata.tsv"
        text = meta.read_text(encoding="utf-8")
        meta.write_text(text.replace("A01-zh\t", "../evil-zh\t"), encoding="utf-8")
        shutil.copy(raw / "A01-zh.txt", tmp_path / "evil-zh.txt")
        assert main(["preprocess", str(raw), str(tmp_path / "out")]) == 1
        assert f"{meta} line 1: doc_id: '../evil-zh'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["evil-zh.txt", "raw"]

    def test_text_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(RAW, raw)
        (raw / "A03-en.txt").write_bytes(b"Text \xff\n")
        assert main(["ingest", str(raw), str(tmp_path / "docs")]) == 1
        assert f"{raw / 'A03-en.txt'}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "docs").exists()

    def test_translation_file_that_is_not_utf8_is_named(self, tmp_path, capsys, stages):
        mt = tmp_path / "mt"
        shutil.copytree(CORPUS / "mt_zh2en", mt)
        with open(mt / "A01.txt", "ab") as f:
            f.write(b"\xff")
        sbd = str(stages / "s" / "02_sbd")
        rc = main(["align", sbd, str(tmp_path / "a"), "--method", "bleualign", "--src-mt", str(mt)])
        assert rc == 1
        assert f"{mt / 'A01.txt'}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("method", ["gc", "bleualign"])
    @pytest.mark.parametrize("corpus", ["no metadata rows", "every zh side empty"])
    def test_corpus_without_source_text_names_the_cause(self, tmp_path, capsys, stages, method, corpus):
        sbd = tmp_path / "02_sbd"
        shutil.copytree(stages / "s" / "02_sbd", sbd)
        emptied = [sbd / META_FILENAME] if corpus == "no metadata rows" else sbd.glob("*-zh.tsv")
        for path in emptied:
            path.write_text("", encoding="utf-8")
        mt = str(CORPUS / "mt_zh2en")
        assert main(["align", str(sbd), str(tmp_path / "a"), "--method", method, "--src-mt", mt]) == 1
        err = capsys.readouterr().err
        assert "no source-side text to fit the length model on; set params_file (--params)" in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("method", ["gc", "bleualign"])
    def test_corpus_without_target_text_names_the_cause(self, tmp_path, capsys, stages, method):
        sbd = tmp_path / "02_sbd"
        shutil.copytree(stages / "s" / "02_sbd", sbd)
        for path in sbd.glob("*-en.tsv"):
            path.write_text("", encoding="utf-8")
        mt = str(CORPUS / "mt_zh2en")
        assert main(["align", str(sbd), str(tmp_path / "a"), "--method", method, "--src-mt", mt]) == 1
        err = capsys.readouterr().err
        assert "no target-side text to fit the length model on; set params_file (--params)" in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "method, cause",
        [("gc", "no source-side text"), ("bleualign", "no target-side text"),
         ("bleualign", "mt_zh2en/A03.txt missing"), ("bleualign", "mt_en2zh/A03.txt missing"),
         ("gc", "params without s2"), ("bleualign", "params with c twice")],
    )
    def test_an_align_that_fails_on_its_inputs_or_model_leaves_no_output_directory(
        self, tmp_path, capsys, method, cause
    ):
        sbd = tmp_path / "02_sbd"
        shutil.copytree(CORPUS / "out" / "02_sbd", sbd)
        mt = {name: CORPUS / name for name in ("mt_zh2en", "mt_en2zh")}
        argv = ["align", str(sbd), str(tmp_path / "a"), "--method", method]
        if cause.endswith("-side text"):
            for path in sbd.glob(f"*-{'zh' if 'source' in cause else 'en'}.tsv"):
                path.write_text("", encoding="utf-8")
            message = f"{cause} to fit the length model on; set params_file (--params)"
        elif cause.endswith("missing"):
            name = cause.split("/")[0]
            mt[name] = tmp_path / name
            shutil.copytree(CORPUS / name, mt[name])
            (mt[name] / "A03.txt").unlink()
            message = f"translation file not found: {mt[name] / 'A03.txt'}"
        else:
            params = tmp_path / "length_params.txt"
            twice = cause.endswith("twice")
            params.write_text("c=1.2\ns2=6.8\nc=1.3\n" if twice else "c=1.2\n", encoding="utf-8")
            argv += ["--params", str(params)]
            message = f"{params} line 3: repeated key 'c'" if twice else f"{params}: missing key 's2'"
        assert main([*argv, "--src-mt", str(mt["mt_zh2en"]), "--tgt-mt", str(mt["mt_en2zh"])]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_preprocess_artifacts(self, stages):
        pre = stages / "p" / "01_preprocess"
        assert (pre / "metadata.tsv").is_file()
        assert len(list(pre.glob("A*.txt"))) == 24

    def test_sbd_artifacts(self, stages):
        sbd = stages / "s" / "02_sbd"
        assert len(list(sbd.glob("A*.tsv"))) == 24
        assert (stages / "s" / "sbd_report.csv").is_file()

    def test_align_artifacts(self, stages):
        align = stages / "a" / "03_align"
        assert len(list(align.glob("A*.tsv"))) == 12
        assert (align / "length_params.txt").is_file()

    def test_eval_against_gold(self, stages, capsys):
        pred = stages / "a" / "03_align" / "A01.tsv"
        rc = main(["eval", str(pred), str(CORPUS / "gold" / "A01.tsv"), "--distribution"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("precision=")
        assert "recall=" in out and "f1=" in out
        assert any(line.startswith("1-1,") for line in out.splitlines())

    def test_a_params_file_that_names_a_prior_is_rejected(self, tmp_path, capsys):
        # the priors are fixed; a file written before they were still lists them
        params = tmp_path / "length_params.txt"
        params.write_text("c=1.2\ns2=6.8\npriors.1-1=0.89\n", encoding="utf-8")
        sbd = str(CORPUS / "out" / "02_sbd")
        assert main(["align", sbd, str(tmp_path / "a"), "--method", "gc", "--params", str(params)]) == 1
        assert f"{params} line 3: unknown key 'priors.1-1'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()  # the file loads before the stage creates anything

    @pytest.mark.parametrize(
        "method, golden", [("gc", CORPUS / "golden" / "gc" / "03_align"), ("moore", CORPUS / "out" / "03_align")]
    )
    def test_align_pairs_articles_by_pair_id_whatever_the_metadata_order(self, tmp_path, method, golden):
        sbd = tmp_path / "02_sbd"
        shutil.copytree(CORPUS / "out" / "02_sbd", sbd)
        rows = (sbd / META_FILENAME).read_text(encoding="utf-8").splitlines(keepends=True)
        (sbd / META_FILENAME).write_text("".join(reversed(rows)), encoding="utf-8")
        assert main(["align", str(sbd), str(tmp_path / "a"), "--method", method]) == 0
        aligned = tmp_path / "a" / "03_align"
        assert sorted(p.name for p in aligned.iterdir()) == sorted(p.name for p in golden.iterdir())
        for path in golden.iterdir():
            assert (aligned / path.name).read_bytes() == path.read_bytes(), path.name

    def test_eval_rejects_an_invalid_gold(self, tmp_path, capsys):
        # source 0 in two beads, source 2 and target 2 in none
        gold = tmp_path / "gold.tsv"
        gold.write_text("# src_len=3\ttgt_len=3\n0\t0\tNA\tgold\n0\t1\tNA\tgold\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("# src_len=3\ttgt_len=3\n0\t0\tNA\tgc\n1\t1\tNA\tgc\n2\t2\tNA\tgc\n", encoding="utf-8")
        assert main(["eval", str(pred), str(gold)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{gold}: not a valid gold alignment: bead 1: src index 0 reused (index reuse)" in captured.err
        # the prediction is not held to the gold's rules
        assert main(["eval", str(gold), str(pred)]) == 0

    def test_sbd_punkt_method(self, stages, tmp_path):
        src = stages / "p" / "01_preprocess"
        assert main(["sbd", str(src), str(tmp_path), "--en-method", "punkt"]) == 0
        assert (tmp_path / "02_sbd" / "punkt_model.txt").is_file()


class TestStepByStep:
    def test_chain_matches_the_golden_run(self, tmp_path):
        """preprocess -> sbd -> align -> split, each through main(), writes
        the same bytes as the golden `run` for every artifact it covers."""
        golden, out = CORPUS / "out", tmp_path / "out"
        for argv in (
            ["preprocess", str(RAW), str(out), "--no-truecase"],
            ["sbd", str(out / "01_preprocess"), str(out)],
            ["align", str(out / "02_sbd"), str(out), "--method", "moore"],
            ["split", str(golden / "04_dedup" / "pairs.tsv"), str(out / "02_sbd"), str(out),
             "--test", "25", "--dev", "25"],
        ):
            assert main(argv) == 0, argv

        def tree(root: Path, skip=()) -> list[str]:
            names = (p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
            return sorted(n for n in names if not n.startswith(skip))

        written = tree(out)
        assert written == tree(golden, skip=("04_dedup/", "stats.tsv", "run_log.jsonl"))
        for name in written:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name


class TestAdditionOrder:
    """Every float the package writes is added left to right, so no
    interpreter's ``sum`` can move a bit of it."""

    def test_a_compensated_sum_changes_no_output_byte(self, tmp_path):
        """The fixture run and ``align --method gc|bleualign`` write the
        golden bytes with ``builtins.sum`` made compensated."""
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus, ignore=shutil.ignore_patterns("out", "golden"))
        sbd = str(CORPUS / "out" / "02_sbd")
        mt = ["--src-mt", str(CORPUS / "mt_zh2en"), "--tgt-mt", str(CORPUS / "mt_en2zh")]
        with mock.patch("builtins.sum", neumaier_sum):
            assert main(["--config", str(corpus / "config.json"), "run"]) == 0
            assert main(["align", sbd, str(tmp_path / "gc"), "--method", "gc"]) == 0
            assert main(["align", sbd, str(tmp_path / "bleualign"), "--method", "bleualign", *mt]) == 0
        for fresh, golden in (
            (corpus / "out", CORPUS / "out"),
            (tmp_path / "gc", CORPUS / "golden" / "gc"),
            (tmp_path / "bleualign", CORPUS / "golden" / "bleualign"),
        ):
            names = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
            assert names == sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
            for name in names:
                if name.name != "run_log.jsonl":
                    assert (fresh / name).read_bytes() == (golden / name).read_bytes(), name


class TestPairCommands:
    def test_dedup_two_columns(self, tmp_path, capsys):
        src = tmp_path / "pairs.tsv"
        src.write_text("甲。\tAlpha.\n甲。\talpha\n乙。\tBeta.\n", encoding="utf-8")
        out = tmp_path / "kept.tsv"
        assert main(["dedup", str(src), str(out)]) == 0
        assert "kept 2 pairs, removed 1 duplicates" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == "甲。\tAlpha.\n乙。\tBeta.\n"

    def test_dedup_three_columns_keeps_article_ids(self, tmp_path):
        src = tmp_path / "pairs.tsv"
        src.write_text("A01\t甲。\tAlpha.\nA02\t甲。\tALPHA\n", encoding="utf-8")
        out = tmp_path / "kept.tsv"
        assert main(["dedup", str(src), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "A01\t甲。\tAlpha.\n"

    def test_dedup_mixed_columns_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "pairs.tsv"
        src.write_text("甲。\tAlpha.\nA02\t乙。\tBeta.\n", encoding="utf-8")
        assert main(["dedup", str(src), str(tmp_path / "kept.tsv")]) == 1
        assert "mixed column counts" in capsys.readouterr().err

    def test_stats_mixed_columns_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "pairs.tsv"
        src.write_text("A01\t患者。\tThe patient.\n随访\tFollow up\n", encoding="utf-8")
        assert main(["stats", str(src)]) == 1
        captured = capsys.readouterr()
        assert "mixed column counts [2, 3]" in captured.err
        assert "articles=" not in captured.out

    def test_stats(self, tmp_path, capsys):
        src = tmp_path / "pairs.tsv"
        src.write_text("A01\t患者。\tThe patient.\nA02\t随访\tFollow up\n", encoding="utf-8")
        assert main(["stats", str(src)]) == 0
        assert (
            capsys.readouterr().out.strip()
            == "sentence_pairs=2 src_tokens=5 tgt_tokens=5 articles=2"
        )

    def test_stats_two_columns(self, tmp_path, capsys):
        src = tmp_path / "pairs.tsv"
        src.write_text("患者。\tThe patient.\n", encoding="utf-8")
        assert main(["stats", str(src)]) == 0
        assert "articles=1" in capsys.readouterr().out

    def test_split(self, tmp_path, capsys):
        sbd_dir = tmp_path / "sbd"
        sbd_dir.mkdir()
        assert main(["ingest", str(RAW), str(sbd_dir)]) == 0
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "".join(f"A{i:02d}\t甲{i}。\tAlpha {i}.\n" for i in range(1, 13)),
            encoding="utf-8",
        )
        rc = main(
            ["split", str(pairs), str(sbd_dir), str(tmp_path / "out"), "--test", "2", "--dev", "2"]
        )
        assert rc == 0
        manifest = (tmp_path / "out" / "05_split" / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 12
        splits = [line.split("\t")[1] for line in manifest]
        assert splits.count("test") == 2 and splits.count("dev") == 2

    def test_split_unknown_article_fails_before_writing(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("A01\t甲。\tAlpha.\nZ99\t乙。\tBeta.\nX42\t丙。\tGamma.\n", encoding="utf-8")
        assert main(["split", str(pairs), str(RAW), str(tmp_path / "out")]) == 1
        assert "not in the metadata: X42, Z99" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["pairs.tsv", "bitext.tsv"])
    def test_dedup_of_deduplicated_rows_is_the_same_file(self, tmp_path, capsys, name):
        src = CORPUS / "out" / "04_dedup" / name
        assert main(["dedup", str(src), str(tmp_path / name)]) == 0
        assert "removed 0 duplicates" in capsys.readouterr().out
        assert (tmp_path / name).read_bytes() == src.read_bytes()

    def test_dedup_creates_the_directory_of_its_output(self, tmp_path):
        src = CORPUS / "out" / "04_dedup" / "pairs.tsv"
        out = tmp_path / "new" / "dir" / "pairs.tsv"
        assert main(["dedup", str(src), str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()
        assert [p.name for p in out.parent.iterdir()] == ["pairs.tsv"]


class TestBleuCommand:
    def test_corpus_score(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b c e\n", encoding="utf-8")
        assert main(["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.txt")]) == 0
        assert capsys.readouterr().out.strip() == "0.707107"

    def test_sentence_scores(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b\nc d\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b\nc d\n", encoding="utf-8")
        rc = main(
            ["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.txt"), "--sentence"]
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["1.000000", "1.000000"]

    def test_only_a_newline_ends_a_line(self, tmp_path, capsys):
        for name in ("hyp.txt", "ref.txt"):
            (tmp_path / name).write_text("a\u2028b c\x85d\ne f\n", encoding="utf-8")
        rc = main(
            ["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.txt"), "--sentence"]
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["1.000000", "1.000000"]

    def test_sentence_mode_length_mismatch(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a\nb\n", encoding="utf-8")
        rc = main(
            ["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.txt"), "--sentence"]
        )
        assert rc == 1
        assert "length mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["hyp.txt", "ref.txt"])
    def test_input_that_is_not_utf8_is_named(self, tmp_path, capsys, bad):
        (tmp_path / "hyp.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / bad).write_bytes(b"a \xff\n")
        assert main(["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.txt")]) == 1
        assert f"{tmp_path / bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_n_max_sets_the_order(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b d\n", encoding="utf-8")
        for n_max, score in (("1", "0.666667"), ("3", "0.149380")):
            assert main(["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.txt"), "--n-max", n_max]) == 0
            assert capsys.readouterr().out.strip() == score

    @pytest.mark.parametrize("sentence", [[], ["--sentence"]])
    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_n_max_below_one_fails_before_reading(self, tmp_path, capsys, n_max, sentence):
        (tmp_path / "hyp.txt").write_text("", encoding="utf-8")
        argv = ["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "hyp.txt"), "--n-max", n_max, *sentence]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"n_max must be an integer >= 1, got {n_max}" in captured.err
        assert captured.out == ""

    def test_n_max_that_is_not_an_integer_is_a_usage_error(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("a\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "hyp.txt"), "--n-max", "2.5"])
        assert excinfo.value.code == 2

    def test_lang_outside_the_pair_is_a_usage_error(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("a\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "hyp.txt"), "--lang", "fr"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_a_reader_that_closes_stdout_ends_the_command_quietly(self, tmp_path, unbuffered):
        # more output than a pipe holds, so the command still writes after the reader is gone
        lines = tmp_path / "lines.txt"
        lines.write_text("a b\n" * 30_000, encoding="utf-8")
        src = Path(bitextkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        env["PYTHONUNBUFFERED"] = unbuffered
        with subprocess.Popen(
            [sys.executable, "-m", "bitextkit.cli", "bleu", str(lines), str(lines), "--sentence"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline() == b"1.000000\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
        assert proc.returncode == 1

    def test_zh_scores_per_character(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("甲乙丙丁\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("甲乙丙戊\n", encoding="utf-8")
        rc = main(["bleu", str(tmp_path / "hyp.txt"), str(tmp_path / "ref.txt"), "--lang", "zh"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.707107"
