"""The one writer of every output, `ingest.open_output`: a sibling temp file moved onto the target.

A write that fails, or is interrupted, leaves the target's previous bytes and
nothing else; a new file gets the permission bits a plain `open(path, "w")`
gives; an `OSError` names the output path, never the temp file; and the JSON
save streams, so its memory does not grow with the report.
"""
import gc
import os
import random
import tracemalloc

import pytest
from click.testing import CliRunner

from workforecast import jsonio
from workforecast.cli import cli
from workforecast.errors import MalformedJson
from workforecast.evaluate import EvalReport, FoldResult, save_report_json
from workforecast.features import FeatureConfig
from workforecast.ingest import RegionalSeries, _write_rows, open_output, write_regional_series

from helpers import quickstart_args

OLD = b"the previous output\n"


def _report(**overrides):
    """A report of 1,520 folds, 80 regions by 19 years, as `evaluate` writes at `panel` scale."""
    rng = random.Random(7)
    folds = tuple(
        FoldResult(f"R{i % 80:02d}", 2001 + i // 80, rng.random(), rng.random(),
                   None if i % 9 == 0 else rng.random(), rng.random(), None if i % 9 == 0 else rng.random())
        for i in range(1520)
    )
    fields = dict(benchmark_mode="trainfold-mean", feature_config=FeatureConfig(), folds=folds, mae_model_pct=2.0,
                  mae_benchmark_pct=5.0, std_model_pct=1.5, std_benchmark_pct=3.5, relative_inaccuracy_pct=150.0)
    return EvalReport(**{**fields, **overrides})


def _series(region, years, drop_employment=None):
    return RegionalSeries(
        region_id=region,
        years=years,
        employment={year: 1000 + year for year in years if year != drop_employment},
        unemployed_6m={year: 50 for year in years},
        population={year: {(16, 64): 2000} for year in years},
    )


class TestFailedWriteKeepsThePreviousOutput:
    def test_json_that_fails_after_the_folds(self, tmp_path):
        """`mae_model_pct` is encoded after every fold, so the temp file already holds most of the report."""
        path = tmp_path / "report.json"
        path.write_bytes(OLD)
        with pytest.raises(MalformedJson, match="report.json"):
            save_report_json(_report(mae_model_pct=float("nan")), path)
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["report.json"]

    def test_csv_whose_rows_fail_mid_file(self, tmp_path):
        series = {"R1": _series("R1", (2011, 2012, 2013)), "R2": _series("R2", (2011, 2012, 2013), 2012)}
        paths = [tmp_path / name for name in ("employment.csv", "unemployment.csv", "population.csv")]
        for path in paths:
            path.write_bytes(OLD)
        with pytest.raises(KeyError):
            write_regional_series(series, *paths)
        assert [path.read_bytes() for path in paths] == [OLD] * 3
        assert sorted(os.listdir(tmp_path)) == sorted(path.name for path in paths)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_an_interrupt_is_cleaned_up_too(self, tmp_path, interrupt):
        def rows():
            yield ["R1", 2011, 1]
            raise interrupt()

        path = tmp_path / "employment.csv"
        path.write_bytes(OLD)
        with pytest.raises(interrupt):
            _write_rows(path, ("region", "year", "employed"), rows())
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["employment.csv"]


class TestTheWrittenFile:
    def test_a_successful_write_replaces_the_target_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(OLD)
        jsonio.save(path, {"n_obs": 3})
        assert path.read_text(encoding="utf-8") == '{\n  "n_obs": 3\n}\n'
        assert os.listdir(tmp_path) == ["model.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_permission_bits_are_those_of_a_plain_open(self, tmp_path, umask):
        old_umask = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w", encoding="utf-8"):
                pass
            jsonio.save(tmp_path / "model.json", {"n_obs": 3})
            _write_rows(tmp_path / "features.csv", ("region",), [["R1"]])
        finally:
            os.umask(old_umask)
        expected = os.stat(tmp_path / "plain").st_mode
        assert expected & 0o777 == 0o666 & ~umask
        assert os.stat(tmp_path / "model.json").st_mode == expected
        assert os.stat(tmp_path / "features.csv").st_mode == expected

    def test_a_symlinked_output_is_replaced_by_a_regular_file(self, tmp_path):
        target = tmp_path / "elsewhere.json"
        target.write_bytes(OLD)
        (tmp_path / "model.json").symlink_to(target)
        jsonio.save(tmp_path / "model.json", {"n_obs": 3})
        assert not (tmp_path / "model.json").is_symlink()
        assert target.read_bytes() == OLD

    def test_a_planted_temp_name_is_never_followed(self, tmp_path):
        path = tmp_path / "model.json"
        victim = tmp_path / "victim"
        victim.write_bytes(OLD)
        (tmp_path / f"model.json.{os.getpid()}.tmp").symlink_to(victim)
        with pytest.raises(FileExistsError) as info:
            jsonio.save(path, {"n_obs": 3})
        assert info.value.filename == str(path)
        assert victim.read_bytes() == OLD
        assert not path.exists()


class TestErrorsNameTheOutput:
    def test_a_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "model.json"
        with pytest.raises(FileNotFoundError) as info:
            jsonio.save(path, {"n_obs": 3})
        assert info.value.filename == str(path)
        assert str(info.value) == f"[Errno 2] No such file or directory: {str(path)!r}"

    def test_a_missing_directory_on_the_command_line(self, quickstart, tmp_path):
        args = quickstart_args("fit", quickstart)
        path = tmp_path / "missing" / "model.json"
        args[args.index("--model") + 1] = str(path)
        result = CliRunner().invoke(cli, args, env={"WF_NO_COLOR": "1"})
        assert result.exit_code == 1
        assert result.stderr == f"ERROR FileNotFoundError: [Errno 2] No such file or directory: {str(path)!r}\n"

    def test_a_directory_in_the_way(self, tmp_path):
        path = tmp_path / "features.csv"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            _write_rows(path, ("region",), [["R1"]])
        assert str(info.value) == f"[Errno 21] Is a directory: {str(path)!r}"
        assert os.listdir(tmp_path) == ["features.csv"]

    def test_other_errors_pass_through_unchanged(self, tmp_path):
        with pytest.raises(ZeroDivisionError):
            with open_output(tmp_path / "out.csv") as fh:
                fh.write("partial")
                1 / 0
        assert os.listdir(tmp_path) == []


def test_saving_a_report_holds_no_text_of_the_whole_file(tmp_path):
    """The save streams into the file. On 1,520 folds (a 400 KB file) its traced peak is 0.16 times the
    file's size; 6.2 when the whole text was built first, and 0.51 when streamed but each fold's field
    list was read again (1,520 spent tuples wait on the interpreter's free list until a full collection)."""
    report = _report()
    path = tmp_path / "report.json"
    run_config = {"subcommand": "evaluate", "feature_config": report.feature_config, "per_region": False}
    gc.collect()
    tracemalloc.start()
    try:
        save_report_json(report, path, run_config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 300_000
    assert peak <= 0.5 * size
