import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

from workforecast import jsonio
from workforecast.errors import DataError, MalformedJson
from workforecast.evaluate import STD_DEFINITION, EvalReport, FoldResult, load_report_json, save_report_json
from workforecast.features import FeatureConfig
from workforecast.synth import Shock, SynthConfig

SRC = Path(jsonio.__file__).parent


def _report(**overrides):
    fields = dict(
        benchmark_mode="prior-years-mean",
        scope="per-region",
        feature_config=FeatureConfig(normalize=False, lag=1, working_age=(18, 66)),
        folds=(
            FoldResult("R1", 2012, 0.4, 0.41, None, 0.01, None),
            FoldResult("R1", 2013, 0.5, 0.47, 0.45, 0.03, 0.05),
        ),
        mae_model_pct=2.0,
        mae_benchmark_pct=5.0,
        std_model_pct=1.4142135623730951,
        std_benchmark_pct=None,
        relative_inaccuracy_pct=150.0,
    )
    fields.update(overrides)
    return EvalReport(**fields)


def _saved(path, value, run_config=None):
    jsonio.save(path, value, run_config)
    return path.read_text(encoding="utf-8")


class TestEncode:
    def test_fields_in_declaration_order_with_renamed_keys(self, tmp_path):
        payload = json.loads(_saved(tmp_path / "report.json", _report(), {"subcommand": "evaluate"}))
        assert list(payload) == [
            "benchmark_mode", "scope", "feature_config", "std_definition", "folds",
            "mae_model_pct", "mae_benchmark_pct", "std_model_pct", "std_benchmark_pct",
            "relative_inaccuracy_pct", "run_config",
        ]
        assert payload["std_definition"] == STD_DEFINITION
        assert list(payload["folds"][0])[0] == "region"
        assert payload["feature_config"]["working_age"] == [18, 66]

    def test_std_definition_cannot_be_set(self):
        with pytest.raises(TypeError):
            _report(std_definition="population standard deviation")


def _encode_per_value(value):
    """Reference encoder: one recursive call per value, field keys looked up on every dataclass."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {key: _encode_per_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_per_value(item) for item in value]
    return {
        field.metadata.get("json", field.name): _encode_per_value(getattr(value, field.name))
        for field in dataclasses.fields(value)
    }


def _reference_text(value, run_config=None):
    payload = _encode_per_value(value)
    if run_config is not None:
        payload["run_config"] = _encode_per_value(run_config)
    return json.dumps(payload, indent=2) + "\n"


class TestSavedText:
    def test_large_report_matches_the_per_value_encoder(self, tmp_path):
        rng = random.Random(7)
        folds = tuple(
            FoldResult(f"R{i % 80:02d}", 2001 + i // 80, rng.random(), rng.random(),
                       None if i % 9 == 0 else rng.random(), rng.random(), None if i % 9 == 0 else rng.random())
            for i in range(1520)
        )
        report = _report(folds=folds, std_benchmark_pct=3.5)
        run_config = {"subcommand": "evaluate", "feature_config": report.feature_config, "per_region": False}
        assert _saved(tmp_path / "report.json", report, run_config) == _reference_text(report, run_config)

    @pytest.mark.parametrize("shock", [None, Shock(year=2015, demand_shift=-0.05)])
    def test_nested_and_optional_dataclasses_match(self, tmp_path, shock):
        value = {"config": SynthConfig(n_regions=3, shock=shock), "regions": ["R1", "R2"], "n_clipped": 0}
        run_config = {"subcommand": "synth", "years": (2009, 2018), "shock_year": shock and shock.year}
        assert _saved(tmp_path / "truth.json", value) == _reference_text(value)
        assert _saved(tmp_path / "stamped.json", value, run_config) == _reference_text(value, run_config)
        assert "run_config" not in value

    def test_non_dataclass_object_is_refused(self, tmp_path):
        path = tmp_path / "truth.json"
        with pytest.raises(NotImplementedError, match="no JSON codec for <class .set.>"):
            jsonio.save(path, {"regions": {"R1"}})
        assert list(tmp_path.iterdir()) == []


class TestRoundTrip:
    def test_report_round_trips(self, tmp_path):
        report = _report()
        save_report_json(report, tmp_path / "report.json", run_config={"subcommand": "evaluate"})
        assert load_report_json(tmp_path / "report.json") == report

    @pytest.mark.parametrize("shock", [None, Shock(year=2015, demand_shift=-0.05)])
    def test_synth_config_round_trips(self, tmp_path, shock):
        config = SynthConfig(n_regions=3, years=(2009, 2018), seed=5, noise_sd=0.01, shock=shock)
        jsonio.save(tmp_path / "config.json", config)
        assert jsonio.load(tmp_path / "config.json", SynthConfig) == config

    def test_missing_defaulted_field_takes_its_default(self, tmp_path):
        path = tmp_path / "report.json"
        save_report_json(_report(scope="pooled"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["scope"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_report_json(path).scope == "pooled"

    def test_written_file_is_indented_with_trailing_newline(self, tmp_path):
        jsonio.save(tmp_path / "shock.json", Shock(year=2015))
        assert (tmp_path / "shock.json").read_text(encoding="utf-8") == (
            '{\n  "year": 2015,\n  "demand_shift": 0.0,\n  "supply_shift": 0.0\n}\n'
        )


class TestRejects:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_is_not_written(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(MalformedJson, match="report.json"):
            save_report_json(_report(mae_model_pct=value), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda text: text[: len(text) // 2],  # truncated
            lambda text: "[]",  # not an object
            lambda text: text.replace('"year": 2012', '"year": "2012"'),  # wrong type
            lambda text: text.replace('"year": 2012', '"year": 2012.5'),  # float for an int
            lambda text: text.replace('"actual": 0.4', '"actual": NaN'),  # non-finite token
            lambda text: text.replace('"actual": 0.4', '"actual": 1e999'),  # overflows to inf
            lambda text: text.replace('"normalize": false', '"normalize": 0'),  # int for a bool
            lambda text: text.replace("18,\n", "18, 30,\n"),  # three-item working_age
            lambda text: text.replace('"folds"', '"fold"'),  # missing required key
        ],
    )
    def test_malformed_report_raises_malformed_json(self, tmp_path, mutate):
        path = tmp_path / "report.json"
        save_report_json(_report(), path)
        mutated = mutate(path.read_text(encoding="utf-8"))
        assert mutated != path.read_text(encoding="utf-8")
        path.write_text(mutated, encoding="utf-8")
        with pytest.raises(MalformedJson, match=re.escape(str(path))) as info:
            load_report_json(path)
        assert isinstance(info.value, DataError)
        assert info.value.file == str(path)

    def test_non_utf8_file_raises_malformed_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"benchmark_mode": "\xff"}')
        with pytest.raises(MalformedJson):
            load_report_json(path)

    def test_deeply_nested_file_raises_malformed_json(self, tmp_path):
        """json's decoder gives up past the recursion limit; its `RecursionError` used to escape as a traceback."""
        path = tmp_path / "report.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        with pytest.raises(MalformedJson, match=re.escape(f"{path}: not a valid EvalReport file: maximum recursion")):
            load_report_json(path)

    def test_a_field_type_without_a_decoder_is_not_malformed_json(self, tmp_path):
        """A type hint the codec cannot read is the program's fault, so it is not reported as a bad file."""

        @dataclasses.dataclass
        class Tagged:
            ids: set[int]

        path = tmp_path / "tagged.json"
        path.write_text('{"ids": [1, 2]}', encoding="utf-8")
        with pytest.raises(NotImplementedError, match=r"^no JSON codec for set\[int\]$"):
            jsonio.load(path, Tagged)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report_json(tmp_path / "absent.json")


def test_json_is_imported_only_by_the_codec():
    importers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if re.search(r"^\s*(import json\b|from json\b)", path.read_text(encoding="utf-8"), re.MULTILINE)
    )
    assert importers == ["jsonio.py"]
