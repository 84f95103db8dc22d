"""Synthetic trace generation determinism and JSONL record/replay."""

import json

import pytest

from repro.sim import ChurnSpec, SyntheticTrace, TRACE_FORMAT, load_trace, save_trace

DAY_S = 86400.0


class TestChurnSpec:
    def test_defaults_valid(self):
        spec = ChurnSpec()
        assert spec.family == "diurnal"

    def test_round_trip(self):
        spec = ChurnSpec(family="flash_crowd", drains_per_day=5.0)
        assert ChurnSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "mystery"},
            {"peak_per_minute": 0.0},
            {"trough_per_minute": -1.0},
            {"arrival_fraction": 1.5},
            {"resizes_per_hour": -0.1},
            {"failures_per_day": -2.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChurnSpec(**kwargs)


class TestSyntheticTrace:
    @pytest.mark.parametrize("family", ["diurnal", "flash_crowd", "abnormal"])
    def test_same_seed_identical_stream(self, family):
        spec = ChurnSpec(family=family)
        first = SyntheticTrace(spec, seed=3).generate(DAY_S)
        second = SyntheticTrace(spec, seed=3).generate(DAY_S)
        assert first == second
        assert first, f"family {family} generated no events"

    def test_different_seed_differs(self):
        spec = ChurnSpec()
        assert SyntheticTrace(spec, seed=1).generate(DAY_S) != SyntheticTrace(
            spec, seed=2
        ).generate(DAY_S)

    def test_events_sorted_and_within_horizon(self):
        horizon = 2.5 * 3600.0
        events = SyntheticTrace(ChurnSpec(), seed=0).generate(horizon)
        times = [event.time_s for event in events]
        assert times == sorted(times)
        assert all(0.0 <= t < horizon for t in times)

    def test_structural_kinds_present_over_long_horizon(self):
        spec = ChurnSpec(drains_per_day=10.0, failures_per_day=10.0, adds_per_day=10.0,
                         resizes_per_hour=4.0)
        events = SyntheticTrace(spec, seed=0).generate(3 * DAY_S)
        kinds = {event.kind for event in events}
        assert {"arrival", "exit", "resize", "pm_drain", "pm_fail", "pm_add"} <= kinds

    def test_zero_horizon_empty(self):
        assert SyntheticTrace(ChurnSpec(), seed=0).generate(0.0) == []


class TestRecordReplay:
    def test_save_load_round_trip(self, tmp_path):
        events = SyntheticTrace(ChurnSpec(), seed=9).generate(6 * 3600.0)
        path = save_trace(events, tmp_path / "trace.jsonl", meta={"seed": 9})
        header, loaded = load_trace(path)
        assert loaded == events
        assert header["format"] == TRACE_FORMAT
        assert header["num_events"] == len(events)
        assert header["meta"] == {"seed": 9}

    def test_truncated_file_detected(self, tmp_path):
        events = SyntheticTrace(ChurnSpec(), seed=9).generate(6 * 3600.0)
        path = save_trace(events, tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text(json.dumps({"format": "csv"}) + "\n")
        with pytest.raises(ValueError, match="not a"):
            load_trace(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"format": TRACE_FORMAT, "version": 99}) + "\n")
        with pytest.raises(ValueError, match="newer"):
            load_trace(path)

    def test_bad_event_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": 1, "num_events": 1}) + "\n"
            + json.dumps({"time_s": 1.0, "kind": "defrag"}) + "\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    def test_nan_event_time_reports_location(self, tmp_path):
        # json accepts NaN; a NaN time would never come due and would block
        # every later event of the replay.
        path = tmp_path / "nan.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": 1, "num_events": 2}) + "\n"
            + json.dumps({"time_s": float("nan"), "kind": "arrival"}) + "\n"
            + json.dumps({"time_s": 1.0, "kind": "exit"}) + "\n"
        )
        with pytest.raises(ValueError, match="finite") as info:
            load_trace(path)
        assert f"{path}:2:" in str(info.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"version": None}, "version must be an integer"),
            ({"version": "two"}, "version must be an integer"),
            ({"num_events": True}, "num_events must be an integer"),
            ({"num_events": 0.5}, "num_events must be an integer"),
            ({"meta": ["not", "an", "object"]}, "meta must be an object"),
            ({"meta": "seed=1"}, "meta must be an object"),
            ({"meta": None}, "meta must be an object"),
            ({"meta": {"horizon_s": float("nan")}}, "horizon_s must be a finite positive"),
            ({"meta": {"horizon_s": float("inf")}}, "horizon_s must be a finite positive"),
            ({"meta": {"horizon_s": -60.0}}, "horizon_s must be a finite positive"),
            ({"meta": {"horizon_s": "1d"}}, "horizon_s must be a finite positive"),
            ({"meta": {"horizon_s": True}}, "horizon_s must be a finite positive"),
        ],
    )
    def test_bad_header_fields_name_the_file(self, tmp_path, fields, message):
        path = tmp_path / "bad_header.jsonl"
        header = {"format": TRACE_FORMAT, "version": 1, **fields}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            load_trace(path)
        assert str(path) in str(info.value)

    def test_unparsable_header_names_the_file(self, tmp_path):
        path = tmp_path / "garbled.jsonl"
        path.write_text('{"format": \n')
        with pytest.raises(ValueError, match="bad trace header") as info:
            load_trace(path)
        assert str(path) in str(info.value)

    def test_integral_header_fields_load(self, tmp_path):
        events = SyntheticTrace(ChurnSpec(), seed=9).generate(3600.0)
        path = save_trace(events, tmp_path / "trace.jsonl", meta={"horizon_s": 3600})
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.update(version="1", num_events=float(len(events)))
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        loaded_header, loaded = load_trace(path)
        assert loaded == events
        assert loaded_header["meta"] == {"horizon_s": 3600}
