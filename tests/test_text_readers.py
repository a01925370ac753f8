"""Malformed event CSVs, score CSVs, label CSVs, pipeline configs and
scene configs fail with a domain error (so the CLI exits 1), never with
any other exception."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanom.cli import DOMAIN_ERRORS
from evanom.events import EventStream, parse_event_csv, write_event_csv
from evanom.pipeline import (PipelineConfig, ScoreSeries, read_label_csv,
                             read_score_csv, write_label_csv, write_score_csv)
from evanom.simulate import (ConfigError, LabelTrack, mixed_test_scene,
                             parse_scene_config, write_scene_config)

EVENTS = write_event_csv(EventStream.from_arrays(
    10, 8, [0, 9, 3, 7], [7, 0, 2, 5], [0, 95, 1_000_203, 123_456_789_012],
    [1, -1, -1, 1]))
SCORES = write_score_csv(ScoreSeries(
    100_000, 50_000, np.array([0.5, 0.03125, 2.0]), np.array([0, 1, 0])))
UNLABELLED = write_score_csv(ScoreSeries(0, 10, np.array([1.5, 0.0])))
LABELS = write_label_csv(LabelTrack(((0, 300, "normal"),
                                     (300, 400, "anomaly"))))
CONFIG = PipelineConfig().to_text()
SCENE = write_scene_config(mixed_test_scene(0, size=16))

# Characters that keep a mutated text close to the grammar, plus any other.
CHARS = st.one_of(st.sampled_from("0123456789,-=.e+_ \n#"), st.characters())
# Whole values put in place of a field.
FIELDS = st.one_of(st.sampled_from(["2", "-1", "300", str(2**63), "1" * 23]),
                   st.integers(-10**30, 10**30).map(str),
                   st.floats().map(repr), st.text(max_size=4))


def _mutate(data, text):
    """One of: whole fields replaced, characters edited, or a cut."""
    kind = data.draw(st.sampled_from(["fields", "chars", "cut"]))
    if kind == "fields":
        parts = re.split(r"([,=\n])", text)  # fields at even indices
        for i, value in data.draw(st.lists(st.tuples(
                st.integers(0, len(parts) // 2), FIELDS), min_size=1,
                max_size=2)):
            parts[-1 - 2 * i] = value  # counted from the end, off the header
        return "".join(parts)
    if kind == "chars":
        for pos, ch, how in data.draw(st.lists(st.tuples(
                st.integers(0, len(text)), CHARS,
                st.sampled_from(["put", "insert", "delete"])),
                min_size=1, max_size=6)):
            if how == "put":
                text = text[:pos] + ch + text[pos + 1:]
            elif how == "insert":
                text = text[:pos] + ch + text[pos:]
            else:
                text = text[:pos] + text[pos + 1:]
        return text
    return text[:data.draw(st.integers(0, len(text)))]


def _parses_or_domain_error(read, text):
    try:
        read(text)
    except DOMAIN_ERRORS:
        pass


READERS = [(EVENTS, lambda text: parse_event_csv(text, 10, 8)),
           (SCORES, read_score_csv), (UNLABELLED, read_score_csv),
           (LABELS, read_label_csv), (CONFIG, PipelineConfig.from_text),
           (SCENE, parse_scene_config)]
IDS = ["events", "scores", "unlabelled", "labels", "config", "scene"]


@pytest.mark.parametrize("text, read", READERS, ids=IDS)
def test_every_truncation_parses_or_is_a_domain_error(text, read):
    read(text)
    for cut in range(len(text)):
        _parses_or_domain_error(read, text[:cut])


@pytest.mark.parametrize("text, read", READERS, ids=IDS)
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_text_parses_or_is_a_domain_error(text, read, data):
    _parses_or_domain_error(read, _mutate(data, text))


@pytest.mark.parametrize("rows, line, match", [
    ("0,300,anomoly", 2, "label 'anomoly'"),
    ("0,300,normal\n300,400,Anomaly", 3, "label 'Anomaly'"),
    ("0,300,", 2, "label ''"),
    ("0,300", 2, "expected 3"),
    ("0,300,normal\nx,400,anomaly", 3, "invalid literal"),
    ("200,100,anomaly", 2, "end 100"),
    ("0,300,normal\n300,300,anomaly", 3, "end 300"),
    ("300,400,anomaly\n0,300,normal", 3, "before the previous"),
    ("0,300,normal\n200,400,anomaly", 3, "before the previous"),
])
def test_label_csv_rejects_bad_rows(rows, line, match):
    text = f"t0_us,t1_us,label\n{rows}\n"
    with pytest.raises(ValueError, match=f"line {line}: .*{match}"):
        read_label_csv(text)


def test_label_csv_accepts_touching_and_gapped_intervals():
    track = read_label_csv("t0_us,t1_us,label\n0,300,normal\n"
                           "300,400,anomaly\n500,600,anomaly\n")
    assert track.intervals == ((0, 300, "normal"), (300, 400, "anomaly"),
                               (500, 600, "anomaly"))


def test_scene_config_missing_object_key_is_a_config_error():
    text = "".join(ln + "\n" for ln in SCENE.splitlines()
                   if not ln.startswith("object.1.start="))
    with pytest.raises(ConfigError, match="object.1.start"):
        parse_scene_config(text)


# An explicit object.0.active keeps ObjectSpec's own check from firing,
# so only SceneConfig can reject the duration.
@pytest.mark.parametrize("duration", [0, -5000])
def test_scene_config_rejects_non_positive_duration(duration):
    text = ("width=8\nheight=8\nmicro_step_us=1000\n"
            f"duration_us={duration}\n"
            "object.0.shape=rect:2x2\nobject.0.start=0,0\n"
            "object.0.velocity=0:10,0\nobject.0.active=0,1000\n")
    with pytest.raises(ConfigError, match="duration"):
        parse_scene_config(text)
