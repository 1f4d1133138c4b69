"""Tuning inputs are validated where they enter: ``ServeConfig``,
``autotune_power`` and the ``repro tune`` command line."""

import pytest

from repro.cli import main
from repro.serve import ServeConfig


@pytest.mark.parametrize("field, value", [
    ("tune_k", 0),
    ("tune_k", -1),
    ("tune_repeats", 0),
    ("tune_max_candidates", 0),
    ("tune_max_candidates", -3),
])
def test_serve_config_rejects_bad_tuning_inputs(field, value):
    with pytest.raises(ValueError, match=field):
        ServeConfig(**{field: value}).validate()


def test_serve_config_max_candidates_none_means_no_cap():
    assert ServeConfig(tune_max_candidates=None).validate() \
        .tune_max_candidates is None


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_max_candidates_below_one_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--standin", "cant", "--rows", "200",
              "--max-candidates", value])
    assert exc.value.code == 2
    assert "--max-candidates" in capsys.readouterr().err
