"""Config file parsing, validation, and exact save/load round trips."""

import pytest

from cverisk.config import ConfigError, config_from_dict, config_to_dict, load_config, save_config
from cverisk.encoding import DEFAULT_MAPS
from cverisk.model import ModelConfig, ModelWeights, SeverityThresholds
from cverisk.vector import AttackVector


def test_round_trip_is_exact(tmp_path):
    config = ModelConfig(
        weights=ModelWeights(
            alpha=0.30000000000000004,
            beta=0.25,
            gamma=0.44999999999999996,
            lambda_c=0.75,
            lambda_i=1.0,
            lambda_a=0.5,
            kappa=1.15,
            delta=0.1,
        ),
        thresholds=SeverityThresholds(3.9, 6.9, 8.9),
    )
    path = save_config(config, tmp_path / "model_config.txt")
    loaded = load_config(path)
    assert loaded == config
    assert loaded.weights.alpha == 0.30000000000000004  # repr precision survives


def test_default_config_round_trip(tmp_path):
    path = save_config(ModelConfig(), tmp_path / "c.txt")
    assert load_config(path) == ModelConfig()


def test_comments_blank_lines_and_spacing(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "# fitted on the January window\n"
        "\n"
        "alpha=0.5\n"
        "beta = 0.25   # trailing comment\n"
        "  gamma =0.25\n",
        encoding="utf-8",
    )
    config = load_config(path)
    assert (config.weights.alpha, config.weights.beta, config.weights.gamma) == (0.5, 0.25, 0.25)
    assert config.weights.kappa == 1.0  # omitted keys keep defaults


def test_duplicate_key_reports_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("kappa = 1.0\nkappa = 1.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2: duplicate key kappa"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("kapa = 1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown configuration key"):
        load_config(path)


def test_non_numeric_value_reports_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha = 0.5\nbeta = high\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2: 'high' is not a number"):
        load_config(path)


def test_missing_equals_sign(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_weight_sum_violation_becomes_config_error(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha = 0.5\nbeta = 0.5\ngamma = 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("line", ["alpha = nan", "kappa = inf", "delta = nan"])
def test_non_finite_weight_becomes_config_error(tmp_path, line):
    path = tmp_path / "c.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="must be finite"):
        load_config(path)


def test_non_utf8_file_becomes_config_error(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"alpha = 0.5 # \xff\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


def test_threshold_ordering_violation(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("tau1 = 8.0\ntau2 = 7.0\ntau3 = 9.0\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_impact_level_values_cannot_be_overridden(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("eta.L = 0.3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="0.22"):
        load_config(path)


def test_encoding_overrides_are_applied(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("phi.P = 0.1\n", encoding="utf-8")
    config = load_config(path)
    assert config.maps.phi[AttackVector.PHYSICAL] == 0.1
    assert config.maps.phi[AttackVector.NETWORK] == DEFAULT_MAPS.phi[AttackVector.NETWORK]


def test_config_to_dict_covers_every_key():
    flat = config_to_dict(ModelConfig())
    assert len(flat) == 23
    assert flat["alpha"] == pytest.approx(1 / 3)
    assert flat["phi.N"] == 1.0
    assert flat["psi.H"] == pytest.approx(0.44 / 0.77)
    assert flat["omega.H"] == pytest.approx(0.27 / 0.85)
    assert flat["eta.H"] == 0.56
    assert flat["tau3"] == 9.0
    assert config_from_dict(flat) == ModelConfig()


def test_config_from_dict_rejects_unknowns():
    with pytest.raises(ConfigError, match="kappa_2"):
        config_from_dict({"kappa_2": 1.0})
