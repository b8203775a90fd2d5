import pytest

from pfnet.config import (
    ConfigError,
    default_config,
    echo_config,
    load_config,
    packaged_config_path,
    parse_config_text,
)


@pytest.mark.parametrize(
    "text,lineno",
    [
        pytest.param("[data]\ncanvas = 64\n[nosuch]\n", 3, id="unknown-section"),
        pytest.param("# comment\n[data]\nnosuch = 1\n", 3, id="unknown-key"),
        pytest.param("[data]\n\ncanvas = big\n", 3, id="bad-int"),
        pytest.param("[network]\nuse_ppm = maybe\n", 2, id="bad-bool"),
        pytest.param("[network]\nbackbone_channels = 16,x\n", 2, id="bad-int-list"),
        pytest.param("canvas = 64\n", 1, id="key-outside-section"),
        pytest.param("[data]\ncanvas 64\n", 2, id="no-equals"),
    ],
)
def test_config_errors_name_origin_and_line(text, lineno):
    with pytest.raises(ConfigError, match=f"^run.cfg:{lineno}: "):
        parse_config_text(text, origin="run.cfg")


@pytest.mark.parametrize("name", [None, "desk", "default"])
def test_echo_then_parse_is_a_fixed_point(name):
    cfg = default_config() if name is None else load_config(packaged_config_path(name))
    assert parse_config_text(echo_config(cfg)) == cfg
