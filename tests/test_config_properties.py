"""Properties of the strict config parser: round trip and rejection."""

import pytest
from hypothesis import example, given, settings, strategies as st

from multiscale_portfolio.experiments import (
    _REQUIRED,
    _SCHEMA,
    DEFAULT_CONFIG_TEXT,
    ConfigError,
    _parse_bool,
    _parse_deltas,
    _parse_float_list,
    parse_config_text,
    run_cli,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_LISTS = st.lists(FLOATS, min_size=1, max_size=4).map(tuple)
WORDS = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12)
SPELLINGS = {True: ("true", "yes", "on", "1", "True"), False: ("false", "no", "off", "0", "FALSE")}


def _render(value):
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _booleans():
    return st.booleans().flatmap(lambda b: st.sampled_from(SPELLINGS[b]).map(lambda s: (b, s)))


# parser -> strategy of (parsed value, its text)
_VALUES = {
    str.strip: WORDS.map(lambda w: (w, w)),
    float: FLOATS.map(lambda v: (v, _render(v))),
    int: st.integers().map(lambda v: (v, _render(v))),
    _parse_float_list: FLOAT_LISTS.map(lambda v: (v, _render(v))),
    _parse_deltas: st.one_of(st.just(("match", "match")),
                             FLOAT_LISTS.map(lambda v: (v, _render(v)))),
    _parse_bool: _booleans(),
}


@st.composite
def configs(draw):
    """A config text over any subset of the schema's keys (every required one
    included), keys in any order, with the values it must parse to."""
    expected, lines = {}, []
    for section in draw(st.permutations(list(_SCHEMA))):
        keys = [k for k, (_, default) in _SCHEMA[section].items()
                if default is _REQUIRED or draw(st.booleans())]
        expected[section] = {k: default for k, (_, default) in _SCHEMA[section].items()}
        if not keys:
            continue
        lines.append(f"[{section}]")
        for key in draw(st.permutations(keys)):
            value, text = draw(_VALUES[_SCHEMA[section][key][0]])
            expected[section][key] = value
            comment = draw(st.sampled_from(("", "  # a note")))
            lines.append(f"{key} = {text}{comment}")
        lines.append("")
    return "\n".join(lines), expected


@PROPERTY
@given(config=configs())
def test_any_subset_of_schema_keys_round_trips(config):
    text, expected = config
    assert parse_config_text(text) == expected


KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True)


@PROPERTY
@given(section=st.sampled_from(list(_SCHEMA)), key=KEYS, where=st.integers(0, 99))
@example(section="sim", key="antithetic", where=0)
@example(section="sim", key="control_variate", where=99)
def test_a_key_outside_its_section_schema_is_rejected_with_its_line(section, key, where):
    if key in _SCHEMA[section]:
        return
    lines = DEFAULT_CONFIG_TEXT.splitlines()
    header = lines.index(f"[{section}]")
    end = next((i for i in range(header + 1, len(lines)) if lines[i].startswith("[")),
               len(lines))
    at = header + 1 + where % (end - header)  # anywhere in the section
    lines.insert(at, f"{key} = 1")
    with pytest.raises(ConfigError) as err:
        parse_config_text("\n".join(lines))
    assert err.value.line == at + 1
    assert str(err.value) == f"line {at + 1}: unknown key {key!r} in section [{section}]"


@pytest.mark.parametrize("setting", ["antithetic = true", "control_variate = false"],
                         ids=["antithetic", "control_variate"])
def test_a_removed_sampling_switch_fails_loudly(tmp_path, capsys, setting):
    # every run is antithetic with the control variate; an old config that
    # still names either switch is an error, never silently ignored
    lines = DEFAULT_CONFIG_TEXT.splitlines()
    at = lines.index("seed = 20270811") + 1
    lines.insert(at, setting)
    old = tmp_path / "old.cfg"
    old.write_text("\n".join(lines) + "\n")
    code = run_cli(["residual-study", "--config", str(old), "--out", str(tmp_path)])
    key = setting.split(" = ")[0]
    assert code == 2
    assert f"line {at + 1}: unknown key {key!r} in section [sim]" in capsys.readouterr().out
