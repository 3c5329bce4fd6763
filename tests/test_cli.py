"""Command-line interface: exit codes, formats, warnings, and goldens."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmirror.cli import JobConfig, _json_text, main, run

HEXAGON_DOC = {
    "delta": {
        "dim": 2,
        "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]],
    },
    "parts": [[0, 1], [2, 4], [3, 5]],
}


@pytest.fixture()
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(HEXAGON_DOC))
    return str(path)


def _data(name):
    from conftest import DATA

    return str(DATA / name)


# ------------------------------------------------------------- exit codes


def test_missing_file_is_input_error(capsys):
    assert main(["euler", "no_such_file.json"]) == 2
    err = capsys.readouterr().err
    assert "error: cannot read no_such_file.json" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"delta": \n  oops}')
    assert main(["euler", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON at line 2 column 3" in err


def test_invalid_partition_is_input_error(tmp_path, capsys):
    doc = {
        "delta": {"dim": 3, "vertices": [[3, -1, -1], [-1, 3, -1], [-1, -1, 3], [-1, -1, -1]]},
        "parts": [[0, 1]],
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    assert main(["euler", str(path)]) == 2
    assert "invalid nef-partition input" in capsys.readouterr().err


QUARTIC_DOC = {
    "delta": {"dim": 3, "vertices": [[3, -1, -1], [-1, 3, -1], [-1, -1, 3], [-1, -1, -1]]},
    "parts": [[0, 1, 2, 3]],
}


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("parts", 0, 0), 0.7, "part index 0.7 is not an integer"),
        (("parts", 0, 1), True, "part index True is not an integer"),
        (("delta", "vertices", 0, 0), 3.9, "vertex coordinate 3.9 is not an integer"),
        (("delta", "vertices", 1, 2), False, "vertex coordinate False is not an integer"),
        (("delta", "dim"), 3.5, "dim 3.5 is not an integer"),
    ],
)
def test_non_integer_json_field_is_input_error(tmp_path, capsys, path, value, message):
    doc = json.loads(json.dumps(QUARTIC_DOC))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["euler", str(bad)]) == 2
    assert f"invalid nef-partition input: {message}" in capsys.readouterr().err


def test_multiparameter_input_is_computational_failure(hexagon_file, capsys):
    assert main(["mirror-map", hexagon_file]) == 3
    assert "multiparameter moduli unsupported" in capsys.readouterr().err


def test_bad_flags(capsys, monkeypatch):
    assert run(JobConfig(command="nope", input="x")) == 2
    assert "unknown command" in capsys.readouterr().err
    assert run(JobConfig(command="euler", input="x", fmt="xml")) == 2
    assert "unknown format" in capsys.readouterr().err
    assert main(["mirror-map", _data("p3_quartic.json"), "-N", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err
    for N in (10.5, "10", True):
        assert run(JobConfig(command="mirror-map", input=_data("p3_quartic.json"), N=N)) == 2
        assert f"series order N must be an integer, got {N!r}" in capsys.readouterr().err
    assert main(["yukawa", _data("p3_quartic.json"), "--normalization", "x/y"]) == 2
    assert "bad normalization" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["frobnicate", "x.json"])


def test_series_order_cap(capsys, monkeypatch):
    monkeypatch.setenv("FRACMIRROR_MAX_N", "5")
    assert main(["mirror-map", _data("p3_quartic.json"), "-N", "8"]) == 2
    assert "exceeds the cap 5" in capsys.readouterr().err
    monkeypatch.setenv("FRACMIRROR_MAX_N", "8")
    assert main(["mirror-map", _data("p3_quartic.json"), "-N", "8"]) == 0
    monkeypatch.setenv("FRACMIRROR_MAX_N", "abc")
    assert main(["mirror-map", _data("p3_quartic.json"), "-N", "60"]) == 2
    assert "FRACMIRROR_MAX_N must be an integer, got 'abc'" in capsys.readouterr().err
    # a cap below 1 is a bad setting, not a job over the cap
    for raw in ("0", "-3"):
        monkeypatch.setenv("FRACMIRROR_MAX_N", raw)
        assert main(["mirror-map", _data("p3_quartic.json"), "-N", "3"]) == 2
        err = capsys.readouterr().err
        assert f"FRACMIRROR_MAX_N must be a positive integer, got '{raw}'" in err
        assert "exceeds the cap" not in err


# ------------------------------------------------------------ subcommands


def test_dual_nef_warns_about_smoothness(capsys):
    assert main(["dual-nef", _data("p3_quartic.json")]) == 0
    out = capsys.readouterr()
    assert "smoothness hypothesis" in out.err
    assert "dual partition parts" in out.out


def test_euler_k3(capsys):
    assert main(["euler", _data("p2_k3.json")]) == 0
    out = capsys.readouterr().out
    assert "chi(Y) = 12" in out and "vol(Lambda) = 9" in out


def test_hodge_quartic(capsys):
    assert main(["hodge", _data("p3_quartic.json")]) == 0
    out = capsys.readouterr().out
    assert "h^{1,1} = 1" in out and "h^{2,1} = 31" in out


def test_gkz_table_shows_display_rows(capsys):
    assert main(["gkz", _data("p3_quartic.json")]) == 0
    out = capsys.readouterr().out
    assert "[  1   1   1   1   1]" in out
    assert "kernel vector: [-4, 1, 1, 1, 1]" in out
    assert "beta = (-1/2, 0, 0, 0)" in out


def test_pf_displays_factored_operator(capsys):
    assert main(["pf", _data("p3_eight_hyperplanes.json")]) == 0
    assert "theta^4 - z (theta + 1/2)^4" in capsys.readouterr().out


def test_mirror_map_json_payload(capsys):
    assert main(["mirror-map", _data("p3_quartic.json"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scale"] == 256
    assert payload["q_of_z"]["coeffs"][1:4] == ["1/256", "247/1024", "13386541/524288"]
    assert payload["z_of_q"]["coeffs"][1:4] == ["256", "-4046848", "18282602496"]


def test_yukawa_quartic_golden(capsys):
    assert main(["yukawa", _data("p3_quartic.json")]) == 0
    out = capsys.readouterr().out
    assert "38440454795264" in out and "normalization C = 2" in out


def test_yukawa_eight_hyperplanes_golden(capsys):
    assert main(["yukawa", _data("p3_eight_hyperplanes.json")]) == 0
    assert "30593496064" in capsys.readouterr().out


def test_yukawa_normalization_override(capsys):
    assert main(
        ["yukawa", _data("p3_quartic.json"), "--normalization", "3", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["C"] == "3" and payload["K_q"]["coeffs"][0] == "3"


def test_normalization_refuses_floats_and_bools(capsys):
    # Fraction() would take 0.1 as C = 3602879701896397/36028797018963968
    # and True as C = 1
    for C in (0.1, True, False):
        for command in ("yukawa", "bseries"):
            config = JobConfig(command=command, input=_data("p3_quartic.json"), N=4, normalization=C)
            assert run(config) == 2
            assert "bad normalization" in capsys.readouterr().err


def test_run_leaves_the_callers_config_unchanged(capsys):
    config = JobConfig(command="yukawa", input=_data("p3_quartic.json"),
                       N=6, normalization="3", fmt="json")
    outputs = []
    for _ in range(2):
        assert run(config) == 0
        assert config.normalization == "3"
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["C"] == "3"


def test_yukawa_skips_k3_surface(capsys):
    assert main(["yukawa", _data("p2_k3.json")]) == 0
    out = capsys.readouterr().out
    assert "skipped: Yukawa ODE defined for threefold operators" in out


def test_ifunction_quartic(capsys):
    assert main(["ifunction", _data("p3_quartic.json"), "-N", "4"]) == 0
    out = capsys.readouterr().out
    assert "weights: numerator [8], denominator [1, 1, 1, 1, 4]" in out
    assert "1680" in out and "15808" in out


def test_bseries_ring_description(capsys):
    assert main(["bseries", _data("p3_quartic.json"), "-N", "4"]) == 0
    out = capsys.readouterr().out
    assert "Q[eps]/(eps^4)" in out and "log-degree = 3" in out


def test_bseries_writes_a_given_normalization(capsys):
    argv = ["bseries", _data("p3_quartic.json"), "-N", "2", "--normalization", "3/2"]
    assert main(argv) == 0
    assert "ring: Q[eps]/(eps^4), integral scale 3/2\n" in capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    ring = json.loads(capsys.readouterr().out)["ring"]
    assert ring["integral_scale"] == "3/2" and ring["m"] == 4
    assert ring["classes"] == {"D_0_0": "-4", **{f"D_0_{j}": "1" for j in range(1, 5)}}


def test_all_sections(capsys):
    assert main(["all", _data("p2_k3.json"), "-N", "4"]) == 0
    out = capsys.readouterr().out
    for name in ("euler", "hodge", "gkz", "pf", "mirror-map", "yukawa"):
        assert f"== {name} ==" in out


def test_json_output_is_byte_stable(capsys):
    argv = ["all", _data("p3_quartic.json"), "-N", "4", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # parses cleanly


# ------------------------------------------------------------- JSON writer

# text with non-ASCII letters, quotes, backslashes and control characters
_texts = st.one_of(
    st.text(), st.sampled_from(["", '"', "\\", "\n\t\x00\x1f", "é", "\u2028", "😀", "a\\\"b"])
)
_ints = st.one_of(st.integers(-(2**200), 2**200), st.integers(-5, 5))
_scalars = st.one_of(_texts, _ints, st.booleans(), st.none())
# homogeneous leaf lists take the joined path, and mixed ones (bool with int,
# str with int) must not
_leaf_lists = st.one_of(
    st.lists(_texts), st.lists(_ints), st.lists(st.one_of(st.booleans(), _ints)),
    st.lists(st.one_of(_texts, _ints)),
)
_documents = st.recursive(
    st.one_of(_scalars, _leaf_lists, _leaf_lists.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_json_text_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    1.5, Fraction(1, 2), {1, 2}, {1: "a"}, {"a": [1, 2.0]}, [["x", Fraction(3)]],
], ids=["float", "Fraction", "set", "int key", "nested float", "nested Fraction"])
def test_json_text_refuses_what_json_would_not_write_exactly(doc):
    with pytest.raises(TypeError):
        _json_text(doc)


def test_cli_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fracmirror.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fracmirror.cli", "euler", _data("p3_quartic.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "chi(Y) = -60" in proc.stdout
