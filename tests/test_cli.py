"""CLI subcommands, exit codes, serialization round-trips, SVG export."""

import json
import math
import os
import subprocess
import sys

import pytest

from conftest import subprocess_env
from tetrageo import report
from tetrageo.cli import main
from tetrageo.combinat import GeodesicType, crossing_sequence
from tetrageo.counting import count_exact
from tetrageo.existence import exists_geodesic
from tetrageo.existence import exists_geodesic, threshold_beta
from tetrageo.geom import SpaceKind
from tetrageo.paths import midpoint_geodesic
from tetrageo.tetra import TetrahedronSpec
from tetrageo.unfold import build_development

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_construct_json(tmp_path):
    code, text = run_cli(["construct", "--space", "hyperbolic", "--alpha", "0.5",
                          "--p", "1", "--q", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["path"]["type"] == [1, 2]
    assert doc["path"]["closed"] is True
    assert doc["path"]["simple"] is True
    assert len(doc["development"]["faces"]) == 12
    assert set(doc["development"]["symmetry_points"]) == {"X1", "Y1", "X2", "Y2", "X1p"}


def test_construct_euclid_and_deg(tmp_path):
    code, text = run_cli(["construct", "--space", "euclidean", "--p", "2", "--q", "3"],
                         tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["path"]["length"] == pytest.approx(2 * math.sqrt(19), abs=1e-10)
    code, text = run_cli(["construct", "--space", "spherical", "--alpha", "80",
                          "--deg", "--p", "0", "--q", "1"], tmp_path)
    assert code == 0
    assert json.loads(text)["path"]["closed"] is True


@pytest.mark.parametrize("pq", [(2, 37), (11, 29), (19, 21)])
def test_construct_strands_within_rounding(pq, tmp_path):
    # two strands of each path cross one edge closer than rounding
    code, text = run_cli(["construct", "--space", "hyperbolic", "--alpha", "0.1",
                          "--p", str(pq[0]), "--q", str(pq[1])], tmp_path)
    assert code == 0
    assert json.loads(text)["path"]["simple"] is True


def test_construct_generic(tmp_path):
    code, text = run_cli(["construct", "--space", "hyperbolic",
                          "--edges", "2.0,2.0,2.0,2.2,2.2,2.2",
                          "--p", "1", "--q", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["development"]["alpha"] is None
    assert doc["development"]["edges"]["34"] == 2.2


def test_exists_exit_codes(tmp_path):
    code, text = run_cli(["exists", "--space", "spherical", "--alpha", "1.40",
                          "--p", "1", "--q", "2"], tmp_path)
    assert code == 3
    doc = json.loads(text)
    assert doc["outcome"] == "not_exists"
    assert doc["alpha2"] == pytest.approx(1.3409621366164460)
    assert abs(doc["beta"] - 2 * math.pi / 5) < 1e-9
    assert doc["reason"] == "alpha at or above the threshold beta"
    code, text = run_cli(["exists", "--space", "spherical", "--alpha", "1.885",
                          "--p", "0", "--q", "1"], tmp_path)
    assert code == 0
    assert json.loads(text)["outcome"] == "exists"


def test_exists_inside_the_threshold_bracket_exits_4(tmp_path):
    t = GeodesicType(1, 2)
    bracket = threshold_beta(t, 1e-9)
    code, text = run_cli(["exists", "--space", "spherical",
                          "--alpha", repr((bracket.lo + bracket.hi) / 2), "--p", "1", "--q", "2"],
                         tmp_path)
    assert code == 4
    doc = json.loads(text)
    assert doc["outcome"] == "undetermined"
    assert doc["reason"] == "alpha within the threshold bracket"


def test_exists_rejects_nonspherical(tmp_path):
    code, _ = run_cli(["exists", "--space", "hyperbolic", "--alpha", "0.5",
                       "--p", "0", "--q", "1"], tmp_path)
    assert code == 2


def test_threshold(tmp_path):
    code, text = run_cli(["threshold", "--p", "1", "--q", "1", "--tol", "1e-5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["beta"] == pytest.approx(math.pi / 2, abs=1e-4)
    assert doc["bracket"][0] <= doc["beta"] <= doc["bracket"][1]
    code, text = run_cli(["threshold", "--p", "1", "--q", "1", "--tol", "1e-12"], tmp_path)
    lo, hi = json.loads(text)["bracket"]
    assert code == 0 and lo <= math.pi / 2 <= hi and hi - lo <= 1e-12
    code, _ = run_cli(["threshold", "--p", "0", "--q", "1"], tmp_path)
    assert code == 3


def test_bounds(tmp_path):
    code, text = run_cli(["bounds", "--p", "3", "--q", "4", "--alpha", "0.5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["alpha2"] is not None
    assert doc["epsilon"] is not None and doc["epsilon"] > 0
    assert doc["epsilon_detail"]["epsilon_index_variant"] > doc["epsilon"]
    assert doc["hyperbolic"]["clearance_bound"] > 0
    code, text = run_cli(["bounds", "--p", "1", "--q", "2"], tmp_path)
    doc = json.loads(text)
    assert doc["epsilon"] is None          # degenerate for p+q <= 6
    assert doc["alpha2"] is not None
    code, text = run_cli(["bounds", "--p", "0", "--q", "1"], tmp_path)
    doc = json.loads(text)
    assert code == 0
    assert doc["alpha2"] is None and doc["alpha2_note"]


def test_count_json_and_csv(tmp_path):
    code, text = run_cli(["count", "--alpha", "0.5", "--L", "14"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["exact"] % 3 == 0
    assert doc["exact"] <= doc["bound"]
    assert doc["c_derived"] < doc["c_printed"]
    code, text = run_cli(["count", "--alpha", "0.5", "--L", "14", "--format", "csv"],
                         tmp_path, "out.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "p,q,length,clearance"
    assert lines[1].startswith("0,1,")


def test_invalid_inputs(tmp_path):
    code, _ = run_cli(["construct", "--space", "spherical", "--alpha", "0.9",
                       "--p", "2", "--q", "4"], tmp_path)
    assert code == 2               # non-coprime type
    code, _ = run_cli(["construct", "--space", "spherical", "--alpha", "3.0",
                       "--p", "0", "--q", "1"], tmp_path)
    assert code == 2               # angle out of range
    code, _ = run_cli(["exists", "--space", "spherical", "--alpha", "0.9",
                       "--edge", "1.0", "--p", "0", "--q", "1"], tmp_path)
    assert code == 2               # alpha and edge together


def test_nonfinite_inputs_exit_2(tmp_path):
    for value in ("nan", "inf"):
        code, text = run_cli(["threshold", "--p", "1", "--q", "1", "--tol", value], tmp_path)
        assert (code, text) == (2, "")
        code, text = run_cli(["count", "--alpha", "0.5", "--L", value], tmp_path)
        assert (code, text) == (2, "")


@pytest.mark.parametrize("args", [
    ["construct", "--space", "hyperbolic", "--alpha", "1e-10"],   # cos(alpha) rounds to 1
    ["count", "--alpha", "1e-300", "--L", "20"],
    ["construct", "--space", "hyperbolic", "--edge", "1e300"],    # cosh(edge) overflows
    ["construct", "--space", "euclidean", "--mu", "inf"],         # Fraction(inf) overflows
], ids=["tiny-alpha", "count-tiny-alpha", "huge-edge", "infinite-mu"])
def test_extreme_inputs_exit_2(args, tmp_path):
    if args[0] == "construct":
        args = args + ["--p", "1", "--q", "2"]
    assert run_cli(args, tmp_path) == (2, "")


FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")
FUZZ_FLAGS = (
    [(["construct", "--space", space, "--p", "1", "--q", "2"], flag)
     for space in ("euclidean", "spherical", "hyperbolic") for flag in ("--alpha", "--edge")]
    + [(["construct", "--space", "euclidean", "--p", "1", "--q", "2"], "--mu"),
       (["exists", "--space", "spherical", "--p", "1", "--q", "2"], "--alpha"),
       (["exists", "--space", "spherical", "--p", "1", "--q", "2"], "--edge"),
       (["threshold", "--p", "1", "--q", "2"], "--tol"),
       (["bounds", "--p", "3", "--q", "4"], "--alpha"),
       (["count", "--L", "20"], "--alpha"),
       (["count", "--alpha", "0.5"], "--L")])


def test_cli_fuzz_float_flags(tmp_path, capsys):
    # an uncaught exception would escape main() with its traceback
    for base, flag in FUZZ_FLAGS:
        for value in FUZZ_VALUES:
            code, _ = run_cli(base + [f"{flag}={value}"], tmp_path)
            assert code in (0, 2, 3, 4), (base, flag, value)
    for value in FUZZ_VALUES + ("100", "400", "800"):   # generic edges past the longest edge
        edges = ",".join([value] * 6)
        code, _ = run_cli(["construct", "--space", "hyperbolic", "--p", "1", "--q", "2",
                           f"--edges={edges}"], tmp_path)
        assert code == 2, value
    # counting runs in one process: no --jobs flag, and count_exact takes jobs=1 only
    code, _ = run_cli(["count", "--alpha", "0.5", "--L", "20", "--jobs", "1"], tmp_path)
    assert code == 2
    with pytest.raises(ValueError, match="jobs must be 1"):
        count_exact(20, 0.5, jobs=2)
    assert "Traceback" not in capsys.readouterr().err


def test_not_exists_construct_exit(tmp_path):
    code, _ = run_cli(["construct", "--space", "spherical", "--alpha", "1.30",
                       "--p", "1", "--q", "2"], tmp_path)
    assert code == 3


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space=spherical\nalpha=1.885\np=0\nq=1\n")
    out = tmp_path / "cfg_out.json"
    code = main(["exists", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["outcome"] == "exists"
    # explicit flags win over the config
    code = main(["exists", "--config", str(cfg), "--alpha", "1.40", "--p", "1",
                 "--q", "2", "--out", str(out)])
    assert code == 3


def test_config_file_loses_to_explicit_flags_in_both_forms(tmp_path):
    # --alpha=1.40 was ignored: the config's (0,1) at 1.885 ran and exited 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nspace=spherical\nalpha=1.885\n  # indented\np=0\nq=1\n")
    out = tmp_path / "cfg_out.json"
    assert main(["exists", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outcome"] == "exists"
    for explicit in (["--alpha=1.40", "--p=1", "--q=2"],
                     ["--alpha", "1.40", "--p", "1", "--q", "2"]):
        assert main(["exists", "--config", str(cfg), *explicit, "--out", str(out)]) == 3
        assert main(["exists", *explicit, f"--config={cfg}", "--out", str(out)]) == 3
        assert main(["--config", str(cfg), "exists", *explicit, "--out", str(out)]) == 3


def test_config_file_true_and_false_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "cfg_out.json"
    for deg, code in (("false", 0), ("true", 2), ("", 2)):
        # in degrees 1.885 is below pi/3: an invalid spherical angle
        cfg.write_text(f"alpha=1.885\np=0\nq=1\ndeg={deg}\n")
        assert main(["exists", "--config", str(cfg), "--out", str(out)]) == code, deg


@pytest.mark.parametrize("args", [["--config"], ["--config", "{missing}"],
                                  ["--config", "{directory}"]])
def test_config_file_that_cannot_be_read_exits_2(tmp_path, capsys, args):
    # a bare --config raised IndexError, an unreadable path FileNotFoundError
    # or IsADirectoryError
    args = [a.format(missing=tmp_path / "none.cfg", directory=tmp_path) for a in args]
    assert main(["exists", "--alpha", "1.2", "--p", "0", "--q", "1", *args]) == 2
    err = capsys.readouterr().err
    assert "--config" in err and "Traceback" not in err


def test_json_round_trip():
    spec = TetrahedronSpec(SpaceKind.SPHERICAL, 1.2)
    t = GeodesicType(1, 2)
    path = midpoint_geodesic(spec, t)
    dev = build_development(spec, crossing_sequence(t), hemisphere_check=False)
    verdict = exists_geodesic(spec, t)
    rep = count_exact(10.0, 0.5)
    for doc in (report.path_to_dict(path), report.development_to_dict(dev),
                report.verdict_to_dict(verdict), report.count_to_dict(rep)):
        text = report.dumps(doc)
        parsed = report.loads(text)
        assert parsed == report.loads(report.dumps(parsed))
        assert report.dumps(parsed) == text


def test_dumps_nonfinite_floats():
    assert report.dumps(math.nan) == "null"
    assert report.dumps([math.inf, -math.inf, 1.0]) == '["inf", "-inf", 1.0]'
    assert report.dumps({"x": math.nan}) == '{\n  "x": null\n}'


def test_svg_golden(tmp_path):
    out = tmp_path / "dev.svg"
    code = main(["construct", "--space", "hyperbolic", "--alpha", "0.5235987756",
                 "--p", "1", "--q", "2", "--format", "svg", "--out", str(out)])
    assert code == 0
    golden = open(os.path.join(DATA, "golden_construct_h12.svg")).read()
    assert out.read_text() == golden


def test_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["verify", "--out", str(out1)]) == 0
    assert main(["verify", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    doc = json.loads(b1)
    assert doc["passed"] is True


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tetrageo.cli", "bounds", "--p", "1", "--q", "2"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha2"] is not None


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "tetrageo", "--help"],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_svg_all_spaces(tmp_path):
    import xml.etree.ElementTree as ET
    ns = {"svg": "http://www.w3.org/2000/svg"}
    for args, face_edges in ((["--space", "euclidean", "--p", "1", "--q", "2"], 25),
                             (["--space", "spherical", "--alpha", "1.2",
                               "--p", "1", "--q", "1"], 17),
                             (["--space", "hyperbolic",
                               "--edges", "2.0,2.0,2.0,2.2,2.2,2.2",
                               "--p", "0", "--q", "1"], 9)):
        out = tmp_path / "dev.svg"
        code = main(["construct"] + args + ["--format", "svg", "--out", str(out)])
        assert code == 0
        root = ET.parse(out).getroot()
        classes = {}
        for el in root.iter():
            c = el.get("class")
            if c:
                classes[c] = classes.get(c, 0) + 1
        assert classes["face-edge"] == face_edges, classes
        assert classes["boundary"] == 1
        assert classes["geodesic"] == 1
        assert classes["symmetry-point"] == 5


def test_euclid_mu_vertex_hit_exit(tmp_path):
    code, _ = run_cli(["construct", "--space", "euclidean", "--p", "2", "--q", "3",
                       "--mu", "0.3333333333333333"], tmp_path)
    assert code == 2   # mu on a forbidden residue
    code, _ = run_cli(["construct", "--space", "euclidean", "--p", "2", "--q", "3",
                       "--mu", "0.4"], tmp_path)
    assert code == 0


def test_construct_exits_4_on_failed_closure(tmp_path, capsys):
    # at mu = 1e-8 the angles are taken 1e-8 from a vertex and the closure
    # residual exceeds its gate: the path must not be printed with exit 0
    args = ["construct", "--space", "euclidean", "--p", "1", "--q", "2"]
    assert run_cli(args + ["--mu", "1e-8"], tmp_path) == (4, "")
    assert "closure check" in capsys.readouterr().err
    code, text = run_cli(args + ["--mu", "1e-7"], tmp_path)
    assert code == 0 and json.loads(text)["path"]["closed"] is True


@pytest.mark.parametrize("pq", [(1, 12), (5, 12), (2, 15)])
def test_tiny_hyperbolic_angle_never_domain_error(pq, tmp_path, capsys):
    # <D, D> rounds negative on edges of length 33.6; such a segment is
    # skipped by the chord solver instead of raising "math domain error"
    args = ["construct", "--space", "hyperbolic", "--alpha", "1e-7",
            "--p", str(pq[0]), "--q", str(pq[1])]
    code, _ = run_cli(args, tmp_path)
    assert code in (0, 4)
    assert "math domain error" not in capsys.readouterr().err


def test_small_hyperbolic_angle_count_and_construct(tmp_path):
    code, text = run_cli(["count", "--alpha", "0.01", "--L", "20"], tmp_path)
    assert code == 0
    assert json.loads(text)["exact"] > 0
    code, text = run_cli(["construct", "--space", "hyperbolic", "--alpha", "0.01",
                          "--p", "1", "--q", "2"], tmp_path, "path.json")
    assert code == 0
    assert json.loads(text)["path"]["closed"] is True


def test_count_deg_flag(tmp_path):
    import math
    code, text = run_cli(["count", "--alpha", str(math.degrees(0.5)), "--deg",
                          "--L", "14"], tmp_path)
    assert code == 0
    code2, text2 = run_cli(["count", "--alpha", "0.5", "--L", "14"], tmp_path, "b.json")
    assert json.loads(text)["exact"] == json.loads(text2)["exact"]


def test_construct_deep_hyperbolic(tmp_path):
    # extreme chains saturate the display chart but must not crash; the
    # path itself is exact
    code, text = run_cli(["construct", "--space", "hyperbolic", "--alpha", "0.05",
                          "--p", "7", "--q", "13"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["path"]["closed"] is True
    assert doc["path"]["simple"] is True

    def walk(x):
        if isinstance(x, float):
            assert math.isfinite(x)
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
    walk(doc)
    code, _ = run_cli(["construct", "--space", "hyperbolic", "--alpha", "0.05",
                       "--p", "7", "--q", "13", "--format", "svg"], tmp_path, "deep.svg")
    assert code == 0


@pytest.mark.parametrize("q", [41, 60])
def test_ideal_limit_float_failure_exits_4(q, tmp_path, capsys):
    # these once exited 4: the solved chord put a segment whose <D, D> rounds to zero or
    # below into the fold-back metrics.  The chord carried from its two ends builds them
    # (test_paths.test_metrics_raise_where_a_segment_rounds_to_no_length keeps that raise)
    args = ["construct", "--space", "hyperbolic", "--alpha", "3e-8", "--p", "1", "--q", str(q)]
    code, text = run_cli(args, tmp_path)
    assert (code, capsys.readouterr().err) == (0, "")
    path = json.loads(text)["path"]
    assert path["closed"] is True and path["simple"] is True


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command, exit_code", [
    (["verify"], 0),
    (["construct", "--space", "hyperbolic", "--alpha", "0.5", "--p", "2", "--q", "3"], 0),
    (["exists", "--space", "spherical", "--alpha", "1.40", "--p", "1", "--q", "2"], 3),
    # 22 kB of output, more than a buffered stdout holds
    (["construct", "--space", "hyperbolic", "--alpha", "0.5", "--p", "7", "--q", "9"], 0)])
def test_closed_stdout_ends_quietly(command, exit_code, unbuffered):
    # a reader that stops early, as head does: no BrokenPipeError traceback, and the
    # exit code of the result (a not_exists verdict stays 3), whether the pipe breaks
    # at the first write (unbuffered) or at the flush
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "tetrageo", *command], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (exit_code, "")
