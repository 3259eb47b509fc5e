import json
import os
import subprocess
import sys

import numpy as np
import pytest

from euler3d import cli, dynamics
from euler3d.config import load_config
from euler3d.errors import ConfigError, NonFiniteError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args):
    return cli.main(args)


def test_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["N=2", 'structure="simple"', "dt=0.01"])
    assert cfg.N == 2 and cfg.structure == "simple" and cfg.dt == 0.01
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"N": 2, "tolerances": {"identity": 1e-11}}))
    cfg = load_config(str(doc), ["N=1"])
    assert cfg.N == 1  # flag wins over file
    assert cfg.tolerances.identity == 1e-11


def test_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(None, ["no_such_key=1"])
    with pytest.raises(ConfigError):
        load_config(None, ['structure="nonsense"'])


def test_verify_command_passes(tmp_path, capsys):
    code = run(["verify", "--set", "N=1", "--set", "cases=80", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"]
    out = capsys.readouterr().out
    assert "check_antisymmetry" in out


def test_verify_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(["verify", "--config", str(bad)]) == 2
    assert run(["verify", "--set", "N=0"]) == 2


OBLIQUE_SHEAR = 'shear={{"p": [1, 1, 0], "G": {G}}}'
COEFFICIENTS = 'shear={{"p": [1, 0, 0], "G": [0, 0, 1], "coefficients": {{"1": {c}}}}}'
BIG = "1" + "0" * 310  # a JSON integer that no float can hold
BASE = {"simulate": ["N=1", "steps=3", "observe_every=1"], "verify": ["N=1", "cases=20"], "shear": ["N=1"], "rank": ["N=1"]}


@pytest.mark.parametrize(
    "command, override",
    [
        ("simulate", "N=2.5"),
        ("simulate", "steps=1.5"),
        ("verify", "cases=2.5"),
        ("verify", "workers=2"),
        ("simulate", "seed=-1"),
        ("simulate", "initial=3"),
        ("simulate", "amplitude=Infinity"),
        ("shear", 'shear={"p": [1, 0, 0]}'),
        ("verify", "n_vector=[NaN, 0, 0]"),
        ("simulate", "n_vector=[NaN, 0, 0]"),
        ("simulate", "dt=NaN"),
        ("simulate", "snapshot_every=-1"),
        ("simulate", "observe_every=2.5"),
        ("rank", 'tolerances={"rank": -1}'),
        ("shear", 'shear={"p": [2, 0, 0], "G": [0, 0, 1]}'),
        ("simulate", 'initial={"kind": "snapshot", "path": "/nonexistent/snapshot.json"}'),
        # G . p = 0 for the integer p, but not for the wavevector (1, 0.3, 0)
        pytest.param("shear", ("aniso=[1,0.3,1]", OBLIQUE_SHEAR.format(G="[1, -1, 0]")), id="shear-aniso-G_not_transverse"),
        pytest.param("rank", ("aniso=[1,0.3,1]", OBLIQUE_SHEAR.format(G="[1, -1, 0]")), id="rank-aniso-G_not_transverse"),
        # an integer past the float range, and booleans, where a number is due
        pytest.param("shear", COEFFICIENTS.format(c=BIG), id="shear-coefficient_past_float_range"),
        pytest.param("shear", COEFFICIENTS.format(c=f"[0, {BIG}]"), id="shear-coefficient_pair_past_float_range"),
        pytest.param("shear", COEFFICIENTS.format(c="[true, false]"), id="shear-coefficient_booleans"),
        pytest.param("shear", COEFFICIENTS.format(c="true"), id="shear-coefficient_boolean"),
        pytest.param("shear", COEFFICIENTS.format(c="[1, 2, 3]"), id="shear-coefficient_triple"),
        pytest.param("shear", f'shear={{"p": [{BIG}, 0, 0], "G": [0, 0, 1]}}', id="shear-p_past_float_range"),
        pytest.param("verify", f"aniso=[{BIG}, 1, 1]", id="verify-aniso_past_float_range"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, command, override):
    overrides = (override,) if isinstance(override, str) else override
    args = [item for key in [*BASE[command], *overrides] for item in ("--set", key)]
    assert run([command, *args, "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_simulate_rejects_off_axis_reference(tmp_path):
    # wavevector((2,2,2))/3 on this box: no mode is flagged parallel to it, and
    # the reduced field was wrong by 36 on a field scale of 83
    code = run([
        "simulate",
        "--set", "N=2",
        "--set", "aniso=[0.7,1.3,0.1]",
        "--set", "n_vector=[0.4666666666666666,0.8666666666666667,0.06666666666666667]",
        "--set", 'structure="reduced"',
        "--set", "steps=2",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert not (tmp_path / "diagnostics.csv").exists()


def test_simulate_accepts_negative_axis_reference(tmp_path):
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", "n_vector=[0,0,-2]",
        "--set", 'structure="reduced"',
        "--set", "steps=4",
        "--set", "observe_every=2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert load_config(None, ["n_vector=[0,0,-2]"]).n_vector == (0.0, 0.0, -2.0)


def test_verify_injected_sign_error_exits_1(tmp_path, monkeypatch):
    from euler3d import structures as st
    from euler3d.frames import cross_matrix

    def broken(j, k, w):
        # the sign of the (j . w) cross_matrix(k) term flipped, over batches of pairs
        j = np.asarray(j, dtype=float)
        k = np.asarray(k, dtype=float)
        w = np.asarray(w)
        return w[..., :, None] * np.cross(k, j)[..., None, :] - np.vecdot(j, w)[..., None, None] * cross_matrix(k)

    monkeypatch.setattr(st, "simple_block", broken)
    code = run(["verify", "--set", "N=1", "--set", "cases=40", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert not report["checks"]["check_antisymmetry_simple"]["passed"]


def test_verify_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["verify", "--set", "N=1", "--set", "cases=60", "--out", str(out1)])
    run(["verify", "--set", "N=1", "--set", "cases=60", "--out", str(out2)])
    assert (out1 / "verify_report.json").read_bytes() == (out2 / "verify_report.json").read_bytes()


def test_simulate_shear_drifts(tmp_path, capsys):
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", 'initial={"kind": "shear"}',
        "--set", "steps=100",
        "--set", "observe_every=20",
        "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == "t,E,h,div_max,amp_max"
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    e0 = rows[0][1]
    assert all(abs(r[1] - e0) <= 1e-12 * abs(e0) for r in rows)
    assert all(r[3] <= 1e-12 for r in rows)


@pytest.mark.parametrize("structure", ["direct", "simple", "projected", "reduced"])
def test_simulate_all_structures(tmp_path, structure):
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", f'structure="{structure}"',
        "--set", "steps=20",
        "--set", "observe_every=10",
        "--out", str(tmp_path / structure),
    ])
    assert code == 0
    lines = (tmp_path / structure / "diagnostics.csv").read_text().strip().split("\n")
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    e0 = rows[0][1]
    assert all(abs(r[1] - e0) <= 1e-9 * abs(e0) for r in rows)


def test_simulate_resume_is_bit_identical(tmp_path):
    base = [
        "--set", "N=1",
        "--set", "seed=5",
        "--set", "steps=40",
        "--set", "observe_every=10",
        "--set", "snapshot_every=20",
    ]
    full = tmp_path / "full"
    assert run(["simulate", *base, "--out", str(full)]) == 0
    # resume from mid-run snapshot and finish the remaining steps
    resumed = tmp_path / "resumed"
    snap = full / "state_00000020.json"
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", f'initial={{"kind": "snapshot", "path": "{snap}"}}',
        "--set", "steps=20",
        "--set", "observe_every=10",
        "--out", str(resumed),
    ])
    assert code == 0
    assert (resumed / "final_state.json").read_bytes() == (full / "final_state.json").read_bytes()


def test_simulate_snapshot_lattice_mismatch_exits_2(tmp_path, capsys):
    # snapshot written at N=2 cannot seed an N=1 run
    big = tmp_path / "big"
    run(["simulate", "--set", "N=2", "--set", "steps=2", "--set", "observe_every=2",
         "--out", str(big)])
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", f'initial={{"kind": "snapshot", "path": "{big / "final_state.json"}"}}',
        "--set", "steps=2",
        "--out", str(tmp_path / "small"),
    ])
    assert code == 2


@pytest.mark.parametrize(
    "written, loaded",
    [(["--set", "N=1"], ["--set", "N=2"]), (["--set", "N=1", "--set", "aniso=[1,0.3,1]"], ["--set", "N=1"])],
    ids=["smaller_box", "other_aniso"],
)
def test_simulate_snapshot_from_other_lattice_exits_2(tmp_path, capsys, written, loaded):
    # every mode of the snapshot is in the run's lattice, but the lattice differs
    src = tmp_path / "src"
    opts = ["--set", "steps=2", "--set", "observe_every=2"]
    assert run(["simulate", *written, *opts, "--out", str(src)]) == 0
    code = run([
        "simulate",
        *loaded,
        "--set", f'initial={{"kind": "snapshot", "path": "{src / "final_state.json"}"}}',
        *opts,
        "--out", str(tmp_path / "dst"),
    ])
    assert code == 2
    assert "does not match the lattice" in capsys.readouterr().err


SNAPSHOT_HEADER = {"t": 0.0, "N": 1, "aniso": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize(
    "body",
    [
        {},
        {"modes": [{"a": [1, 0, 0], "re": [0.0, 0.0, 1.0]}]},
        {"modes": [{"a": [1, 0, 0], "re": [0.0, 0.0, 1.0], "im": [0.0, 0.0]}]},
        {"modes": [{"a": 5, "re": [0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0]}]},
        {"modes": [{"a": [1, 0, 0], "re": {"x": 1.0}, "im": [0.0, 0.0, 0.0]}]},
        {"modes": [{"a": [1, 0, 0], "re": [True, 0, 0], "im": [0.0, 0.0, 0.0]}]},
        {"modes": [{"a": [1, 0, 0], "re": [0.0, 0.0, 1.0], "im": ["1", "2", "3"]}]},
        {"modes": [{"a": [1, 0, 0], "re": [0.0, float("nan"), 1.0], "im": [0.0, 0.0, 0.0]}]},
        {"modes": [{"a": [1, 0, 0], "re": [0.0, 0.0, 1.0], "im": [0.0, 0.0, float("-inf")]}]},
        {"t": float("nan"), "modes": [{"a": [1, 0, 0], "re": [0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0]}]},
        {"t": 10**400, "modes": [{"a": [1, 0, 0], "re": [0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0]}]},
        {"modes": [{"a": [1, 0, 0], "re": [0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0]},
                   {"a": [1, 0, 0], "re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}]},
    ],
    ids=["no_modes", "entry_without_im", "re_im_lengths_differ", "index_not_a_triple", "re_an_object",
         "boolean_re", "string_im", "nan_re", "infinite_im", "nan_t", "t_past_float_range", "repeated_mode"],
)
def test_simulate_malformed_snapshot_body_exits_2(tmp_path, capsys, body):
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps({**SNAPSHOT_HEADER, **body}))
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", f'initial={{"kind": "snapshot", "path": "{path}"}}',
        "--set", "steps=2",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # no last_good_state.json


def test_simulate_final_time_overflow_exits_2(tmp_path, capsys):
    # the zero state is a fixed point, so only the time can overflow: 2 * 1e308 is inf
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", 'initial={"kind": "shear"}',
        "--set", 'shear={"p": [1, 0, 0], "G": [0.0, 0.0, 1.0], "coefficients": {"1": [0, 0]}}',
        "--set", "dt=1e308",
        "--set", "steps=2",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.csv").exists()


def test_simulate_blow_up_exits_3(tmp_path, capsys):
    code = run([
        "simulate",
        "--set", "N=1",
        "--set", "amplitude=100.0",
        "--set", "dt=10.0",
        "--set", "steps=50",
        "--out", str(tmp_path),
    ])
    assert code == 3
    assert (tmp_path / "last_good_state.json").exists()
    payload = json.loads((tmp_path / "last_good_state.json").read_text())
    assert all(np.isfinite(v) for m in payload["modes"] for v in m["re"] + m["im"])
    assert (tmp_path / "diagnostics.csv").exists()


def test_shear_command(tmp_path):
    assert run(["shear", "--set", "N=1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "shear_report.json").read_text())
    assert report["passed"]
    assert set(report["residuals"]) == {"direct", "simple", "projected", "reduced"}


def test_rank_command(tmp_path):
    assert run(["rank", "--set", "N=1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "rank_report.json").read_text())
    assert report["corank_comparison"]["kernel_excess"] > 0
    assert report["gradient_span"]["grad_energy_in_kernel"]
    assert report["gradient_span"]["span_residual_fraction"] >= 0.5


def test_rank_seed_sets_the_baseline_seeds(tmp_path):
    assert run(["rank", "--set", "N=1", "--set", "seed=1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "rank_report.json").read_text())
    assert report["seed"] == 1
    assert report["corank_comparison"]["seeds"] == [5, 6, 7, 8, 9]
    assert [b["seed"] for b in report["corank_comparison"]["baseline"]] == [5, 6, 7, 8, 9]


def test_shear_transverse_to_the_physical_wavevector(tmp_path):
    # G . p != 0 for the integer p, but G . (1, 0.3, 0) = 0 on this box
    opts = ["--set", "N=1", "--set", "aniso=[1,0.3,1]", "--set", OBLIQUE_SHEAR.format(G="[0.3, -1, 0.5]")]
    assert run(["shear", *opts, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "shear_report.json").read_text())["passed"]
    assert run(["rank", *opts, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "rank_report.json").read_text())
    assert report["corank_comparison"]["kernel_excess"] > 0
    assert report["gradient_span"]["grad_energy_in_kernel"]


def test_rank_with_reduced_structure(tmp_path):
    code = run(["rank", "--set", "N=1", "--set", 'structure="reduced"', "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "rank_report.json").read_text())
    assert report["corank_comparison"]["which"] == "reduced"
    assert report["corank_comparison"]["dim"] == 52  # 2 x 26 modes
    assert report["corank_comparison"]["kernel_excess"] > 0
    assert report["gradient_span"]["grad_energy_in_kernel"]


def test_rank_degenerate_zero_state(tmp_path):
    code = run([
        "rank",
        "--set", "N=1",
        "--set", 'shear={"p": [1, 0, 0], "G": [0.0, 0.0, 1.0], "coefficients": {"1": [0.0, 0.0]}}',
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "rank_report.json").read_text())
    assert report["corank_comparison"]["degenerate"]
    assert report["corank_comparison"]["shear"]["rank"] == 0


def test_rank_oversized_support_exits_2(tmp_path, capsys):
    code = run([
        "rank",
        "--set", "N=1",
        "--set", 'shear={"p": [1, 0, 0], "G": [0.0, 0.0, 1.0], "coefficients": {"2": [1.0, 0.0]}}',
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "outside" in capsys.readouterr().err


HUGE_SHEAR = 'shear={{"p": [1, 0, 0], "G": [0, {g}, {g}]}}'


def strict_json(path):
    """The file's JSON; a NaN or an infinity in it fails the test."""
    return json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"{path.name} holds {name}"))


@pytest.mark.parametrize(
    ("command", "c1", "reason"),
    [
        # at G = 1e308 and c_1 = 1 the real form overflows in the rank SVD
        pytest.param("rank", "1", "the real form of the projected tensor overflows", id="rank"),
        # at c_1 = 2 the shear amplitude G c_1 itself overflows
        pytest.param("shear", "2", "G c_1 overflows", id="shear"),
        pytest.param("rank", "2", "G c_1 overflows", id="rank-G_c1"),
    ],
)
def test_overflowing_shear_exits_3_with_a_reason(tmp_path, capsys, command, c1, reason):
    # exit 3, a reason, and no report with NaN in it
    huge = f'shear={{"p": [1, 0, 0], "G": [0, 1e308, 1e308], "coefficients": {{"1": [{c1}, 0]}}}}'
    code = run([command, "--set", "N=1", "--set", huge, "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "runtime error:" in err and reason in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_rank_overflow_writes_one_line_to_stderr(tmp_path):
    # the real form's overflow is refused without numpy's warnings above it
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "euler3d.cli", "rank", "--set", "N=1",
         "--set", HUGE_SHEAR.format(g="1e308"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["runtime error: the real form of the projected tensor overflows: the state is too large"]


def test_shear_at_the_largest_amplitude_reads_as_at_unit_amplitude(tmp_path):
    # at G = 1e308 and c_1 = 1 the state is finite: shear exits 0, and its
    # report is finite and reads as at G = (0, 1, 1) but for the echoed G
    reports = []
    for g in ("1", "1e308"):
        assert run(["shear", "--set", "N=1", "--set", HUGE_SHEAR.format(g=g), "--out", str(tmp_path / g)]) == 0
        report = strict_json(tmp_path / g / "shear_report.json")
        assert report.pop("G") == [0.0, float(g), float(g)]
        reports.append(report)
    assert reports[1] == reports[0] and reports[0]["passed"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rank_at_a_huge_shear_reads_as_at_unit_amplitude(tmp_path):
    # at G = 1e200 the gradients' squares overflow; the report stays finite,
    # and its scale-free parts read as at G = (0, 1, 1)
    reports = []
    for g in ("1", "1e200"):
        assert run(["rank", "--set", "N=1", "--set", HUGE_SHEAR.format(g=g), "--out", str(tmp_path / g)]) == 0
        reports.append(strict_json(tmp_path / g / "rank_report.json"))
    assert reports[1] == reports[0]


@pytest.mark.parametrize(("N", "box"), [(1, (1, 1, 1)), (2, (1, 0.3, 1))])
def test_shear_and_rank_reports_do_not_depend_on_the_amplitude(tmp_path, N, box):
    # the oblique shear p = (1, 1, 0) at G, 2^300 G and 2^-600 G: every key
    # of both reports but the echoed G reads the same
    reports = []
    for scale in (1.0, 2.0**300, 2.0**-600):
        G = [scale * box[1], -scale * box[0], scale * 0.5]
        out = tmp_path / repr(scale)
        opts = ["--set", f"N={N}", "--set", f"aniso={list(box)}", "--set", OBLIQUE_SHEAR.format(G=json.dumps(G))]
        assert run(["shear", *opts, "--out", str(out)]) == 0
        assert run(["rank", *opts, "--out", str(out)]) == 0
        shear = strict_json(out / "shear_report.json")
        assert shear.pop("G") == G
        reports.append((shear, strict_json(out / "rank_report.json")))
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_rank_exits_1_when_the_shear_is_not_an_equilibrium(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.equilibria, "equilibrium_residual", lambda state, which, frames=None: 1.0)
    assert run(["rank", "--set", "N=1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "wants an equilibrium; residual 1.000e+00" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_rank_lets_other_value_errors_through(tmp_path, monkeypatch):
    # only the refusal of a non-equilibrium is an identity failure
    def fail(state, tensor):
        raise ValueError("not about the equilibrium")

    monkeypatch.setattr(cli.equilibria, "gradient_span_test", fail)
    with pytest.raises(ValueError, match="not about the equilibrium"):
        run(["rank", "--set", "N=1", "--out", str(tmp_path)])


def test_write_json_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(NonFiniteError, match="report.json"):
        cli._write_json({"residual": float("nan")}, str(tmp_path / "report.json"))
    assert not (tmp_path / "report.json").exists()


def test_export_command(tmp_path):
    assert run(["export", "--set", "N=1", "--set", 'structure="projected"', "--out", str(tmp_path)]) == 0
    header = json.loads((tmp_path / "tensor_projected.json").read_text())
    raw = np.frombuffer((tmp_path / "tensor_projected.bin").read_bytes(), dtype="<c16")
    assert raw.shape[0] == header["dim"] ** 2
    modes_doc = json.loads((tmp_path / "modes.json").read_text())
    assert modes_doc["N"] == 1 and len(modes_doc["modes"]) == 26


def test_export_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["export", "--set", "N=1", "--out", str(a)])
    run(["export", "--set", "N=1", "--out", str(b)])
    assert (a / "tensor_projected.bin").read_bytes() == (b / "tensor_projected.bin").read_bytes()
    assert (a / "tensor_projected.json").read_bytes() == (b / "tensor_projected.json").read_bytes()


@pytest.mark.parametrize("structure", ["projected", "reduced"])
def test_conservation_study_script_runs(structure):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    script = os.path.join(ROOT, "scripts", "conservation_study.py")
    proc = subprocess.run(
        [sys.executable, script, "--N", "1", "--T", "0.02", "--structure", structure],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("N=1 (26 modes)")
    assert len(lines) == 2 + 4  # header, column names, one row per default dt


@pytest.mark.parametrize(("snapshot_every", "rebuilds"), [(0, 5), (5, 21)])
def test_reduced_simulate_rebuilds_the_full_state_only_where_it_is_read(tmp_path, monkeypatch, snapshot_every, rebuilds):
    # without snapshots, from_reduced runs once per diagnostics record (the
    # last one gives the final state); with them, once per step and once for
    # the initial record
    calls = []
    from_reduced = dynamics.from_reduced
    monkeypatch.setattr(dynamics, "from_reduced", lambda *args: calls.append(1) or from_reduced(*args))
    code = run(["simulate", "--set", "N=1", "--set", 'structure="reduced"', "--set", "steps=20",
                "--set", "observe_every=5", "--set", f"snapshot_every={snapshot_every}", "--out", str(tmp_path)])
    records = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    assert code == 0 and len(records) == 5 and len(calls) == rebuilds
    assert len(list(tmp_path.glob("state_*.json"))) == (20 // snapshot_every if snapshot_every else 0)
