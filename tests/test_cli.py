import json

import numpy as np
import pytest

from euler3d import cli
from euler3d.config import load_config
from euler3d.errors import ConfigError


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
        j = np.asarray(j, dtype=float)
        k = np.asarray(k, dtype=float)
        w = np.asarray(w)
        return np.outer(w, np.cross(k, j)) - np.dot(j, w) * cross_matrix(k)

    monkeypatch.setattr(st, "simple_block", broken)
    code = run(["verify", "--set", "N=1", "--set", "cases=40", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert not report["checks"]["check_antisymmetry_simple"]["passed"]


def test_verify_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["verify", "--set", "N=1", "--set", "cases=60", "--out", str(out1)])
    run(["verify", "--set", "N=1", "--set", "cases=60", "--set", "workers=3", "--out", str(out2)])
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
