"""End-to-end CLI behavior: exit codes, overrides, and byte determinism."""

import json

import numpy as np
import pytest

from insiderlab import experiments
from insiderlab.cli import main
from insiderlab.paths import sample_brownian


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_list_names_all_kinds(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for kind in ("decomposition", "forward-convergence", "hjb-residual",
                 "example1", "example2", "perturbation", "martingale"):
        assert kind in out


def test_run_example1_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "e1.json", {
        "experiment": "example1", "n_paths": 3000, "n_steps": 512, "seed": 2,
        "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] value_mc_matches_closed_form" in out
    summary = json.loads((tmp_path / "out" / "example1.json").read_text())
    assert summary["verdict"] == "pass"
    assert summary["results"]["value_mc"]["std_error"] > 0
    assert summary["config"]["n_steps"] == 512  # defaults fully resolved
    assert summary["build_id"]
    assert (tmp_path / "out" / "example1.csv").exists()


def test_degenerate_horizon_is_invalid_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {
        "experiment": "example1", "params": {"T": 2.0, "t1": 2.0},
    })
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "T" in err and "T1" in err


def test_unknown_kind_suggests_nearest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "typo.json", {"experiment": "exmple2"})
    assert main(["run", cfg]) == 2
    assert "example2" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"experiment": "example1",}')
    assert main(["run", str(p)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "extra.json", {
        "experiment": "example1", "n_pahts": 100,
    })
    assert main(["run", cfg]) == 2
    assert "n_pahts" in capsys.readouterr().err


def test_divergent_policy_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "div.json", {
        "experiment": "perturbation",
        "policy": {"kind": "constant", "value": 1e200},
        "n_paths": 1024, "n_steps": 256, "seed": 4,
        "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 3
    assert "divergence" in capsys.readouterr().err


def test_failed_check_exits_1(tmp_path, capsys):
    # ignoring a near-terminal information drift: martingale cells blow up
    cfg = write_cfg(tmp_path, "fail.json", {
        "experiment": "martingale", "policy": "zero",
        "params": {"t1": 1.05}, "n_paths": 2000, "n_steps": 1680, "seed": 6,
        "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 1
    assert "[FAIL] all_cells_pass" in capsys.readouterr().out


def test_martingale_after_t0_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "late.json", {
        "experiment": "martingale", "params": {"t0": 0.5},
        "n_paths": 2000, "n_steps": 512, "seed": 8,
        "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) in (0, 1)
    summary = json.loads((tmp_path / "out" / "martingale.json").read_text())
    assert summary["results"]["n_cells"] == 16
    assert min(w[0] for w in summary["config"]["windows"]) > 0.5


def test_off_grid_default_windows_are_invalid_config(tmp_path, capsys):
    # dt = 0.02 puts the first default window edge T/8 between nodes
    cfg = write_cfg(tmp_path, "coarse.json", {
        "experiment": "martingale", "n_steps": 100,
    })
    assert main(["run", cfg]) == 2
    assert "windows" in capsys.readouterr().err


def test_hjb_field_streams_distinct_across_seeds(tmp_path, monkeypatch):
    drawn = []

    def spy(grid, seed):
        path = sample_brownian(grid, seed)
        drawn.append(path.values)
        return path

    monkeypatch.setattr(experiments, "sample_brownian", spy)
    for seed, n_fields in ((0, 1001), (1, 1)):
        cfg = experiments.resolve_config({
            "experiment": "hjb-residual", "seed": seed, "n_fields": n_fields,
            "n_probes": 1, "n_steps": 16, "out": str(tmp_path / str(seed)),
        })
        experiments.run_experiment(cfg)
    assert len(drawn) == 1002
    # field 1000 of seed 0 and field 0 of seed 1 used to share seed 1000
    assert not np.array_equal(drawn[1000], drawn[1001])


@pytest.fixture
def decomp_cfg(tmp_path):
    def make(out_name, **extra):
        base = {
            "experiment": "decomposition", "n_paths": 2048, "n_steps": 256,
            "seed": 9, "out": str(tmp_path / out_name),
        }
        base.update(extra)
        return write_cfg(tmp_path, f"{out_name}.json", base)

    return make


def test_rerun_is_byte_identical(tmp_path, decomp_cfg):
    assert main(["run", decomp_cfg("a"), "--workers", "1"]) == 0
    assert main(["run", decomp_cfg("b"), "--workers", "1"]) == 0
    a = (tmp_path / "a" / "decomposition.csv").read_bytes()
    b = (tmp_path / "b" / "decomposition.csv").read_bytes()
    assert a == b


def test_worker_count_does_not_change_bytes(tmp_path, decomp_cfg):
    assert main(["run", decomp_cfg("w1"), "--workers", "1"]) == 0
    assert main(["run", decomp_cfg("w2"), "--workers", "2"]) == 0
    a = (tmp_path / "w1" / "decomposition.csv").read_bytes()
    b = (tmp_path / "w2" / "decomposition.csv").read_bytes()
    assert a == b


def test_seed_override_changes_output(tmp_path, decomp_cfg):
    assert main(["run", decomp_cfg("s1"), "--workers", "1"]) == 0
    assert main(["run", decomp_cfg("s2"), "--seed", "10",
                 "--workers", "1"]) == 0
    a = (tmp_path / "s1" / "decomposition.csv").read_bytes()
    b = (tmp_path / "s2" / "decomposition.csv").read_bytes()
    assert a != b


def test_n_paths_override(tmp_path, decomp_cfg):
    assert main(["run", decomp_cfg("n"), "--n-paths", "512",
                 "--workers", "1"]) == 0
    text = (tmp_path / "n" / "decomposition.csv").read_text()
    assert "n_paths,512" in text
    summary = json.loads((tmp_path / "n" / "decomposition.json").read_text())
    assert summary["config"]["n_paths"] == 512


def test_out_override(tmp_path):
    cfg = write_cfg(tmp_path, "o.json", {
        "experiment": "decomposition", "n_paths": 512, "n_steps": 128,
        "seed": 1,
    })
    dest = tmp_path / "elsewhere"
    assert main(["run", cfg, "--out", str(dest), "--workers", "1"]) == 0
    assert (dest / "decomposition.csv").exists()
