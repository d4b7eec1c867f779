"""End-to-end CLI behavior: exit codes, overrides, and byte determinism."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from insiderlab import experiments
from insiderlab.cli import main
from insiderlab.controlled_sde import constant_policy
from insiderlab.hjb import example1_value
from insiderlab.optimality import DivergenceError, martingale_diagnostic
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
    for key, cap in experiments.CAPS.items():
        assert f"{key} <= {cap}" in out


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


def test_integer_past_the_digit_limit_is_invalid_config(tmp_path, capsys):
    # json.loads raises a plain ValueError there, not a JSONDecodeError
    p = tmp_path / "long.json"
    p.write_text('{"experiment": "perturbation", "theta0": 1' + "0" * 5000 + "}")
    assert main(["run", str(p)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_invalid_config(tmp_path, capsys):
    p = tmp_path / "latin.json"
    p.write_bytes(b'\xff{"experiment": "example1"}')
    assert main(["run", str(p)]) == 2
    assert "config cannot be parsed" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "flag"])
@pytest.mark.parametrize("under", [False, True], ids=["the-file", "under-it"])
def test_out_that_names_a_file_is_invalid_config(tmp_path, capsys, where,
                                                 under):
    existing = tmp_path / "taken"
    existing.write_text("not a directory")
    out = existing / "sub" if under else existing
    raw = {"experiment": "hjb-residual", "n_steps": 64}
    if where == "config":
        raw["out"] = str(out)
    args = ["run", write_cfg(tmp_path, "out.json", raw), "--workers", "1"]
    if where == "flag":
        args += ["--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "'out': cannot write results to" in err and str(out) in err
    assert existing.read_text() == "not a directory"


@pytest.mark.parametrize("kind", experiments.KINDS)
@pytest.mark.parametrize("params", [{"t0": 0.9999999999}, {"T": 1e-10}],
                         ids=["t0-next-to-T", "T-next-to-0"])
def test_t0_and_T_on_one_node_are_invalid_config(tmp_path, capsys, kind,
                                                 params):
    cfg = write_cfg(tmp_path, "node.json", {
        "experiment": kind, "n_steps": 64, "params": params,
        "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 2
    assert "'n_steps': t0=" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_martingale_whose_discount_overflows_exits_3(tmp_path, capsys):
    # the growth (1 + r dt)^k of N_u's weights is inf at r = -1e300: every
    # path diverges, and the overflow is detected, not warned about
    cfg = write_cfg(tmp_path, "disc.json", {
        "experiment": "martingale", "params": {"r": -1e300},
        "n_paths": 64, "n_steps": 16, "out": str(tmp_path / "out"),
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


@pytest.mark.parametrize("params", [{"b": 2}, {"r": 0.2}],
                         ids=["b=2", "r=0.2"])
@pytest.mark.parametrize("policy, code", [("example1", 0), ("zero", 1)])
def test_martingale_passes_the_optimum_and_fails_no_control_at_b2_and_r02(
        tmp_path, capsys, params, policy, code):
    # N_u weighs its parts by -G_x = b e^{rT} e^{-rt}; weighed by e^{-rt}
    # alone, u* failed at least 2 of the 16 cells at either setting, at this
    # size and at the default one
    raw = {"experiment": "martingale", "policy": policy, "params": params,
           "n_paths": 2000, "n_steps": 512, "seed": 1,
           "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "m.json", raw),
                 "--workers", "1"]) == code
    summary = json.loads((tmp_path / "out" / "martingale.json").read_text())
    assert summary["results"]["n_passing"] == (16 if code == 0 else 12)


def test_the_build_id_is_read_once_per_process(tmp_path, monkeypatch):
    calls = []
    run = experiments.subprocess.run

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(experiments.subprocess, "run", counting)
    experiments._build_id.cache_clear()
    cfg = experiments.resolve_config({"experiment": "decomposition",
                                      "n_paths": 64, "n_steps": 16})
    first = experiments.run_experiment(cfg, tmp_path / "a")
    second = experiments.run_experiment(cfg, tmp_path / "b")
    assert len(calls) == 1 and calls[0][:2] == ["git", "rev-parse"]
    assert first["build_id"] == second["build_id"]


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


def _exit_matches_verdict(code, out_dir):
    """A decomposition at 512 paths fails its 5 % variance band by chance
    in about 4 of 10 seeds, so an override test checks that the exit code
    follows the verdict, not that the verdict is a pass."""
    summary = json.loads((out_dir / "decomposition.json").read_text())
    return code == (0 if summary["verdict"] == "pass" else 1)


def test_n_paths_override(tmp_path, decomp_cfg):
    code = main(["run", decomp_cfg("n"), "--n-paths", "512", "--workers", "1"])
    assert _exit_matches_verdict(code, tmp_path / "n")
    text = (tmp_path / "n" / "decomposition.csv").read_text()
    assert "n_paths,512" in text
    summary = json.loads((tmp_path / "n" / "decomposition.json").read_text())
    assert summary["config"]["n_paths"] == 512


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_workers_above_the_cap_exit_2_before_any_pool(tmp_path, capsys,
                                                      monkeypatch):
    # a pool forks all of its workers at its first task: the cap is checked
    # before one is made, by the CLI and by the library alike
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _no_pool)
    too_many = experiments.CAPS["workers"] + 1
    cfg = write_cfg(tmp_path, "d.json", {
        "experiment": "decomposition", "n_paths": 2048, "n_steps": 8,
        "out": str(tmp_path / "out")})
    assert main(["run", cfg, "--workers", str(too_many)]) == 2
    assert "'--workers' must be at most" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(experiments.InvalidConfigError, match="'workers'"):
        experiments.run_experiment(experiments.load_config(cfg), workers=too_many)
    assert not (tmp_path / "out").exists()


def test_the_default_worker_count_is_held_to_the_cap(tmp_path, monkeypatch):
    sizes = []

    class SizeOnly:  # records the pool size and runs the op in process
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SizeOnly)
    monkeypatch.setattr(os, "cpu_count", lambda: 100_000)
    cfg = write_cfg(tmp_path, "d.json", {
        "experiment": "decomposition", "n_paths": 64, "n_steps": 8,
        "out": str(tmp_path / "out")})
    assert main(["run", cfg]) in (0, 1)
    assert sizes == [experiments.CAPS["workers"]]


def test_out_override(tmp_path):
    cfg = write_cfg(tmp_path, "o.json", {
        "experiment": "decomposition", "n_paths": 512, "n_steps": 128,
        "seed": 1,
    })
    dest = tmp_path / "elsewhere"
    code = main(["run", cfg, "--out", str(dest), "--workers", "1"])
    assert _exit_matches_verdict(code, dest)
    assert (dest / "decomposition.csv").exists()


@pytest.mark.parametrize("kind", ["example1", "hjb-residual"])
def test_excess_return_is_invalid_where_the_closed_form_has_none(
        tmp_path, capsys, kind):
    # the example1 closed form assumes rtilde = r
    cfg = write_cfg(tmp_path, "rt.json", {
        "experiment": kind, "params": {"rtilde": 0.5}, "n_steps": 64,
        "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 2
    assert "rtilde" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    explicit = experiments.resolve_config({
        "experiment": kind, "params": {"r": 0.2, "rtilde": 0.2},
    })
    assert explicit["params"]["rtilde"] == 0.2


@pytest.mark.parametrize("kind", ["example1", "decomposition", "martingale"])
@pytest.mark.parametrize("m", [0, {"type": "affine", "intercept": 0.0,
                                   "slope": 0.0}], ids=["number", "affine"])
def test_weight_with_vanishing_tail_is_invalid_config(tmp_path, capsys, kind, m):
    cfg = write_cfg(tmp_path, "m.json", {
        "experiment": kind, "params": {"m": m}, "n_steps": 64,
        "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 2
    assert "params.m" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [
    {"experiment": "perturbation", "policy": {"kind": "constant", "value": "x"}},
    {"experiment": "martingale", "policy": {"kind": "constant"}},
    {"experiment": "example1", "params": [1, 2]},
], ids=["policy-value-not-a-number", "policy-value-missing", "params-not-object"])
def test_malformed_fields_are_invalid_config(tmp_path, capsys, raw):
    assert main(["run", write_cfg(tmp_path, "bad.json", raw)]) == 2
    assert "invalid config" in capsys.readouterr().err


_HUGE_INT = 10**400  # a JSON integer that float() cannot convert


@pytest.mark.parametrize("kind, field, value", [
    ("martingale", "expect_pass", "no"),
    ("martingale", "threshold", True),
    ("forward-convergence", "eps_ladder", [True]),
    ("hjb-residual", "n_fields", True),
    ("hjb-residual", "n_probes", True),
    # each of these used to raise OverflowError, run, or exit 3
    pytest.param("perturbation", "theta0", _HUGE_INT, id="theta0-huge-int"),
    pytest.param("perturbation", "y_grid", [0.0, _HUGE_INT], id="y_grid-huge-int"),
    pytest.param("perturbation", "window", [0.25, _HUGE_INT], id="window-huge-int"),
    pytest.param("martingale", "threshold", _HUGE_INT, id="threshold-huge-int"),
    pytest.param("perturbation", "policy", {"kind": "constant", "value": _HUGE_INT},
                 id="policy-value-huge-int"),
    pytest.param("example1", "params.x0", _HUGE_INT, id="params-huge-int"),
    pytest.param("decomposition", "n_steps", _HUGE_INT, id="n_steps-huge-int"),
    pytest.param("example1", "params.x0", "1.5", id="params-string"),
    pytest.param("example1", "params.a", True, id="params-bool"),
    pytest.param("example1", "params.r", math.nan, id="params-nan"),
    pytest.param("perturbation", "theta0", math.nan, id="theta0-nan"),
    pytest.param("perturbation", "y_grid", [0.0, math.nan], id="y_grid-nan"),
    pytest.param("perturbation", "expected_argmin", False, id="expected_argmin-bool"),
    pytest.param("martingale", "threshold", math.inf, id="threshold-inf"),
    pytest.param("decomposition", "params.m", {"type": "constant", "value": True},
                 id="weight-entry-bool"),
    pytest.param("example1", "params.sigma", {"type": "sin", "base": "1",
                                              "amplitude": 0.5},
                 id="weight-entry-string"),
    pytest.param("example1", "out", 5, id="out-number"),
    pytest.param("example1", "out", None, id="out-null"),
    pytest.param("example1", "out", ["results"], id="out-list"),
])
def test_json_booleans_and_strings_are_not_numbers_or_flags(
        tmp_path, capsys, kind, field, value):
    raw = {"experiment": kind, "n_paths": 64, "n_steps": 64,
           "out": str(tmp_path / "out")}
    if field.startswith("params."):
        raw["params"] = {field.removeprefix("params."): value}
    else:
        raw[field] = value
    assert main(["run", write_cfg(tmp_path, "bad.json", raw),
                 "--workers", "1"]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_forward_convergence_rejects_t0(tmp_path, capsys):
    # its integrals run on [0, T]: a t0 would be accepted and ignored
    raw = {"experiment": "forward-convergence", "params": {"t0": 0.5},
           "n_paths": 64, "n_steps": 64, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "fc.json", raw),
                 "--workers", "1"]) == 2
    assert "params.t0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the kinds that do use t0 keep it
    for kind in ("decomposition", "hjb-residual"):
        experiments.resolve_config({"experiment": kind, "params": {"t0": 0.5}})


@pytest.mark.parametrize("ladder", [[8, 1], [20, 1]])
def test_eps_ladder_reaching_T_is_invalid_config(tmp_path, capsys, ladder):
    # 16 steps on [0, T1 = 2] put T = 1 at node 8: eps = 8 dt is the horizon
    raw = {"experiment": "forward-convergence", "n_steps": 16, "n_paths": 64,
           "eps_ladder": ladder, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "fc.json", raw),
                 "--workers", "1"]) == 2
    assert "eps_ladder" in capsys.readouterr().err
    raw["eps_ladder"] = [7, 1]
    assert main(["run", write_cfg(tmp_path, "fc.json", raw),
                 "--workers", "1"]) in (0, 1)
    assert (tmp_path / "out" / "forward-convergence.csv").exists()


@pytest.mark.parametrize("ladder", [[1, 4, 8], [4, 4, 1], [8, 2, 4]])
def test_eps_ladder_not_strictly_decreasing_is_invalid_config(tmp_path, capsys,
                                                              ladder):
    # median_deviation_decreasing reads the medians in ladder order, so such
    # a ladder used to run and fail that check by construction (exit 1)
    raw = {"experiment": "forward-convergence", "n_paths": 200, "n_steps": 64,
           "seed": 2, "eps_ladder": ladder, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "fc.json", raw),
                 "--workers", "1"]) == 2
    assert "'eps_ladder'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_list_states_the_eps_ladder_order(capsys):
    assert main(["list"]) == 0
    assert "eps_ladder: strictly decreasing" in capsys.readouterr().out


_WEIGHTS = st.one_of(
    st.sampled_from([1.0, -0.5, 2.0]),
    st.builds(lambda a, b: {"type": "affine", "intercept": a, "slope": b},
              st.sampled_from([1.0, 0.0, -1.0]), st.sampled_from([0.0, 1.0, -2.0])),
    st.builds(lambda a, b: {"type": "sin", "base": a, "amplitude": b,
                            "frequency": 3.0},
              st.sampled_from([0.0, 1.0]), st.sampled_from([0.5, 1.0])),
)


@given(
    n_steps=st.sampled_from([1, 2, 3, 4, 8, 12, 16, 32]),
    t0=st.sampled_from([0.0, 0.25, 0.5]),
    horizon=st.sampled_from([(1.0, 2.0), (0.5, 2.0), (0.25, 1.0), (1.0, 1.5)]),
    m=_WEIGHTS,
    ladder=st.lists(st.integers(1, 24), min_size=1, max_size=4),
)
@example(n_steps=16, t0=0.0, horizon=(1.0, 2.0), m=1.0, ladder=[8, 1])
@example(n_steps=32, t0=0.0, horizon=(1.0, 2.0), m=1.0, ladder=[8, 4, 1])
@settings(max_examples=60, deadline=None)
def test_forward_convergence_configs_are_rejected_or_run(n_steps, t0, horizon,
                                                         m, ladder):
    T, t1 = horizon
    raw = {"experiment": "forward-convergence", "n_steps": n_steps,
           "n_paths": 16, "eps_ladder": ladder,
           "params": {"t0": t0, "T": T, "t1": t1, "m": m}}
    try:
        experiments.resolve_config(raw)
    except experiments.InvalidConfigError:
        return
    with tempfile.TemporaryDirectory() as d:
        raw["out"] = d
        path = Path(d) / "fc.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--workers", "1"]) in (0, 1)
        assert (Path(d) / "forward-convergence.csv").exists()


def test_negative_seed_is_invalid_config(tmp_path, capsys, decomp_cfg):
    # used to raise SeedSequence's uncaught "expected non-negative integer"
    assert main(["run", decomp_cfg("neg", seed=-1), "--workers", "1"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert main(["run", decomp_cfg("ok"), "--seed", "-1", "--workers", "1"]) == 2
    assert "'--seed'" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists() and not (tmp_path / "ok").exists()


@pytest.mark.parametrize("workers", ["-3", "0"])
def test_workers_below_one_is_invalid_config(tmp_path, capsys, decomp_cfg,
                                             workers):
    # -3 used to run silently with one worker
    assert main(["run", decomp_cfg("w"), "--workers", workers]) == 2
    assert "'--workers'" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_overflowing_weight_is_named_as_such(tmp_path, capsys):
    # m^2 = inf used to be reported as a tail integral that is not positive
    cfg = write_cfg(tmp_path, "m.json", {
        "experiment": "example1", "params": {"m": 1e160}, "n_steps": 64,
    })
    assert main(["run", cfg, "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "params.m" in err and "overflows" in err
    assert "must stay positive" not in err


_SIGMAS = st.one_of(
    st.sampled_from([1.0, 0.5, -2.0]),
    st.builds(lambda a, b: {"type": "affine", "intercept": a, "slope": b},
              st.sampled_from([1.0, 0.5]), st.sampled_from([0.0, 0.5, -1.0])),
)


@given(
    kind=st.sampled_from(["example1", "example2"]),
    n_steps=st.sampled_from([1, 3, 4, 8, 12, 16, 32]),
    t0=st.sampled_from([0.0, 0.25, 0.5]),
    horizon=st.sampled_from([(1.0, 2.0), (0.5, 2.0), (0.25, 1.0), (1.0, 1.5)]),
    rates=st.sampled_from([{}, {"r": 0.2}, {"r": -0.1, "rtilde": -0.1},
                           {"rtilde": 0.5}, {"r": 0.2, "rtilde": 0.0}]),
    m=_WEIGHTS,
    sigma=st.one_of(st.none(), _SIGMAS),
    seed=st.sampled_from([0, 7, 2**40, -1]),
    set_fixed=st.booleans(),
    sizes=st.sampled_from([{}, {"a": 1e-300}, {"a": 1e300}, {"b": 1e200},
                           {"b": 1e-300}, {"x0": -1e200}, {"x0": 1e300},
                           {"x0": 1e300, "b": 1e10}]),
)
@example(kind="example1", n_steps=16, t0=0.0, horizon=(1.0, 2.0), rates={},
         m=1.0, sigma=None, seed=0, set_fixed=True, sizes={"x0": -1e200})
@settings(max_examples=60, deadline=None)
def test_example_configs_are_rejected_or_run(kind, n_steps, t0, horizon, rates,
                                             m, sigma, seed, set_fixed, sizes):
    T, t1 = horizon
    params = {"t0": t0, "T": T, "t1": t1, "m": m, **rates, **sizes}
    if sigma is not None:
        params["sigma"] = sigma
    if kind == "example2" and not set_fixed:
        # r, rtilde and sigma are rejected there: draw them only sometimes
        params = {k: v for k, v in params.items()
                  if k not in ("r", "rtilde", "sigma")}
    raw = {"experiment": kind, "n_steps": n_steps, "n_paths": 16,
           "seed": seed, "params": params}
    try:
        experiments.resolve_config(raw)
    except experiments.InvalidConfigError:
        return
    with tempfile.TemporaryDirectory() as d:
        raw["out"] = d
        path = Path(d) / "ex.json"
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--workers", "1"])
        assert code in (0, 1, 3)
        assert (Path(d) / f"{kind}.csv").exists() == (code != 3)


def test_decomposition_variance_target_is_T_after_t0(tmp_path, decomp_cfg):
    # Btilde lives on [0, T] whatever t0 is: Var(Btilde_T) = T, not T - t0
    assert main(["run", decomp_cfg("late", params={"t0": 0.5}),
                 "--workers", "1"]) == 0
    assert main(["run", decomp_cfg("early"), "--workers", "1"]) == 0
    late = json.loads((tmp_path / "late" / "decomposition.json").read_text())
    check = {c["name"]: c for c in late["checks"]}["variance_within_5pct"]
    assert check["passed"] and "target 1" in check["detail"]
    assert ((tmp_path / "late" / "decomposition.csv").read_bytes()
            == (tmp_path / "early" / "decomposition.csv").read_bytes())


def test_martingale_with_non_finite_products_exits_3(tmp_path, capsys):
    raw = {"experiment": "martingale",
           "policy": {"kind": "constant", "value": 1e307}, "n_steps": 256,
           "n_paths": 1100, "seed": 2, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "big.json", raw),
                 "--workers", "1"]) == 3
    assert "divergence" in capsys.readouterr().err
    cfg = experiments.resolve_config(raw)
    params = experiments.params_from_config(cfg)
    with pytest.raises(DivergenceError):
        martingale_diagnostic(constant_policy(1e307), params, 1100, 2, 256)


def test_example1_after_t0_uses_the_value_at_t0(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "e1late.json", {
        "experiment": "example1", "params": {"t0": 0.5}, "n_paths": 3000,
        "n_steps": 512, "seed": 4, "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 0
    summary = json.loads((tmp_path / "out" / "example1.json").read_text())
    params = experiments.params_from_config(summary["config"])
    want = example1_value(params, 0.5, params.x0, 512)
    got = summary["results"]["value_closed_form"]
    assert got == {"mean": want, "std_error": 0.0}
    assert summary["verdict"] == "pass"


def test_example1_target_grows_x0_as_the_kernel_does(tmp_path):
    # the kernel grows x0 by (1 + r dt)^N, the closed form by e^{r(T - t0)}:
    # b x0 times their gap is 2.4e-2 here, and the check against the closed
    # form failed with diff 2.865e-2 > 3 SE = 1.273e-2
    cfg = write_cfg(tmp_path, "e1x0.json", {
        "experiment": "example1", "params": {"x0": 1000.0, "r": 0.2},
        "seed": 1, "out": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--workers", "1"]) == 0
    summary = json.loads((tmp_path / "out" / "example1.json").read_text())
    params = experiments.params_from_config(summary["config"])
    n = summary["config"]["n_steps"]
    results = summary["results"]
    assert results["value_closed_form"]["mean"] == example1_value(
        params, 0.0, 1000.0, n)
    growth = (1.0 + 0.2 * 2.0 / n) ** (n // 2)  # T = 1 is node n/2 of [0, 2]
    target = example1_value(params, 0.0, 0.0, n) - 1000.0 * growth
    assert results["diff"] == pytest.approx(results["value_mc"]["mean"] - target,
                                            abs=1e-9)



@pytest.mark.parametrize("params, target", [
    ({"b": 2.0}, -1.0),  # a H h^2 - b h H = 1 - 2
    ({"x0": 1.0}, -1.25),  # 0.25 - (1 + 0.5)
], ids=["b-2", "x0-1"])
def test_example2_no_info_target_counts_b_and_x0(tmp_path, params, target):
    # the target used to be a H h^2 - h H excess: right only at b = 1, x0 = 0
    raw = {"experiment": "example2", "params": params, "n_paths": 20000,
           "n_steps": 256, "seed": 1, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "e2.json", raw),
                 "--workers", "1"]) == 0
    summary = json.loads((tmp_path / "out" / "example2.json").read_text())
    assert summary["results"]["no_info_target"] == target
    assert summary["verdict"] == "pass"

_HUGE = [1e200, -1e300, math.inf, -math.inf]
_POLICIES = st.one_of(
    st.sampled_from(["example1", "example2", "zero", "nope"]),
    st.builds(lambda v: {"kind": "constant", "value": v},
              st.sampled_from([0.5, -2.0, 1e100, -1e200, 1e300])),
)
_EDGES = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 1e300,
                          math.inf, -math.inf])


@given(
    kind=st.sampled_from(["perturbation", "martingale"]),
    n_steps=st.sampled_from([4, 8, 16, 32]),
    t0=st.sampled_from([0.0, 0.25]),
    r=st.sampled_from([0.0, 0.2, -2.0, 1e300, -1e300]),
    windows=st.one_of(st.none(), st.lists(st.lists(_EDGES, min_size=2,
                                                   max_size=2),
                                          min_size=1, max_size=2)),
    y_grid=st.lists(st.sampled_from([0.0, 0.5, -0.25, *_HUGE]), min_size=1,
                    max_size=4),
    theta0=st.sampled_from([1.0, -0.7, 1e300, *_HUGE, "clip_L", "clip_LB"]),
    threshold=st.sampled_from([3.0, 0.5, 1e300, math.inf]),
    policy=_POLICIES,
)
# an infinite window edge used to raise OverflowError in TimeGrid.index_of
@example(kind="martingale", n_steps=32, t0=0.0, r=0.0,
         windows=[[0.25, math.inf]], y_grid=[0.0], theta0=1.0, threshold=3.0,
         policy="zero")
# the sweep's growth powers overflowed outside np.errstate: a RuntimeWarning
@example(kind="perturbation", n_steps=64, t0=0.0, r=1e300, windows=None,
         y_grid=[0.0], theta0=1.0, threshold=3.0,
         policy={"kind": "constant", "value": 0.0})
# no window: np.stack in the martingale reducer raised a ValueError
@example(kind="martingale", n_steps=64, t0=0.0, r=0.0, windows=[],
         y_grid=[0.0], theta0=1.0, threshold=3.0, policy="zero")
@settings(max_examples=60, deadline=None)
def test_perturbation_and_martingale_configs_are_rejected_or_run(
        kind, n_steps, t0, r, windows, y_grid, theta0, threshold, policy):
    raw = {"experiment": kind, "n_steps": n_steps, "n_paths": 16,
           "params": {"t0": t0, "r": r}, "policy": policy}
    if kind == "perturbation":
        raw.update(y_grid=y_grid, theta0=theta0)
        if windows is not None:
            raw["window"] = windows[0]
    else:
        raw.update(windows=windows, threshold=threshold)
    try:
        experiments.resolve_config(raw)
    except experiments.InvalidConfigError:
        return
    with tempfile.TemporaryDirectory() as d:
        raw["out"] = d
        path = Path(d) / "pm.json"
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--workers", "1"])
        assert code in (0, 1, 3)
        assert (Path(d) / f"{kind}.csv").exists() == (code != 3)


@pytest.mark.parametrize("policy, code", [("example1", 0), ("zero", 1)])
def test_an_informed_direction_tells_the_optimum_from_no_control(
        tmp_path, capsys, policy, code):
    # theta0 = 1, the default, cannot: u = 0 passes all three checks there
    raw = {"experiment": "perturbation", "policy": policy, "theta0": "clip_L",
           "n_paths": 4096, "n_steps": 256, "seed": 5,
           "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "p.json", raw),
                 "--workers", "1"]) == code
    summary = json.loads((tmp_path / "out" / "perturbation.json").read_text())
    assert summary["config"]["theta0"] == "clip_L"
    # u = 0 fails all three: argmin, edges and a flat derivative
    assert [c["passed"] for c in summary["checks"]] == [code == 0] * 3


@pytest.mark.parametrize("theta0", ["clip_X", "one", ["clip_L"]])
def test_an_unknown_direction_is_invalid_config(tmp_path, capsys, theta0):
    raw = {"experiment": "perturbation", "theta0": theta0, "n_paths": 64,
           "n_steps": 64, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "t.json", raw)]) == 2
    assert "'theta0' must be a number or one of clip_L, clip_B, clip_LB" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("windows", [[], {}], ids=["list", "object"])
def test_martingale_without_windows_is_invalid_config(tmp_path, capsys,
                                                      windows):
    # both passed validation, then np.stack raised on no window at all
    raw = {"experiment": "martingale", "windows": windows, "n_paths": 64,
           "n_steps": 64, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "w.json", raw),
                 "--workers", "1"]) == 2
    assert "'windows'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_martingale_with_overflowing_moments_exits_3(tmp_path, capsys):
    # every product is finite but their squares are not: all 16 cells used
    # to pass with std_error = inf, and the run exited 0
    raw = {"experiment": "martingale",
           "policy": {"kind": "constant", "value": 1e300}, "n_paths": 512,
           "n_steps": 64, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "big.json", raw),
                 "--workers", "1"]) == 3
    assert "overflowed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("y_max", [1e200, math.inf])
def test_perturbation_with_an_overflowing_amplitude_exits_3(tmp_path, capsys,
                                                            y_max):
    # F(y) = c0 + c1 y + c2 y^2 is not finite there: it used to raise
    # "standard error must be nonnegative" with a traceback
    raw = {"experiment": "perturbation", "y_grid": [0.0, y_max],
           "n_paths": 512, "n_steps": 64, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "y.json", raw),
                 "--workers", "1"]) == 3
    assert "overflowed" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["example1", "example2"])
def test_a_cost_weight_whose_square_overflows_exits_3(tmp_path, capsys, kind):
    # b**2 used to raise OverflowError for b >= 1.4e154
    raw = {"experiment": kind, "params": {"b": 1e200}, "n_paths": 512,
           "n_steps": 64, "out": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "b.json", raw),
                 "--workers", "1"]) == 3
    assert "divergence" in capsys.readouterr().err


@pytest.mark.parametrize("kind, params", [
    ("hjb-residual", {"b": 1e200}),  # every residual nan: used to pass
    ("hjb-residual", {"sigma": 1e200}),  # sigma^2 Gxx = inf * 0: NonConvexError
    ("hjb-residual", {"r": 1000}),  # e^{-r(t-T)}: OverflowError
    ("example1", {"r": 1000}),
], ids=["hjb-b", "hjb-sigma", "hjb-r", "example1-r"])
def test_a_closed_form_that_overflows_exits_3(tmp_path, capsys, kind, params):
    raw = {"experiment": kind, "params": params, "n_steps": 8, "n_paths": 64,
           "out": str(tmp_path / "out")}
    if kind == "hjb-residual":
        raw.update(n_probes=20, n_fields=3)
    assert main(["run", write_cfg(tmp_path, "big.json", raw),
                 "--workers", "1"]) == 3
    assert "divergence" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _csv_numbers_are_finite(path):
    for line in path.read_text().splitlines()[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue  # a label
            if not math.isfinite(value):
                return False
    return True


_POSITIVE = st.sampled_from([0.5, 1000.0, 1e-300, 1e200, 1e300])
_SIGNED = st.one_of(_POSITIVE, st.sampled_from([-2.0, -1e300]))
# valid overrides only, or one invalid override (which exits 2) alone
_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from([[], ["--seed", "0"], ["--seed", str(2**70)]]),
              st.sampled_from([[], ["--n-paths", "2"], ["--n-paths", "1025"]]),
              st.sampled_from([["--workers", "1"], ["--workers", "2"]]),
              ).map(lambda parts: sum(parts, [])),
    st.sampled_from([["--seed", "-1"], ["--n-paths", "1"], ["--workers", "0"],
                     ["--n-paths", str(experiments.CAPS["n_paths"] + 1)]]),
)
# a config field above its cap, by one or by far (the hjb-residual fields
# count as unknown for decomposition, which exits 2 as well); ``workers``
# caps the --workers flag, not a config field, and has tests of its own
_ABOVE_CAP = st.one_of(
    st.just({}),
    st.builds(lambda key, excess: {key: experiments.CAPS[key] + excess},
              st.sampled_from(sorted(set(experiments.CAPS) - {"workers"})),
              st.sampled_from([1, 10**13, 10**400])),
)


@given(
    kind=st.sampled_from(["decomposition", "hjb-residual"]),
    n_steps=st.sampled_from([8, 16, 24, 32]),  # t0, T on a node of [0, 2]
    t0=st.sampled_from([0.0, 0.25]),
    horizon=st.sampled_from([(1.0, 2.0), (0.5, 2.0), (1.5, 2.0)]),
    m=_WEIGHTS,
    sizes=st.fixed_dictionaries({}, optional={
        "r": _SIGNED, "a": _POSITIVE, "b": _POSITIVE, "x0": _SIGNED,
        "sigma": _SIGNED}),
    overrides=_OVERRIDES,
    above_cap=_ABOVE_CAP,
)
# every residual used to be nan, and the run passed
@example(kind="hjb-residual", n_steps=8, t0=0.0, horizon=(1.0, 2.0), m=1.0,
         sizes={"b": 1e200}, overrides=["--workers", "1"], above_cap={})
# accepted, and the run could never finish
@example(kind="hjb-residual", n_steps=8, t0=0.0, horizon=(1.0, 2.0), m=1.0,
         sizes={}, overrides=["--workers", "1"], above_cap={"n_fields": 10**400})
# escaped as numpy's MemoryError ("Unable to allocate 72.8 TiB")
@example(kind="decomposition", n_steps=8, t0=0.0, horizon=(1.0, 2.0), m=1.0,
         sizes={}, overrides=["--n-paths", "2"], above_cap={"n_steps": 10**13})
# named the invalid weight, not the --n-paths above its cap
@example(kind="decomposition", n_steps=8, t0=0.0, horizon=(1.0, 2.0),
         m={"type": "affine", "intercept": 0.0, "slope": 0.0}, sizes={},
         overrides=["--n-paths", str(experiments.CAPS["n_paths"] + 1)],
         above_cap={})
@settings(max_examples=40, deadline=None)
def test_decomposition_hjb_residual_and_overrides_are_rejected_or_run(
        kind, n_steps, t0, horizon, m, sizes, overrides, above_cap):
    T, t1 = horizon
    raw = {"experiment": kind, "n_steps": n_steps, "n_paths": 16,
           "params": {"t0": t0, "T": T, "t1": t1, "m": m, **sizes}}
    if kind == "hjb-residual":
        raw.update(n_probes=8, n_fields=2)
    raw.update(above_cap)
    over = [f"'{key}'" for key in above_cap]
    if overrides == ["--n-paths", str(experiments.CAPS["n_paths"] + 1)]:
        over.append("'--n-paths'")
    with tempfile.TemporaryDirectory() as d:
        raw["out"] = d
        path = Path(d) / "cfg.json"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["run", str(path), *overrides])
        csv = Path(d) / f"{kind}.csv"
        assert code in (0, 1, 2, 3)
        assert csv.exists() == (code in (0, 1))
        assert code not in (0, 1) or _csv_numbers_are_finite(csv)
        if over:  # above a cap: exit 2, naming the field
            assert code == 2 and over[0] in err.getvalue()
