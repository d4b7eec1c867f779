"""End-to-end CLI behavior: exit codes, overrides, and byte determinism."""

import json
import tempfile
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


@pytest.mark.parametrize("kind, field, value", [
    ("martingale", "expect_pass", "no"),
    ("martingale", "threshold", True),
    ("forward-convergence", "eps_ladder", [True]),
    ("hjb-residual", "n_fields", True),
    ("hjb-residual", "n_probes", True),
])
def test_json_booleans_and_strings_are_not_numbers_or_flags(
        tmp_path, capsys, kind, field, value):
    raw = {"experiment": kind, field: value, "n_paths": 64, "n_steps": 64,
           "out": str(tmp_path / "out")}
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
)
@settings(max_examples=60, deadline=None)
def test_example_configs_are_rejected_or_run(kind, n_steps, t0, horizon, rates,
                                             m, sigma, seed, set_fixed):
    T, t1 = horizon
    params = {"t0": t0, "T": T, "t1": t1, "m": m, **rates}
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
    want = example1_value(params, 0.5, params.x0, 3000, 4, 512)
    got = summary["results"]["value_closed_form"]
    assert got == {"mean": want.mean, "std_error": want.std_error}
    assert summary["verdict"] == "pass"
