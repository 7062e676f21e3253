import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import rb_operon
from rb_operon.cli import _load_config, _parse_value, build_parser, main

TINY = ["--set", f"h={1 / 12}", "--set", "n_pool=24", "--set", "n_train=16",
        "--set", "n_val=8", "--set", "n_test=8",
        "--set", "greedy_fixed_n=2", "--set", "pod_fixed_n=2"]
TINY2 = ["--set", "n=8", "--set", "n_pool=24", "--set", "n_train=16",
         "--set", "n_val=8", "--set", "n_test=8", "--set", "greedy_fixed_n=4"]


def test_parse_value():
    assert _parse_value("3") == 3 and isinstance(_parse_value("3"), int)
    assert _parse_value("0.5") == 0.5
    assert _parse_value("1e-7") == 1e-7
    assert _parse_value("true") is True
    assert _parse_value("False") is False
    assert _parse_value("none") is None
    assert _parse_value("inclusion") == "inclusion"


def test_rb_build_rejects_unsettable_keys(tmp_path, capsys):
    # the POD tolerance and the inclusion radius are constants, not knobs,
    # and are rejected before anything is written
    for key in ("pod_tol=1e-6", "r0=0.25"):
        out = str(tmp_path / key.partition("=")[0])
        args = (["rb-build", "--example", "1", "--out", out] + TINY
                + ["--set", key])
        assert main(args) == 2
        assert "unknown override" in capsys.readouterr().err
        assert not os.path.exists(out) or os.listdir(out) == []


def test_integer_knobs_reject_nonsense(tmp_path, capsys):
    # an integer knob takes an int or an integral float of at least 1, never
    # a bool, and is rejected before anything is written
    cases = [(1, key) for key in ("n_pool=12.7", "n_pool=true", "n_pool=-5",
                                  "n_train=0", "n_val=0", "n_test=0",
                                  "greedy_fixed_n=0", "pod_fixed_n=0",
                                  "pod_fixed_n=none")]
    cases += [(2, key) for key in ("r_f_max=0", "r_g_max=0",
                                   "sweep_subset=0", "n=2.5")]
    cases += [(3, key) for key in ("eim_q=0", "eim_train=false")]
    for example, key in cases:
        out = str(tmp_path / "run")
        args = ["rb-build", "--example", str(example), "--out", out,
                "--set", key]
        assert main(args) == 2, key
        assert "must be a positive integer" in capsys.readouterr().err, key
        assert not os.path.exists(out), key


def test_rb_build_without_greedy_cap_exits_2(tmp_path, capsys):
    # a greedy tolerance does not stand in for the greedy's maximal
    # dimension, and the missing cap is rejected before anything is written
    out = str(tmp_path / "run")
    args = (["rb-build", "--example", "1", "--out", out, "--no-pod"] + TINY
            + ["--set", "greedy_fixed_n=none", "--set", "greedy_tol=0.01"])
    assert main(args) == 2
    assert "fixed_n" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_rb_build_builds_pod_where_the_example_has_it(tmp_path, capsys):
    # without --no-pod, rb-build follows the example: example 2 has no POD
    # trunk, so none is built from its pool
    out = str(tmp_path / "run")
    assert main(["rb-build", "--example", "2", "--out", out] + TINY2) == 0
    assert "pod trunk" not in capsys.readouterr().out
    assert [n for n in os.listdir(out) if n.startswith("pod_")] == []


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "run")
    code = main(["rb-build", "--example", "1", "--out", out] + TINY)
    assert code == 0
    code = main(["train", "--out", out, "--set", "epochs=3",
                 "--set", "early_stop=5"])
    assert code == 0
    return out


def test_rb_build_artifacts(cli_dir):
    for name in ("manifest.json", "greedy_psi.arr", "pod_psi.arr",
                 "rb_params.arr", "rb_net.json", "greedy_decay.svg"):
        assert os.path.exists(os.path.join(cli_dir, name)), name


def test_config_file_and_set_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 1 / 12, "n_pool": 24}))
    args = build_parser().parse_args(
        ["rb-build", "--example", "1", "--out", str(tmp_path / "run"),
         "--config", str(cfg), "--set", "n_pool=30", "--set", "n_val=4"])
    # --set entries override the file's and add to them
    assert _load_config(args) == {"h": 1 / 12, "n_pool": 30, "n_val": 4}


def test_config_rejections(tmp_path, capsys):
    # each is rejected before the offline stage builds or writes anything
    out = str(tmp_path / "run")
    assert main(["rb-build", "--example", "1", "--out", out,
                 "--set", "garbage_key=3"]) == 2
    assert main(["rb-build", "--example", "1", "--out", out,
                 "--set", "no_equals_sign"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["rb-build", "--example", "1", "--out", out,
                 "--config", str(bad)]) == 2
    # whether to audit is not a setting: bench audits every example
    assert main(["bench", "--example", "1", "--out", out,
                 "--set", "audit=false"]) == 2
    # pod is true or false, never a count or a word, and a POD trunk needs
    # its size, which example 2 does not pin
    for key in ("pod=7", "pod=yes"):
        assert main(["bench", "--example", "1", "--out", out,
                     "--set", key]) == 2
    assert main(["bench", "--example", "2", "--out", out,
                 "--set", "pod=true"]) == 2
    # the mesh recipe is checked before the output directory is made
    assert main(["rb-build", "--example", "1", "--out", out,
                 "--set", "h=-1"]) == 2
    assert main(["rb-build", "--example", "2", "--out", out,
                 "--set", "n=1"]) == 2
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    assert err.count("invalid configuration") == 9
    assert err.count("pod must be true or false") == 2
    assert "pod_fixed_n" in err


def _files(top):
    """Every file under ``top`` with its size and modification time."""
    return {os.path.join(d, f): (os.stat(os.path.join(d, f)).st_size,
                                 os.stat(os.path.join(d, f)).st_mtime_ns)
            for d, _, names in os.walk(top) for f in names}


@pytest.mark.parametrize("args, message", [
    (["train", "--set", "epochs=true"], "epochs must be a positive integer"),
    (["train", "--set", "early_stop=0"],
     "early_stop must be a positive integer"),
    (["train", "--set", "epochs=0"], "epochs must be a positive integer"),
    (["eval", "--n-test", "0"], "n_test must be a positive integer"),
    (["audit", "--queries", "0"], "n_queries must be an integer of at least 2"),
    (["audit", "--queries", "1"], "n_queries must be an integer of at least 2"),
    (["rb-build", "--example", "1", *TINY, "--set", "greedy_tol=true"],
     "greedy_tol must be a number"),
    (["rb-build", "--example", "1", *TINY, "--set", "h=true"],
     "h must be a number"),
    (["rb-build", "--example", "2", *TINY2, "--set", "mode_tol=false"],
     "mode_tol must be a number"),
    (["bench", "--example", "1", *TINY, "--set", "epochs=0"],
     "epochs must be a positive integer"),
])
def test_run_arguments_out_of_range_exit_2(args, message, cli_dir, tmp_path,
                                           capsys):
    # a run argument outside its range exits 2 before anything is written
    # or rebuilt: no epoch count, patience, test count or query count below
    # its least value, and no bool for a real knob
    fresh = args[0] in ("rb-build", "bench")
    out = str(tmp_path / "run") if fresh else cli_dir
    before = _files(os.path.dirname(cli_dir))
    assert main(args + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert _files(os.path.dirname(cli_dir)) == before
    assert not fresh or not os.path.exists(out)


def test_train_without_artifacts(tmp_path, capsys):
    out = str(tmp_path / "empty")
    os.makedirs(out)
    assert main(["train", "--out", out]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_eval_and_audit(cli_dir, tmp_path, capsys):
    assert main(["eval", "--out", cli_dir, "--n-test", "4",
                 "--methods", "rb_galerkin,rb_deeponet", "--plots"]) == 0
    txt = capsys.readouterr().out
    assert "rb_galerkin" in txt and "rb_deeponet" in txt
    for name in ("report.json", "report.txt", "field_truth.svg",
                 "field_pred.svg", "field_error.svg"):
        assert os.path.exists(os.path.join(cli_dir, name)), name

    assert main(["audit", "--out", cli_dir, "--queries", "8"]) == 0
    out = capsys.readouterr().out
    assert "per-query time" in out
    audit = json.load(open(os.path.join(cli_dir, "audit.json")))
    assert audit["reduced_shapes_equal"] is True
    # every timing round is recorded, and the best one is the reported time
    for side in ("base", "doubled"):
        rounds = audit["per_round_seconds"][side]
        assert len(rounds) == audit["timing_rounds"] == 7
        assert min(rounds) / audit["n_queries"] == pytest.approx(
            audit["per_query_seconds"][side], rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_divergence_exit_code(cli_dir, tmp_path, capsys, monkeypatch):
    from rb_operon import branchnet

    scratch = str(tmp_path / "copy")
    shutil.copytree(cli_dir, scratch)
    monkeypatch.setattr(branchnet, "_LR", 1e12)
    code = main(["train", "--out", scratch, "--set", "epochs=40"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_train_rejects_fixed_recipe_keys(cli_dir, tmp_path, capsys):
    # only epochs and early_stop are settable; the step size, batch and the
    # rest of the recipe are constants
    scratch = str(tmp_path / "copy")
    shutil.copytree(cli_dir, scratch)
    for key in ("lr=1e-3", "batch=32", "weight_decay=0"):
        assert main(["train", "--out", scratch, "--set", key]) == 2
        assert "invalid configuration" in capsys.readouterr().err


def test_threads_env_validation(cli_dir, tmp_path, monkeypatch, capsys):
    scratch = str(tmp_path / "copy")
    shutil.copytree(cli_dir, scratch)
    args = ["eval", "--out", scratch, "--n-test", "2",
            "--methods", "rb_galerkin"]
    monkeypatch.setenv("RB_OPERON_THREADS", "zero")
    assert main(args) == 2
    monkeypatch.setenv("RB_OPERON_THREADS", "0")
    assert main(args) == 2
    monkeypatch.setenv("RB_OPERON_THREADS", "1")
    assert main(args) == 0
    capsys.readouterr()


def test_argparse_failures():
    with pytest.raises(SystemExit) as exc:
        main(["rb-build", "--example", "1"])      # --out missing
    assert exc.value.code == 2
    for command in ("eval", "audit"):     # they read no configuration
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", "x", "--set", "n_test=3"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


SUBCOMMANDS = ("rb-build", "train", "eval", "audit", "bench")


def _check_help(res):
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: rb-operon")
    # the {a,b,...} choices list holds exactly the offline command and the
    # stages that read its directory
    choices = re.search(r"\{(.+?)\}", res.stdout).group(1).split(",")
    assert sorted(choices) == sorted(SUBCOMMANDS)


def test_console_script_help():
    """The declared [project.scripts] entry point, run as pip's wrapper runs
    it, so a source checkout without the installed executable checks it."""
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["rb-operon"]
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        rb_operon.__file__)))
    res = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    _check_help(res)


@pytest.mark.skipif(shutil.which("rb-operon") is None,
                    reason="rb-operon is not installed on PATH")
def test_installed_console_script_help():
    res = subprocess.run(["rb-operon", "--help"], capture_output=True,
                         text=True, timeout=60)
    _check_help(res)
