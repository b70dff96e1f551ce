import gc
import hashlib
import json

import pytest

from wilson import cli, growth, wreath
from wilson.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"]
    assert len(doc["claims"]) == 31
    assert all(c["verdict"] for c in doc["claims"])


def test_verify_all_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-all")
    _, out2, _ = run(capsys, "verify-all")
    assert out1 == out2


def test_ball_csv(capsys):
    code, out, _ = run(capsys, "ball", "--genset", "S:1", "--radius", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# wilson-growth")
    assert lines[1].startswith("# config: command=ball")
    assert lines[2] == "radius,ball_size,sphere_size,estimate_root,estimate_ratio"
    assert lines[3].startswith("1,4,3,")


def test_ball_dot(capsys):
    code, out, _ = run(capsys, "ball", "--genset", "tilde", "--radius", "2",
                       "--format", "dot")
    assert code == 0
    assert "graph ball {" in out
    assert out.endswith("}\n")


def test_growth_conventions(capsys):
    code, out, _ = run(capsys, "growth", "--genset", "S:2", "--radius", "4")
    assert code == 0
    code, out_exact, _ = run(capsys, "growth", "--genset", "S:2", "--radius", "4",
                             "--convention", "exact")
    assert code == 0
    assert "convention=atmost" in out
    assert "convention=exact" in out_exact


def test_lemma30(capsys):
    code, out, _ = run(capsys, "lemma30", "--max-n", "25")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,delta_free_count"
    assert lines[1] == "0,1"
    assert lines[-1] == "25,24"


def test_lambda(capsys):
    code, out, _ = run(capsys, "lambda", "--steps", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,lambda_n,eta_n,residual"
    assert lines[1].startswith("1,2.000000000000000,0.0934")
    assert lines[2].startswith("2,1.874")


def test_free_monoid(capsys):
    code, out, _ = run(capsys, "free-monoid", "--length", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["distinct"] == 63
    code, out, _ = run(capsys, "free-monoid", "--length", "3", "--all-pairs")
    assert code == 0
    assert len(json.loads(out)["reports"]) == 6


def test_local_iso(capsys):
    code, out, _ = run(capsys, "local-iso", "--radius", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_n"] == 1
    code, out, _ = run(capsys, "local-iso", "--radius", "4", "--max-n", "1")
    assert code == 1
    assert json.loads(out)["found"] is False


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--genset", "tilde", "--word", "x~",
                       "--string", "15")
    assert code == 0
    assert out == "55\n"
    # the free-monoid quadruple is a generating set of ``act`` alone
    code, out, _ = run(capsys, "act", "--genset", "free", "--word", "a d",
                       "--string", "12121")
    assert (code, out) == (0, "11221\n")


def test_curves(capsys):
    code, out, _ = run(capsys, "curves", "--lam", "2.0")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "eta,pow_curve,g_curve"
    assert len(lines) == 100


USAGE_ERRORS = {
    0: (["lemma30", "--max-n", "0"], "max_n must be >= 1"),
    1: (["lambda", "--steps", "0"], "steps must be >= 1"),
    2: (["growth", "--radius", "0"], "radius must be >= 1"),
    3: (["ball", "--radius", "-1"], "radius must be >= 0"),
    4: (["free-monoid", "--length", "0"], "length must be >= 1"),
    5: (["local-iso", "--radius", "0"], "radius must be >= 1"),
    6: (["act", "--word", "a", "--string", "19"], "invalid point '9'"),
    9: (["ball", "--genset", "S:x", "--radius", "2"], "'S:x'"),
    10: (["ball", "--genset", "S:0", "--radius", "2"], "'S:0'"),
    16: (["curves", "--lam", "-1"], "lambda must be a finite number >= 1"),
    17: (["curves", "--lam", "nan"], "lambda must be a finite number >= 1"),
    18: (["curves", "--lam", "inf"], "lambda must be a finite number >= 1"),
    19: (["local-iso", "--max-n", "0"], "max_n must be >= 1"),
    20: (["local-iso", "--max-n", "-3"], "max_n must be >= 1"),
    22: (["free-monoid", "--length", "13"], "length 13 exceeds desk-scale cap 12"),
    24: (["growth", "--genset", "tilde", "--radius", "0", "--convention", "exact"],
         "radius must be >= 1"),
    25: (["act", "--word", "a", "--string", "1x"], "invalid point 'x'"),
    26: (["act", "--word", "a", "--string", "1\u0663"], "invalid point '\u0663'"),
    27: (["ball", "--radius", "13"], "radius 13 exceeds desk-scale cap 12"),
    28: (["local-iso", "--radius", "13"], "radius 13 exceeds desk-scale cap 12"),
    29: (["ball", "--genset", "nope", "--radius", "2"], "unknown generating set 'nope'"),
    30: (["act", "--genset", "tilde", "--word", "q", "--string", "1"],
         "unknown symbol 'q'"),
    31: (["ball", "--genset", "S:\u0662", "--radius", "2"], "'S:\u0662'"),
    32: (["ball", "--genset", "free", "--radius", "2"], "unknown generating set 'free'"),
    33: (["ball", "--radius", "-1", "--format", "dot"], "radius must be >= 0"),
}


# each case keeps the id it was first reported under, when the table also had
# an environment column (None for all of these); cases 7 and 8 (an environment
# variable), 11 and 12 (a command-line option) and 13, 14, 15, 21 and 23 (the
# residual tolerance of `lambda`) are retired with what they set; none is one
# of argparse's own errors, so main returns 2 and prints one line
@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=f"argv{n}-None-{message}")
    for n, (argv, message) in USAGE_ERRORS.items()
])
def test_usage_errors(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"wilson {argv[0]}: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""


# sha256 of outputs made by a separate parity search ("exactly n"), a separate
# edge pass (DOT) and, for free-monoid (whose bar(u) atoms have order 4), words
# that carried an exponent on every atom letter, and of the six invocations the
# benchmark (bench/run.py) runs, with the digests it checks; they must stay
# byte for byte
PINNED = {
    ("growth", "--genset", "S:1", "--radius", "10", "--convention", "exact"):
        "44e12502f6d291076cee48ebe3e060d0cddcc970c4709fe8c53cf1820e6783b7",
    ("growth", "--genset", "tilde", "--radius", "10", "--convention", "exact"):
        "3cdd40aa8810b19fd8da73a3b2d822d62a11bebddaecb9b456fc1598d788de8d",
    ("ball", "--genset", "S:1", "--radius", "6", "--format", "dot"):
        "175038ea435b2754cade66e559f3873b61c7f843f63a761888ad96f10511192a",
    ("ball", "--genset", "tilde", "--radius", "7", "--format", "dot"):
        "a5c477762a85d99e65cf56e0a29b9ce6d67044db56c8323fe058f2c107685db2",
    ("free-monoid", "--all-pairs", "--length", "8"):
        "55d8bf6ad02ad386363e5c77a6e8aa5174ee3881c9da29a1c623413638b60980",
    ("growth", "--genset", "tilde", "--radius", "16", "--force"):
        "6ffa50551c12b47630e689a0bac2e6792f7f10783e56ee6d30f219b24f539654",
    ("ball", "--genset", "S:1", "--radius", "12"):
        "0ddbd241494f5c5fb64692f6920bc3f10b820cb8802b5e84247472d9b252111e",
    ("local-iso", "--radius", "12", "--max-n", "6", "--force"):
        "e1cd73c5dae079135b8a97ae8176ca77a2662de751bfd3441189e6e823de9f81",
    ("verify-all",):
        "1398ac5f4295e622ddce3c4b7e1dca82f486b053dd0c240b4f4774d3ccf88261",
    ("lemma30", "--max-n", "120"):
        "0b7777e6504fbfc35f4b927ab1f30746e31f54c0469230b57b9be7c85aeae9ef",
    ("lambda", "--steps", "2000"):
        "f8799337e5075b2aabccde6d313bd35c2726b07a3d4dac7bf3f30f61b54c37e0",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_pinned_output_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


def test_large_level(capsys):
    """Levels are primed bottom-up, so a deep level needs no deep recursion;
    its ball agrees with tilde's up to radius 4."""
    code, out, _ = run(capsys, "growth", "--genset", "S:1200", "--radius", "4")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert [int(r[1]) for r in rows] == [4, 10, 22, 43]


def test_state_budget_flag(capsys, monkeypatch):
    monkeypatch.setattr(wreath, "STATE_BUDGET", 2)
    code, _, err = run(capsys, "verify-all")
    assert code == 3
    assert "resource error" in err


def test_outgrown_key_field_flag(capsys, monkeypatch):
    """A ball search whose root ids outgrow the fields of its member keys
    ends with exit 3 and a message, as an outgrown closure does."""
    monkeypatch.setattr(growth, "FIELD_BITS", 2)
    code, out, err = run(capsys, "growth", "--genset", "tilde", "--radius", "6")
    assert code == 3 and out == ""
    assert "resource error: ball search: 5 root permutations outgrow" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "lemma30", "--max-n", "5", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "5,15"


@pytest.mark.parametrize("where", ["missing/out.csv", "."])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, where):
    """An ``-o`` path that cannot be opened (a missing directory, a directory)
    exits 2 with one line on stderr, not with a traceback and exit 1."""
    target = tmp_path / where
    code, out, err = run(capsys, "lemma30", "--max-n", "3", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"wilson lemma30: error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_an_os_error_inside_a_command_is_not_a_usage_error(tmp_path, monkeypatch):
    """Only the write of the output is guarded: an ``OSError`` raised while a
    command runs is a fault of the program and surfaces whole."""
    def fail(max_n):
        raise FileNotFoundError("raised inside the command")

    # cmd_lemma30 imports verify_lemma30 from wilson.words when it runs
    monkeypatch.setattr("wilson.words.verify_lemma30", fail)
    with pytest.raises(FileNotFoundError, match="raised inside the command"):
        main(["lemma30", "-o", str(tmp_path / "out.csv")])


def test_collector_state_is_restored_after_an_error(capsys, monkeypatch):
    """``main`` runs a command with the collector off and leaves it as the
    caller had it, whatever the exit: 0, 2 (an argument the engine rejects,
    or a cap) or 3 (an exhausted closure budget)."""
    def exit_code(*argv):
        return run(capsys, *argv)[0]

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert exit_code("growth", "--genset", "S:1", "--radius", "3") == 0
            assert gc.isenabled() == enabled
            assert exit_code("growth", "--radius", "0") == 2
            assert gc.isenabled() == enabled
            assert exit_code("ball", "--radius", "13") == 2
            assert gc.isenabled() == enabled
            with monkeypatch.context() as patch:
                patch.setattr(wreath, "STATE_BUDGET", 2)
                assert exit_code("verify-all") == 3
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_command_runs_no_collection(capsys):
    """A ball search under ``main`` runs with the collector off.  The young
    generation starts empty, so parsing (about 430 new objects) stays under
    the 700 that would start a collection before the command does."""
    runs = []

    def count(phase, info):
        runs.append(phase)

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(["growth", "--genset", "tilde", "--radius", "8", "--force"])
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert code == 0
    assert runs == []


def test_cyclic_garbage_does_not_grow_with_the_radius(capsys):
    """The premise of ``main``'s policy: the engine makes no cyclic garbage,
    so a command leaves as much at radius 10 as at radius 3 (argparse's)."""
    def left(radius):
        run(capsys, "ball", "--genset", "S:1", "--radius", radius)
        gc.unfreeze()
        return gc.collect()

    left("3")  # warm-up: what earlier calls froze, and the generating set
    assert left("3") == left("10")
