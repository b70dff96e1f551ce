import hashlib
import json

import pytest

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
    code, _, err = run(capsys, "act", "--genset", "tilde", "--word", "q",
                       "--string", "1")
    assert code == 2
    assert "unknown symbol" in err


def test_curves(capsys):
    code, out, _ = run(capsys, "curves", "--lam", "2.0")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "eta,pow_curve,g_curve"
    assert len(lines) == 100


def test_radius_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ball", "--radius", "13"])
    assert exc.value.code == 2
    _, _, err = ("", *capsys.readouterr())
    assert "desk-scale cap" in err


USAGE_ERRORS = {
    0: (["lemma30", "--max-n", "0"], "max_n must be >= 1"),
    1: (["lambda", "--steps", "0"], "steps must be >= 1"),
    2: (["growth", "--radius", "0"], "rmax must be >= 1"),
    3: (["ball", "--radius", "-1"], "radius must be >= 0"),
    4: (["free-monoid", "--length", "0"], "length must be >= 1"),
    5: (["local-iso", "--radius", "0"], "radius must be >= 1"),
    6: (["act", "--word", "a", "--string", "19"], "invalid point '9'"),
    9: (["ball", "--genset", "S:x", "--radius", "2"], "'S:x'"),
    10: (["ball", "--genset", "S:0", "--radius", "2"], "'S:0'"),
    11: (["verify-all", "--state-budget", "0"], "state budget must be >= 1"),
    12: (["verify-all", "--state-budget", "-5"], "state budget must be >= 1"),
}


# each case keeps the id it was first reported under, when the table also had
# an environment column (None for all of these); cases 7 and 8 are retired
@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=f"argv{n}-None-{message}")
    for n, (argv, message) in USAGE_ERRORS.items()
])
def test_usage_errors(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# sha256 of outputs made by a separate parity search ("exactly n"), a separate
# edge pass (DOT) and, for free-monoid (whose bar(u) atoms have order 4), words
# that carried an exponent on every atom letter; they must stay byte for byte
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
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_pinned_output_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


def test_bad_genset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ball", "--genset", "nope", "--radius", "2"])
    assert exc.value.code == 2


def test_state_budget_flag(capsys):
    from wilson.wreath import clear_caches

    clear_caches()
    code, _, err = run(capsys, "verify-all", "--state-budget", "2")
    clear_caches()
    assert code == 3
    assert "resource error" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "lemma30", "--max-n", "5", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "5,15"
