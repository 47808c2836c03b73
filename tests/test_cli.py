import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import umachine
from umachine import cli
from umachine.cli import main
from umachine.machine import DEFAULT_FUEL, Rule, RuleBase
from umachine.server import MAX_FUEL, MAX_TERM_DEPTH

# The package's source, for ``python -m umachine.cli`` in a subprocess.
SRC = str(Path(umachine.__file__).resolve().parents[1])

PARTIAL_VIEW = """\
document http://www.openmath.org/cd

view NumberArith : arith1 -> Computation
  constant plus = (args: List[Term]) "
  "
  constant minus = (a: Term, b: Term) "(OMI(x), OMI(y)) -> OMI(x - y)"
  constant times = (args: List[Term]) "integer product"
  constant unary_minus = (a: Term) "integer negation"
  constant power = (a: Term, b: Term) "integer exponentiation"
"""


@pytest.fixture()
def partial_project(tmp_path):
    root = tmp_path / "na"
    (root / "source").mkdir(parents=True)
    (root / "source" / "numberarith.mmt").write_text(PARTIAL_VIEW, "utf-8")
    return root


def test_simplify_expression(capsys):
    code = main(["simplify", "-e", "1+2*3", "--scope", "arith1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "7"


def test_simplify_in_a_scope_with_a_bracketed_host_exits_1(capsys):
    code = main(["simplify", "-e", "1", "--scope", "http://[x?arith1"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: unknown module http://[x?arith1\n"


def test_default_scope_spans_all_shipped_cds(capsys):
    code = main(["simplify", "-e", "quotient(7,2) + factorial(4)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "27"


def test_simplify_refuses_a_doctype(capsys):
    code = main(["simplify", "--xml", "-e",
                 '<!DOCTYPE OMOBJ [<!ENTITY e "1">]><OMOBJ><OMI>&e;</OMI>'
                 "</OMOBJ>"])
    assert code == 1
    assert capsys.readouterr().err == "error: a DOCTYPE is not accepted\n"


def test_simplify_xml(capsys):
    code = main(["simplify", "--xml", "-e",
                 "<OMOBJ><OMA><OMS cdbase='http://www.openmath.org/cd' "
                 "cd='arith1' name='plus'/><OMI>1</OMI><OMI>2</OMI></OMA>"
                 "</OMOBJ>", "--scope", "arith1"])
    assert code == 0
    assert "<OMI>3</OMI>" in capsys.readouterr().out


def test_check_stdlib_is_clean(capsys):
    assert main(["check"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_partial_view_exits_1(partial_project, capsys):
    code = main(["check", str(partial_project)])
    out = capsys.readouterr().out
    assert code == 1
    assert "arith1?plus" in out
    missing = [l for l in out.splitlines() if "missing assignment" in l]
    assert len(missing) == 1 and "arith1?plus" in missing[0]


def test_check_prints_a_missing_assignment_as_a_diagnostic(partial_project,
                                                          capsys):
    assert main(["check", str(partial_project)]) == 1
    mmt = partial_project / "source" / "numberarith.mmt"
    assert capsys.readouterr().out == (
        f"error {mmt}:3 arith1?plus missing assignment in view NumberArith\n")


def test_check_refuses_a_parameter_list_no_function_can_match(tmp_path,
                                                              capsys):
    root = tmp_path / "p"
    (root / "source").mkdir(parents=True)
    mmt = root / "source" / "t.mmt"
    mmt.write_text("document um:/t\ntheory T : OpenMath\n  constant f\n"
                   "  constant g : Object → Object\n"
                   "view V : T -> Computation\n"
                   '  constant f = (a: Term) "a"\n'
                   '  constant g = (a: Term) "a"\n', encoding="utf-8")
    assert main(["check", str(root), "--no-stdlib"]) == 1
    assert capsys.readouterr().out == (
        f"error {mmt}:6 T?f parameter list in view V has 1 parameter(s); "
        "arity 0 takes 0\n")


@pytest.mark.parametrize("command", ["check", "test"])
@pytest.mark.parametrize("block, include, message", [
    ("view V : arith1 -> Computation", "arith1",
     "http://www.openmath.org/cd?arith1 is a theory, not a view"),
    # Without a constant after it, the include is the block's last line.
    ("theory T : OpenMath", "IntegerArith",
     "http://www.openmath.org/cd?IntegerArith is a view, not a theory"),
])
def test_an_include_of_the_wrong_kind_fails_at_its_line(
        tmp_path, capsys, command, block, include, message):
    root = tmp_path / "kind"
    (root / "source").mkdir(parents=True)
    mmt = root / "source" / "k.mmt"
    mmt.write_text(f"document um:/kind\n\n{block}\n  include {include}\n",
                   "utf-8")
    assert main([command, str(root)]) == 2
    assert capsys.readouterr().err == f"error: {mmt}:4:0: {message}\n"


def test_test_command_reports_passes(capsys):
    code = main(["test"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("passed 1/1")


def test_load_writes_report_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(["load", "--report", str(report)])
    assert code == 0
    text = report.read_text()
    assert "rules registered: 26" in text
    assert text.strip().endswith("passed 1/1")


def test_extract_and_integrate_commands(partial_project, capsys):
    assert main(["extract", str(partial_project)]) == 0
    out = capsys.readouterr().out
    assert "NumberArith.native" in out
    assert main(["integrate", str(partial_project)]) == 0
    assert capsys.readouterr().out.strip() == ""  # untouched -> no changes


def test_simplify_parse_error_exit_code(capsys):
    code = main(["simplify", "-e", "1+", "--scope", "arith1"])
    assert code == 1


def test_hard_error_exit_code(capsys):
    code = main(["check", "/nonexistent/really"])
    assert code == 2


def test_simplify_fuel_exhaustion_exit(capsys):
    code = main(["simplify", "-e", "1+2*3", "--scope", "arith1",
                 "--fuel", "1"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "1+6"


def test_repl(monkeypatch, capsys):
    lines = iter(["1+1", ":fuel 50", "2*2", ":scope NumbersTest",
                  "{1,2}∪{2,3}", ":quit"])
    monkeypatch.setattr("builtins.input", lambda _prompt="": next(lines))
    assert main(["repl", "--scope", "arith1"]) == 0
    out = capsys.readouterr().out
    assert "2" in out.splitlines()
    assert "4" in out.splitlines()
    assert "{1,2,3}" in out.splitlines()


def test_fuel_env_override(monkeypatch, capsys):
    monkeypatch.setenv("UM_FUEL", "1")
    code = main(["simplify", "-e", "1+2*3", "--scope", "arith1"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "1+6"


def test_test_command_accepts_the_stdlib_path(capsys):
    import umachine.stdlib as stdlib
    code = main(["test", str(stdlib.root())])
    out = capsys.readouterr().out
    assert code == 0 and out.strip().endswith("passed 1/1")


def test_no_stdlib_flag(tmp_path, capsys):
    root = tmp_path / "own"
    (root / "source").mkdir(parents=True)
    (root / "source" / "t.mmt").write_text(
        "document um:/own\n\ntheory T : OpenMath\n  constant c : Object\n",
        "utf-8")
    assert main(["check", str(root), "--no-stdlib"]) == 0


def test_unknown_scope_exits_1(capsys):
    code = main(["simplify", "-e", "1+2", "--scope", "nosuch"])
    assert code == 1
    assert "unknown module" in capsys.readouterr().err


def test_ambiguous_scope_exits_1(tmp_path, capsys):
    root = tmp_path / "amb"
    (root / "source").mkdir(parents=True)
    (root / "source" / "amb.mmt").write_text(
        "document um:/amb\n\n"
        "theory A : OpenMath\n  constant f : Object # 1 ⊕ 2 prec 50\n\n"
        "theory B : OpenMath\n  constant g : Object # 1 ⊕ 2 prec 50\n\n"
        "theory C : OpenMath\n  include A\n  include B\n", "utf-8")
    code = main(["simplify", str(root), "--no-stdlib", "-e", "1", "--scope",
                 "C"])
    assert code == 1
    assert "both match '⊕'" in capsys.readouterr().err


def test_fuel_above_max_exits_1(capsys):
    code = main(["simplify", "-e", "1+2", "--scope", "arith1",
                 "--fuel", str(MAX_FUEL + 1)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: fuel out of range")


@pytest.mark.parametrize("fuel", [0, MAX_FUEL + 1])
def test_test_with_fuel_out_of_range_exits_1(fuel, capsys):
    assert main(["test", "--fuel", str(fuel)]) == 1
    assert capsys.readouterr().err == f"error: fuel out of range: {fuel}\n"


def test_term_nested_too_deeply_exits_1(capsys):
    # In process, at the interpreter's default recursion limit, which
    # main() leaves as it is.
    before = sys.getrecursionlimit()
    for argv in [["-e", "(" * 50_000 + "1" + ")" * 50_000],
                 ["--xml", "-e", "<OMA><OMS cdbase='c' cd='d' name='n'/>"
                  * (MAX_TERM_DEPTH + 1) + "<OMI>1</OMI>"
                  + "</OMA>" * (MAX_TERM_DEPTH + 1)]]:
        assert main(["simplify", "--scope", "arith1", *argv]) == 1
        assert capsys.readouterr().err == "error: term nested too deeply\n"
    assert sys.getrecursionlimit() == before


def test_repeated_bound_variable_exits_1(capsys):
    expr = ("<OMBIND><OMS cdbase='c' cd='fns1' name='lambda'/><OMBVAR>"
            "<OMV name='x'/><OMV name='x'/></OMBVAR><OMV name='x'/></OMBIND>")
    assert main(["simplify", "--xml", "-e", expr]) == 1
    assert capsys.readouterr().err == (
        "error: bound variable names must be pairwise distinct\n")


@pytest.mark.parametrize("via_env", [False, True])
def test_serve_with_fuel_out_of_range_exits_1_without_serving(
        via_env, monkeypatch, capsys):
    served = []
    monkeypatch.setattr("umachine.cli.serve",
                        lambda *args, **kwargs: served.append(args))
    argv = ["serve", "--port", "0"]
    if via_env:
        monkeypatch.setenv("UM_FUEL", str(MAX_FUEL + 1))
    else:
        argv += ["--fuel", str(MAX_FUEL + 1)]
    assert main(argv) == 1
    assert served == []
    assert capsys.readouterr().err == f"error: fuel out of range: {MAX_FUEL + 1}\n"


def test_repl_reports_typed_errors_and_reads_on(monkeypatch, capsys):
    lines = iter(["1+", "2^200000", ":fuel 0", "1+1", ":fuel 5", "1+1",
                  ":quit"])
    monkeypatch.setattr("builtins.input", lambda _prompt="": next(lines))
    assert main(["repl", "--scope", "arith1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("error: parse error")
    assert out[2] == "2^200000"
    assert out[3:5] == ["error: fuel out of range: 0", f"fuel: {DEFAULT_FUEL}"]
    assert out[5] == "2" and out[7] == "2"


def test_repl_fuel_is_checked_and_a_bad_value_keeps_the_old(monkeypatch,
                                                            capsys):
    nested = "(" * 7 + "1" + "+1)" * 7
    lines = iter([":fuel 5", ":fuel 0", f":fuel {MAX_FUEL + 1}",
                  ":fuel 99999999999", ":fuel five", "1+1", nested, ":quit"])
    monkeypatch.setattr("builtins.input", lambda _prompt="": next(lines))
    assert main(["repl", "--scope", "arith1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "fuel: 5",
        "error: fuel out of range: 0", "fuel: 5",
        f"error: fuel out of range: {MAX_FUEL + 1}", "fuel: 5",
        "error: fuel out of range: 99999999999", "fuel: 5",
        "error: fuel must be an integer", "fuel: 5",
        "2",
        "(6+1)+1",  # seven steps asked, five allowed: a partial result
    ]


@pytest.mark.parametrize("expr, code, out, err", [
    ("2^200000", 0, "2^200000", ""),
    ("factorial(2000)", 0, "integer1?factorial(2000)", ""),
    ("2^1000000000000", 0, "2^1000000000000", ""),
    ("10^4000*10^4000", 1, "", "error: result integer too long to render"),
])
def test_big_integers_get_typed_exit_codes(expr, code, out, err, capsys):
    assert main(["simplify", "-e", expr]) == code
    captured = capsys.readouterr()
    assert (captured.out.strip(), captured.err.strip()) == (out, err)


def test_xml_integer_too_long_to_decode_exits_1(capsys):
    code = main(["simplify", "--xml", "-e", f"<OMI>{'7' * 5000}</OMI>"])
    assert code == 1
    assert "OMI too long" in capsys.readouterr().err


@pytest.mark.parametrize("var, flag, argv", [
    ("UM_FUEL", "--fuel", ["simplify", "-e", "1+2"]),
    ("UM_PORT", "--port", ["serve"]),
])
def test_a_bad_environment_override_fails_like_the_bad_flag(
        var, flag, argv, monkeypatch, capsys):
    monkeypatch.setattr("umachine.cli.serve",
                        lambda *args, **kwargs: pytest.fail("served"))
    with pytest.raises(SystemExit) as e:
        main(argv + [flag, "abc"])
    assert e.value.code == 2
    via_flag = capsys.readouterr().err
    assert f"argument {flag}: invalid int value: 'abc'" in via_flag
    monkeypatch.setenv(var, "abc")
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert capsys.readouterr().err == via_flag


def test_port_env_override(monkeypatch, capsys):
    ports = []
    monkeypatch.setattr("umachine.cli.serve",
                        lambda service, port: ports.append(port))
    monkeypatch.setenv("UM_PORT", "8123")
    assert main(["serve"]) == 0
    assert ports == [8123]


def test_a_rule_out_of_memory_exits_1(monkeypatch, capsys):
    load = cli._load

    def load_with_plus_out_of_memory(args):
        graph, base, report = load(args)

        def out_of_memory(args):
            raise MemoryError

        rules = [Rule(r.head, r.arity, out_of_memory)
                 if r.head.local == "arith1?plus" else r for r in base.rules()]
        return graph, RuleBase(rules), report

    monkeypatch.setattr(cli, "_load", load_with_plus_out_of_memory)
    assert main(["simplify", "-e", "1+2", "--scope", "arith1"]) == 1
    assert capsys.readouterr().err == "error: term too large\n"


def test_serve_on_port_0_prints_the_port_and_stops_on_sigterm():
    proc = subprocess.Popen(
        [sys.executable, "-m", "umachine.cli", "serve", "--no-stdlib",
         "--port", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC})
    try:
        line = proc.stdout.readline().decode()
        assert line.startswith("serving on port "), proc.stderr.read()
        port = int(line.split()[-1])
        assert port != 0
        # A kept-alive connection, its handler waiting for the next request.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            assert s.recv(65536).endswith(b"\r\n\r\nok")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
        proc.communicate()


def test_the_cli_imports_no_http_library_module():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, umachine.cli; print(sorted({"
         "'http.server', 'http.client', 'email.parser'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        text=True, check=True).stdout
    assert out == "[]\n"
