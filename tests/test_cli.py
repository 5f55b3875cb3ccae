"""Command line interface: exit codes, printed output, and JSON mode."""

import ast
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import warnings
from importlib import resources

import pytest

from conftest import fixture_text
import mpst
from mpst import cli
from mpst.cli import main
from mpst.errors import InternalError


def invoke(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke("--json", *argv)
    payload = json.loads(out)
    assert set(payload) == {"command", "verdict", "witness", "timings"}
    assert isinstance(payload["timings"]["seconds"], float)
    del payload["timings"]
    return code, payload, err


class TestParse:
    def test_global_type_prints_canonical_form(self):
        code, out, err = invoke("parse", "fixtures/sec3_global.gt")
        assert code == 0
        assert out == (
            "p -> q : { l1(nat).q -> r : l3(int).end,"
            " l2(bool).q -> r : l5(nat).end }\n"
        )
        assert err == ""

    def test_session_type_extension(self):
        code, out, _ = invoke("parse", "fixtures/sec5_nat.mpst")
        assert code == 0
        assert out == "add!l1(nat).add!l2(nat).add?l3(int).end\n"

    def test_session_extension(self):
        code, out, _ = invoke("parse", "fixtures/adder_zero.mps")
        assert code == 0
        assert out.startswith("@add cl?l1(y1).cl?l2(y2).")
        assert "|| @cl add!l1(5).add!l2(0).add?l3(x).0" in out
        assert "|| @dec mu X.add?l4(z).0 + add?l7(y).add!l8(y).X" in out

    def test_category_flag_overrides_extension(self, tmp_path):
        source = tmp_path / "proc.txt"
        source.write_text("add!l1(5).add!l2(4).add?l3(x).0")
        code, out, _ = invoke("parse", str(source), "--category", "process")
        assert code == 0
        assert out == "add!l1(5).add!l2(4).add?l3(x).0\n"

    def test_unknown_extension_requires_category(self, tmp_path):
        source = tmp_path / "proc.txt"
        source.write_text("0")
        code, out, err = invoke("parse", str(source))
        assert code == 2
        assert out == ""
        assert "cannot infer category" in err
        assert "pass --category" in err

    def test_missing_fixture_is_usage_error(self):
        code, _, err = invoke("parse", "fixtures/missing.mpst")
        assert code == 2
        assert err == "error: no packaged fixture 'missing.mpst'\n"

    @pytest.mark.parametrize("argv, message", [
        (("subtype", "fixtures/", "fixtures/ex1_T.mpst"),
         "cannot read fixtures/: Is a directory"),
        (("parse", "--category", "sessiontype", "fixtures/."),
         "cannot read fixtures/.: Is a directory"),
        (("parse", "fixtures/adder.gt/x.gt"),
         "cannot read fixtures/adder.gt/x.gt: Not a directory"),
    ])
    def test_unreadable_fixture_path_is_usage_error(self, argv, message):
        code, out, err = invoke(*argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, payload, err = invoke_json(*argv)
        assert (code, err) == (2, f"error: {message}\n")
        assert payload == {"command": argv[0], "verdict": "error",
                           "witness": {"message": message}}

    @pytest.mark.parametrize("shape", ["absolute", "dotdot", "cli source"])
    @pytest.mark.parametrize("override", [False, True])
    def test_fixture_path_outside_the_corpus_is_usage_error(
            self, tmp_path, monkeypatch, shape, override):
        corpus = pathlib.Path(mpst.__file__).parent / "fixtures"
        if override:
            corpus = tmp_path / "corpus"
            corpus.mkdir()
            (corpus / "ex1_T.mpst").write_text(fixture_text("ex1_T.mpst"))
            monkeypatch.setenv("MPST_FIXTURES", str(corpus))
        outside = tmp_path / "secret.mpst"
        outside.write_text("end")
        rest = {"absolute": str(outside),
                "dotdot": os.path.relpath(outside, corpus),
                "cli source": "../cli.py"}[shape]
        argv = ("subtype", "fixtures/ex1_T.mpst", "fixtures/" + rest)
        if shape == "cli source":
            argv = ("parse", "--category", "process", "fixtures/" + rest)
        message = f"no packaged fixture {rest!r}"
        assert invoke(*argv) == (2, "", f"error: {message}\n")
        code, payload, err = invoke_json(*argv)
        assert (code, err) == (2, f"error: {message}\n")
        assert payload["witness"] == {"message": message}

    def test_parse_error_reports_position(self, tmp_path):
        source = tmp_path / "bad.mpst"
        source.write_text("p?l(nat).")
        code, out, err = invoke("parse", str(source))
        assert code == 2
        assert out == ""
        assert err == "error: 1:10: expected a session type, got 'end of input'\n"

    def test_fixtures_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "alt.mpst").write_text("q!hello(nat).end")
        monkeypatch.setenv("MPST_FIXTURES", str(tmp_path))
        code, out, _ = invoke("parse", "fixtures/alt.mpst")
        assert code == 0
        assert out == "q!hello(nat).end\n"

    def test_json_success_payload(self):
        code, payload, _ = invoke_json("parse", "fixtures/sec5_nat.mpst")
        assert code == 0
        assert payload == {
            "command": "parse",
            "verdict": "ok",
            "witness": {
                "category": "sessiontype",
                "text": "add!l1(nat).add!l2(nat).add?l3(int).end",
            },
        }


class TestSubtype:
    def test_leq_prints_relation_symbol(self):
        code, out, err = invoke(
            "subtype", "fixtures/sec5_nat.mpst", "fixtures/sec5_int.mpst"
        )
        assert code == 0
        assert out == "≤\n"
        assert err == ""

    def test_nleq_prints_derivation(self):
        code, out, _ = invoke(
            "subtype", "fixtures/sec5_int.mpst", "fixtures/sec5_nat.mpst"
        )
        assert code == 1
        assert out == (
            "[nsub-out-out] add!l1(int).add!l2(int).add?l3(int).end"
            " !<= add!l1(nat).add!l2(nat).add?l3(int).end"
            "  (sort int is not a subsort of nat)\n"
        )

    def test_json_leq(self):
        code, payload, _ = invoke_json(
            "subtype", "fixtures/sec5_nat.mpst", "fixtures/sec5_int.mpst"
        )
        assert code == 0
        assert payload == {
            "command": "subtype",
            "verdict": "leq",
            "witness": None,
        }

    def test_json_nleq_carries_derivation(self):
        code, payload, _ = invoke_json(
            "subtype", "fixtures/sec5_int.mpst", "fixtures/sec5_nat.mpst"
        )
        assert code == 1
        assert payload == {
            "command": "subtype",
            "verdict": "nleq",
            "witness": {
                "rule": "nsub-out-out",
                "left": "add!l1(int).add!l2(int).add?l3(int).end",
                "right": "add!l1(nat).add!l2(nat).add?l3(int).end",
                "note": "sort int is not a subsort of nat",
            },
        }


class TestProject:
    def test_projection_prints_local_type(self):
        code, out, _ = invoke("project", "fixtures/sec3_global.gt", "r")
        assert code == 0
        assert out == "q?l3(int).end & q?l5(nat).end\n"

    @pytest.mark.parametrize("command, file", [
        ("project", "fixtures/sec3_global.gt"), ("char-global", "fixtures/ex1_T.mpst")])
    @pytest.mark.parametrize("participant, message", [
        ("1x", "1:1: expected a participant, got '1'"),
        ("end", "1:1: expected a participant, got 'end'"),
        ("p-q", "1:2: unexpected character '-'"),
        ("", "1:1: expected a participant, got 'end of input'")])
    def test_participant_the_grammar_rejects_is_usage_error(
            self, command, file, participant, message):
        assert invoke(command, file, participant) == (2, "", f"error: {message}\n")

    def test_role_the_global_type_never_names_gets_a_note(self):
        assert invoke("project", "fixtures/sec3_global.gt", "zz") == (
            0, "end\n", "note: zz is not a participant of fixtures/sec3_global.gt\n")
        code, payload, err = invoke_json("project", "fixtures/sec3_global.gt", "zz")
        assert (code, payload["witness"], payload["verdict"]) == (0, "end", "ok")
        assert err == "note: zz is not a participant of fixtures/sec3_global.gt\n"
        assert invoke("project", "fixtures/sec3_global.gt", "r")[2] == ""

    def test_undefined_merge_is_negative(self):
        code, out, _ = invoke("project", "fixtures/ex1_nochain.gt", "r")
        assert code == 1
        assert out == (
            "mergeUndefined at <root>: cannot merge p!l2(int).end with end\n"
        )


class TestCheck:
    def test_check_proc_ok(self, tmp_path):
        source = tmp_path / "client.proc"
        source.write_text("add!l1(5).add!l2(4).add?l3(x).0")
        code, out, _ = invoke(
            "check-proc", str(source), "fixtures/sec5_nat.mpst"
        )
        assert code == 0
        assert out == "ok\n"

    def test_check_proc_failure_prints_rule(self, tmp_path):
        source = tmp_path / "client.proc"
        source.write_text("add!l1(5).add!l2(4).add?l3(x).0")
        code, out, _ = invoke(
            "check-proc", str(source), "fixtures/sec5_swapped_T.mpst"
        )
        assert code == 1
        assert out == (
            "[t-in-choice] at l1/l2:"
            " input choice from add against non-input type end\n"
        )

    def test_check_session_ok(self):
        code, out, _ = invoke(
            "check-session", "fixtures/adder.mps", "fixtures/adder.gt"
        )
        assert code == 0
        assert out == "ok\n"

    def test_check_session_missing_participant(self):
        code, out, _ = invoke(
            "check-session", "fixtures/adder_mismatch.mps", "fixtures/adder.gt"
        )
        assert code == 1
        assert out == (
            "[participantMissing] at dec: no process for participant dec\n"
        )

    def test_missing_arguments_are_usage_errors(self):
        code, _, err = invoke("check-proc")
        assert code == 2
        assert "the following arguments are required: process, type" in err


class TestRun:
    def test_terminating_session(self):
        code, out, _ = invoke("run", "fixtures/adder_zero.mps")
        assert code == 0
        assert out == "terminated after 6 steps: @_ 0\n"

    def test_trace_flag_prints_every_step(self):
        code, out, _ = invoke("run", "fixtures/adder_zero.mps", "--trace")
        assert code == 0
        assert out.splitlines() == [
            "cl --l1(5)--> add",
            "cl --l2(0)--> add",
            "add --if(false)--> add",
            "add --l4(true)--> inc",
            "add --l4(true)--> dec",
            "add --l3(5)--> cl",
            "terminated after 6 steps: @_ 0",
        ]

    def test_stuck_session_is_negative(self):
        code, out, _ = invoke("run", "fixtures/adder_mismatch.mps")
        assert code == 1
        assert out == (
            "stuckFound after 0 steps:"
            " @add cl?l2(x).(if neg x > 0 then cl?l1(x).0 else cl?l1(x).0)"
            " || @cl add!l1(5).add!l2(4).0\n"
        )

    def test_divergence_is_negative(self):
        code, out, _ = invoke("run", "fixtures/adder.mps", "--fuel", "20")
        assert code == 1
        assert out.startswith("diverged after 20 steps: @add ")

    def test_json_run_witness(self):
        code, payload, _ = invoke_json("run", "fixtures/adder_zero.mps")
        assert code == 0
        assert payload == {
            "command": "run",
            "verdict": "terminated",
            "witness": {
                "trace": [
                    "cl --l1(5)--> add",
                    "cl --l2(0)--> add",
                    "add --if(false)--> add",
                    "add --l4(true)--> inc",
                    "add --l4(true)--> dec",
                    "add --l3(5)--> cl",
                ],
                "state": "@_ 0",
                "steps": 6,
            },
        }


class TestStuck:
    def test_no_stuck_state_within_fuel(self):
        code, out, _ = invoke("stuck", "fixtures/adder.mps")
        assert code == 0
        assert out == "noStuckWithinFuel (7 states explored)\n"

    def test_stuck_state_found(self):
        code, out, _ = invoke("stuck", "fixtures/adder_mismatch.mps")
        assert code == 1
        assert out == (
            "stuckFound after 0 steps:"
            " @add cl?l2(x).(if neg x > 0 then cl?l1(x).0 else cl?l1(x).0)"
            " || @cl add!l1(5).add!l2(4).0\n"
        )

    def test_fuel_exhaustion_is_negative(self):
        code, out, _ = invoke("stuck", "fixtures/adder.mps", "--fuel", "3")
        assert code == 1
        assert out == "diverged: fuel exhausted after 3 states\n"

    def test_nonpositive_fuel_is_usage_error(self):
        code, out, err = invoke("stuck", "fixtures/adder.mps", "--fuel", "0")
        assert code == 2
        assert out == ""
        assert err == "error: fuel must be a positive integer, got 0\n"

    def test_json_stuck_witness(self):
        code, payload, _ = invoke_json("stuck", "fixtures/adder_mismatch.mps")
        assert code == 1
        assert payload == {
            "command": "stuck",
            "verdict": "stuckFound",
            "witness": {
                "trace": [],
                "state": (
                    "@add cl?l2(x).(if neg x > 0 then cl?l1(x).0"
                    " else cl?l1(x).0) || @cl add!l1(5).add!l2(4).0"
                ),
                "explored": 1,
            },
        }


class TestCharacteristic:
    def test_char_global_prints_global_type(self):
        code, out, _ = invoke("char-global", "fixtures/ex1_T.mpst", "p")
        assert code == 0
        assert out == (
            "p -> q : { l1(nat).q -> r : l1(bool).r -> q : l1(bool)"
            ".r -> p : l2(int).r -> q : l2(bool).q -> r : l2(bool).end,"
            " l3(int).q -> r : l3(bool).r -> q : l3(bool).end }\n"
        )

    def test_participant_clash_is_usage_error(self):
        code, out, err = invoke("char-global", "fixtures/ex1_T.mpst", "q")
        assert code == 2
        assert out == ""
        assert err == (
            "error: q already occurs in"
            " q!l1(nat).r?l2(int).end \\/ q!l3(int).end\n"
        )

    def test_char_proc_prints_process(self):
        code, out, _ = invoke("char-proc", "fixtures/ex1_T.mpst")
        assert code == 0
        assert out == (
            "if true (+) false"
            " then q!l1(5).r?l2(x).(if neg x > 0 then 0 else 0)"
            " else q!l3(-5).0\n"
        )

    def test_precise_leq_reports_safe_session(self):
        code, out, _ = invoke(
            "precise", "fixtures/sec5_nat.mpst", "fixtures/sec5_int.mpst"
        )
        assert code == 0
        assert out == "leq: substituted session is safe (terminated, 7 states)\n"

    def test_precise_nleq_reports_witness_and_derivation(self):
        code, out, _ = invoke(
            "precise", "fixtures/ex2_T.mpst", "fixtures/ex2_Tp.mpst"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "nleq: counterexample session got stuck after 0 steps"
        assert lines[1] == (
            "[nsub-diff-part] p1!l1(nat).p2!l2(nat).end"
            " !<= p2!l2(nat).p1!l1(nat).end"
        )
        assert lines[2].startswith("stuck state: @_c0 p1!l1(5).p2!l2(5).0 || ")

    def test_json_precise_nleq(self):
        code, payload, _ = invoke_json(
            "precise", "fixtures/ex2_T.mpst", "fixtures/ex2_Tp.mpst"
        )
        assert code == 1
        assert payload["command"] == "precise"
        assert payload["verdict"] == "nleq"
        witness = payload["witness"]
        assert witness["relation"] == "nleq"
        assert witness["ok"] is True
        assert witness["detail"] == "counterexample session got stuck after 0 steps"
        assert witness["trace"] == []
        assert witness["derivation"]["rule"] == "nsub-diff-part"
        assert witness["session"].startswith("@_c0 p1!l1(5).p2!l2(5).0 || ")
        t, tp = (mpst.parse_session_type(fixture_text(name))
                 for name in ("ex2_T.mpst", "ex2_Tp.mpst"))
        assert witness["session"] == str(mpst.counterexample_session(t, tp))


class TestUsage:
    def test_unknown_command(self):
        code, out, err = invoke("nonsense")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'nonsense'" in err

    def test_no_arguments(self):
        code, _, err = invoke()
        assert code == 2
        assert "usage: mpst" in err


class TestMalformedInput:
    def parse_file(self, tmp_path, name, text):
        source = tmp_path / name
        source.write_text(text)
        return invoke("parse", str(source))

    def test_duplicate_label_is_usage_error(self, tmp_path):
        code, out, err = self.parse_file(tmp_path, "dup.mpst",
                                         "p?l(nat).end & p?l(int).end")
        assert code == 2
        assert out == ""
        assert err.startswith("error: DuplicateLabel: ")

    def test_unguarded_recursion_is_usage_error(self, tmp_path):
        code, _, err = self.parse_file(tmp_path, "loop.mpst", "mu t.t")
        assert code == 2
        assert err.startswith("error: UnguardedRecursion: ")

    def test_self_communication_is_usage_error(self, tmp_path):
        code, _, err = self.parse_file(tmp_path, "self.gt",
                                       "p -> p : l(nat).end")
        assert code == 2
        assert err.startswith("error: SelfCommunication: ")

    def test_session_error_beats_the_process_fallback(self, tmp_path):
        code, _, err = self.parse_file(tmp_path, "twice.mps",
                                       "@p q!l(1).0 || @p 0")
        assert code == 2
        assert "participant 'p' listed twice" in err
        assert "expected a process" not in err

    def test_process_error_beats_the_session_fallback(self, tmp_path):
        code, _, err = self.parse_file(tmp_path, "proc.mps", "q!l(1).")
        assert code == 2
        assert err == "error: 1:8: expected a process, got 'end of input'\n"

    def test_deep_input_is_usage_error(self, tmp_path):
        source = tmp_path / "deep.mpst"
        source.write_text("p!l(nat)." * 10_000 + "end")
        for argv in (("parse", str(source)),
                     ("subtype", str(source), str(source))):
            code, out, err = invoke(*argv)
            assert code == 2
            assert out == ""
            assert err == "error: input nests too deeply\n"

    def test_deep_chain_is_a_subtype_of_itself(self, tmp_path):
        # A fresh interpreter, at Python's default recursion limit.
        source = tmp_path / "chain.mpst"
        source.write_text("p!l(nat)." * 200 + "end")
        src = str(pathlib.Path(mpst.__file__).parent.parent)
        env = {**os.environ, "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "mpst", "subtype", str(source), str(source)],
            capture_output=True, encoding="utf-8", env=env, check=False)
        assert (done.returncode, done.stdout, done.stderr) == (0, "≤\n", "")

    @pytest.mark.parametrize("name, text, argv, message", [
        ("letter.mpst", "pé!l(nat).end", ("parse",),
         "1:2: unexpected character 'é'"),
        ("super.mps", "q!l(²).0", ("parse",),
         "1:5: unexpected character '²'"),
        ("digit.mps", "@p q!l(٣).0 || @q p?l(x).0", ("run",),
         "1:8: unexpected character '٣'"),
    ])
    def test_non_ascii_is_usage_error(self, tmp_path, name, text, argv,
                                      message):
        source = tmp_path / name
        source.write_text(text)
        code, out, err = invoke(*argv, str(source))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_overlong_number_is_usage_error(self, tmp_path):
        code, _, err = self.parse_file(tmp_path, "big.mps",
                                       "q!l(" + "1" * 5000 + ").0")
        assert code == 2
        assert err == "error: 1:5: number too long\n"

    @pytest.mark.parametrize("command", ["run", "stuck"])
    def test_value_too_long_to_print_is_usage_error(self, tmp_path, command):
        source = tmp_path / "huge.mps"
        source.write_text(f"@p q!l(succ {'9' * 4300}).0 || @q p?l(x).0")
        message = "number too long to print: more than 4300 digits"
        code, out, err = invoke(command, str(source))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, payload, err = invoke_json(command, str(source))
        assert code == 2
        assert err == f"error: {message}\n"
        assert payload == {"command": command, "verdict": "error",
                           "witness": {"message": message}}

    def test_undecodable_file_is_usage_error(self, tmp_path):
        source = tmp_path / "binary.mpst"
        source.write_bytes(b"\xff\xfe\x00")
        code, out, err = invoke("parse", str(source))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {source}: ")

    @pytest.mark.parametrize("command", ["subtype", "precise"])
    def test_open_type_is_usage_error(self, tmp_path, command):
        source = tmp_path / "open.mpst"
        source.write_text("p?l(nat).en")
        closed = tmp_path / "closed.mpst"
        closed.write_text("p?l(nat).end")
        code, out, err = invoke(command, str(closed), str(source))
        assert code == 2
        assert out == ""
        assert err == (f"error: {source}: open session type,"
                       f" unbound variable 'en'\n")

    @pytest.mark.parametrize("argv", [("parse",), ("char-proc",),
                                      ("char-global", "fresh")])
    def test_open_type_is_accepted_elsewhere(self, tmp_path, argv):
        source = tmp_path / "open.mpst"
        source.write_text("p?l(nat).en")
        code, _, err = invoke(argv[0], str(source), *argv[1:])
        assert code == 0
        assert err == ""


class TestJsonErrors:
    def test_malformed_input_writes_error_document(self, tmp_path):
        source = tmp_path / "bad.mpst"
        source.write_text("p?l(nat).")
        code, payload, err = invoke_json("parse", str(source))
        message = "1:10: expected a session type, got 'end of input'"
        assert code == 2
        assert err == f"error: {message}\n"
        assert payload == {"command": "parse", "verdict": "error",
                           "witness": {"message": message}}

    def test_library_error_writes_error_document(self, monkeypatch):
        def broken(a, b):
            raise InternalError("boom")

        monkeypatch.setattr(cli, "decide", broken)
        code, payload, err = invoke_json(
            "subtype", "fixtures/sec5_nat.mpst", "fixtures/sec5_int.mpst")
        assert code == 1
        assert err == "error: InternalError: boom\n"
        assert payload == {"command": "subtype", "verdict": "error",
                           "witness": {"message": "InternalError: boom"}}

    def test_argument_errors_write_no_document(self):
        code, out, err = invoke("--json", "subtype", "fixtures/sec5_nat.mpst")
        assert code == 2
        assert out == ""
        assert "the following arguments are required: right" in err


# Characters the grammar is made of, plus non-ASCII letters and digits.
FUZZ_ALPHABET = list("?!.&+>{}(),:@#-|\\/ \n_019lpqrxXt") + ["é", "²", "٣"]


def mutate(rng, text):
    """Insert, delete or replace one to three characters of text."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or i == len(chars):
            chars.insert(i, rng.choice(FUZZ_ALPHABET))
        elif op == 1:
            del chars[i]
        else:
            chars[i] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


def test_mutated_fixtures_end_in_a_documented_exit_code(tmp_path):
    rng = random.Random(20160615)
    fixtures = sorted(resources.files("mpst").joinpath("fixtures").iterdir(),
                      key=lambda f: f.name)
    for k in range(300):
        fixture = rng.choice(fixtures)
        mutant = tmp_path / f"m{k}{pathlib.Path(fixture.name).suffix}"
        mutant.write_text(mutate(rng, fixture.read_text()))
        m, original = str(mutant), f"fixtures/{fixture.name}"
        participant = mutate(rng, "p")
        rest = rng.choice((mutate(rng, rng.choice(("", fixture.name))),
                           m, "../" + mutate(rng, fixture.name), "../cli.py"))
        path = "fixtures/" + rest
        escapes = os.path.isabs(rest) or ".." in pathlib.PurePath(rest).parts
        for argv in (("parse", m), ("subtype", m, original),
                     ("precise", m, original, "--fuel", "200"),
                     ("stuck", m, "--fuel", "200"), ("run", m, "--fuel", "50"),
                     ("project", m, "p"),
                     ("project", "fixtures/sec3_global.gt", participant),
                     ("char-global", "fixtures/ex1_T.mpst", participant),
                     ("parse", path, "--category", "globaltype")):
            try:
                code, _, err = invoke(*argv)
            except Exception as e:
                pytest.fail(f"{argv} on {mutant.read_text()!r} raised {e!r}")
            assert code in (0, 1, 2), (argv[0], mutant.read_text())
            assert "InternalError" not in err, (argv[0], mutant.read_text())
            if path in argv and escapes:
                assert (code, err) == (2, f"error: no packaged fixture {rest!r}\n")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(mpst.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def modules(code):
        done = subprocess.run(
            [sys.executable, "-c", code + "import sys; print(*sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        return set(done.stdout.split())

    loaded = modules("import mpst.cli; ") - modules("pass; ")
    assert "mpst.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_every_module_compiles_with_warnings_as_errors():
    package = pathlib.Path(mpst.__file__).parent
    for path in sorted(package.glob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_every_imported_name_is_used():
    package = pathlib.Path(mpst.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_private_module_name_is_referenced():
    """A module-level function, class or constant whose name starts with
    `_` must be read somewhere in the package, outside its own body."""
    package = pathlib.Path(mpst.__file__).parent
    defined = []
    referenced = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = [node.name]
            elif isinstance(node, ast.Assign):
                own = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                own = [node.target.id]
            else:
                own = []
            defined += [(path.name, name) for name in own
                        if name.startswith("_") and not name.startswith("__")]
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                else:
                    continue
                if name not in own:
                    referenced.add(name)
    unread = [f"{module}: {name}" for module, name in defined
              if name not in referenced]
    assert unread == []


def test_no_module_reads_a_private_name_through_another_module():
    """`S._fresh`, read through a module bound by `import m` or
    `from . import m`, fails; attribute reads on objects, such as
    `m._roles(m)`, do not."""
    package = pathlib.Path(mpst.__file__).parent
    reaches = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name.split(".")[0]
                   for n in ast.walk(tree)
                   if isinstance(n, ast.Import)
                   or isinstance(n, ast.ImportFrom) and n.module is None
                   for alias in n.names}
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in modules and n.attr.startswith("_")
                    and not n.attr.startswith("__")):
                reaches.append(f"{path.name}:{n.lineno}: {n.value.id}.{n.attr}")
    assert reaches == []
