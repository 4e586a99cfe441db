"""The command line builds only the parser of the command it runs.

`cli.main` gives an argv that starts with a command a parser that holds
that command's subparser alone; every other argv gets `build_parser()`,
the full tree.  These tests pin that the two parse, print help and refuse
input alike, and that the full tree still answers every argv that does not
start with a command.
"""

import argparse

import pytest

from bilag import cli
from bilag.cli import _attach_values, build_parser, main
from bilag.scene import OPERATIONS

COMMANDS = (*OPERATIONS, "report")
CHOICES = "{" + ",".join(COMMANDS) + "}"

# a representative argv per command, after `--scene parabola`
ARGV = {
    "validate": ["--format", "machine", "--seed", "3"],
    "hess": ["--out", "r.txt"],
    "christoffels": ["--frame", "coordinate"],
    "curvature": ["--max-dim", "8"],
    "flat": ["--expect", "no"],
    "para": [],
    "push": ["--map", "shear"],
    "lift": ["--k", "2", "--fibers", "a,b"],
    "act-check": ["--map", "shear", "--expect", "false"],
    "plot": ["--bind", "h=1", "--bind", "g=x", "--wind", "-1,1,-1,1", "--leaves", "3",
             "--out", "p.svg"],
    "report": ["--task", "gammas", "--task", "flat", "--format", "machine"],
}


def subparser(parser, command):
    return parser._subparsers._group_actions[0].choices[command]


def parse(parser, argv):
    return vars(parser.parse_args(_attach_values(parser, argv)))


def refusal(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(_attach_values(parser, argv))
    return exc.value.code, capsys.readouterr()


def test_argv_table_covers_every_command():
    assert sorted(ARGV) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_has_that_command_alone(command):
    assert list(build_parser(command)._subparsers._group_actions[0].choices) == [command]
    assert list(build_parser()._subparsers._group_actions[0].choices) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_matches_full_parser(command):
    one = subparser(build_parser(command), command)
    full = subparser(build_parser(), command)
    assert one.prog == full.prog == f"bilag {command}"
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()


@pytest.mark.parametrize("command", COMMANDS)
def test_namespace_matches_full_parser(command):
    argv = [command, "--scene", "parabola", *ARGV[command]]
    one = parse(build_parser(command), argv)
    assert one == parse(build_parser(), argv)
    assert one["command"] == command


def test_representative_values():
    plot = parse(build_parser("plot"), ["plot", "--scene", "standard", *ARGV["plot"]])
    assert plot["bind"] == ["h=1", "g=x"]
    assert plot["window"] == "-1,1,-1,1"
    report = parse(build_parser("report"), ["report", "--scene", "standard", *ARGV["report"]])
    assert report["task"] == ["gammas", "flat"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("rest", [
    [],                                          # --scene missing
    ["--scene", "standard", "--nosuch", "1"],    # unknown flag
    ["--scene", "standard", "extra"],            # stray positional
    ["--scene"],                                 # flag without its value
])
def test_refusal_matches_full_parser(command, rest, capsys):
    argv = [command, *rest]
    code, one = refusal(build_parser(command), argv, capsys)
    assert (code, one) == refusal(build_parser(), argv, capsys)
    assert code == 2 and one.out == ""
    assert one.err.startswith("usage: bilag")


def test_unrecognized_arguments_name_every_command(capsys):
    code, seen = refusal(build_parser("report"), ["report", "--scene", "standard", "x"], capsys)
    assert code == 2
    assert CHOICES in seen.err and "unrecognized arguments: x" in seen.err


@pytest.mark.parametrize("argv, stream", [
    ([], "err"),
    (["--help"], "out"),
    (["nosuch"], "err"),
    (["rep", "--scene", "standard"], "err"),
    (["--scene", "standard", "report"], "err"),
])
def test_argv_without_leading_command_gets_full_tree(argv, stream, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    text = getattr(capsys.readouterr(), stream)
    assert exc.value.code == (0 if argv == ["--help"] else 2)
    assert CHOICES in text
    if argv == ["--help"]:
        assert all(f"    {command}" in text for command in COMMANDS)
    elif argv:
        assert "invalid choice" in text or "unrecognized arguments" in text
    else:
        assert "the following arguments are required: command" in text


def registered_flags(monkeypatch):
    flags = []
    add = argparse.ArgumentParser.add_argument

    def spy(self, *names, **kwargs):
        flags.extend(names)
        return add(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    return flags


def test_report_registers_only_its_own_flags(monkeypatch, capsys):
    flags = registered_flags(monkeypatch)
    assert main(["report", "--scene", "standard", "--format", "machine", "--seed", "5",
                 "--task", "check"]) == 0
    # the top-level parser's and the subparser's help, then report's flags
    assert sorted(flags) == sorted(["-h", "--help"] * 2 + [
        "--scene", "--out", "--format", "--max-dim", "--seed", "--task"])
    assert '"ok": true' in capsys.readouterr().out


def test_full_tree_registers_every_command(monkeypatch):
    flags = registered_flags(monkeypatch)
    build_parser()
    assert flags.count("--scene") == len(COMMANDS)
    assert {"--bind", "--frame", "--map", "--k", "--task"} <= set(flags)


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(cli.sys, "argv", ["bilag", "validate", "--scene", "standard"])
    assert main() == 0
    assert "validate" in capsys.readouterr().out
