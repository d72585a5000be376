"""Tests for the artifact-compatible CLI."""

import pytest

from repro import cli
from repro.cli import (build_parser, load_program, main,
                       make_engine_from_args, validate_args)
from repro.core.baselines import SecureBaseline, UnsafeBaseline
from repro.core.events import UntaintKind
from repro.core.spt import SPTEngine
from repro.core.stt import STTEngine
from repro.pipeline.params import MachineParams


def parse(argv):
    return build_parser().parse_args(argv)


def test_insecure_baseline_is_default():
    args = parse(["mcf"])
    assert validate_args(args) is None
    assert isinstance(make_engine_from_args(args), UnsafeBaseline)


def test_secure_baseline_mapping():
    args = parse(["mcf", "--enable-spt", "--threat-model", "spectre",
                  "--untaint-method", "none"])
    engine = make_engine_from_args(args)
    assert isinstance(engine, SecureBaseline)


@pytest.mark.parametrize("method,shadow_flag,expected_name", [
    ("fwd", None, "SPT{Fwd,NoShadowL1}"),
    ("bwd", None, "SPT{Bwd,NoShadowL1}"),
    ("bwd", "--enable-shadow-l1", "SPT{Bwd,ShadowL1}"),
    ("bwd", "--enable-shadow-mem", "SPT{Bwd,ShadowMem}"),
    ("ideal", "--enable-shadow-mem", "SPT{Ideal,ShadowMem}"),
])
def test_table2_configuration_mapping(method, shadow_flag, expected_name):
    argv = ["mcf", "--enable-spt", "--threat-model", "futuristic",
            "--untaint-method", method]
    if shadow_flag:
        argv.append(shadow_flag)
    engine = make_engine_from_args(parse(argv))
    assert isinstance(engine, SPTEngine)
    assert engine.name == expected_name


def test_stt_flag():
    args = parse(["mcf", "--stt", "--threat-model", "spectre"])
    assert validate_args(args) is None
    assert isinstance(make_engine_from_args(args), STTEngine)


@pytest.mark.parametrize("argv,fragment", [
    (["mcf", "--enable-spt"], "--threat-model"),
    (["mcf", "--enable-spt", "--threat-model", "spectre"],
     "--untaint-method"),
    (["mcf", "--enable-spt", "--threat-model", "spectre",
      "--untaint-method", "bwd", "--enable-shadow-l1",
      "--enable-shadow-mem"], "both"),
    (["mcf", "--track-insts"], "--track-insts"),
    (["mcf", "--stt"], "--threat-model"),
    (["mcf", "--enable-shadow-l1"], "--enable-spt"),
])
def test_invalid_combinations_rejected(argv, fragment):
    error = validate_args(parse(argv))
    assert error is not None and fragment in error


def test_load_program_from_workload_registry():
    program = load_program("djbsort", scale=1)
    assert program.name == "djbsort"


def test_load_program_from_asm_file(tmp_path):
    path = tmp_path / "prog.asm"
    path.write_text("li a0, 1\nhalt\n")
    program = load_program(str(path), scale=1)
    assert len(program) == 2


def test_load_program_unknown_exits():
    with pytest.raises(SystemExit):
        load_program("no-such-thing", scale=1)


def test_main_end_to_end(tmp_path, capsys):
    code = main(["djbsort", "--enable-spt", "--threat-model", "futuristic",
                 "--untaint-method", "bwd", "--enable-shadow-l1",
                 "--track-insts", "--max-instructions", "1500",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    stats = (tmp_path / "stats.txt").read_text()
    assert "numCycles" in stats
    assert "configName" in stats and "SPT{Bwd,ShadowL1}" in stats
    out = capsys.readouterr().out
    assert "instructions" in out


def test_main_rejects_bad_combo(capsys):
    code = main(["mcf", "--enable-spt"])
    assert code == 2


# An SPT flag combination outside Table 2: it takes the direct path.
OFF_TABLE = ["--enable-spt", "--threat-model", "futuristic",
             "--untaint-method", "fwd", "--enable-shadow-l1"]
DECLASSIFYING_ASM = """
    li s2, 0x4000
    sd s2, 0(s2)
    ld a0, 0(s2)
    ld a1, 8(a0)
    add a2, a1, a0
    ld a3, 0(a2)
    halt
"""


def _track_insts_blocks(out: str) -> tuple:
    """The kind names under "untaint events:" and the width lines under
    "registers untainted per untainting cycle:"."""
    lines = out.splitlines()
    start = lines.index("untaint events:") + 1
    widths = lines.index("registers untainted per untainting cycle:")
    kinds = [line.split()[0] for line in lines[start:widths]]
    return kinds, lines[widths + 1:]


@pytest.mark.parametrize("executable", ["mcf", "asm"])
def test_track_insts_on_the_direct_path(tmp_path, capsys, executable):
    if executable == "asm":
        path = tmp_path / "declassify.asm"
        path.write_text(DECLASSIFYING_ASM)
        executable = str(path)
    assert cli.config_name_from_args(parse([executable] + OFF_TABLE)) is None
    code = main([executable] + OFF_TABLE +
                ["--track-insts", "--max-instructions", "1500",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 0
    kinds, widths = _track_insts_blocks(capsys.readouterr().out)
    names = {kind.value for kind in UntaintKind}
    assert kinds and set(kinds) <= names, kinds
    assert widths and all(line.split()[0].rstrip(":").isdigit()
                          for line in widths), widths


@pytest.mark.parametrize("flags", [
    ["--enable-spt", "--threat-model", "futuristic", "--untaint-method",
     "bwd", "--enable-shadow-l1"],
    ["--stt", "--threat-model", "spectre"],
    [],
], ids=["SPT{Bwd,ShadowL1}", "STT", "UnsafeBaseline"])
def test_stats_txt_is_the_same_on_both_paths(tmp_path, flags):
    """A Table-2 cell's stats.txt does not depend on which path ran it,
    nor on whether the result cache served it."""
    argv = ["mcf"] + flags + ["--max-instructions", "1500"]
    args = parse(argv)
    assert cli.config_name_from_args(args) is not None
    direct = cli.format_stats(cli._run_direct(
        args, "mcf", MachineParams(
            untaint_broadcast_width=args.untaint_broadcast_width)))
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(argv + ["--output-dir", str(out)]) == 0
        assert (out / "stats.txt").read_text() == direct
    header = direct.splitlines()[1:5]
    assert [line.split()[0] for line in header] == [
        "numCycles", "committedInsts", "ipc", "configName"]


@pytest.mark.parametrize("executables", [
    ["a/prog.asm", "b/prog.asm"], ["mcf", "mcf"]],
    ids=["same-stem", "same-workload"])
def test_colliding_stats_files_are_rejected(tmp_path, capsys, monkeypatch,
                                            executables):
    monkeypatch.chdir(tmp_path)
    for path in executables:
        if path.endswith(".asm"):
            (tmp_path / path).parent.mkdir()
            (tmp_path / path).write_text("halt\n")

    def no_simulation(*_args, **_kwargs):
        raise AssertionError("simulated despite colliding stats files")

    monkeypatch.setattr(cli, "run_many", no_simulation)
    monkeypatch.setattr(cli, "_run_direct", no_simulation)
    assert main(executables + ["--output-dir", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert all(path in err for path in executables)
    assert not (tmp_path / "out").exists()
