"""Tests for the artifact-compatible CLI."""

import pytest

from repro import cli
from repro.cli import (build_parser, config_name_from_args, load_program,
                       main, validate_args)
from repro.core.attack_model import AttackModel
from repro.core.baselines import SecureBaseline, UnsafeBaseline
from repro.core.events import UntaintKind
from repro.core.spt import SPTEngine
from repro.core.stt import STTEngine
from repro.harness.configs import CONFIGURATIONS, make_engine
from repro.harness.runner import run_result, simulate
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams


def parse(argv):
    return build_parser().parse_args(argv)


def engine_from(argv):
    """The engine the harness builds for ``argv``'s configuration."""
    return make_engine(config_name_from_args(parse(argv)),
                       AttackModel.FUTURISTIC)


def test_insecure_baseline_is_default():
    assert validate_args(parse(["mcf"])) is None
    assert config_name_from_args(parse(["mcf"])) == "UnsafeBaseline"
    assert isinstance(engine_from(["mcf"]), UnsafeBaseline)


def test_secure_baseline_mapping():
    argv = ["mcf", "--enable-spt", "--threat-model", "spectre",
            "--untaint-method", "none"]
    assert config_name_from_args(parse(argv)) == "SecureBaseline"
    assert isinstance(engine_from(argv), SecureBaseline)


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
    assert config_name_from_args(parse(argv)) == expected_name
    engine = engine_from(argv)
    assert isinstance(engine, SPTEngine)
    assert engine.name == expected_name


@pytest.mark.parametrize("method,shadow_flag,expected_name", [
    ("fwd", "--enable-shadow-l1", "SPT{Fwd,ShadowL1}"),
    ("fwd", "--enable-shadow-mem", "SPT{Fwd,ShadowMem}"),
    ("ideal", None, "SPT{Ideal,NoShadowL1}"),
    ("ideal", "--enable-shadow-l1", "SPT{Ideal,ShadowL1}"),
])
def test_off_table_configuration_mapping(method, shadow_flag, expected_name):
    # The SPT design points Table 2 leaves out are valid flag sets too,
    # and the harness builds the engine each one names.
    argv = ["mcf", "--enable-spt", "--threat-model", "futuristic",
            "--untaint-method", method]
    if shadow_flag:
        argv.append(shadow_flag)
    assert validate_args(parse(argv)) is None
    assert config_name_from_args(parse(argv)) == expected_name
    assert expected_name not in CONFIGURATIONS
    engine = engine_from(argv)
    assert isinstance(engine, SPTEngine)
    assert engine.name == expected_name
    assert engine.ideal == (method == "ideal")


def test_stt_flag():
    argv = ["mcf", "--stt", "--threat-model", "spectre"]
    assert validate_args(parse(argv)) is None
    assert config_name_from_args(parse(argv)) == "STT"
    assert isinstance(engine_from(argv), STTEngine)


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
    # Budgets and scales below 1 (the parser refuses them): the harness
    # would read a zero budget as its default, the direct path would
    # simulate nothing, and a zero scale builds a workload that never halts.
    (["mcf", "--max-instructions", "0"], "--max-instructions"),
    (["mcf", "--max-instructions", "-5"], "--max-instructions"),
    (["mcf", "--enable-spt", "--threat-model", "futuristic",
      "--untaint-method", "fwd", "--enable-shadow-l1",
      "--max-instructions", "0"], "--max-instructions"),
    (["mcf", "--scale", "0"], "--scale"),
    (["mcf", "--scale", "-1"], "--scale"),
    # SecureBaseline keeps no shadow: the flag would be silently dropped.
    (["mcf", "--enable-spt", "--threat-model", "spectre",
      "--untaint-method", "none", "--enable-shadow-l1"],
     "--untaint-method none"),
])
def test_invalid_combinations_rejected(argv, fragment, capsys, monkeypatch):
    # A bad combination fails validate_args and a size below 1 fails the
    # parser: either way the command exits 2 naming the flag, before
    # anything simulates.
    def no_simulation(*_args, **_kwargs):
        raise AssertionError("simulated despite an invalid command line")

    monkeypatch.setattr(cli, "run_many", no_simulation)
    monkeypatch.setattr(cli, "simulate", no_simulation)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert fragment in capsys.readouterr().err


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


# An SPT flag combination outside Table 2.
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
    """--track-insts renders the untaint breakdown of an off-table cell
    both for an .asm file, which runs directly, and for a registered
    workload, which runs through the harness."""
    if executable == "asm":
        path = tmp_path / "declassify.asm"
        path.write_text(DECLASSIFYING_ASM)
        executable = str(path)
    assert config_name_from_args(parse([executable] + OFF_TABLE)) == \
        "SPT{Fwd,ShadowL1}"
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
    OFF_TABLE,
], ids=["SPT{Bwd,ShadowL1}", "STT", "UnsafeBaseline", "SPT{Fwd,ShadowL1}"])
def test_stats_txt_is_the_same_on_both_paths(tmp_path, flags):
    """A cell's stats.txt does not depend on whether the harness ran it,
    the result cache served it, or it ran directly as an .asm file does
    (``runner.simulate``)."""
    argv = ["mcf"] + flags + ["--max-instructions", "1500"]
    args = parse(argv)
    config = config_name_from_args(args)
    model = AttackModel(args.threat_model or "futuristic")
    sim = simulate(load_program("mcf", 1), config, model, 1500,
                   MachineParams())
    direct = cli.format_stats(run_result("mcf", config, model, sim,
                                         collect_trace=False))
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
    monkeypatch.setattr(cli, "simulate", no_simulation)
    assert main(executables + ["--output-dir", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert all(path in err for path in executables)
    assert not (tmp_path / "out").exists()


def test_off_table_flags_use_the_result_cache(tmp_path, monkeypatch):
    """A registered workload runs through the harness whatever its flags,
    so a warm cache serves an off-table cell without simulating it."""
    argv = (["mcf"] + OFF_TABLE + ["--max-instructions", "1500",
                                   "--jobs", "1"])
    assert config_name_from_args(parse(argv)) not in CONFIGURATIONS
    assert main(argv + ["--output-dir", str(tmp_path / "cold")]) == 0

    def no_simulation(*_args, **_kwargs):
        raise AssertionError("simulated a cell the cache holds")

    monkeypatch.setattr(OoOCore, "run", no_simulation)
    assert main(argv + ["--output-dir", str(tmp_path / "warm")]) == 0
    assert (tmp_path / "warm" / "stats.txt").read_text() == \
        (tmp_path / "cold" / "stats.txt").read_text()
