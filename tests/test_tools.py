import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded(calls, name, function):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)
    return wrapper


def test_fit_lattice_rule_runs_on_a_small_grid(monkeypatch, capsys):
    tool = load_tool("fit_lattice_rule")
    monkeypatch.setattr(tool, "NS", [20])
    monkeypatch.setattr(tool, "DS", [20])
    monkeypatch.setattr(tool, "DISTINCT", [3, 10])
    monkeypatch.setattr(tool, "SWARMS", [(10, 2)])
    # Each kernel is timed on the labels and the medians that lattice_pays selects.
    calls = []
    for name in ("assignment_fitness", "_median_step"):
        monkeypatch.setattr(tool, name, recorded(calls, name, getattr(tool, name)))
    monkeypatch.setattr(tool.Lattice, "medians",
                        recorded(calls, "medians", tool.Lattice.medians))
    tool.main()
    assert {"assignment_fitness", "_median_step", "medians"} <= set(calls)
    out = capsys.readouterr().out
    assert re.search(r"^lattice_pays picks the slower kernel on [012] of 2 shapes$",
                     out, re.MULTILINE), out
