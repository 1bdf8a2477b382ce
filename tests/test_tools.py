import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_lattice_rule_runs_on_a_small_grid(monkeypatch, capsys):
    tool = load_tool("fit_lattice_rule")
    monkeypatch.setattr(tool, "NS", [20])
    monkeypatch.setattr(tool, "DS", [20])
    monkeypatch.setattr(tool, "DISTINCT", [3, 10])
    monkeypatch.setattr(tool, "SWARMS", [(10, 2)])
    tool.main()
    out = capsys.readouterr().out
    assert re.search(r"^lattice_pays picks the slower kernel on [012] of 2 shapes$",
                     out, re.MULTILINE), out
