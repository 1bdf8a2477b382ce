import ast
from pathlib import Path

import motifswarm

SOURCES = Path(motifswarm.__file__).parent

# The defaulted public parameters that a caller outside the tests relies on.
# Every other run default lives in report.Settings alone.
KEPT_DEFAULTS = {
    "cli.main.argv",  # the console script calls main() with no argument
    "psobiclust.pso_bicluster.lam",  # bench/workloads.py passes three arguments
}


def defaulted_parameters():
    """module.function.parameter for each parameter with a default, over the
    functions and methods whose names do not start with an underscore."""
    found = set()
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            found.update(f"{path.stem}.{node.name}.{name}" for name in names)
    return found


def test_only_the_kept_defaults_remain():
    assert defaulted_parameters() == KEPT_DEFAULTS
