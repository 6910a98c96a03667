"""Source hygiene of the package, read with the standard library's ``ast``,
the package's public namespace, and the package names the benchmark's
tracer hooks."""

import ast
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dexchange"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_unused_and_keeps_used_names():
    source = "from __future__ import annotations\nimport math, numpy as np\nfrom x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(source) == ["c", "math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_modules_import_no_unused_names(path):
    assert unused_imports(path.read_text()) == []


#: What ``import dexchange`` offers besides its submodules: the solve path
#: and its types.  The brute-force oracles are reached through
#: ``dexchange.validate``, the dual engine through ``subgradient_minimizer()``,
#: the exact coordinate step (``min_pinned``, ``GroundSet``) through
#: ``dexchange.ratealloc``.
PUBLIC_NAMES = {
    "Allocation", "ConstructionFailed", "CutSetOracle", "DecodeReport", "ExchangeState",
    "FMatrix", "FairCost", "FieldSpec", "Infeasible", "InfeasibleInstance",
    "InfeasibleRates", "InstanceError", "LinearCost", "MinCostResult", "NotDecodable",
    "ProblemInstance", "RngSpec", "RowBasis", "ShapeError", "SingularSystem",
    "TableCost", "TableTooLarge", "TransmissionSchedule", "construct_code", "convex_alloc",
    "decode", "eval_h", "generate_instance", "in_cut_set_region", "instance_from_packet_sets",
    "load_instance", "load_schedule", "min_cost", "min_sum_rate",
    "modified_edmonds", "preset_instance", "randomized_alloc", "rank", "save_instance",
    "save_schedule", "solve_full_rank", "subgradient_minimizer", "transmit_values",
    "verify_decodable",
}


def test_package_namespace_is_pinned():
    import dexchange

    names = {name for name, value in vars(dexchange).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


def _load_tracing():
    """``perfbench/tracing.py`` run from its source, writing no bytecode cache."""
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_benchmark_hook_finds_a_target():
    # The tracer skips a hook whose names are all gone and reports its
    # metrics as null, which spoils the traced run's result line.
    tracing = _load_tracing()
    lost = [name for name, (targets, _, _) in tracing.HOOKS.items()
            if not any(tracing._resolve(t) for t in targets)]
    assert lost == []
