import ast
import importlib
from pathlib import Path

import mackeykit
from mackeykit.fields import FFElement
from mackeykit.mackey import MackeyMorphism


def test_every_exported_name_resolves_once():
    names = mackeykit.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(mackeykit, n)]
    assert not missing, missing


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """The traced benchmark run wraps functions by name; a name it reads
    from LAYER_FUNCTIONS or FFELEMENT_OPS that no longer resolves fails the
    run.  The names are read from the tracer's source."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(tracer.read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("LAYER_FUNCTIONS", "FFELEMENT_OPS")}
    assert set(tables) == {"LAYER_FUNCTIONS", "FFELEMENT_OPS"}
    missing = [f"{module}.{name}" for module, names in tables["LAYER_FUNCTIONS"].items()
               for name in names
               if not callable(getattr(importlib.import_module(f"mackeykit.{module}"), name, None))]
    missing += [f"FFElement.{op}" for op in tables["FFELEMENT_OPS"]
                if op not in vars(FFElement)]
    if "is_level_iso" not in vars(MackeyMorphism):
        missing.append("MackeyMorphism.is_level_iso")
    assert not missing, missing
