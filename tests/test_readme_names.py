"""Every dotted muonlab name that ``README.md`` puts in backticks exists.

Tier-1 does not read the README, so a deleted or renamed entry would
otherwise stay documented.  The scan takes each inline code span (fenced
blocks are left out) and each dotted name in it, ``a.b`` or ``a.b.c``, that
does not continue another one: ``linalg.norm`` inside ``np.linalg.norm`` is
not a name of ours.  ``<module>.<attr>`` is checked when ``<module>`` is one
of ``MODULES``, and ``<Class>.<attr>`` whenever ``<Class>`` is capitalised
and then lower case, as a class name is: it must be a class one of them
defines, so a deleted class's names fail too.  A dataclass field counts as
an attribute of its class.  Every other name (``np.sign``, ``state.polar``,
``A.ravel``, ``BENCH_21.json``, ``tests/test_optim.py``) is left out.
"""

import dataclasses
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {name: importlib.import_module(f"muonlab.{name}")
           for name in ("linalg", "norms", "optim", "counterexample", "harness", "cli")}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if isinstance(obj, type) and obj.__module__ == module.__name__}

_FENCED = re.compile(r"```.*?```", re.DOTALL)
_SPAN = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)")
_CLASS_NAME = re.compile(r"[A-Z][a-z]")


def dotted_names(markdown: str) -> list:
    """(owner, attribute) of each backticked ``<module>.<attr>`` and
    ``<Class>.<attr>`` name in ``markdown``, in order of appearance."""
    spans = _SPAN.findall(_FENCED.sub("", markdown))
    return [(owner, attr) for span in spans for owner, attr in _DOTTED.findall(span)
            if owner in MODULES or _CLASS_NAME.match(owner)]


def _has(owner, attr: str) -> bool:
    return hasattr(owner, attr) or (
        dataclasses.is_dataclass(owner) and attr in {f.name for f in dataclasses.fields(owner)})


def missing(names: list) -> list:
    return [f"{owner}.{attr}" for owner, attr in names
            if not _has(MODULES.get(owner) or CLASSES.get(owner), attr)]


def test_every_readme_name_exists():
    assert missing(dotted_names(README.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_module_and_class_names():
    names = set(dotted_names(README.read_text(encoding="utf-8")))
    assert {("optim", "RULES"), ("norms", "fro"), ("counterexample", "RUN_METHODS"),
            ("KinkyFunction", "sd_value"), ("Constant", "lam")} <= names


def test_the_scan_reports_a_missing_name():
    text = """
`Cex1Init.R(t)` and `KinkyFunction.sd_value(s, d)`; `linalg.no_such_kernel(A,
B)` wraps, `Table.values` is a field, `StepInfo.gone` is not, and
`KinkyOracle.grad_fro` names no class.  `np.linalg.norm`, `muonlab.linalg`,
`state.polar`, `A.ravel`, `BENCH_21.json` and `tests/test_optim.py` are not ours.

```python
optim.no_such_rule  # fenced blocks are left out
```
"""
    assert missing(dotted_names(text)) == ["Cex1Init.R", "linalg.no_such_kernel",
                                           "StepInfo.gone", "KinkyOracle.grad_fro"]
