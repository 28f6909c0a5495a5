"""List the functions of muonlab that the reproduction never enters.

The reproduction is what a user runs through the ``muonlab`` command:

- ``run`` for both presets, each to a CSV in a temporary directory;
- ``verify`` for all seven suites, at their default sizes;
- ``bound`` with the parameters the ``efm-appendixE`` preset records.

These run under ``sys.settrace`` with call events only.  Then one
``--smoke``-sized cycle of each perfbench workload runs the same way: each
item once, untraced by perfbench, and its output check after it, with the
workloads built by ``perfbench/workloads.py``.

Every function, method and lambda that ``src/muonlab`` defines is found by
compiling its sources.  The script prints each one the reproduction never
enters, grouped by whether perfbench's cycle enters it.  The list gates
nothing; the script exits 1 only if a command of the reproduction fails, as
then it did not cover what it says.  Run it from the root of a source
checkout::

    PYTHONPATH=src python3 benchmarks/check_reachability.py
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Found without importing it: the import runs under the trace, as the
# command's own import does.
PACKAGE = Path(importlib.util.find_spec("muonlab").origin).resolve().parent
PERFBENCH_SEED = 1


def defined_functions() -> dict:
    """{(file, first line, qualified name): "module:line name"} of every
    function, method and lambda in the package's sources."""
    found = {}

    def walk(code, module):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            # A class body runs once, at import; comprehensions and generator
            # expressions are parts of a function.
            if const.co_flags & inspect.CO_NEWLOCALS and (
                    not const.co_name.startswith("<") or const.co_name == "<lambda>"):
                key = (const.co_filename, const.co_firstlineno, const.co_qualname)
                found[key] = f"{module}:{const.co_firstlineno} {const.co_qualname}"
            walk(const, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return found


@contextlib.contextmanager
def entered(codes: set):
    """Add the code object of every Python call made inside to ``codes``."""
    def on_call(frame, event, arg):
        codes.add(frame.f_code)  # returning None leaves the frame's lines untraced

    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)


def _keys(codes: set) -> set:
    return {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in codes}


def _cli(argv: list) -> None:
    from muonlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"check_reachability: muonlab {' '.join(argv)} exited {rc}")


def reproduction(workdir: Path) -> None:
    from muonlab import harness

    for name in sorted(harness.PRESETS):
        _cli(["run", "--preset", name, "--out", str(workdir / f"{name}.csv")])
    for suite in sorted(harness.SUITES):
        _cli(["verify", suite])
    cfg = json.loads((workdir / "efm-appendixE.config.json").read_text())
    b = cfg["bound"]
    _cli(["bound", "--T", str(cfg["T"]), "--delta", repr(b["delta"]), "--beta",
          repr(cfg["beta"]), "--sigma", repr(b["sigma"]), "--dist0", repr(b["dist0"])])


def perfbench_cycle(scratch: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, PERFBENCH_SEED, True, scratch)
        try:
            for group in wl.groups:
                for item in group:
                    item.check(item.run(None))
        finally:
            wl.close()


def main() -> int:
    functions = defined_functions()
    repro, bench = set(), set()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        with entered(repro):
            reproduction(Path(tmp))
        with entered(bench):
            perfbench_cycle(Path(tmp))
    elapsed = time.perf_counter() - t0
    never = sorted(set(functions) - _keys(repro), key=lambda k: (k[0], k[1]))
    by_bench = _keys(bench)
    print(f"{len(never)} of {len(functions)} functions in src/muonlab are never entered by "
          f"the presets, the verify suites and bound ({elapsed:.1f} s)")
    for reached, label in ((True, "perfbench's smoke cycle enters"),
                           (False, "perfbench's smoke cycle does not enter")):
        names = [functions[k] for k in never if (k in by_bench) is reached]
        print(f"\n{label} {len(names)} of them:")
        for name in names:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
