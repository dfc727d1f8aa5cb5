#!/usr/bin/env python
"""The call record: which ``src/`` functions no run enters.

Runs the repository's end-to-end drives — the examples at their default
arguments, ``sim_run`` ``ci``/``churn``, ``bench_snapshot --rounds 1``,
every ``perf`` workload in measure and trace mode, ``serve_smoke`` on
both backends and ``pytest benchmarks -k 'not f7'`` — under a call hook,
then prints

* every function or method defined under ``src/`` that no run entered
  (abstract base methods included), and
* every constructor argument — each ``__init__`` default under ``src/``
  and the fields of :data:`CONFIG_DATACLASSES` — that no run set to a
  non-default value.

The hook is a ``sitecustomize.py`` on ``PYTHONPATH`` in a temporary
directory, so every child process inherits it: remote workers, SIGKILL
victims, ``perf`` children.  It watches ``'call'`` events only
(``sys.settrace`` and ``threading.settrace``; the trace function returns
``None``, so no line events) and writes through: the first entry of a
code object is one ``os.write`` to a per-pid file opened with
``O_APPEND``.  There is no dump thread and no ``atexit``, because a
worker that ``os._exit``\\ s or a victim that is SIGKILLed gets no exit
handler, and a periodic dump loses what it entered since the last tick.

Records match definitions by ``(file, co_firstlineno, name)``; for a
decorated function ``co_firstlineno`` is the first decorator's line.
Any failing run fails the record (exit 1).  Nothing is written into the
repository.

Usage::

    python tools/call_record.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Dataclasses whose fields are settings (their generated ``__init__``
#: is reported like a hand-written one); the other ``src/`` dataclasses
#: are records and stats that the code fills in itself.
CONFIG_DATACLASSES = ("ServiceConfig", "TenantConfig")

#: The hook.  ``C`` lines are first entries (file, first line, name);
#: ``A`` lines are constructor arguments set to a non-default value
#: (file, class qualname, argument).
HOOK = r'''
import os
import sys
import threading

_ROOTS = tuple(os.path.join(root, "")
               for root in os.environ["CALL_RECORD_ROOTS"].split(os.pathsep))
_DIR = os.environ["CALL_RECORD_DIR"]
_NEW = object()
_codes = {}
_out = [None, None]


def _write(line):
    pid = os.getpid()
    if _out[0] != pid:
        _out[1] = os.open(os.path.join(_DIR, "%d.rec" % pid),
                          os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        _out[0] = pid
    os.write(_out[1], line.encode())


def _constructor(frame, code):
    """``(owner, [(argument, default), ...])`` for the ``__init__`` of a
    class defined under a root, else None."""
    if code.co_name != "__init__" or not code.co_argcount:
        return None
    instance = frame.f_locals.get(code.co_varnames[0])
    for cls in type(instance).__mro__:
        init = vars(cls).get("__init__")
        if getattr(init, "__code__", None) is code:
            break
    else:
        return None
    path = getattr(sys.modules.get(cls.__module__), "__file__", None)
    if not path or not os.path.abspath(path).startswith(_ROOTS):
        return None
    names = code.co_varnames[:code.co_argcount]
    defaults = init.__defaults__ or ()
    pending = list(zip(names[len(names) - len(defaults):], defaults))
    pending += list((init.__kwdefaults__ or {}).items())
    if not pending:
        return None
    return "%s\t%s" % (os.path.abspath(path), cls.__qualname__), pending


def _is_default(value, default):
    try:
        return value is default or bool(value == default)
    except Exception:
        return False


def _trace(frame, event, arg):
    code = frame.f_code
    state = _codes.get(code, _NEW)
    if state is None:
        return None
    if state is _NEW:
        path = os.path.abspath(code.co_filename)
        if path.startswith(_ROOTS):
            _write("C\t%s\t%d\t%s\n" % (path, code.co_firstlineno,
                                       code.co_name))
        state = _codes[code] = _constructor(frame, code)
        if state is None:
            return None
    owner, pending = state
    values = frame.f_locals
    left = []
    for name, default in pending:
        if _is_default(values.get(name, default), default):
            left.append((name, default))
        else:
            _write("A\t%s\t%s\n" % (owner, name))
    _codes[code] = (owner, left) if left else None
    return None


sys.settrace(_trace)
threading.settrace(_trace)
'''


class Definition(NamedTuple):
    path: str          # relative to the repository root
    line: int          # co_firstlineno: the first decorator's line
    name: str
    qualname: str


class Argument(NamedTuple):
    path: str
    line: int
    owner: str         # the class's qualname
    name: str


def hook_env(hook_dir: pathlib.Path, record_dir: pathlib.Path,
             roots: Iterable[pathlib.Path]) -> Dict[str, str]:
    """Write the hook into ``hook_dir``; return an environment whose
    Python processes (and their children) import from ``roots`` and
    record into ``record_dir`` every first entry of a code object
    defined under them."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    record_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    roots = [str(pathlib.Path(root).resolve()) for root in roots]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir)] + roots
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["CALL_RECORD_ROOTS"] = os.pathsep.join(roots)
    env["CALL_RECORD_DIR"] = str(record_dir)
    return env


def read_records(record_dir: pathlib.Path, base: pathlib.Path
                 ) -> Tuple[Set[Tuple[str, int, str]], Set[Tuple[str, ...]]]:
    """``(entered, arguments)``: ``(path, line, name)`` of every entered
    code object and ``(path, owner, argument)`` of every constructor
    argument set to a non-default value, paths relative to ``base``."""
    entered, arguments = set(), set()
    for record in record_dir.glob("*.rec"):
        for line in record.read_text().splitlines():
            kind, *fields = line.split("\t")
            if len(fields) != 3:
                continue
            fields[0] = os.path.relpath(fields[0], base)
            if kind == "C":
                entered.add((fields[0], int(fields[1]), fields[2]))
            elif kind == "A":
                arguments.add(tuple(fields))
    return entered, arguments


def _init_arguments(node: ast.FunctionDef) -> Iterator[str]:
    positional = node.args.posonlyargs + node.args.args
    for arg in positional[len(positional) - len(node.args.defaults):]:
        yield arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg


def _walk(node, path: str, prefix: str, out: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = (child.decorator_list[0].lineno if child.decorator_list
                    else child.lineno)
            out.append(Definition(path, line, child.name,
                                  prefix + child.name))
            _walk(child, path, f"{prefix}{child.name}.<locals>.", out)
        elif isinstance(child, ast.ClassDef):
            qualname = prefix + child.name
            inits = [stmt for stmt in child.body
                     if isinstance(stmt, ast.FunctionDef)
                     and stmt.name == "__init__"]
            for init in inits:
                out.extend(Argument(path, init.lineno, qualname, name)
                           for name in _init_arguments(init))
            if not inits and child.name in CONFIG_DATACLASSES:
                out.extend(
                    Argument(path, stmt.lineno, qualname, stmt.target.id)
                    for stmt in child.body
                    if isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None)
            _walk(child, path, qualname + ".", out)
        else:
            _walk(child, path, prefix, out)


def definitions(root: pathlib.Path, base: pathlib.Path) -> list:
    """Every function definition (:class:`Definition`) and defaulted
    constructor argument (:class:`Argument`) under ``root``."""
    out: list = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        _walk(tree, os.path.relpath(path, base), "", out)
    return out


def report(record_dir: pathlib.Path, roots: Iterable[pathlib.Path],
           base: pathlib.Path) -> Tuple[List[Definition], List[Argument],
                                        int]:
    """``(unentered, unset, total)`` over ``roots``: definitions no
    recorded process entered, constructor arguments none set to a
    non-default value, and the number of definitions."""
    entered, arguments = read_records(record_dir, base)
    found = [item for root in roots for item in definitions(root, base)]
    functions = [item for item in found if isinstance(item, Definition)]
    unentered = [item for item in functions
                 if (item.path, item.line, item.name) not in entered]
    unset = [item for item in found if isinstance(item, Argument)
             and (item.path, item.owner, item.name) not in arguments]
    return unentered, unset, len(functions)


def runs(scratch: pathlib.Path) -> List[Tuple[str, List[str]]]:
    """The recorded drives, ``(label, argv)``, run from the repository
    root; every output file goes under ``scratch``."""
    python = sys.executable
    drives = [(f"example {path.stem}", [python, str(path)])
              for path in sorted((REPO_ROOT / "examples").glob("*.py"))]
    for scenario in ("ci", "churn"):
        drives.append((f"sim_run {scenario}", [
            python, "tools/sim_run.py", "--scenario", scenario,
            "--out", str(scratch / "sim")]))
    drives.append(("bench_snapshot", [
        python, "tools/bench_snapshot.py", "--rounds", "1",
        "--output", str(scratch / "t2.json"),
        "--table", str(scratch / "t2.txt")]))
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for trace in (0, 1):
        for workload in spec["workloads"]:
            drives.append((f"perf {workload['name']} trace {trace}", [
                python, "perf/run.py", "--workload", workload["name"],
                "--trace", str(trace)]))
    for backend in ("bn254", "toy"):
        drives.append((f"serve_smoke {backend}", [
            python, "tools/serve_smoke.py", "--backend", backend]))
    drives.append(("pytest benchmarks", [
        python, "-m", "pytest", "benchmarks", "-q", "-k", "not f7"]))
    return drives


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]
                            ).parse_args(argv)
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="call-record-") as scratch:
        scratch = pathlib.Path(scratch)
        records = scratch / "records"
        env = hook_env(scratch / "hook", records, [SRC])
        drives = runs(scratch)
        for label, command in drives:
            began = time.monotonic()
            log = scratch / "run.log"
            with open(log, "w") as out:
                code = subprocess.call(command, cwd=REPO_ROOT, env=env,
                                       stdout=out, stderr=subprocess.STDOUT)
            print(f"  {label:<32} {time.monotonic() - began:6.1f} s",
                  flush=True)
            if code != 0:
                print(f"call-record: {label} exited {code}:\n"
                      + "".join(log.read_text().splitlines(True)[-40:]),
                      file=sys.stderr)
                return 1
        unentered, unset, total = report(records, [SRC], REPO_ROOT)
    print(f"\ncall record: {total - len(unentered)} of {total} src/ "
          f"function definitions entered by {len(drives)} runs in "
          f"{time.monotonic() - started:.0f} s")
    print(f"\nNot entered ({len(unentered)}):")
    for item in unentered:
        print(f"  {item.path}:{item.line}  {item.qualname}")
    print(f"\nConstructor arguments no run set to a non-default value "
          f"({len(unset)}):")
    for item in unset:
        print(f"  {item.path}:{item.line}  {item.owner}({item.name}=)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
