"""``tools/call_record.py``: a process that never runs an exit handler
still leaves its record.

One child enters a function and then ``os._exit``\\ s (a crashing
worker); another is SIGKILLed after entering one (a serve-smoke
victim).  Both functions must count as entered — a record dumped only
at exit, or on a timer that has not yet fired, loses both.
"""

import os
import pathlib
import subprocess
import sys

import pytest

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"

MODULE = '''
import os
import sys
import time


def exits():
    os._exit(1)


def parks():
    print("entered", flush=True)
    time.sleep(60)


def untouched():
    pass


class Service:
    def __init__(self, shards=2, label="a"):
        self.shards = shards
'''


@pytest.fixture(scope="module")
def call_record():
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import call_record
    finally:
        sys.path.remove(str(TOOLS_DIR))
    return call_record


def test_exit_and_sigkill_children_are_recorded(call_record, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "victims.py").write_text(MODULE)
    records = tmp_path / "records"
    env = call_record.hook_env(tmp_path / "hook", records, [src])

    def child(code: str, **kwargs):
        return subprocess.Popen([sys.executable, "-c", code], env=env,
                                cwd=tmp_path, **kwargs)

    crasher = child("import victims; victims.Service(shards=3); "
                    "victims.exits()")
    assert crasher.wait(timeout=30) == 1
    victim = child("import victims; victims.parks()",
                   stdout=subprocess.PIPE, text=True)
    try:
        assert victim.stdout.readline().strip() == "entered"
    finally:
        victim.kill()
        victim.wait(timeout=30)
    assert victim.returncode == -9

    unentered, unset, total = call_record.report(records, [src], tmp_path)
    assert total == 4
    assert [item.qualname for item in unentered] == ["untouched"]
    assert [(item.owner, item.name) for item in unset] == [
        ("Service", "label")]
    # Each process wrote its own file, and nothing else did.
    assert len(os.listdir(records)) == 2
