import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays a fresh import, and building dataclasses, with
    # the inspect module that dataclasses imports, was its largest cost
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import escalier, escalier.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    # -I -S: no environment, user site or .pth file loads modules first;
    # -B: no bytecode left in src
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
