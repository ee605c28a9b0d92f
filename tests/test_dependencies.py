"""The package runs on the standard library alone.

A fresh interpreter imports the package and its command line; every
top-level module it then holds must come with Python itself or be the
package (or `__main__`, the probe script).
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import integrable_lab, integrable_lab.cli
tops = {name.partition(".")[0] for name in sys.modules}
print("\\n".join(sorted(tops - set(sys.stdlib_module_names) - {"integrable_lab", "__main__"})))
"""


def test_importing_the_package_loads_only_the_standard_library():
    # -S skips site, whose .pth hooks may load third-party modules at start-up
    # (and makes a third-party import fail outright); -I keeps PYTHON*
    # variables and the working directory out
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
