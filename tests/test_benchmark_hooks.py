import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_spans_install_on_current_source():
    # perfbench/spans.py wraps program functions by their module names
    # (thermo._refine_bracket, cycles.solve_alpha, cycles._solve_alpha_cached,
    # spectral.build_block_hamiltonian, cli._parallel_map, ...); a rename in
    # src/ must fail here, not only in the benchmark's own suite
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install()"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
