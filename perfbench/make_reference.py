"""Write the reference tables the benchmark checks every run against.

    python3 perfbench/make_reference.py [STEP ...]

Runs each variant of each named step (default: all) once, untraced, and
stores its tables under perfbench/reference/STEP/vK/.  The stored tables
are the seed commit's output; regenerate them only when a change is meant to
alter the tables, and say so where the change is recorded.
"""

import shutil
import subprocess
import sys

import run


def main(names) -> int:
    env = run.child_env()
    for step in names or sorted(run.STEPS):
        argv, tables, _ = run.STEPS[step]
        for k in range(run.VARIANTS):
            dest = run.REFERENCE / step / f"v{k}"
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            cmd = [sys.executable, "-m", "pseudotherm.cli", "--out", str(dest), *argv(k)]
            subprocess.run(cmd, env=env, cwd=run.ROOT, check=True)
            missing = [t for t in tables if not (dest / t).is_file()]
            if missing:
                raise SystemExit(f"{step} v{k} wrote no {missing}")
            print(f"{step} v{k}: {', '.join(tables)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
