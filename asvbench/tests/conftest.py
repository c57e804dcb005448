import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
# the benchmark's modules and the simulator source, as run.py sees them
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
