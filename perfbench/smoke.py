"""Smoke check of the benchmark harness on decks/buckley_leverett.deck.

    python3 perfbench/smoke.py

Runs the harness once untraced and once traced on the small 1-D deck and
checks the result schema, that metric names and units match BENCHMARK.json,
and that the traced layer self times plus ``driver.unattributed_s`` add up
to the traced wall time.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import SELF_METRIC  # noqa: E402


def _expect(cond: bool, what) -> None:
    if not cond:
        raise AssertionError(what)


def _run(trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "buckley_leverett", "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)])
    _expect(code == 0, f"harness exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _check(result: dict, spec: list[dict]) -> None:
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    _expect(result["correct"] is True and result["failed"] == 0, result)
    _expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, result)
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    _expect(got == want, f"metric names/units differ: {set(got.items()) ^ set(want.items())}")
    for name, m in result["metrics"].items():
        v = m["value"]
        _expect(isinstance(v, (int, float)) and math.isfinite(v), (name, v))


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    run.WORKLOADS["buckley_leverett"] = run.Workload(
        1, lambda run_dir: os.path.join(run.DECKS, "buckley_leverett.deck"))

    _check(_run(0), bench["end_to_end"])
    traced = _run(1)
    _check(traced, bench["per_layer"])

    # one traced sample at --seconds 1, so its own figures are reported
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    parts = set(SELF_METRIC.values()) | {"driver.unattributed_s"}
    total = sum(layers[k] for k in parts)
    wall = layers["driver.traced_wall_s"]
    _expect(math.isclose(total, wall, rel_tol=1e-9), (total, wall))
    print(f"smoke ok: layer self times + unattributed = {total:.6f} s "
          f"= traced wall {wall:.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
