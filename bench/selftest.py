"""Self-tests of the benchmark, at smoke size.

    python3 bench/selftest.py     (or: python3 -m pytest bench/selftest.py)

The file name keeps these tests out of the repository's test suite: they
start benchmark processes and take about a minute.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 7


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, seed=SEED):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in _spec()["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_every_metric_emitted_with_unit_and_no_errors():
    spec = _spec()
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in workloads.WORKLOADS:
        for trace, metrics in wanted.items():
            code, details, result = _run(name, trace)
            assert code == 0, (name, trace, details["failures"])
            assert result["correct"] and result["failed"] == 0
            assert details["error_rate"] == 0
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in metrics}, \
                (name, trace)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())


def test_same_seed_same_digest():
    for name, cls in workloads.WORKLOADS.items():
        a = [t.desc for t in cls(SEED, "smoke").next_pass()]
        b = [t.desc for t in cls(SEED, "smoke").next_pass()]
        c = [t.desc for t in cls(SEED + 1, "smoke").next_pass()]
        assert run.digest_descs(a) == run.digest_descs(b), name
        assert run.digest_descs(a) != run.digest_descs(c), name


def test_no_input_replayed_across_passes():
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED, "smoke")
        descs = [t.desc for _ in range(4) for t in wl.next_pass()]
        assert len(descs) == len(set(descs)), name


def test_traced_verdicts_equal_untraced():
    for name, cls in workloads.WORKLOADS.items():
        plain = [t.run() for t in cls(SEED, "smoke").next_pass()]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [t.run() for t in cls(SEED, "smoke").next_pass()]
        finally:
            tracer.uninstall()
        assert plain == traced, name
        assert tracer.spans, name


def test_flipped_known_answer_fails_the_run():
    for name, cls in workloads.WORKLOADS.items():
        generate = cls.generate

        def flipped(self, index, generate=generate):
            tasks = generate(self, index)
            tasks[0].expected = ("flipped", tasks[0].expected)
            return tasks
        cls.generate = flipped
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = run.main(["--workload", name, "--seed", str(SEED),
                                 "--seconds", "1", "--size", "smoke"])
        finally:
            cls.generate = generate
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        assert code != 0, name
        assert not result["correct"] and result["failed"] > 0, name


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    for k, fn in tests:
        fn()
        print(f"ok  {k}", flush=True)
    print(f"{len(tests)} passed")
