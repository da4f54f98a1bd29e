"""balcut benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload decompose_planted --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run imports balcut from the
checkout's ``src``, makes the workload's input from ``--seed`` several
times (their median is the set-up time), then repeats the workload's op,
one driver call on that input, for ``--seconds`` seconds.  Every op's
output is checked from outside the package and digested; a digest that
differs from the first op's, or from an earlier run of the same seed and
the same source tree, fails the op.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced ops alternate, and the result holds the
per-layer metrics of the traced ops plus the tracing overhead.  Metric
names and units are checked against ``BENCHMARK.json``.

The last stdout line is the result object; the line before it holds the
run's details (samples, tail percentile, digests, layer shares).  A
human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = BENCH_DIR / ".state"
SETUP_REPS = 3
#: Single-threaded BLAS keeps the timings steady on a shared host; the
#: workloads are single-threaded Python apart from Lanczos' BLAS calls.
BLAS_THREADS = 1


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import balcut from the checkout, then the workloads; returns the
    workloads module and balcut's import time in seconds."""
    if not (ROOT / "src" / "balcut" / "__init__.py").is_file():
        _fail(f"no balcut sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import balcut
    import_s = time.perf_counter() - t0
    if Path(balcut.__file__).resolve().parent != ROOT / "src" / "balcut":
        _fail(f"imported balcut from {balcut.__file__}, not from the checkout")
    import workloads
    return workloads, import_s


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "balcut").rglob("*.py")) + [BENCH_DIR / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest_store(key: str, value: str) -> str | None:
    """Record the op digest of (workload, seed, sources); returns an
    earlier run's digest when it differs."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    earlier = store.get(key)
    if earlier is None:
        store[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return earlier if earlier != value else None


def _package_caches():
    """Memoised functions of the package, cleared before every op so that
    each op pays what one command-line invocation pays."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "balcut" or name.startswith("balcut."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    rank = max(-(-n * pct // 100), 1)  # nearest-rank percentile
    return {"percentile": pct, "value": sorted(samples)[rank - 1], "samples": n}


def _expected_metrics(trace: int) -> dict[str, str]:
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    expected = _expected_metrics(args.trace)
    workloads, import_s = _import_package()
    import layertrace

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    caches = _package_caches()
    failures: list[str] = []

    def clear():
        for cache in caches:
            cache.cache_clear()
        gc.collect()

    # -- set-up: generate the input several times ---------------------------
    gen_s: list[float] = []
    inp = None
    input_digests = set()
    for _ in range(SETUP_REPS):
        inp = None
        clear()
        t0 = time.perf_counter()
        inp = wl.setup(args.seed)
        gen_s.append(time.perf_counter() - t0)
        input_digests.add(inp.digest())
    if len(input_digests) != 1:
        failures.append("input generation is not deterministic")
    ref = wl.reference(inp)

    # -- measurement ----------------------------------------------------------
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer(layertrace.package_modules("balcut") + ["workloads"])
    untraced_s: list[float] = []
    traced_ops: list[tuple] = []   # (seconds, counts, self times) per traced op
    attempted = 0
    failed = 0
    first_digest = None
    quality = None
    deadline = time.perf_counter() + args.seconds
    while True:
        # Op 1 warms the allocator and is checked but not timed; in a traced
        # run the ops after it alternate traced and untraced.
        attempted += 1
        traced = tracer is not None and attempted % 2 == 0
        clear()
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.solve(inp)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failed op is counted, the run goes on
            failed += 1
            failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
            out = None
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            op_trace = tracer.take_op()
            if out is not None:
                traced_ops.append((dt,) + op_trace)
        elif out is not None and attempted > 1:
            untraced_s.append(dt)
        if out is not None:
            try:
                wl.check(inp, ref, out)
                d = wl.digest(out)
                if first_digest is None:
                    first_digest = d
                    quality = wl.quality(inp, out)
                elif d != first_digest:
                    raise workloads.CheckFailed("output digest differs from the first op's")
            except Exception as exc:  # CheckFailed, or a malformed output
                failed += 1
                failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
        enough = untraced_s and (tracer is None or traced_ops)
        if time.perf_counter() >= deadline and (enough or attempted >= 4):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if first_digest is not None:
        key = f"{wl.name}:{args.seed}:{_source_hash()[:16]}"
        earlier = _digest_store(key, first_digest)
        if earlier is not None:
            failed += 1
            failures.append(f"output digest {first_digest[:12]} differs from an earlier run's {earlier[:12]}")

    details = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "import_s": import_s,
        "generate_s": gen_s,
        "solve_s_samples": untraced_s,
        "solve_s_tail": _tail(untraced_s),
        "digest": first_digest,
        "failures": failures,
    }

    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        if not untraced_s:
            _fail("no op completed: " + "; ".join(failures))
        metrics["solve_s"] = (statistics.median(untraced_s), "s")
        metrics["setup_s"] = (import_s + statistics.median(gen_s), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["ops_ok_frac"] = ((attempted - failed) / attempted, "frac")
        for name, (unit, owner) in workloads.QUALITY.items():
            value = quality[name] if owner == wl.name and quality else workloads.NOT_APPLICABLE
            metrics[name] = (value, unit)
    else:
        if not traced_ops or not untraced_s:
            _fail("no traced and untraced op pair completed: " + "; ".join(failures))
        first_counts = traced_ops[0][1]
        for i, (_, counts, _) in enumerate(traced_ops[1:], 2):
            if counts != first_counts:
                failed += 1
                failures.append(f"traced op {i}: layer counts differ from the first traced op's")
        solve = statistics.median(t for t, _, _ in traced_ops)
        for span in layertrace.span_names():
            metrics[span + ".calls"] = (first_counts[span + ".calls"], "count")
            metrics[span + ".self_pct"] = (
                statistics.median(100.0 * st.get(span, 0.0) / t for t, _, st in traced_ops), "%")
        for name in layertrace.COUNTED:
            metrics[name] = (first_counts[name], "count")
        metrics["trace.solve_s"] = (solve, "s")
        metrics["trace.untraced_solve_s"] = (statistics.median(untraced_s), "s")
        metrics["trace.overhead_ratio"] = (solve / statistics.median(untraced_s), "ratio")
        metrics["trace.spans"] = (len(tracer.spans) / len(traced_ops), "count")
        details["missing_spans"] = tracer.missing
        shares: dict[str, float] = {}
        for span in layertrace.span_names():
            layer = span.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + metrics[span + ".self_pct"][0]
        details["layer_self_pct"] = shares
        STATE_DIR.mkdir(exist_ok=True)
        tracer.write_spans(STATE_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")

    if set(metrics) != set(expected):
        _fail(f"metrics disagree with BENCHMARK.json: extra {sorted(set(metrics) - set(expected))}, "
              f"missing {sorted(set(expected) - set(metrics))}")
    for name, (_, unit) in metrics.items():
        if unit != expected[name]:
            _fail(f"metric {name} has unit {unit}, BENCHMARK.json says {expected[name]}")

    for name, (value, unit) in metrics.items():
        print(f"{wl.name:18} {name:48} {value:>16.6g} {unit}", file=sys.stderr)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
