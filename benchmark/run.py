#!/usr/bin/env python3
"""Build and run the repo benchmark.

  python3 benchmark/run.py
      the whole suite: every workload untraced (end-to-end metrics), every
      workload traced (per-layer ledger, probes, restart check); prints every
      metric by name with its unit and writes benchmark/out/suite.json
  python3 benchmark/run.py --runs 10
      the same with ten untraced runs per workload on seeds seed..seed+9:
      medians, spreads and the bound each spread supports (calibration)
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      one run; the last line of standard output is the result object
  python3 benchmark/run.py compare A.json B.json
      two suite files against the bounds in BENCHMARK.json

Run length comes from BENCHMARK.json (run_seconds), not from the caller's
mood: --seconds exists because the driver passes that very number.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("benchmark/out")


def die(msg, code=2):
    print(f"benchmark/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def release_profile():
    """The root manifest's [profile.release]. The benchmark is a workspace of
    its own and would not inherit it; forwarding each key means a later
    `lto` or `codegen-units` change in the root manifest is measured."""
    manifest = ROOT / "Cargo.toml"
    if not manifest.exists():
        die(f"{manifest} not found: the benchmark builds the kernel from this repository")
    return tomllib.loads(manifest.read_text()).get("profile", {}).get("release", {})


def profile_env(profile):
    def show(v):
        return str(v).lower() if isinstance(v, bool) else str(v)

    return {
        "CARGO_PROFILE_RELEASE_" + k.upper().replace("-", "_"): show(v)
        for k, v in profile.items()
        if not isinstance(v, dict)
    }


def build(profile):
    env = dict(os.environ, **profile_env(profile))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml"]
    # Cargo's progress goes to stderr; keep stdout for results.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        die("build failed")
    target = Path(os.environ.get("CARGO_TARGET_DIR", "benchmark/target"))
    return str(target / "release" / "phoebe-benchmark")


def filesystem_of(path):
    best = ("", "?", "?")
    for line in Path("/proc/mounts").read_text().splitlines():
        dev, mount, fstype = line.split()[:3]
        if str(path).startswith(mount) and len(mount) >= len(best[0]):
            best = (mount, dev, fstype)
    return {"mount": best[0], "device": best[1], "type": best[2]}


def output_of(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def fingerprint(seed):
    nproc = len(os.sched_getaffinity(0))
    if nproc < 2:
        die("needs at least 2 CPUs: every workload runs 2 kernel workers")
    cpuinfo = Path("/proc/cpuinfo").read_text()
    meminfo = Path("/proc/meminfo").read_text()
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)
    fs = filesystem_of((ROOT / OUT).resolve())
    if fs["type"] in ("tmpfs", "ramfs"):
        print(f"benchmark/run.py: warning: data dir is on {fs['type']}; "
              "commit latency will not be a disk's", file=sys.stderr)
    return {
        "nproc": nproc,
        "cpu": next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines()
                     if l.startswith("model name")), "unknown"),
        "mem_total_kb": int(meminfo.split("MemTotal:")[1].split()[0]),
        "kernel": platform.release(),
        "data_dir_fs": fs,
        "rustc": output_of(["rustc", "-V"]),
        "profile_release": release_profile(),
        "git_commit": output_of(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown",
        "seed": seed,
    }


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload once; returns (exit code, result object or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(OUT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = ""
    for line in proc.stdout:
        last = line
        if echo:
            sys.stdout.write(line)
            sys.stdout.flush()
    code = proc.wait()
    try:
        return code, json.loads(last) if code == 0 else None
    except json.JSONDecodeError:
        return code or 1, None


def flag(args, name, default):
    return type(default)(args[args.index(name) + 1]) if name in args else default


def single(args):
    workload = flag(args, "--workload", "")
    seed = flag(args, "--seed", 1)
    seconds = flag(args, "--seconds", spec()["run_seconds"])
    trace = flag(args, "--trace", 0)
    fp = fingerprint(seed)
    binary = build(fp["profile_release"])
    code, result = run_once(binary, workload, seed, seconds, trace)
    if result is None:
        sys.exit(code or 1)
    record = {"fingerprint": fp, "workload": workload, "seconds": seconds, "trace": trace,
              "result": result}
    results = ROOT / OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}.trace{trace}.seed{seed}.json").write_text(json.dumps(record, indent=1))
    # The binary's result object was echoed last: it stays the last line.


def spread(values):
    """Interquartile range as a share of the median (None below 4 values)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def suite(args):
    bench = spec()
    seed = flag(args, "--seed", 1)
    runs = flag(args, "--runs", 1)
    seconds = bench["run_seconds"]
    fp = fingerprint(seed)
    binary = build(fp["profile_release"])
    doc = {"fingerprint": fp, "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in (x["name"] for x in bench["workloads"]):
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for trace, seeds in ((0, range(seed, seed + runs)), (1, [seed])):
            for s in seeds:
                started = time.monotonic()
                code, result = run_once(binary, w, s, seconds, trace, echo=False)
                print(f"== {w} seed {s} {'traced' if trace else 'untraced'}: "
                      f"{time.monotonic() - started:.1f} s", flush=True)
                if result is None:
                    die(f"{w} seed {s} trace {trace} failed (exit {code})", 1)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                section = entry["per_layer" if trace else "end_to_end"]
                for name, m in result["metrics"].items():
                    section.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        ok = ok and entry["failed"] == 0
        doc["workloads"][w] = entry

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w, entry in doc["workloads"].items():
        print(f"\n{w}: attempted {entry['attempted']}, failed {entry['failed']}")
        for name, m in entry["end_to_end"].items():
            m["median"] = statistics.median(m["values"])
            line = f"  {name:<36} {m['median']:>16.4f} {m['unit']}"
            if (sp := spread(m["values"])) is not None:
                m["spread"] = sp
                # A bound must be at least three spreads wide to be usable.
                line += f"   spread {sp:.4f}  supports bound {max(0.05, 3 * sp):.3f}  (set: {bounds[name]})"
            print(line)
        for name, m in entry["per_layer"].items():
            m["median"] = statistics.median(m["values"])
            print(f"  {name:<36} {m['median']:>16.4f} {m['unit']}")
    path = ROOT / OUT / "suite.json"
    path.write_text(json.dumps(doc, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}")
    sys.exit(0 if ok else 1)


def compare(a_path, b_path):
    bench = spec()
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    print(f"{'workload':<10} {'metric':<16} {'A':>12} {'B':>12} {'delta':>8} {'bound':>6}  verdict")
    worse = 0
    for w in (x["name"] for x in bench["workloads"]):
        for m in bench["end_to_end"]:
            ma, mb = (d["workloads"][w]["end_to_end"][m["name"]] for d in (a, b))
            va, vb = ma["median"], mb["median"]
            delta = (vb - va) / va
            got_worse = delta if m["better"] == "lower" else -delta
            spreads = [s for s in (ma.get("spread"), mb.get("spread")) if s is not None]
            if spreads and max(spreads) > m["bound"]:
                verdict = "unresolved"  # run-to-run spread wider than the bound
            elif got_worse > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{w:<10} {m['name']:<16} {va:>12.3f} {vb:>12.3f} {delta:>+8.3f} {m['bound']:>6}  {verdict}")
    sys.exit(1 if worse else 0)


def main():
    os.chdir(ROOT)
    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        if len(args) != 3:
            die("usage: run.py compare A.json B.json")
        compare(args[1], args[2])
    elif "--workload" in args:
        single(args)
    else:
        suite(args)


if __name__ == "__main__":
    main()
