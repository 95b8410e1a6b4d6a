"""One measured invocation of roeforge, run as a fresh process.

    python3 perfbench/child.py --out RESULT.json [--spans SPANS.json] [-- ARGV...]

Run from the root of a checkout.  The child puts ``src`` on the path (the
package is not installed), imports ``roeforge.cli`` and notes the time, then
calls ``roeforge.cli.main(ARGV)`` in-process with stdout captured.  With no
ARGV it only imports, which measures set-up time.  With ``--spans`` the
layer boundaries are traced and the spans written to that file.

RESULT.json holds the ``time.perf_counter`` readings (a system-wide
monotonic clock on Linux, so the parent can compare them with its own),
the exit code, the captured stdout, CPU time and peak RSS.
"""

import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
import roeforge.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    result = {"ready": READY}
    if argv:
        result.update(_invoke(argv, args.spans))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _invoke(argv, spans_path) -> dict:
    recorder = None
    if spans_path:
        import probes
        from spans import Recorder

        recorder = Recorder()
        probes.install(recorder)
    buf = io.StringIO()
    crash = None
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if recorder is None:
                rc = roeforge.cli.main(argv)
            else:
                with recorder.span("cli.main"):
                    rc = roeforge.cli.main(argv)
    except Exception:
        rc = None
        crash = traceback.format_exc()
    end = time.perf_counter()
    cpu = _cpu_seconds() - cpu0
    out = {
        "start": start, "end": end, "rc": rc, "crash": crash,
        "stdout": buf.getvalue(), "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        spans = list(recorder.spans)
        out["layers"] = probes.layer_metrics(spans, dict(recorder.counts))
        threads = {}
        rows = [[sid, name, threads.setdefault(tid, len(threads)), parent, t0, t1]
                for sid, name, tid, parent, t0, t1 in spans]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "thread", "parent", "start", "end"],
                       "spans": rows, "counts": recorder.counts}, fh)
    return out


if __name__ == "__main__":
    main()
