"""One cold `unitcodes verify` process of the benchmark.

Usage: python3 cold.py JOB.json RESULT.json

JOB.json holds {"src": path of the unitcodes sources, "argvs": [verify
argv, ...], "trace": bool, "spans": path}. The process times the import
of `unitcodes.cli`, then each `cli.run(argv)` call, and writes
{"import_s", "walls", "exit_codes", "maxrss_kb", "versions"} to
RESULT.json. With "trace" set it first wraps the layer functions and
writes the spans, one JSON object per line, to the "spans" path.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import unitcodes.cli  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - t0

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    cli = sys.modules["unitcodes.cli"]

    walls, codes = [], []
    for argv in job["argvs"]:
        start = time.perf_counter()
        codes.append(cli.run(argv))
        walls.append(time.perf_counter() - start)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    versions = {name: sys.modules[name].__version__ for name in ("numpy", "scipy")}
    versions["python"] = sys.version.split()[0]

    if tracer is not None:
        with open(job["spans"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps({
        "import_s": import_s, "walls": walls, "exit_codes": codes, "maxrss_kb": maxrss_kb,
        "versions": versions,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:3])
