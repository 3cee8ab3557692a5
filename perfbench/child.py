"""Run `delone-lab verify ...` in this fresh process for one pass of verify-all.

    PYTHONPATH=src python3 perfbench/child.py RECORD.json TRACE verify all --seed 0

The command's stdout is passed through unchanged and its exit code
returned. One slice of the reference kernel (speed.py) runs before each
verify suite, as one runs before each operation of an in-process pass, so
that the pass's slowness factor samples the machine while the pass runs.
A suite is a fixed step of `verify all`, so the number of slices does not
depend on how the library is written. With TRACE=1 the library calls are
traced (spans.py); the slices stay outside every span. RECORD.json
receives the slice times, the time they took in total (which run.py
subtracts from the wall time) and, with TRACE=1, the spans.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time

import speed


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import delone_lab.verify as verify
    from delone_lab.cli import main as cli_main

    kernel = speed.Kernel()
    slices, spent = [], [0.0]

    def slice_before(suite):
        @functools.wraps(suite)
        def run(*args, **kwargs):
            t = time.perf_counter()
            slices.append(kernel.slice())
            spent[0] += time.perf_counter() - t
            return suite(*args, **kwargs)

        return run

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()  # wraps the suites first, so that slices fall outside their spans
    for name in list(verify.SUITES):
        verify.SUITES[name] = slice_before(verify.SUITES[name])

    buf = io.StringIO()
    root = tracer.open("cli", command=argv[0]) if tracer else None
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    text = buf.getvalue()
    record = {"slices": slices, "slice_s": spent[0]}
    if tracer:
        tracer.close(root)
        root["end"] -= spent[0]  # the command's time without the slices
        root["attrs"].update(ok=code == 0, bytes=len(text.encode()))
        tracer.uninstall()
        record["spans"] = tracer.spans
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
