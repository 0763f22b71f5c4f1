"""One benchmark op in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds "kind" ("setup", "cli" or "triangle"), "argv", "out" (the
JSON report written here), "op" (the op id) and "trace" (where to write
the op's spans, or null for an untraced op).  The parent sets the
address-space and CPU limits before this program starts and reads its
peak RSS from its own rusage.
"""

from __future__ import annotations

import json
import sys


def run(kind, argv, out):
    """Run the op; returns the process exit code."""
    if kind == "setup":
        from dghom import grammar, validate
        cat, cert = grammar.load_path(argv[0])
        ok = validate(cat).ok and (cert is None or cert.is_closed)
        return 0 if ok else 1
    if kind == "cli":
        from dghom import cli
        return cli.main(argv + ["--out", out])
    if kind == "triangle":
        from dghom import grammar
        from dghom.saturation import euler_report, triangle_identity_check
        cat, _cert = grammar.load_path(argv[0])
        report = {"triangle": triangle_identity_check(cat, (-2, 2)).as_dict(),
                  "euler": euler_report(cat).as_dict()}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True)
        return 0
    raise ValueError(f"unknown op kind {kind!r}")


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["trace"] is None:
        return run(spec["kind"], spec["argv"], spec["out"])
    import tracer
    rec = tracer.install(spec["op"])
    try:
        with rec.span("op.self"):
            code = run(spec["kind"], spec["argv"], spec["out"])
    finally:
        rec.write(spec["trace"])
    return code


if __name__ == "__main__":
    sys.exit(main())
