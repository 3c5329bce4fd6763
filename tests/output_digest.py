"""One SHA-256 over every CLI output, to check that a change keeps them byte-identical.

Usage (from the repository root)::

    python tests/output_digest.py            # the package in src/
    python tests/output_digest.py OTHER/src  # another checkout's package

Runs all ten commands in both formats at N = 1, 4 and 12, in-process, on
the bundled inputs, the hexagon and its partitions in ``tests/golden/``,
three rejected partitions (of the hexagon, of the octahedron, whose
one-ray and two-ray parts have flat nabla_k, and of hexagon x segment, a
product with 8 rays), a flat, a one-point and a zero-dimensional delta,
``p4_311`` and the 13
``perfbench/gen.py`` shapes in the identity frame and in one seeded frame.
It prints the SHA-256 of the (exit code, stdout, stderr) of every run, in
a fixed order, and the number of runs per exit code; ``digest`` returns
both, and ``tests/test_output_digest.py`` pins them.  The inputs
are always this checkout's, so two checkouts agree exactly when their
outputs do.  The name keeps pytest from collecting it.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = (
    "dual-nef", "euler", "hodge", "gkz", "pf",
    "mirror-map", "yukawa", "ifunction", "bseries", "all",
)
ORDERS = (1, 4, 12)
FRAME_SEED = 7
HEXAGON = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]]
# partitions whose part polytopes are lattice polytopes that do not sum to
# delta, each refused with "Minkowski sum ..." and "nabla is not reflexive"
REJECTED = {
    "rejected": {"delta": {"dim": 2, "vertices": HEXAGON}, "parts": [[0, 1], [2, 3], [4, 5]]},
    "rejected_octahedron": {
        "delta": {
            "dim": 3,
            "vertices": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        },
        "parts": [[0], [1, 2], [3, 5, 6], [4, 7]],
    },
    "rejected_hexagon_x_segment": {
        "delta": {"dim": 3, "vertices": [v + [z] for v in HEXAGON for z in (1, -1)]},
        "parts": [[0, 1], [2, 5], [6, 7], [3, 4]],
    },
}
# deltas that span less than their space, each refused as not reflexive
FLAT = {
    "flat": {"dim": 3, "vertices": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]]},
    "one_point": {"dim": 3, "vertices": [[1, 2, 3]]},
    "zero_dimensional": {"dim": 0, "vertices": [[]]},
}


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs(folder):
    """(label, path) of every input; generated ones are written to ``folder``."""
    gen = _load_gen()
    found = [(name, ROOT / "data" / f"{name}.json") for name in sorted(gen.BUNDLED)]
    found += [(p.stem, p) for p in sorted(GOLDEN.glob("hexagon*.json"))]
    found.append(("p4_311", GOLDEN / "p4_311.json"))
    docs = dict(REJECTED)
    docs.update((label, {"delta": delta, "parts": [[0]]}) for label, delta in FLAT.items())
    rng = random.Random(FRAME_SEED)
    for shape, (n, _) in gen.SHAPES.items():
        docs[f"{shape}.identity"] = gen.framed_input(shape, gen.identity(n), gen.identity(n))
        docs[f"{shape}.seeded"] = gen.framed_input(shape, *gen.random_frame(n, 3, rng))
    for label, doc in docs.items():
        path = Path(folder) / f"{label}.json"
        gen.write_input(path, doc)
        found.append((label, path))
    return found


def digest():
    """(SHA-256 hex digest, {exit code: runs}) of every run of the
    ``fracmirror`` package on the import path; the codes are strings, as
    JSON keys."""
    from fracmirror.cli import main as cli_main

    sha, codes = hashlib.sha256(), Counter()
    with tempfile.TemporaryDirectory() as folder:
        for label, path in inputs(folder):
            for command in COMMANDS:
                for fmt in ("json", "table"):
                    for N in ORDERS:
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = cli_main([command, str(path), "-N", str(N), "--format", fmt])
                        record = [label, command, fmt, N, code, out.getvalue(), err.getvalue()]
                        sha.update(json.dumps(record).encode() + b"\n")
                        codes[code] += 1
    return sha.hexdigest(), {str(code): count for code, count in sorted(codes.items())}


def main(argv):
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    hexdigest, codes = digest()
    print(hexdigest)
    print(json.dumps(codes))


if __name__ == "__main__":
    main(sys.argv[1:])
