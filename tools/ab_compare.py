"""Time a workload of two checkouts, interleaved in one process:
``python3 tools/ab_compare.py CHECKOUT_A CHECKOUT_B WORKLOAD REPEATS [SEED]``.

Each checkout's perfbench/workloads.py, with its src/turbochannel, is its own
module set; each operation runs on both in turn, the first side alternating
per repeat. Before each operation the ``turbochannel`` entries of
``sys.modules`` point at that side's set, so an import made at call time (as
cli makes) finds its own checkout, and each side reads the workload's input
files from its own directory. Prints each side's sweep time and median
operation (medians over the repeats), how many operations B ran faster,
whether the outputs match, and the operation with the largest B/A median
ratio with both its medians: one slow operation can hide inside a flat
sweep total. SEED is the workload seed, by default the benchmark's
``DEFAULT_SEED``.
"""

import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path


def turbochannel_modules() -> dict:
    return {name: m for name, m in sys.modules.items()
            if name.partition(".")[0] == "turbochannel"}


def load(checkout: Path, tag: str):
    """The checkout's workloads module over a fresh turbochannel import, and
    the turbochannel modules of that import."""
    for name in turbochannel_modules():
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(f"wl_{tag}", checkout / "perfbench/workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, turbochannel_modules()


def main(argv: list[str]) -> int:
    names = ("load-sweep", "slow-ramp", "quiet-link", "configs")
    if len(argv) not in (4, 5) or argv[2] not in names:
        sys.exit(__doc__)
    paths, workload, repeats = dict(zip("AB", argv[:2])), argv[2], int(argv[3])
    modules, module_sets = {}, {}
    for tag, p in paths.items():
        modules[tag], module_sets[tag] = load(Path(p).resolve(), tag)
    seed = int(argv[4]) if len(argv) == 5 else modules["A"].DEFAULT_SEED
    sides = {tag: m.build(workload, seed) for tag, m in modules.items()}
    n = len(sides["A"].operations)
    ms = {tag: [[] for _ in range(n)] for tag in sides}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {tag: Path(tempfile.mkdtemp(dir=tmp)) for tag in sides}
        ins = {tag: Path(tempfile.mkdtemp(dir=tmp)) for tag in sides}
        for tag, w in sides.items():
            for file_name, text in w.inputs.items():
                (ins[tag] / file_name).write_text(text)
        for r in range(repeats):
            for i in range(n):
                for tag in ("AB" if r % 2 == 0 else "BA"):
                    sys.modules.update(module_sets[tag])
                    t = time.perf_counter()
                    sides[tag].operations[i].run(ins[tag], outs[tag])
                    ms[tag][i].append((time.perf_counter() - t) * 1e3)
            for tag, w in sides.items():
                w.finish(outs[tag])  # writes the CSVs and drops the collected rows
        same = modules["A"].digest_tree(outs["A"]) == modules["B"].digest_tree(outs["B"])
    med = {tag: [statistics.median(m) for m in ms[tag]] for tag in sides}
    for tag, p in paths.items():
        sweep = statistics.median(map(sum, zip(*ms[tag]))) / 1e3
        print(f"{tag} {p}: sweep {sweep:.3f} s, "
              f"median operation {statistics.median(med[tag]):.2f} ms")
    faster = sum(x < y for x, y in zip(med["B"], med["A"]))
    print(f"{workload} at seed {seed}: B faster on {faster} of {n} operations, "
          f"{repeats} repeats; outputs {'identical' if same else 'DIFFER'}")
    worst = max(range(n), key=lambda i: med["B"][i] / med["A"][i])
    a, b = med["A"][worst], med["B"][worst]
    print(f"largest B/A median ratio: {sides['A'].operations[worst].name}: "
          f"A {a:.2f} ms, B {b:.2f} ms, ratio {b / a:.3f}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
