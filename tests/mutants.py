"""Mutation check for the shared pair counts, the row layout, the edge list and the Wiener identity.

Brute and quotient build their rows through `groupbfs.product_rows` and hand
them to `groupbfs.group_wiener`, and every route hands its counts to
`report.make_report`, so a fault in any of these shows in all routes alike
and agreement between routes cannot catch it.  Each layout mutant is listed
once under each route's own test file.  Each entry of `MUTANTS` changes one
line of a module of `src/cozero` in a fresh temporary copy of `src/` and
`tests/`, and runs the entry's test files on that copy with `pytest -x`;
the mutant is killed when they fail.  Every
entry changes a value, and says which, except one that turns off
`group_wiener`'s hub certificate: it changes which path counts the pairs at
distance 3 and what they cost, and a guard test pins that path.  Any other
mutant that changes no value (a looser degree bound, say, which only adds
exact tests) does not belong here.

Run it from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

It prints one line per mutant, then the kill count and the wall time, and
exits 1 if any mutant survives, or 2 if the unmutated copy fails its tests,
does not import from the copy, or a mutated line is not found exactly once.
pytest does not collect this file, so it is not part of the Tier-1 suite.
A change to one of these lines adds its own mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    module: str  # file under src/cozero
    before: str  # the whole line, stripped; it must occur exactly once
    after: str
    tests: tuple[str, ...]  # files under tests/
    why: str


SUM = ("test_groupbfs.py", "test_quotient.py")
REPORT = ("test_report.py", "test_groupbfs.py")

MUTANTS = [
    # groupbfs.group_wiener: components, pair counts and weighing.
    Mutant(
        "groupbfs.py",
        "components = sum(1 if rows[r] else sizes[r] for r in component_roots(rows))",
        "components = sum(1 for r in component_roots(rows))",
        SUM,
        "a group without neighbours counts as one component, not as its isolated vertices",
    ),
    Mutant(
        "groupbfs.py",
        "pairs = (vertex_count * vertex_count - sum(map(mul, sizes, sizes))) // 2",
        "pairs = (vertex_count * vertex_count - sum(sizes)) // 2",
        SUM,
        "the pairs within a group count as cross-group pairs, so |E| grows by sum C(s, 2)",
    ),
    Mutant(
        "groupbfs.py",
        "lighter = smaller | same >> i + 1 << i + 1",
        "lighter = smaller | same",
        SUM,
        "a pair of groups of equal size is counted from both ends, and each group is its own partner",
    ),
    Mutant(
        "groupbfs.py",
        "apart = lighter & ~row",
        "apart = lighter",
        SUM,
        "adjacent lighter groups count as non-adjacent, so |E| shrinks",
    ),
    Mutant(
        "groupbfs.py",
        "apart_pairs += size * weigh(apart, planes)",
        "apart_pairs += weigh(apart, planes)",
        SUM,
        "the non-adjacent pairs lose the factor of group i's size",
    ),
    Mutant(
        "groupbfs.py",
        "while n < count and planes[n][0] <= size:",
        "while n < count and planes[n][0] < size:",
        SUM,
        "a size's planes stop below its own weight, so groups as heavy as it are lost",
    ),
    Mutant(
        "groupbfs.py",
        "return [(1 << b, int(digits[bits - 1 - b :: bits], 2)) for b in range(width)]",
        "return [(1 << b, int(digits[bits - 1 - b :: bits], 2)) for b in range(width - 1)]",
        SUM,
        "the top bit plane of the sizes is left out of every weighing",
    ),
    Mutant(
        "groupbfs.py",
        "return [(1 << b, int(digits[bits - 1 - b :: bits], 2)) for b in range(width)]",
        "return [(1 << b, int(digits[width - 1 - b :: bits], 2)) for b in range(width)]",
        SUM,
        "each plane is read at the size's width into its slot, not the slot's, so a width that is not whole bytes shifts the bits",
    ),
    Mutant(
        "groupbfs.py",
        "slot = (width + 7) // 8",
        "slot = width // 8",
        SUM,
        "a slot is a byte short when the width is not whole bytes, so packing a size past it overflows",
    ),
    Mutant(
        "groupbfs.py",
        "by_size[size] = by_size.get(size, 0) | 1 << i",
        "by_size[size] = 1 << i",
        SUM,
        "a size's mask keeps only its last group, so the others weigh 0 and drop out of the lighter masks",
    ),
    # groupbfs.group_wiener: the deep test's three covers.
    Mutant(
        "groupbfs.py",
        "while taken < len(degrees) and degrees[taken] <= bound - d:",
        "while taken < len(degrees) and degrees[taken] <= bound - d - 1:",
        SUM,
        "the degree bound drops the partners whose degrees sum to k - 2, whose rows can miss",
    ),
    Mutant(
        "groupbfs.py",
        "if held & bit:",
        "if bit:",
        SUM,
        "a hub outside i's row still clears its neighbours, so groups at distance 3 are missed",
    ),
    Mutant(
        "groupbfs.py",
        "far = [j for j in members(need) if not rows[j] & row] if need else None",
        "far = [j for j in members(need & need - 1) if not rows[j] & row] if need else None",
        SUM,
        "the pair AND skips the lowest candidate, so a far partner that is the only one is not counted",
    ),
    Mutant(
        "groupbfs.py",
        "far = [j for j in members(need) if not rows[j] & row] if need else None",
        "far = list(members(need)) if need else None",
        SUM,
        "candidates whose rows meet i's row, at distance 2, count as far pairs",
    ),
    # groupbfs.group_wiener: the hub certificate of the far pairs.
    Mutant(
        "groupbfs.py",
        "for h in members(held):",
        "for h in members(hub_mask):",
        SUM,
        "hubs outside i's row reach far groups too, so a pair at distance 4 is certified at 3",
    ),
    Mutant(
        "groupbfs.py",
        "excess += size * sum(map(sizes.__getitem__, far))",
        "excess += sum(map(sizes.__getitem__, far))",
        SUM,
        "the certified pairs lose the factor of group i's size",
    ),
    Mutant(
        "groupbfs.py",
        "if all(rows[j] & reach for j in far):",
        "if not far:",
        SUM,
        "no value: every group with a far partner goes to the sweep, which the certificate guard test catches",
    ),
    # groupbfs.group_wiener: the excess and the deepest level.
    Mutant(
        "groupbfs.py",
        "if d >= 3:",
        "if d >= 4:",
        SUM,
        "the pairs at distance 3 add nothing to the excess",
    ),
    Mutant(
        "groupbfs.py",
        "excess += (d - 2) * size * weigh(frontier & deep[s], classes[size][2])",
        "excess += (d - 2) * size * weigh(frontier, classes[size][2])",
        SUM,
        "the sweep weighs every group of a level, not only s's lighter ones, so far pairs are counted twice or cut",
    ),
    Mutant(
        "groupbfs.py",
        "excess += (d - 2) * size * weigh(frontier & deep[s], classes[size][2])",
        "excess += size * weigh(frontier & deep[s], classes[size][2])",
        SUM,
        "a pair at distance 4 or more adds 1 to the excess, not d - 2",
    ),
    Mutant(
        "groupbfs.py",
        "deepest = max(deepest, d)",
        "deepest = d",
        SUM,
        "the deepest level is the last deep source's, not the largest",
    ),
    # groupbfs.sweep: the frontier masks.
    Mutant(
        "groupbfs.py",
        "frontier = reached & unseen",
        "frontier = unseen",
        SUM,
        "a top-down step reaches every unseen vertex, so levels past 2 vanish",
    ),
    Mutant(
        "groupbfs.py",
        "frontier = unseen & ~missed",
        "frontier = unseen",
        SUM,
        "a bottom-up step reaches the unseen vertices with no neighbour in the frontier too",
    ),
    # groupbfs.component_roots: one root per component, its lowest vertex.
    Mutant(
        "groupbfs.py",
        "for _, _, frontier in sweep(rows, (root,)):",
        "for _, _, frontier in [*sweep(rows, (root,))][:1]:",
        SUM,
        "only a root's neighbours count as reached, so a component of diameter 2 or more has several roots",
    ),
    Mutant(
        "groupbfs.py",
        "root = (unreached & -unreached).bit_length() - 1",
        "root = unreached.bit_length() - 1",
        SUM,
        "each root is the highest unreached vertex, not the lowest",
    ),
    # report.make_report: the identity and the diameter rule.
    Mutant(
        "report.py",
        "wiener=ordered_pairs - edge_count + excess if connected else None,",
        "wiener=ordered_pairs - edge_count if connected else None,",
        REPORT,
        "a pair at distance 3 counts 2, not 3",
    ),
    Mutant(
        "report.py",
        "ordered_pairs = vertex_count * (vertex_count - 1)",
        "ordered_pairs = vertex_count * (vertex_count - 1) // 2",
        REPORT,
        "each pair counts once before the non-adjacent ones add theirs, not twice",
    ),
    Mutant(
        "report.py",
        "diameter=max(deepest, 2 if 2 * edge_count < ordered_pairs else 1) if connected and vertex_count >= 2 else None,",
        "diameter=max(deepest, 2) if connected and vertex_count >= 2 else None,",
        REPORT,
        "a complete graph reports diameter 2",
    ),
    Mutant(
        "report.py",
        "diameter=max(deepest, 2 if 2 * edge_count < ordered_pairs else 1) if connected and vertex_count >= 2 else None,",
        "diameter=(2 if 2 * edge_count < ordered_pairs else 1) if connected and vertex_count >= 2 else None,",
        REPORT,
        "a graph with pairs at distance 3 or more reports diameter 2",
    ),
    # groupbfs.product_rows: the one product layout.  Brute and quotient build
    # their rows through it alike, so each layout mutant is listed once per
    # route, to show that each route's own rule tests catch it.
    *(
        Mutant("groupbfs.py", before, after, (tests,), why)
        for before, after, why in (
            (
                "copies = ((1 << positions) - 1) // ((1 << width) - 1)",
                "copies = ((1 << positions) - 1) // ((1 << block) - 1)",
                "a component's runs repeat every block bits, not every tile, so later entries take earlier ones' groups",
            ),
            (
                "return (tile * copies >> 1) & full",
                "return tile * copies & full",
                "a tile is laid down without cutting the unit position, so every mask is one group off",
            ),
            (
                "return ((inside & inner, outside & outer) for inside, outside in column for inner, outer in entries)",
                "return ((inside & outer, outside & inner) for inside, outside in column for inner, outer in entries)",
                "one component's inside mask meets the next one's outside, so containment mixes its directions",
            ),
        )
        for tests in ("test_elementgraph.py", "test_quotient.py")
    ),
    # quotient._exponent_order and elementgraph._divisibility: each route's own rule.
    Mutant(
        "quotient.py",
        "le = list(accumulate(map(lay, at), or_))",
        "le = list(map(lay, at))",
        ("test_quotient.py",),
        "a class is below only the classes of equal exponent, so nested classes become adjacent",
    ),
    Mutant(
        "elementgraph.py",
        "multiples = [lay(sum(compress(cells, [b % a == 0 for b in labels]))) for a in labels]",
        "multiples = [lay(sum(compress(cells, [a % b == 0 for b in labels]))) for a in labels]",
        ("test_elementgraph.py",),
        "the multiples mask holds the divisors, so a group's multiples become its neighbours",
    ),
    # elementgraph.ElementGraph.edges: each edge once, from its lower end.
    Mutant(
        "elementgraph.py",
        "return [(i, j) for i, g in enumerate(self.group_of) for j in neighbours[g][bisect_right(neighbours[g], i) :]]",
        "return [(i, j) for i, g in enumerate(self.group_of) for j in neighbours[g]]",
        ("test_elementgraph.py",),
        "every edge is listed from both ends",
    ),
    Mutant(
        "elementgraph.py",
        "neighbours = [sorted(chain.from_iterable(map(members_of.__getitem__, members(row)))) for row in self.group_rows]",
        "neighbours = [list(chain.from_iterable(map(members_of.__getitem__, members(row)))) for row in self.group_rows]",
        ("test_elementgraph.py",),
        "a neighbour list is in group order, not vertex order, so the cut past i drops or keeps the wrong vertices",
    ),
    # closedform._wiener_local: |E| and the distance-3 pairs.
    Mutant(
        "closedform.py",
        "edges = (cardinality * cardinality - (2 * below - same)) // 2",
        "edges = (cardinality * cardinality - 2 * below) // 2",
        ("test_closedform.py",),
        "the comparable ordered pairs count the equal ones twice, so |E| grows",
    ),
    Mutant(
        "closedform.py",
        "below *= sum(v * c for v, c in zip(s, prefix))",
        "below *= sum(v * c for v, c in zip(s, s))",
        ("test_closedform.py",),
        "the pairs x <= y of a factor count only x = y",
    ),
    Mutant(
        "closedform.py",
        "distance3 += units // s[0] * sum(s[x] * (prefix[x] - s[0]) for x in range(1, len(s) - 1))",
        "distance3 += units // s[0] * sum(s[x] * prefix[x] for x in range(1, len(s) - 1))",
        ("test_closedform.py",),
        "a unit exponent at r counts as a distance-3 partner",
    ),
    Mutant(
        "closedform.py",
        "distance3 += units // s[0] * sum(s[x] * (prefix[x] - s[0]) for x in range(1, len(s) - 1))",
        "distance3 += units // s[0] * sum(s[x] * (prefix[x] - s[0]) for x in range(1, len(s) - 2))",
        ("test_closedform.py",),
        "the exponent just below the top of each chain adds no distance-3 pairs",
    ),
    Mutant(
        "closedform.py",
        'return make_report("closed", vertices, classes, components, edges, distance3, 3 if distance3 else 0, t0)',
        'return make_report("closed", vertices, classes, components, edges, distance3, 0, t0)',
        ("test_closedform.py",),
        "rings with pairs at distance 3 report diameter 2",
    ),
]


def copy_tree(dst: Path) -> None:
    """The repository's `src/`, `tests/` and pytest settings, without build or cache files."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dst / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dst / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dst)


def mutated(mutant: Mutant) -> str:
    """The text of `mutant.module` with `mutant.before` replaced by `mutant.after`, keeping the indent."""
    lines = (ROOT / "src" / "cozero" / mutant.module).read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.before]
    if len(hits) != 1:
        sys.exit(f"{mutant.module}: {mutant.before!r} is on {len(hits)} lines, not 1")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.after + "\n"
    text = "".join(lines)
    compile(text, mutant.module, "exec")  # a kill must come from a test, not a syntax error
    return text


def env_for(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")


def passes(root: Path, tests) -> bool:
    """Whether the test files pass on the copy at `root`; a run past `TIMEOUT_S` fails."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    cmd += [f"tests/{name}" for name in tests]
    try:
        done = subprocess.run(cmd, cwd=root, env=env_for(root), capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cozero-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        where = subprocess.run(
            [sys.executable, "-c", "import cozero; print(cozero.__file__)"],
            cwd=base, env=env_for(base), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(base.resolve()):
            print(f"cozero imports from {where}, not from the copy", file=sys.stderr)
            return 2
        texts = [mutated(mutant) for mutant in MUTANTS]  # every line is found before any test runs
        every_file = sorted({name for mutant in MUTANTS for name in mutant.tests})
        if not passes(base, every_file):
            print(f"the unmutated copy fails {' '.join(every_file)}", file=sys.stderr)
            return 2
        survivors = []
        for n, (mutant, text) in enumerate(zip(MUTANTS, texts), 1):
            root = Path(tmp) / f"mutant{n}"
            copy_tree(root)
            (root / "src" / "cozero" / mutant.module).write_text(text)
            t0 = time.perf_counter()
            killed = not passes(root, mutant.tests)
            shutil.rmtree(root)
            if not killed:
                survivors.append(n)
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{n:2d} {verdict} {time.perf_counter() - t0:5.1f}s  {mutant.module}: {mutant.why} ({', '.join(mutant.tests)})", flush=True)
    wall = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed in {wall:.1f} s")
    if survivors:
        print(f"survivors: {', '.join(map(str, survivors))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
