"""Single-operator mutation testing of one lifthead module.

    python tools/mutate.py src/lifthead/tensor.py tests/test_tensor.py tests/test_blocks.py

Each mutant flips one operator of the module: ``+``/``-``, ``*``/``/``,
``<``/``<=``, ``>``/``>=`` (in an expression, an augmented assignment or a
comparison) or the sign of a unary minus or plus. ``src/``, ``tests/``,
``perfbench/`` (whose tracer a test imports) and ``pyproject.toml`` are
copied to a temporary directory, the mutant is written there, and the
given tests run against it (``pytest -x``, no bytecode cache, at most
TIMEOUT seconds). A mutant the tests pass survives; any survivor that
EQUIVALENT does not name makes the exit status 1. Standard library only;
one pytest run per mutant makes it too slow for the test suite.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

TIMEOUT = 300.0  # seconds per test run; a run that takes longer fails

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.USub: ast.UAdd, ast.UAdd: ast.USub}

# mutant -> why no test can, or should, tell it from the module as written
EQUIVALENT = {
    "synthetic.py: generate: gen.noise_sigma > 0 -> gen.noise_sigma >= 0":
        "at sigma 0 the noise stream, which nothing else reads, draws exact "
        "zeros, and adding +0.0 changes no nonzero feature",
    "tensor.py: Tensor.item: -1 -> +1":
        "item() reads a 1-element array, which reshape(1) takes as well",
    "tensor.py: _row_max: w < _TRANSPOSED_MAX_BELOW -> w <= _TRANSPOSED_MAX_BELOW":
        "both row-max paths give the same bits; the cut only picks the faster",
    "tensor.py: _keep_mask: 0.0 <= p < 1.0 -> 0.0 < p < 1.0":
        "dropout and relu return before calling it at p = 0",
    "tensor.py: _keep_mask: rng.random(x.shape) >= p -> rng.random(x.shape) > p":
        "a uniform draw equals p with probability about 2**-53",
    "tensor.py: _pin_heap_policy: 2 ** 31 - 1 -> 2 ** 31 + 1":
        "ctypes wraps it to a negative c_int, which glibc reads as a huge "
        "size_t: the trim threshold is still never reached",
    "training.py: AdamState.init: lo <= start -> lo < start":
        "a whole parameter then takes the sliced path, which reads the same values",
    "training.py: AdamState.init: end <= hi -> end < hi":
        "a whole parameter then takes the sliced path, which reads the same values",
    "training.py: train: (time.perf_counter() - t0) * 1000.0 -> "
    "(time.perf_counter() - t0) / 1000.0": "wall-clock time is recorded, never checked",
    "training.py: train: time.perf_counter() - t0 -> time.perf_counter() + t0":
        "wall-clock time is recorded, never checked",
}


def sites(tree):
    """(qualified name of the enclosing scope, node, index into a
    comparison's ops or None) of every operator in SWAPS, in source order."""
    out = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)) and type(node.op) in SWAPS:
            out.append((scope, node, None))
        elif isinstance(node, ast.Compare):
            out.extend((scope, node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, "")
    return out


def flip(node, i):
    """Swap the operator at a site; a second flip undoes the first."""
    if i is None:
        node.op = SWAPS[type(node.op)]()
    else:
        node.ops[i] = SWAPS[type(node.ops[i])]()


def mutants(source):
    """(name, mutated source) per site, in source order, from one parse. A
    dropped minus is written as a unary plus, which leaves a number or an
    array unchanged."""
    tree = ast.parse(source)
    for scope, node, i in sites(tree):
        before = ast.unparse(node)
        flip(node, i)
        yield f"{scope}: {before} -> {ast.unparse(node)}", ast.unparse(tree)
        flip(node, i)


def run_tests(root, tests):
    """True if the tests pass in root."""
    try:
        return subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=root, capture_output=True, timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("module", help="path of the module, under src/")
    ap.add_argument("tests", nargs="+", help="test files, under tests/")
    args = ap.parse_args()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    module = os.path.relpath(os.path.abspath(args.module), repo)
    tests = [os.path.relpath(os.path.abspath(t), repo) for t in args.tests]
    with open(os.path.join(repo, module)) as f:
        source = f.read()
    prefix = os.path.basename(module) + ": "
    total, survivors = 0, []
    with tempfile.TemporaryDirectory() as root:
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(os.path.join(repo, part), os.path.join(root, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(repo, "pyproject.toml"), root)
        if not run_tests(root, tests):
            sys.exit("the tests fail on the module as written")
        for name, text in mutants(source):
            with open(os.path.join(root, module), "w") as f:
                f.write(text)
            survived = run_tests(root, tests)
            total += 1
            survivors += [prefix + name] * survived
            print(f"{'survived' if survived else 'killed'}\t{prefix + name}", flush=True)
    unexpected = [name for name in survivors if name not in EQUIVALENT]
    print(f"{total} mutants: {total - len(survivors)} killed, {len(survivors) - len(unexpected)} "
          f"known-equivalent survivors, {len(unexpected)} unexpected")
    for name in unexpected:
        print(f"unexpected survivor\t{name}")
    for name in EQUIVALENT:
        if name.startswith(prefix) and name not in survivors:
            print(f"known-equivalent, but killed or not made\t{name}")
    sys.exit(1 if unexpected else 0)


if __name__ == "__main__":
    main()
