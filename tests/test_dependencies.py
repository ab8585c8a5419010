"""numpy is the one runtime dependency: ``src/graphmgs`` imports nothing else
outside the standard library and itself.  Nor does it read or set environment
variables: what it does depends on its arguments and on what it measures, such
as the CPUs the process may run on, never on a setting outside them.  And every
field of a configuration class is read somewhere outside the class: a field
nothing reads would be a setting with no effect.  Every field of the model and
training configs is also set by some call in the package or the benchmark: a
field that no caller sets is a constant.  There is one categorical sampler,
the per-profile CDF of ``graphmgs.synthetic``: no call passes a probability
vector to a ``choice`` method.  And the encoder's input is built in one place:
``models.py`` reads node attributes and calls into ``_OPERATORS`` only in
``prepare``, its attribute reader and ``infer_attr_sizes``, and ``training.py``
reads no node attributes, so no forward pass rebuilds what ``prepare`` built.
Fine-tuning reads graph labels in one place: in ``training.py`` only
``_label_table`` reads ``graph_labels``, so every other reader takes its rows
of the one label table.
The fingerprint schemes are named in one place: only ``fingerprints.py`` and
``spectral.py`` spell a scheme name, and ``training.py`` neither imports from
``spectral`` nor tells fingerprints apart by their class.
Work is split across threads in two places only: ``tensor.py`` defines
``_split`` and ``models.py`` encodes MGS blocks with it, so no other module,
the scoring code among them, refers to ``_split``.
No call leaves process-wide state behind: the package has no ``global``
statement and registers no ``os.register_at_fork`` hook, so a thread, pool or
other object made for a call is gone when it returns.
The encoder adds no bias or running sum to a matrix product with ``+``:
``models.py`` spells that ``tensor.linear``, one tape node and one array, so
no ``@`` in it is an operand of an addition.  Nor does it pass the result of
``tensor.block_diag_matmul`` to ``tensor.linear``, directly or through a name
bound to it: that node would keep the aggregate for the weight's gradient,
where ``linear`` over ``blocks`` keeps the input and rebuilds the aggregate.
Public code has callers: every public top-level function and method of
``src/graphmgs`` is named by a module of the package or of the benchmark
(its tests aside), as a call, an attribute or a string (the benchmark's tracer
patches functions by name), except the names on ``TEST_ONLY``, which only
shrinks.
No public function is a second name for another: none has a body, after its
docstring, that only returns a call passing its own parameters on, in order.
A gradient closure of ``tensor.py`` reads only the arrays it captured: no
lambda or nested function reads a ``.data`` attribute, which would mean it
holds a tensor and so keeps that tensor's array until the sweep.
There is one recording path: in ``tensor.py`` only ``_node``, the
``Tensor`` class, ``tape``, ``_drop``, ``backward`` and ``tape_size`` read a
tensor's ``_slot`` or the open tape, so no op writes the tape protocol out
for itself.
The topological walk hashes by table lookup: the loop of
``topological_fingerprints``, its nested functions and every function of
``fingerprints.py`` they call neither call ``fnv1a64_rows``, whose byte
steps cost 16 passes over every new path, nor take a remainder by
``nbits``; the tables are built, and the 1-edge paths hashed, before the
loop.
Tanimoto scores only the pairs it is given: ``structural_pair_sims`` forms
no matrix product (``@``, ``dot``, ``matmul``, ``einsum``, ``tensordot``,
``inner``), such as the graphs x graphs Gram of which a pair set reads a
few entries; it counts shared bits by popcount."""

import ast
import sys
from pathlib import Path

from graphmgs.fingerprints import SCHEMES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphmgs"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "graphmgs"}
ENVIRONMENT = {"environ", "getenv", "putenv"}
CONFIGS = ("SyntheticSpec", "GnnConfig", "PgmConfig")
# the tests' gradient checks pin the soft-rank temperature through this field:
# the automatic one is a constant of the batch, so a finite-difference check
# across it would also measure the temperature's own change
UNSET_BY_CALLERS = {"PgmConfig.temperature"}
# the functions of models.py that may read node attributes or build operators
INPUT_BUILDERS = {"prepare", "_attr_table", "infer_attr_sizes"}
# the modules that define the scheme names; every other module imports them
SCHEME_NAMERS = {"fingerprints.py", "spectral.py"}
# the modules that may refer to tensor._split
SPLITTERS = {"tensor.py", "models.py"}
# the definitions of tensor.py that may read a tensor's gradient slot or the
# open tape: every op records through _node
TAPE_KEEPERS = {"_node", "Tensor", "tape", "_drop", "backward", "tape_size"}
# public functions and methods that only tests call, each with the ROADMAP
# item that gives it a caller or deletes it; a name that gains a caller must
# leave the list
TEST_ONLY = {
    "graphs.load_corpus": "D12 step 2: the driver's --corpus input",
    "graphs.save_corpus": "D12 step 2: goes with load_corpus's caller, or goes",
    "graphs.homophily_ratio": "D6 step 1: the edge_homophily label rule",
    "graphs.corpus_homophily": "D6 step 2: read by the record",
    "models.save_model": "D12 step 2: the driver saves checkpoints, or it goes",
    "models.load_model": "D12 step 2: the driver loads checkpoints, or it goes",
    "similarity.write_pair_csv": "D12 step 2: writes the record's pair scatter, or goes",
    "training.TrainReport.to_dict": "D6 step 2: run.json records the report",
    "training.FinetuneReport.to_dict": "D6 step 2: run.json records the report",
}


def _trees(modules=None):
    modules = sorted(PACKAGE.glob("*.py")) if modules is None else modules
    assert modules
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in modules]


def test_runtime_imports_are_stdlib_numpy_or_own():
    foreign = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports are graphmgs itself
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not foreign


def test_no_environment_access():
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in ENVIRONMENT]
    assert not found


def test_one_categorical_sampler():
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "choice" and any(kw.arg == "p" for kw in node.keywords)]
    assert not found


def test_encoder_input_built_in_one_place():
    found = []
    for path, tree in _trees([PACKAGE / "models.py", PACKAGE / "training.py"]):
        allowed = INPUT_BUILDERS if path.name == "models.py" else set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name in allowed:
                continue
            found += [f"{path.name}:{node.lineno}: {fn.name} reads {ast.unparse(node)}"
                      for node in ast.walk(fn)
                      if (isinstance(node, ast.Attribute) and node.attr == "node_attrs")
                      or (isinstance(node, ast.Name) and node.id == "_OPERATORS")]
    assert not found


def test_graph_labels_read_in_one_place():
    found = [f"{path.name}:{node.lineno}: {fn.name} reads {ast.unparse(node)}"
             for path, tree in _trees([PACKAGE / "training.py"]) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name != "_label_table"
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "graph_labels"]
    assert not found


def test_threads_only_in_tensor_and_models():
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for path, tree in _trees()
             if path.name not in SPLITTERS for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "_split")
             or (isinstance(node, ast.Name) and node.id == "_split")
             or (isinstance(node, ast.alias) and node.name == "_split")]
    assert not found


def test_no_global_statement_or_fork_hook():
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Global)
             or (isinstance(node, ast.Call) and "register_at_fork" in
                 (getattr(node.func, "id", None), getattr(node.func, "attr", None)))]
    assert not found


def test_products_and_sums_fused_in_models():
    def is_matmul(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)

    found = [f"models.py:{node.lineno}: {ast.unparse(node)}"
             for _, tree in _trees([PACKAGE / "models.py"]) for node in ast.walk(tree)
             if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                 and (is_matmul(node.left) or is_matmul(node.right)))
             or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                 and is_matmul(node.value))]
    assert not found


def test_no_aggregate_passed_to_linear_in_models():
    def calls(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == name and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "T")

    found = []
    for _, tree in _trees([PACKAGE / "models.py"]):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = {target.id for node in ast.walk(fn)
                     if isinstance(node, ast.Assign) and calls(node.value, "block_diag_matmul")
                     for target in node.targets if isinstance(target, ast.Name)}
            found += [f"models.py:{node.lineno}: {ast.unparse(node)}"
                      for node in ast.walk(fn) if calls(node, "linear")
                      for arg in [*node.args, *(kw.value for kw in node.keywords)]
                      if calls(arg, "block_diag_matmul")
                      or (isinstance(arg, ast.Name) and arg.id in bound)]
    assert not found


def test_backward_closures_read_no_tensor_data():
    found = [f"tensor.py:{node.lineno}: {outer.name}'s closure reads {ast.unparse(node)}"
             for _, tree in _trees([PACKAGE / "tensor.py"]) for outer in tree.body
             if isinstance(outer, ast.FunctionDef)
             for fn in ast.walk(outer)
             if fn is not outer and isinstance(fn, (ast.FunctionDef, ast.Lambda))
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "data"
             and isinstance(node.ctx, ast.Load)]
    assert not found


def test_one_recording_path():
    found = [f"tensor.py:{node.lineno}: {outer.name} reads {ast.unparse(node)}"
             for _, tree in _trees([PACKAGE / "tensor.py"]) for outer in tree.body
             if isinstance(outer, (ast.FunctionDef, ast.ClassDef)) and outer.name not in TAPE_KEEPERS
             for node in ast.walk(outer)
             if (isinstance(node, ast.Attribute) and node.attr == "_slot")
             or (isinstance(node, ast.Name) and node.id == "_open_tape")]
    assert not found


def test_schemes_named_in_one_place():
    found = [f"{path.name}:{node.lineno}: {node.value!r}" for path, tree in _trees()
             if path.name not in SCHEME_NAMERS for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in SCHEMES]
    for path, tree in _trees([PACKAGE / "training.py"]):
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if (isinstance(node, ast.ImportFrom) and node.level == 1
                      and node.module == "spectral")
                  or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "isinstance")]
    assert not found


def _config_reads(trees, cls: ast.ClassDef) -> set:
    """Attributes read, outside the body of ``cls``, from a value of that class:
    a function argument annotated with it, a field annotated with it (such as
    ``model.config``), or a local variable assigned from either."""
    def annotated(node) -> bool:
        return isinstance(node, ast.Name) and node.id == cls.name

    holders = {stmt.target.id for tree in trees for other in ast.walk(tree)
               if isinstance(other, ast.ClassDef) for stmt in other.body
               if isinstance(stmt, ast.AnnAssign) and annotated(stmt.annotation)}
    inside = {id(node) for node in ast.walk(cls)}
    reads = set()
    for tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or id(fn) in inside:
                continue
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            typed = {a.arg for a in args if annotated(a.annotation)}

            def of_cls(expr) -> bool:
                return ((isinstance(expr, ast.Name) and expr.id in typed)
                        or (isinstance(expr, ast.Attribute) and expr.attr in holders))

            typed |= {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                      and of_cls(node.value) for target in node.targets
                      if isinstance(target, ast.Name)}
            reads |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load) and of_cls(node.value)}
    return reads


def _config_class(trees, name: str) -> tuple[ast.ClassDef, dict]:
    """The class and its annotated names, each with its annotation's source."""
    (cls,) = [node for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == name]
    fields = {stmt.target.id: ast.unparse(stmt.annotation) for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    assert fields, name
    return cls, fields


def test_every_config_field_is_read():
    trees = [tree for _, tree in _trees()]
    dead = []
    for name in CONFIGS:
        cls, fields = _config_class(trees, name)
        reads = _config_reads(trees, cls)
        dead += [f"{name}.{field}" for field in fields if field not in reads]
    assert not dead


def test_every_model_and_training_field_is_set_by_a_caller():
    trees = [tree for _, tree in _trees()]
    callers = trees + [tree for _, tree in _trees(sorted((ROOT / "perfbench").glob("*.py")))]
    unset = []
    for name in ("GnnConfig", "PgmConfig"):
        _, fields = _config_class(trees, name)
        passed = {kw.arg for tree in callers for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                  for kw in node.keywords}
        unset += [f"{name}.{field}" for field, annotation in fields.items()
                  if not annotation.startswith("ClassVar") and field not in passed
                  and f"{name}.{field}" not in UNSET_BY_CALLERS]
    assert not unset


def _public_functions(tree):
    """(qualified name, node) of each public top-level function and public
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            methods = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            methods = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                       if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        yield from ((name, fn) for name, fn in methods if not fn.name.startswith("_"))


def test_no_public_alias():
    def is_alias(fn) -> bool:
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if not (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)):
            return False
        call, args = body[0].value, fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return (not call.keywords and args.vararg is None and args.kwarg is None
                and [getattr(a, "id", None) for a in call.args] == params)

    found = [f"{path.stem}.{name}: {ast.unparse(fn.body[-1])}"
             for path, tree in _trees() for name, fn in _public_functions(tree)
             if is_alias(fn)]
    assert not found


def test_public_names_have_callers_outside_tests():
    benchmark = [path for path in sorted((ROOT / "perfbench").glob("*.py"))
                 if not path.name.startswith("test_")]
    named = {name for _, tree in _trees() + _trees(benchmark) for node in ast.walk(tree)
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "value", None))
             if isinstance(name, str)}
    test_only = [f"{path.stem}.{name}" for path, tree in _trees()
                 for name, fn in _public_functions(tree) if fn.name not in named]
    assert sorted(test_only) == sorted(TEST_ONLY)


def test_path_walk_hashes_by_table():
    _, tree = _trees([PACKAGE / "fingerprints.py"])[0]
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    engine = defs["topological_fingerprints"]
    todo = [node for node in ast.walk(engine)
            if node is not engine and isinstance(node, (ast.While, ast.FunctionDef))]
    walk = []
    while todo:
        part = todo.pop()
        walk.append(part)
        todo += [defs[node.func.id] for node in ast.walk(part)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in defs and defs[node.func.id] not in walk + todo]
    assert len(walk) > 2  # the loop, push and what they call

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    found = [f"fingerprints.py:{node.lineno}: {ast.unparse(node)}"
             for part in walk for node in ast.walk(part)
             if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "fnv1a64_rows")
             or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
                 and "nbits" in names(node.right if isinstance(node, ast.BinOp) else node.value))]
    assert not found


def test_tanimoto_forms_no_matrix_product():
    _, tree = _trees([PACKAGE / "similarity.py"])[0]
    (scorer,) = [fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "structural_pair_sims"]
    products = {"dot", "matmul", "einsum", "tensordot", "inner"}
    found = [f"similarity.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(scorer)
             if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
             or (isinstance(node, ast.Call)
                 and (getattr(node.func, "id", None) in products
                      or getattr(node.func, "attr", None) in products))]
    assert not found
