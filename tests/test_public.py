import ast
import re
from pathlib import Path

import ml0

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCE = Path(ml0.__file__).resolve().parent


def test_public_names_resolve_and_the_readme_example_runs(tmp_path, monkeypatch):
    """A deletion cannot leave a dangling export or a stale example behind."""
    names = ml0.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(ml0, name)
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert (tmp_path / "test.ml0t").is_file()


def test_every_private_function_and_method_is_used_in_the_package():
    """A private module-level function or private method (not a dunder) is
    named in src/ml0 outside its own definition, as a name or an attribute,
    so a fold cannot leave a dead helper behind."""
    defs, uses = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        defs += [(path.name, node) for scope in scopes for node in scope.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_") and not node.name.endswith("__")]
        uses += [(path.name, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
                 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    assert defs
    unused = [f"{name}:{node.lineno} {node.name}" for name, node in defs
              if not any(used == node.name and not (where == name and node.lineno <= line
                                                    <= node.end_lineno)
                         for where, line, used in uses)]
    assert unused == []


def test_every_module_level_import_is_used():
    """A name a module imports at module level is named in that module or
    listed in its `__all__`, so a deletion cannot leave a dead import behind."""
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{node.lineno} {bound}" for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for bound in (alias.asname or alias.name.split(".")[0]
                                 for alias in node.names)
                   if bound not in used]
    assert unused == []


def test_only_kernels_imports_a_thread_or_process_module():
    """Every pass over the samples splits through `kernels._each_range`, so
    only kernels.py imports threading, concurrent.futures or multiprocessing,
    at any depth, and a second split mechanism cannot come back."""
    banned = ("threading", "concurrent", "multiprocessing")
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [(path.name, m) for m in modules if m.split(".")[0] in banned]
    assert found == [("kernels.py", "threading")]


def sites(matches):
    """(file, innermost enclosing function or None) of each node of src/ml0
    that `matches`, files in name order."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        stack = [(ast.parse(path.read_text(), str(path)), None)]
        while stack:
            node, function = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if matches(node):
                found.append((path.name, function))
            stack += [(child, function) for child in ast.iter_child_nodes(node)]
    return found


def test_only_each_range_constructs_a_thread():
    """`threading.Thread` is constructed in one function of src/ml0,
    `kernels._each_range`, which runs every pass's ranges, so a second range
    runner cannot come back."""
    assert sites(lambda node: isinstance(node, ast.Call) and "Thread" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))) == [
        ("kernels.py", "_each_range")]


def test_only_check_integer_tests_for_an_integer():
    """`__index__`, as a string or an attribute, appears in one function of
    src/ml0, `tensor._check_integer`, the one integer rule, so a copy of the
    rule cannot come back."""
    assert sites(lambda node: getattr(node, "attr", None) == "__index__" or (
        isinstance(node, ast.Constant) and "__index__" in str(node.value))) == [
        ("tensor.py", "_check_integer")]


def test_each_schedule_has_one_name():
    """The schedules are declared once, in `solver.SCHEDULES`, under the
    names the CLI, the README and the sidecars use. No string of src/ml0 is
    a second name for one, and cli.py holds no dict literal keyed by
    schedule names, so a translation table cannot come back."""
    names, old = {"apalm+", "apalm", "bpgd"}, {"adaptive", "nesterov", "none"}
    assert set(ml0.solver.SCHEDULES) == names
    assert sites(lambda node: isinstance(node, ast.Constant) and node.value in old) == []
    names |= old
    tables = [node.lineno for node in ast.walk(ast.parse((SOURCE / "cli.py").read_text()))
              if isinstance(node, ast.Dict) and any(
                  isinstance(key, ast.Constant) and key.value in names for key in node.keys)]
    assert tables == []


def passes_calls(method):
    """Sites of the calls `passes.<method>(...)` in src/ml0, sorted."""
    return sorted(sites(lambda node: isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == method
                        and getattr(node.func.value, "id", None) == "passes"))


def test_run_computes_the_final_gradients_at_one_site():
    """`solver.run` calls `_gradient_family` and `passes.direction` at one
    site each, in its loop, so the stop test and the final residual read one
    gradient family and a second residual path cannot come back. The
    partial pass runs once in `_objective_at`, for the initial objective,
    and once in `run`, for the new iterate, whose every margin it gives:
    `_gradient_family` reads no X, so no second margin path can come back."""
    assert sites(lambda node: isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_gradient_family") == [
        ("solver.py", "run")]
    assert passes_calls("direction") == [("solver.py", "run")]
    assert passes_calls("partial") == [("solver.py", "_objective_at"), ("solver.py", "run")]
