"""Remaining DESIGN.md section-5 invariants not covered elsewhere."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import EngineConfig, NoDBEngine
from repro.cracking.cracker import CrackerColumn
from repro.flatfile.schema import DataType
from repro.flatfile.writer import write_csv
from repro.ranges import ValueInterval
from repro.storage.catalog import Catalog


class TestInvariant8SchemaRoundTrip:
    """Schema inference on generated files returns the generating schema."""

    @settings(max_examples=25, deadline=None)
    @given(
        spec=st.lists(
            st.sampled_from(["int", "float", "str"]), min_size=1, max_size=6
        ),
        nrows=st.integers(2, 30),
    )
    def test_generated_schema_recovered(self, spec, nrows, tmp_path_factory):
        rng = np.random.default_rng(42)
        columns = []
        for kind in spec:
            if kind == "int":
                columns.append(rng.integers(-1000, 1000, nrows))
            elif kind == "float":
                # Guarantee a non-integral value so the column stays float.
                vals = rng.uniform(-10, 10, nrows)
                vals[0] = 0.5
                columns.append(vals)
            else:
                choices = np.array(["xx", "yy", "zz"], dtype=object)
                columns.append(choices[rng.integers(0, 3, nrows)])
        path = tmp_path_factory.mktemp("schema") / "t.csv"
        write_csv(path, columns)
        entry = Catalog().attach("t", path)
        inferred = [c.dtype for c in entry.ensure_schema()]
        expected = {
            "int": DataType.INT64,
            "float": DataType.FLOAT64,
            "str": DataType.STRING,
        }
        assert inferred == [expected[k] for k in spec]


class TestFloatCracking:
    """Cracking works on float columns, not just the paper's int tables."""

    def test_float_range_select(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 1, 500)
        c = CrackerColumn(values)
        interval = ValueInterval(0.25, 0.75)
        got = np.sort(c.select_values(interval))
        expected = np.sort(values[interval.mask(values)])
        assert np.array_equal(got, expected)
        c.check_invariants()

    def test_mixed_bounds(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        c = CrackerColumn(values)
        got = c.select_values(
            ValueInterval(0.2, 0.4, lo_open=False, hi_open=True)
        )
        assert sorted(got.tolist()) == [0.2, 0.3]


class TestExplainResiduals:
    def test_residual_flag_reported(self, small_csv):
        engine = NoDBEngine(EngineConfig(policy="partial_v2"))
        engine.attach("r", small_csv)
        text = engine.explain(
            "select sum(a1) from r where a1 > 5 and (a2 > 1 or a3 > 1)"
        )
        assert "residual predicates present" in text
        engine.close()

    def test_partial_state_reported(self, small_csv):
        engine = NoDBEngine(EngineConfig(policy="partial_v2"))
        engine.attach("r", small_csv)
        engine.query("select sum(a1) from r where a1 > 5 and a1 < 100")
        text = engine.explain("select sum(a1) from r where a1 > 5 and a1 < 100")
        assert "partially loaded" in text
        assert "certificates" in text
        engine.close()


class TestResidualPredicatesThroughPolicies:
    """Residual (non-range) predicates must not break partial coverage."""

    @pytest.mark.parametrize("policy", ["partial_v2", "column_loads", "splitfiles"])
    def test_or_predicates_correct(self, small_csv, small_columns, policy):
        engine = NoDBEngine(EngineConfig(policy=policy))
        engine.attach("r", small_csv)
        got = engine.query(
            "select count(*) from r where a1 > 100 and a1 < 400 "
            "and (a2 < 50 or a2 > 450)"
        ).scalar()
        a1, a2 = small_columns[0], small_columns[1]
        mask = (a1 > 100) & (a1 < 400) & ((a2 < 50) | (a2 > 450))
        assert got == mask.sum()
        engine.close()

    def test_v2_residual_never_certified_too_broadly(self, small_csv, small_columns):
        """After a query with a residual, a *wider* residual query must
        not be served from a store that lacks its rows."""
        engine = NoDBEngine(EngineConfig(policy="partial_v2"))
        engine.attach("r", small_csv)
        engine.query(
            "select count(*) from r where a1 > 100 and a1 < 200 and (a2 < 50 or a2 > 450)"
        )
        a1, a2 = small_columns[0], small_columns[1]
        got = engine.query(
            "select count(*) from r where a1 > 100 and a1 < 200 and (a2 < 100 or a2 > 400)"
        ).scalar()
        mask = (a1 > 100) & (a1 < 200) & ((a2 < 100) | (a2 > 400))
        assert got == mask.sum()
        engine.close()


class TestDependencyDirection:
    """The package is the engine: scaffolding may import it, never the
    reverse, so benchmark and test code cannot creep back into ``src``."""

    SCAFFOLDING = {"benchmarks", "tests", "pytest", "hypothesis"}

    def test_no_product_module_imports_scaffolding(self):
        package = Path(repro.__file__).parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    if module.split(".")[0] in self.SCAFFOLDING:
                        rel = path.relative_to(package.parent)
                        offenders.append(f"{rel}:{node.lineno} imports {module}")
        assert not offenders, offenders


class TestOneProcess:
    """The engine runs in one process, and a query's pass on the query's
    thread: nothing under ``src/repro`` starts or forks worker processes
    (no start method to choose, no pickling of frames, nothing to fork
    from the threaded server), and threads start only where serving or
    the store writer needs them."""

    #: Modules that may construct a thread or a thread pool: the HTTP
    #: front door, the persistent store's writer and ``serve``'s drain.
    THREAD_OWNERS = {"repro/server/app.py", "repro/core/lifecycle.py", "repro/cli.py"}
    THREAD_FACTORIES = {"ThreadPoolExecutor", "Thread"}

    FORBIDDEN = (
        "multiprocessing",
        "concurrent.futures.process",
        # re-exported by concurrent.futures from its process module
        "concurrent.futures.ProcessPoolExecutor",
    )

    @staticmethod
    def imported(tree: ast.AST) -> list[tuple[int, str]]:
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(node.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                found.append((node.lineno, module))
                found += [
                    (node.lineno, f"{module}.{alias.name}") for alias in node.names
                ]
        return found

    def forbidden(self, module: str) -> bool:
        return any(
            module == name or module.startswith(name + ".")
            for name in self.FORBIDDEN
        )

    def test_no_module_imports_process_pools(self):
        package = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(package.parent)}:{line} imports {module}"
            for path in sorted(package.rglob("*.py"))
            for line, module in self.imported(
                ast.parse(path.read_text(encoding="utf-8"))
            )
            if self.forbidden(module)
        ]
        assert not offenders, offenders

    @pytest.mark.parametrize(
        "source",
        [
            "import multiprocessing",
            "import multiprocessing.pool as mp",
            "from multiprocessing import get_context",
            "from concurrent.futures import process",
            "from concurrent.futures.process import BrokenProcessPool",
            "from concurrent.futures import ProcessPoolExecutor",
        ],
    )
    def test_check_sees_each_import_form(self, source):
        assert any(
            self.forbidden(m) for _, m in self.imported(ast.parse(source))
        )

    @classmethod
    def thread_starts(cls, tree: ast.AST) -> list[int]:
        """Lines that call a thread or thread-pool constructor, by its
        name, an ``import ... as`` alias of it, or as a module attribute."""
        names = set(cls.THREAD_FACTORIES)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names |= {
                    alias.asname
                    for alias in node.names
                    if alias.asname and alias.name in cls.THREAD_FACTORIES
                }
        lines = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    lines.append(node.lineno)
        return lines

    def test_threads_start_only_in_serving_and_the_store_writer(self):
        package = Path(repro.__file__).parent
        offenders = [
            f"{rel}:{line}"
            for path in sorted(package.rglob("*.py"))
            if (rel := path.relative_to(package.parent).as_posix()) not in self.THREAD_OWNERS
            for line in self.thread_starts(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert not offenders, offenders

    @pytest.mark.parametrize(
        "source, starts",
        [
            ("ThreadPoolExecutor(max_workers=2)", True),
            ("import threading\nthreading.Thread(target=f).start()", True),
            ("from threading import Thread\nThread(target=f)", True),
            ("from concurrent.futures import ThreadPoolExecutor as P\nP(2)", True),
            ("import threading as th\nth.Thread()", True),
            ("with ThreadPoolExecutor(4) as pool:\n    pass", True),
            ("import threading\nthreading.Lock()", False),
            ("threading.local()", False),
            ("pool = executor_factory\npool.Thread", False),
        ],
    )
    def test_thread_check_sees_each_form(self, source, starts):
        assert bool(self.thread_starts(ast.parse(source))) is starts

    def test_thread_pools_stay_allowed(self):
        tree = ast.parse("from concurrent.futures import ThreadPoolExecutor")
        assert not any(self.forbidden(m) for _, m in self.imported(tree))


class TestPositionalMapFormatBoundary:
    """The positional map's storage format is one module's decision: no
    other module under ``src/repro`` names its internal array (``frame``,
    or the older per-column names) as an attribute or keyword, so it can
    change without touching the loader, store, server or append path.  A
    local variable may share the name."""

    INTERNALS = {"frame", "bounds", "field_offsets", "field_ends"}
    OWNER = Path("repro/flatfile/positions.py")

    def test_only_positions_names_the_map_arrays(self):
        package = Path(repro.__file__).parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            rel = path.relative_to(package.parent)
            if rel == self.OWNER:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.keyword):
                    name = node.arg
                elif isinstance(node, ast.Name):
                    name = node.id
                else:
                    continue
                if name in self.INTERNALS and not (
                    isinstance(node, ast.Name) and name in ("frame", "bounds")
                ):
                    offenders.append(f"{rel}:{node.lineno} names {name}")
        assert not offenders, offenders


class TestKernelWritesTheMapOnly:
    """The bulk kernel frames its input itself, so it only writes the
    positional map: every use of ``positional_map`` in
    ``flatfile/vectorized.py`` is a ``None`` check, a call of a recording
    method, or ``len(positional_map.known_columns())`` — the guard before
    ``record_frame``.  No edit can then make the kernel's offsets or work
    counters depend on what the map held."""

    CALLS = {"record_nrows", "record_frame", "known_columns"}

    def test_vectorized_only_records_into_the_map(self):
        path = Path(repro.__file__).parent / "flatfile" / "vectorized.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        uses, offenders = 0, []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Name) and node.id == "positional_map"):
                continue
            uses += 1
            up = parent[node]
            if isinstance(up, ast.Compare):
                continue  # ``is (not) None``
            call = parent[up]
            if (
                isinstance(up, ast.Attribute)
                and up.attr in self.CALLS
                and isinstance(call, ast.Call)
                and call.func is up
                and (
                    up.attr != "known_columns"
                    or getattr(getattr(parent[call], "func", None), "id", None) == "len"
                )
            ):
                continue
            offenders.append(f"vectorized.py:{node.lineno} {ast.unparse(up)}")
        assert uses and not offenders, offenders


class TestMapOffsetsAreBytes:
    """The positional map has one offset unit, the byte: no module under
    ``src/repro`` names the character-offset bridges it once needed (a
    text geometry, a sliceable gate, per-field character lengths, a
    byte-to-character conversion)."""

    REMOVED = re.compile(r"text_geometry|sliceable|char_lengths|to_chars")

    def _named(self, source: str) -> list[str]:
        return self.REMOVED.findall(source)

    def test_the_scan_finds_a_name(self):
        assert self._named("ok = pmap.sliceable and to_chars(a)") == [
            "sliceable",
            "to_chars",
        ]
        assert self._named("pmap.record_frame(frame, sep=1)") == []

    def test_no_module_names_a_character_offset_bridge(self):
        package = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(package.parent)} names {name}"
            for path in sorted(package.rglob("*.py"))
            for name in self._named(path.read_text(encoding="utf-8"))
        ]
        assert not offenders, offenders


class TestStringFormatBoundary:
    """A string column's form — int32 codes into a dictionary — is one
    module's decision: only :mod:`repro.strings` and the store's codec,
    which names the codes and dictionary files, read or build the codes
    and the dictionary, so every other module goes through
    :class:`~repro.strings.StringColumn`'s methods."""

    INTERNALS = {"codes", "dictionary", "CODE_DTYPE", "UNLOADED"}
    OWNERS = {Path("repro/strings.py"), Path("repro/storage/persistent.py")}

    def test_only_the_owners_touch_codes_and_dictionaries(self):
        package = Path(repro.__file__).parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            rel = path.relative_to(package.parent)
            if rel in self.OWNERS:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.keyword):
                    name = node.arg
                elif isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.alias):
                    name = node.name
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name == "StringColumn":
                        offenders.append(f"{rel}:{node.lineno} builds a StringColumn")
                    continue
                else:
                    continue
                if name in self.INTERNALS:
                    offenders.append(f"{rel}:{getattr(node, 'lineno', '?')} names {name}")
        assert not offenders, offenders

    def test_a_string_column_never_becomes_an_array_silently(self):
        from repro.strings import StringColumn

        column = StringColumn.encode(["b", "a", "b"])
        with pytest.raises(TypeError):
            np.asarray(column)
        with pytest.raises(TypeError):
            np.concatenate([column, column])
        assert column.decode().tolist() == ["b", "a", "b"]


class TestLifecycleOwnsTheCondition:
    """Which lifecycle condition a table entry is in (cold, learned,
    extended, invalidated, restored) is one module's decision: outside
    :mod:`repro.core.lifecycle` nothing under ``src/repro`` assigns the
    fields that record it.  The field declarations of
    ``storage/catalog.py`` are class-body names, not attributes, so the
    check passes over them."""

    FIELDS = {"loaded_fingerprint", "store_base", "epoch", "generation", "detached"}
    OWNER = Path("repro/core/lifecycle.py")

    @classmethod
    def assigned(cls, tree: ast.AST) -> list[tuple[int, str]]:
        """``(line, field)`` of each write of a field: an attribute
        target of a plain, augmented or annotated assignment (also
        inside a tuple target), ``setattr`` with the field's name, or a
        ``replace(...)`` keyword."""
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                if callee == "setattr" and len(node.args) > 1:
                    name = getattr(node.args[1], "value", None)
                    found += [(node.lineno, name)] if name in cls.FIELDS else []
                elif callee == "replace":
                    found += [
                        (node.lineno, k.arg) for k in node.keywords if k.arg in cls.FIELDS
                    ]
                continue
            else:
                continue
            found += [
                (node.lineno, sub.attr)
                for target in targets
                for sub in ast.walk(target)
                if isinstance(sub, ast.Attribute) and sub.attr in cls.FIELDS
            ]
        return found

    def test_only_the_lifecycle_assigns_the_condition(self):
        package = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(package.parent)}:{line} assigns {name}"
            for path in sorted(package.rglob("*.py"))
            if path.relative_to(package.parent) != self.OWNER
            for line, name in self.assigned(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert not offenders, offenders

    def test_the_owner_is_where_the_check_looks(self):
        owner = Path(repro.__file__).parent.parent / self.OWNER
        assert self.assigned(ast.parse(owner.read_text(encoding="utf-8")))

    @pytest.mark.parametrize(
        "source",
        [
            "entry.loaded_fingerprint = fp",
            "entry.generation += 1",
            "entry.epoch: int = 1",
            "part.detached, x = True, 1",
            "setattr(entry, 'store_base', None)",
            "entry = dataclasses.replace(entry, epoch=2)",
        ],
    )
    def test_check_sees_each_write_form(self, source):
        assert self.assigned(ast.parse(source))

    @pytest.mark.parametrize(
        "source",
        [
            "generation = entry.generation",
            "base = entry.store_base",
            "class TableEntry:\n    detached: bool = False",
            "stats.note_load(key, cols, generation=1)",
            "entry.loaded_fingerprint == fp",
        ],
    )
    def test_reads_and_declarations_pass(self, source):
        assert not self.assigned(ast.parse(source))



class TestOnlyTheRecordKeeps:
    """What outlives a query is a loading policy's ``keeps``, decided in
    one place: outside :mod:`repro.storage.partial` (whose own methods
    certify what they store) nothing under ``src/repro`` calls the store
    methods that keep loaded values — except ``LoadingPolicy.provide``."""

    CALLS = {"store_full", "add_certificate"}
    OWNER = Path("repro/storage/partial.py")
    ALLOWED = (Path("repro/core/policies.py"), "LoadingPolicy.provide")

    @classmethod
    def calls(cls, tree: ast.AST) -> list[tuple[int, str, str]]:
        """``(line, method, scope)`` of each call of a keeping method,
        where ``scope`` is the dotted class/function path around it."""
        found = []

        def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name in cls.CALLS:
                        found.append((child.lineno, name, ".".join(scope)))
                visit(child, scope)

        visit(tree, ())
        return found

    def test_only_provide_keeps_loaded_values(self):
        package = Path(repro.__file__).parent
        offenders = [
            f"{rel}:{line} calls {name} in {scope or '<module>'}"
            for path in sorted(package.rglob("*.py"))
            if (rel := path.relative_to(package.parent)) != self.OWNER
            for line, name, scope in self.calls(ast.parse(path.read_text(encoding="utf-8")))
            if (rel, scope) != self.ALLOWED
        ]
        assert not offenders, offenders

    def test_provide_is_where_the_check_looks(self):
        rel, scope = self.ALLOWED
        source = (Path(repro.__file__).parent.parent / rel).read_text(encoding="utf-8")
        assert {name for _, name, where in self.calls(ast.parse(source)) if where == scope} == (
            self.CALLS
        )

    @pytest.mark.parametrize(
        "source, scope",
        [
            ("pc.store_full(values)", ""),
            ("table.column(name).add_certificate(cert)", ""),
            ("def load(pc):\n    pc.store_full(v)", "load"),
            ("class Policy:\n    def provide(self):\n        store_full(v)", "Policy.provide"),
            ("f = lambda pc: pc.add_certificate(c)", ""),
            (
                "class LoadingPolicy:\n    def provide(self):\n"
                "        def keep():\n            pc.store_full(v)",
                "LoadingPolicy.provide.keep",
            ),
        ],
    )
    def test_check_sees_each_form(self, source, scope):
        assert [where for _, _, where in self.calls(ast.parse(source))] == [scope]

def config_fields_set(sources: list[str]) -> set[str]:
    """Names set on an engine config anywhere in ``sources``.

    A name counts when it is a keyword of a call to ``EngineConfig``,
    ``dataclasses.replace`` or a *builder* (a function that forwards its
    ``**kwargs`` to one of those), or a string key of a dict literal or
    ``dict(...)`` keyword in a scope that splats a dict into such a call.
    A keyword of any other call does not count.
    """
    trees = [ast.parse(text) for text in sources]
    builders = {"EngineConfig", "replace"}

    def callee(call: ast.Call) -> str | None:
        f = call.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    def own(scope: ast.AST):
        """The nodes of ``scope``, not descending into nested functions."""
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            yield node
            if not isinstance(node, ast.FunctionDef):
                todo.extend(ast.iter_child_nodes(node))

    def splats(scope: ast.AST):
        for node in own(scope):
            if isinstance(node, ast.Call) and callee(node) in builders:
                for kw in node.keywords:
                    if kw.arg is None:
                        yield kw.value

    grew = True
    while grew:  # builders of builders, to a fixed point
        grew = False
        for tree in trees:
            for fn in ast.walk(tree):
                if (
                    isinstance(fn, ast.FunctionDef)
                    and fn.name not in builders
                    and fn.args.kwarg is not None
                    and any(
                        isinstance(v, ast.Name) and v.id == fn.args.kwarg.arg
                        for v in splats(fn)
                    )
                ):
                    builders.add(fn.name)
                    grew = True
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and callee(node) in builders:
                named.update(kw.arg for kw in node.keywords if kw.arg)
        scopes = [tree] + [
            fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        ]
        for scope in scopes:
            if not any(True for _ in splats(scope)):
                continue
            for node in own(scope):
                if isinstance(node, ast.Dict):
                    named.update(
                        k.value
                        for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    )
                elif isinstance(node, ast.Call) and callee(node) == "dict":
                    named.update(kw.arg for kw in node.keywords if kw.arg)
    return named


class TestEveryKnobHasACaller:
    """No knob without a caller: every ``EngineConfig`` field is set by
    the engine, a bench or an example, not only by tests (see
    :func:`config_fields_set` for what counts as setting it)."""

    EXEMPT = {
        "fault_plan": "a test hook; served processes set it via REPRO_FAULTS",
    }

    def test_every_field_is_set_outside_tests(self):
        package = Path(repro.__file__).parent
        root = package.parent.parent
        files = [p for p in package.rglob("*.py") if p.name != "config.py"]
        for tree in ("benchmarks", "examples"):
            files += (root / tree).rglob("*.py")
        named = config_fields_set([p.read_text(encoding="utf-8") for p in files])
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert set(self.EXEMPT) <= fields
        uncalled = sorted(fields - named - set(self.EXEMPT))
        assert not uncalled, f"EngineConfig fields no caller sets: {uncalled}"

    @pytest.mark.parametrize(
        "source",
        [
            "EngineConfig(zone_maps=False)",
            "dataclasses.replace(config, zone_maps=False)",
            "def mk(path, **kw):\n    return NoDBEngine(EngineConfig(**kw))\n"
            "def go(**kw):\n    return mk('p', **kw)\n"
            "go(zone_maps=False)",
            "def f():\n    for cfg in [{'zone_maps': False}]:\n"
            "        EngineConfig(**cfg)",
            "cfg = dict(zone_maps=False)\nEngineConfig(**cfg)",
        ],
    )
    def test_config_calls_count(self, source):
        assert "zone_maps" in config_fields_set([source])

    @pytest.mark.parametrize(
        "source",
        [
            # An unrelated call or dict that happens to use a field name.
            "PersistedState(zone_maps=[])",
            "def restore(cls, **kw):\n    return cls(**kw)\nrestore(State, zone_maps=[])",
            "def f():\n    return {'zone_maps': []}\n"
            "def g(**kw):\n    return EngineConfig(**kw)",
        ],
    )
    def test_unrelated_uses_do_not_count(self, source):
        assert "zone_maps" not in config_fields_set([source])
