"""Per-layer spans taken from outside the program.

The tracer replaces public functions of `bicomplex` with timing wrappers
at every module attribute that holds them, so a call the program makes
through its own module-level name (`rank` calling `rref` inside linalg,
`all_tables` calling `dolbeault_table`, `cli` calling `parse_bicomplex`)
is recorded as well as the benchmark's own calls.  Nothing under `src/`
knows about it.

Each call becomes one span: name, start, end, parent span and an
optional measured value (bytes parsed, nonzeros handed to `rref`, the
largest coefficient bit length of a change of basis).  Spans stay in
memory in flat arrays and are written out once, after the run.

Spans are of two kinds.  Layer spans (`LAYERS`) are the entry points of
the program's modules; a layer's self time is its span minus the layer
spans nested directly inside it.  Kernel spans (`rref`, `inverse`,
subspace operations, total-complex builds) are counted and timed where
they happen but are not subtracted from self time, so that for example
`spectral.classify_self_s` keeps the subspace algebra of the Hodge
pieces that `classify` does itself.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# layer spans: their nesting gives self time
LAYERS = frozenset(
    {
        "cli.main",
        "files.parse",
        "solvable.build",
        "splitting.build",
        "lie.invariant_bicomplex",
        "complexes.validate",
        "complexes.tables",
        "spectral.pages",
        "spectral.classify",
        "zigzags.decompose",
    }
)

TABLE_FUNCTIONS = (
    "dolbeault_table",
    "del_table",
    "bott_chern_table",
    "aeppli_table",
    "de_rham_table",
    "all_tables",
)


def _max_bits(decomposition) -> int:
    """Largest numerator or denominator bit length in the change of basis."""
    best = 0
    for m in decomposition.change_of_basis.values():
        for s in m.entries.values():
            for f in (s.re, s.im):
                best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.kind = array("i")  # name id per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.value = array("q")
        self.outer = bytearray()  # 1 if no enclosing span has the same name
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        self._depth[nid] = 0
        stack, depth = self._stack, self._depth
        kind, start, end, parent, value, outer = (
            self.kind, self.start, self.end, self.parent, self.value, self.outer,
        )

        def traced(*args, **kwargs):
            sid = len(start)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            value.append(before(*args) if before else 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if after:
                value[sid] = after(result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr: str, name: str, before=None, after=None,
                      only_here: bool = False) -> None:
        """Replace `module.attr` wherever a bicomplex module holds it.

        With only_here, just the one module's name is replaced, which
        counts the calls that module makes and no one else's.
        """
        original = getattr(module, attr)
        traced = self._wrap(name, original, before, after)
        owners = [module] if only_here else [
            m for key, m in sys.modules.items()
            if (key == "bicomplex" or key.startswith("bicomplex.")) and m is not None
        ]
        for m in owners:
            if m.__dict__.get(attr) is original:
                self._patch(m, attr, traced)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
        else:
            self._patch(cls, attr, self._wrap(name, raw))

    def install(self) -> None:
        import bicomplex.cli as cli
        import bicomplex.complexes as complexes
        import bicomplex.files as files
        import bicomplex.lie as lie
        import bicomplex.linalg as linalg
        import bicomplex.solvable as solvable
        import bicomplex.spectral as spectral
        import bicomplex.splitting as splitting
        import bicomplex.subspaces as subspaces
        import bicomplex.zigzags as zigzags

        self.wrap_function(cli, "main", "cli.main")
        self.wrap_function(files, "parse_bicomplex", "files.parse",
                           before=lambda text: len(text.encode()))
        self.wrap_function(solvable, "build_C", "solvable.build")
        self.wrap_function(splitting, "build_splitting", "splitting.build")
        self.wrap_function(lie, "invariant_bicomplex", "lie.invariant_bicomplex")
        self.wrap_method(complexes.DoubleComplex, "validate", "complexes.validate")
        for fn in TABLE_FUNCTIONS:
            self.wrap_function(complexes, fn, "complexes.tables")
        self.wrap_method(complexes.TotalComplex, "of", "complexes.total_complex")
        self.wrap_function(spectral, "spectral_pages", "spectral.pages")
        self.wrap_function(spectral, "classify", "spectral.classify")
        self.wrap_function(zigzags, "decompose", "zigzags.decompose", after=_max_bits)
        self.wrap_function(zigzags, "inverse", "zigzags.inverse", only_here=True)
        self.wrap_function(linalg, "rref", "linalg.rref",
                           before=lambda m: len(m.entries))
        self.wrap_method(subspaces.Subspace, "sum", "subspaces.op")
        self.wrap_method(subspaces.Subspace, "intersect", "subspaces.op")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def rescale(self, to) -> None:
        """Map every span's start and end through `to` (perf_counter
        readings to reference seconds), once, after the run."""
        self.start = array("d", map(to, self.start))
        self.end = array("d", map(to, self.end))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only),
        self seconds (layer spans), summed and largest value."""
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "max_value": 0}
            for name in self.names
        }
        names, kind, parent = self.names, self.kind, self.parent
        layer = [name in LAYERS for name in names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for sid, nid in enumerate(kind):
            if not layer[nid]:
                continue
            up = parent[sid]
            while up >= 0 and not layer[kind[up]]:
                up = parent[up]
            if up >= 0:
                child[up] += dur[sid]
        for sid, nid in enumerate(kind):
            t = out[names[nid]]
            t["calls"] += 1
            if self.outer[sid]:
                t["s"] += dur[sid]
            if layer[nid]:
                t["self_s"] += dur[sid] - child[sid]
            t["value"] += self.value[sid]
            t["max_value"] = max(t["max_value"], self.value[sid])
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: id, name, start, end, parent, value."""
        with open(path, "w") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\tvalue\n")
            for sid, nid in enumerate(self.kind):
                f.write(
                    f"{sid}\t{self.names[nid]}\t{self.start[sid]:.9f}\t"
                    f"{self.end[sid]:.9f}\t{self.parent[sid]}\t{self.value[sid]}\n"
                )


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, per round of the workload."""
    t = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "max_value": 0}

    def g(name: str, key: str) -> float:
        return t.get(name, zero)[key] / rounds

    return {
        "files.parse_s": (g("files.parse", "s"), "s"),
        "files.parse_bytes": (g("files.parse", "value"), "bytes"),
        "solvable.build_s": (g("solvable.build", "s"), "s"),
        "splitting.build_s": (g("splitting.build", "s"), "s"),
        "lie.invariant_bicomplex_s": (g("lie.invariant_bicomplex", "s"), "s"),
        "complexes.validate_s": (g("complexes.validate", "s"), "s"),
        "complexes.tables_s": (g("complexes.tables", "s"), "s"),
        "complexes.table_calls": (g("complexes.tables", "calls"), "count"),
        "complexes.total_complex_builds": (g("complexes.total_complex", "calls"), "count"),
        "spectral.pages_s": (g("spectral.pages", "s"), "s"),
        "spectral.pages_calls": (g("spectral.pages", "calls"), "count"),
        "spectral.classify_self_s": (g("spectral.classify", "self_s"), "s"),
        "zigzags.decompose_s": (g("zigzags.decompose", "s"), "s"),
        "zigzags.inverse_calls": (g("zigzags.inverse", "calls"), "count"),
        "zigzags.inverse_s": (g("zigzags.inverse", "s"), "s"),
        "linalg.rref_calls": (g("linalg.rref", "calls"), "count"),
        "linalg.rref_s": (g("linalg.rref", "s"), "s"),
        "linalg.rref_nnz_in": (g("linalg.rref", "value"), "count"),
        "subspaces.ops": (g("subspaces.op", "calls"), "count"),
        "subspaces.s": (g("subspaces.op", "s"), "s"),
        "scalars.cob_max_bits": (t.get("zigzags.decompose", zero)["max_value"], "bits"),
        "cli.self_s": (g("cli.main", "self_s"), "s"),
    }
