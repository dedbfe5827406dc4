"""Run one qsym CLI call in this process with every layer boundary traced.

    python3 bench/tracer.py SPANS_FILE -- <qsym CLI arguments>

The program is not modified.  Before the call, every public function of the
eight modules is replaced by a timing wrapper at every module that holds a
reference to it (``qbracket`` inside ``jpoly`` and ``oracles``, recursive
``qbinomial`` calls inside ``qcalc``), and so are the ``UniPoly``/``BiPoly``
operator methods (``__rmul__``/``__radd__`` included) and the methods of the
other public classes that another layer calls.  Generator functions get one
span per resumption.  A span records its name, its parent span and its
start and end; spans and counters are kept in memory and written to
SPANS_FILE as JSON after the call returns.  The CLI output goes to stdout
unchanged, and the exit status is the CLI's own: an exception that escapes
``qsym.cli.main`` prints its traceback and exits 1, as a plain
``python -m qsym.cli`` would.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = ("exactpoly", "qcalc", "qstirling", "symfunc", "jpoly", "oracles",
          "report", "cli")

# Methods wrapped besides module-level functions: they are entered from
# other layers, so leaving them bare would book their time to the caller.
METHODS = {
    "exactpoly": {
        "UniPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                    "__mul__", "__rmul__", "__pow__", "__eq__", "constant",
                    "monomial", "evaluate", "compose_power", "reversed_to",
                    "inverse", "is_integral", "to_json", "to_json_dict"),
        "BiPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__pow__", "__eq__", "constant",
                   "monomial", "from_unipoly", "inverse", "at_p_one"),
        "TruncSeries": ("__add__", "__sub__", "__mul__", "__rmul__", "invert",
                        "derivative"),
    },
    "qstirling": {"StirlingTriangle": ("entry", "csv_rows")},
    "symfunc": {"SymSeriesBundle": ("from_alphabet", "from_elementary"),
                "SymAlphabet": ("primes", "integers", "half_odds")},
    "jpoly": {"JTable": ("entry", "degree")},
    "report": {"CheckReport": ("add_pass", "add_fail", "check", "merge",
                               "to_json", "summary_lines")},
}

MUL_SPANS = frozenset(f"exactpoly.{cls}.{op}" for cls in ("UniPoly", "BiPoly")
                      for op in ("__mul__", "__rmul__"))

# Private functions that carry a layer's own work and are wrapped anyway.
PRIVATE = {"cli": ("_render_poly",)}


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self):
        self.names = []          # span name per name id
        self._ids = {}
        self.span_name = []      # per span: name id
        self.parent = []         # per span: parent span index, -1 for a root
        self.start = []
        self.end = []
        self._stack = [-1]
        self.counters = {"mul_coeff_pairs": 0, "integral_muls": 0,
                         "forests": 0, "forest_enumerations_accepted": 0,
                         "forest_candidates": 0, "parking_functions": 0,
                         "parking_candidates": 0}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """A callable that records a span around fn; before(args) runs
        ahead of the span and after(args, result) once it has closed."""
        sid = self.name_id(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = len(start)
                    span_name.append(sid)
                    parent.append(stack[-1])
                    start.append(0)
                    end.append(0)
                    stack.append(i)
                    start[i] = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(start)
            span_name.append(sid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def dump(self, path: Path, exit_code: int):
        path.write_text(json.dumps({
            "exit": exit_code, "names": self.names,
            "span_name": self.span_name, "parent": self.parent,
            "start": self.start, "end": self.end,
            "counters": self.counters}, separators=(",", ":")))


def _integral(x) -> bool:
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        rows = getattr(x, "rows", None)
        if rows is None:                      # a scalar operand
            return getattr(x, "denominator", 1) == 1
        return all(c.denominator == 1 for row in rows for c in row)
    return all(c.denominator == 1 for c in coeffs)


def _size(x) -> int:
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return len(coeffs)
    rows = getattr(x, "rows", None)
    return sum(len(r) for r in rows) if rows is not None else 1


def _hooks(tracer: Tracer, name: str):
    """Counters recorded at a boundary, outside the span's timed interval."""
    c = tracer.counters
    if name in MUL_SPANS:
        def before(args):
            a, b = args
            c["mul_coeff_pairs"] += _size(a) * _size(b)
            if _integral(a) and _integral(b):
                c["integral_muls"] += 1
        return before, None
    if name == "oracles.forest_enumerator_polys":
        def after(args, polys):
            n, roots = args[0], args[1]
            # P(1) as a plain coefficient sum, so no traced method runs here
            for p in polys:
                c["forests"] += int(sum(p.coeffs))
            if polys:
                c["forest_enumerations_accepted"] += int(sum(polys[0].coeffs))
            c["forest_candidates"] += n ** (n - len(set(roots)))
        return None, after
    if name == "oracles.parking_enumerator_poly":
        def after(args, poly):
            m, r = args[0], args[1]
            c["parking_functions"] += int(sum(poly.coeffs))
            c["parking_candidates"] += (r + m - 1) ** m if m > 0 else 0
        return None, after
    return None, None


def install(tracer: Tracer, modules: dict):
    """Wrap every traced callable and rebind it wherever it is referenced."""
    replaced = {}                  # id(original) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
            if (not public or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = tracer.wrap(name, obj, *_hooks(tracer, name))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                hooks = _hooks(tracer, name)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(name, raw.__func__, *hooks))
                else:
                    wrapped = tracer.wrap(name, raw, *hooks)
                setattr(cls, meth, wrapped)
    import qsym
    for mod in (qsym, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- <qsym CLI arguments>", file=sys.stderr)
        return 2
    spans_file, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    modules = {layer: importlib.import_module(f"qsym.{layer}") for layer in LAYERS}
    tracer = Tracer()
    install(tracer, modules)
    try:
        code = modules["cli"].main(cli_args, sys.stdout)
    except SystemExit as exc:            # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    tracer.dump(spans_file, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
