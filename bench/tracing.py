"""Spans and counters around the public functions of every wittforge module.

:func:`install` replaces each public function in *every* wittforge module
namespace that binds it (``from .fields import find_irreducible`` makes a
binding of its own) and each public method on the classes that define it,
with a wrapper that records one span per call.  The element types and the
element factories of fields and polynomial rings run millions of times per
suite, so they get no spans; the multiplications and inversions among them
are counted instead.  Nothing the program computes changes: the wrappers
call the original objects, and ``find_irreducible`` keeps its own
``lru_cache``.

Spans stay in typed arrays in memory (name, start, end, parent, and the
sample id they belong to) and are written out once, at the end of a sample.
"""

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

from stats import self_times

MODULES = (
    "wittforge",
    "wittforge.errors",
    "wittforge.fields",
    "wittforge.polynomials",
    "wittforge.linalg",
    "wittforge.quadforms",
    "wittforge.transfer",
    "wittforge.complexes",
    "wittforge.koszul",
    "wittforge.projspace",
    "wittforge.verify",
    "wittforge.cli",
)

#: classes whose methods are element arithmetic: counters only, never spans
ELEMENT_CLASSES = {"FieldElement", "MultiPolynomial"}
#: polynomial arithmetic under extension-field elements: counted, never
#: spanned, so that a modulus search keeps its own time as self time
ARITHMETIC_FUNCTIONS = {
    "fields.poly_add", "fields.poly_scale", "fields.poly_mul", "fields.poly_divmod",
    "fields.poly_gcd", "fields.poly_eval", "fields.poly_derivative",
}
#: element factories and small accessors on the structure classes, called
#: once per matrix entry built
ELEMENT_FACTORIES = {
    "FieldSpec": {
        "zero", "one", "from_int", "element", "generator", "elements",
        "random_element", "random_nonzero", "absolute_degree", "order",
    },
    "PolyRing": {"zero", "one", "constant", "from_int", "variable", "element"},
}


class Tracer:
    """In-memory spans and counters of one sample."""

    def __init__(self, sample_id):
        self.sample_id = sample_id
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counters = Counter()
        self.maxima = Counter()

    def _name_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def span(self, label, fn, observe=None):
        """``fn`` wrapped so that every call records a span named ``label``."""
        nid = self._name_id(label)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(self, args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def counted(self, key_of, fn):
        """``fn`` wrapped so that every call bumps the counter ``key_of(first argument)``."""
        counters = self.counters

        @functools.wraps(fn)
        def counting(first, *args, **kwargs):
            counters[key_of(first)] += 1
            return fn(first, *args, **kwargs)

        return counting

    def calls_within(self, inner, outer):
        """How many ``inner`` spans have an ``outer`` span among their ancestors."""
        if inner not in self._ids or outer not in self._ids:
            return 0
        inner_id, outer_id = self._ids[inner], self._ids[outer]
        count = 0
        for i, nid in enumerate(self.name):
            if nid != inner_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != outer_id:
                p = self.parent[p]
            count += p >= 0
        return count

    def layer_totals(self):
        """``{label: (calls, self seconds)}`` over every span recorded."""
        selfs = self_times(self.start, self.end, self.parent)
        calls = Counter()
        own = Counter()
        for nid, s in zip(self.name, selfs):
            calls[nid] += 1
            own[nid] += s
        return {self.names[nid]: (calls[nid], own[nid]) for nid in calls}

    def write(self, path):
        """One tab-separated line per span, gzipped: sample, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("sample\tname\tstart\tend\tparent\n")
            for nid, s, e, p in zip(self.name, self.start, self.end, self.parent):
                fh.write(f"{self.sample_id}\t{self.names[nid]}\t{s!r}\t{e!r}\t{p}\n")


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _observe_rank(tracer, args):
    rows = args[1] if len(args) > 1 else []
    tracer.maxima["linalg.rank.max_rows"] = max(tracer.maxima["linalg.rank.max_rows"], len(rows))
    cols = len(rows[0]) if rows else 0
    tracer.maxima["linalg.rank.max_cols"] = max(tracer.maxima["linalg.rank.max_cols"], cols)


OBSERVERS = {"linalg.rank": _observe_rank}


def install(tracer):
    """Wrap the public surface of every wittforge module."""
    modules = [importlib.import_module(name) for name in MODULES]
    wrapped = {}  # id(original) -> wrapper, so one object gets one wrapper

    def wrapper_for(obj):
        key = id(obj)
        if key not in wrapped:
            label = f"{_short(obj.__module__)}.{obj.__qualname__}"
            if label in ARITHMETIC_FUNCTIONS:
                wrapper = tracer.counted(lambda _: label, obj)
            else:
                wrapper = tracer.span(label, obj, OBSERVERS.get(label))
            if hasattr(obj, "cache_info"):
                wrapper.cache_info = obj.cache_info
                wrapper.cache_clear = obj.cache_clear
            wrapped[key] = wrapper
        return wrapped[key]

    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", "").startswith("wittforge"):
                setattr(module, name, wrapper_for(obj))

    for module in modules:
        for obj in list(vars(module).values()):
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                _wrap_class(tracer, obj, wrapper_for)


def _wrap_class(tracer, cls, wrapper_for):
    if issubclass(cls, BaseException):
        return
    if cls.__name__ in ELEMENT_CLASSES:
        _count_element_class(tracer, cls)
        return
    skip = ELEMENT_FACTORIES.get(cls.__name__, set())
    for name, attr in list(vars(cls).items()):
        if (name.startswith("_") and name != "__init__") or name in skip:
            continue
        if isinstance(attr, classmethod):
            setattr(cls, name, classmethod(wrapper_for(attr.__func__)))
        elif isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(wrapper_for(attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, name, wrapper_for(attr))


def _count_element_class(tracer, cls):
    if cls.__name__ == "FieldElement":
        mul = tracer.counted(lambda x: f"fields.mul.{x.spec.kind}", cls.__mul__)
        cls.__mul__ = cls.__rmul__ = mul
        cls.inverse = tracer.counted(lambda x: f"fields.inv.{x.spec.kind}", cls.inverse)
    elif cls.__name__ == "MultiPolynomial":
        mul = tracer.counted(lambda x: "polynomials.mul", cls.__mul__)
        cls.__mul__ = cls.__rmul__ = mul
