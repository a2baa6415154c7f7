"""Layer spans, kernel op counts and kernel microbenchmarks, from outside.

Nothing here edits the library.  ``SpanTracer`` swaps wrappers into the names
each caller looks up (module globals such as ``epsgeom.transfer.module_member``
and class attributes such as ``Ideal.normal_form``) and puts the originals
back afterwards.  ``OpCounter`` does the same for the arithmetic operators of
the kernel classes, in a pass of its own, so its overhead never lands inside
a span.
"""

import operator
import os
import statistics
import subprocess
import sys
import time

# (layer, function, span name): the span sits on every module global that
# is bound to the function, so both library-internal and CLI callers see it
TRACED_FUNCTIONS = [
    ("cli", "run_command", "cli.run_command"),
    ("transfer", "kernel_extension_check", "transfer.kernel_extension_check"),
    ("transfer", "flatness_witness", "transfer.flatness_witness"),
    ("groebner", "module_syzygies", "groebner.module_syzygies"),
    ("groebner", "module_member", "groebner.module_member"),
    ("groebner", "syzygy_basis", "groebner.syzygy_basis"),
    ("groebner", "radical_member", "groebner.radical_member"),
    ("groebner", "eliminate", "groebner.eliminate"),
    ("shadow", "verify_shadow_closure", "shadow.verify_shadow_closure"),
    ("shadow", "newton_puiseux_lift", "shadow.newton_puiseux_lift"),
    ("shadow", "open_shadow_witness", "shadow.open_shadow_witness"),
    ("shadow", "reduce_on_variety", "shadow.reduce_on_variety"),
    ("varieties", "family_checks", "varieties.family_checks"),
    ("varieties", "is_point_ideal", "varieties.is_point_ideal"),
] + [
    ("parser", fn, "parser." + fn)
    for fn in (
        "parse_poly",
        "parse_lc",
        "parse_point",
        "parse_generators",
        "format_gaussian",
        "format_lc",
        "format_poly",
        "format_point",
    )
]

# (class, method, span name)
TRACED_METHODS = [
    ("Ideal", "groebner_basis", "groebner.ideal_basis"),
    ("Ideal", "normal_form", "groebner.normal_form"),
]

LAYERS = ("cli", "parser", "transfer", "groebner", "shadow", "varieties")

# the functions whose spans carry the coefficient domain of their input
_DOMAIN_SPANS = {"groebner.module_syzygies", "groebner.module_member"}


def _domain(args):
    for col in args[0]:
        for f in col:
            if f.domain == "extended":
                return "extended"
    for f in args[1] if len(args) > 1 else ():
        if f.domain == "extended":
            return "extended"
    return "standard"


class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SpanTracer:
    """Records one span per traced call: name, start, end, parent, call id.

    Spans stay in memory as tuples (name, start_ns, end_ns, parent, call,
    domain); ``parent`` is the index of the enclosing span or -1, ``call``
    the index of the benchmark call that caused it.
    """

    def __init__(self, eg):
        self.spans = []
        self.call = -1
        self._stack = []
        self._patches = _Patches()
        modules = [getattr(eg, name) for name in vars(eg)]
        for layer, fn, name in TRACED_FUNCTIONS:
            orig = getattr(getattr(eg, layer), fn)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                # parser-internal calls are not a layer boundary
                if layer == "parser" and mod is eg.parser:
                    continue
                if mod.__dict__.get(fn) is orig:
                    self._patches.set(mod, fn, wrapper)
        for cls_name, meth, name in TRACED_METHODS:
            cls = getattr(eg.groebner, cls_name)
            self._patches.set(cls, meth, self._wrap(cls.__dict__[meth], name))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        with_domain = name in _DOMAIN_SPANS

        def wrapper(*args, **kwargs):
            domain = _domain(args) if with_domain else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.call, domain)

        return wrapper

    def restore(self):
        self._patches.restore()


def layer_metrics(spans):
    """Per-layer calls, busy and self time from a finished span list."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    layer = [s[0].split(".", 1)[0] for s in spans]

    def outermost(i, same):
        p = spans[i][3]
        while p >= 0:
            if same(p):
                return False
            p = spans[p][3]
        return True

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def ms(ns):
        return ns / 1e6

    for lay in LAYERS:
        idx = [i for i in range(n) if layer[i] == lay]
        busy = sum(dur[i] for i in idx if outermost(i, lambda p: layer[p] == lay))
        put(lay + ".calls", len(idx), "count")
        put(lay + ".busy_ms", ms(busy), "ms")
        put(lay + ".self_ms", ms(sum(dur[i] - child[i] for i in idx)), "ms")

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    names = [name for _, _, name in TRACED_FUNCTIONS if not name.startswith(("parser.", "cli."))]
    names += [name for _, _, name in TRACED_METHODS]
    for name in names:
        idx = by_name.get(name, [])
        busy = sum(
            dur[i] for i in idx if outermost(i, lambda p: spans[p][0] == name)
        )
        put(name + ".calls", len(idx), "count")
        if name in _DOMAIN_SPANS:
            for dom, tag in (("standard", "std"), ("extended", "ext")):
                part = sum(dur[i] for i in idx if spans[i][5] == dom)
                put("%s.%s_busy_ms" % (name, tag), ms(part), "ms")
        put(name + ".busy_ms", ms(busy), "ms")

    checks = [i for i in range(n) if layer[i] == "transfer"]
    below = sum(1 for s in spans if s[3] >= 0 and layer[s[3]] == "transfer" and s[0].startswith("groebner."))
    put("transfer.groebner_calls_per_check", below / len(checks) if checks else 0.0, "count")
    return out


# --- kernel op counts and microbenchmarks -------------------------------------

# (module, class, methods, sample key per method)
KERNEL_OPS = [
    ("gaussian", "GaussianRational", {
        "__add__": "add", "__radd__": "add", "__sub__": None, "__rsub__": None,
        "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
        "__rtruediv__": None, "__neg__": None,
    }),
    ("levicivita", "LCNumber", {
        "__add__": "add", "__radd__": "add", "__sub__": None, "__rsub__": None,
        "__mul__": "mul", "__rmul__": "mul", "__neg__": None, "__pow__": None,
    }),
    ("levicivita", "LCFraction", {
        "__add__": None, "__radd__": None, "__sub__": None, "__rsub__": None,
        "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
        "__rtruediv__": None, "__neg__": None,
    }),
    ("poly", "Monomial", {
        "mul": "mul", "divides": "divides", "div": None, "lcm": "lcm",
    }),
]

COUNT_NAMES = {
    "GaussianRational": "gaussian.ops",
    "LCNumber": "levicivita.lcnumber_ops",
    "LCFraction": "levicivita.lcfraction_ops",
    "Monomial": "poly.monomial_ops",
}

# microbenchmark metric -> (class, sample key, operand filter)
MICRO = {
    "gaussian.add_ns": ("GaussianRational", "add", None),
    "gaussian.mul_real_ns": ("GaussianRational", "mul", "real"),
    "gaussian.mul_complex_ns": ("GaussianRational", "mul", "complex"),
    "gaussian.div_ns": ("GaussianRational", "div", None),
    "levicivita.lc_add_ns": ("LCNumber", "add", None),
    "levicivita.lc_mul_ns": ("LCNumber", "mul", None),
    "levicivita.lcfraction_mul_ns": ("LCFraction", "mul", None),
    "levicivita.lcfraction_div_ns": ("LCFraction", "div", None),
    "poly.monomial_mul_ns": ("Monomial", "mul", None),
    "poly.monomial_divides_ns": ("Monomial", "divides", None),
    "poly.monomial_lcm_ns": ("Monomial", "lcm", None),
}

_OPERATORS = {"add": operator.add, "mul": operator.mul, "div": operator.truediv}


class _Sampler:
    """Every stride-th operand tuple; the stride doubles when the buffer fills.

    The rule depends only on the order of calls, so a pass yields the same
    operands on every run with the same seed.
    """

    CAP = 256

    def __init__(self):
        self.kept = []
        self.stride = 1
        self.seen = 0

    def offer(self, args):
        if self.seen % self.stride == 0:
            self.kept.append(args)
            if len(self.kept) == 2 * self.CAP:
                self.kept = self.kept[::2]
                self.stride *= 2
        self.seen += 1


class OpCounter:
    """Counts kernel-class operator calls and samples their operands."""

    def __init__(self, eg):
        self.counts = {cls: 0 for _, cls, _ in KERNEL_OPS}
        self.samples = {}
        self.classes = {}
        self._patches = _Patches()
        for mod, cls_name, methods in KERNEL_OPS:
            cls = getattr(getattr(eg, mod), cls_name)
            self.classes[cls_name] = cls
            for meth, key in methods.items():
                if meth not in cls.__dict__:
                    continue
                sampler = None
                if key is not None:
                    sampler = self.samples.setdefault((cls_name, key), _Sampler())
                self._patches.set(cls, meth, self._wrap(cls.__dict__[meth], cls_name, sampler))

    def _wrap(self, fn, cls_name, sampler):
        counts = self.counts

        def wrapper(*args):
            counts[cls_name] += 1
            if sampler is not None:
                sampler.offer(args)
            return fn(*args)

        return wrapper

    def restore(self):
        self._patches.restore()

    def count_metrics(self):
        return {COUNT_NAMES[c]: (n, "count") for c, n in self.counts.items()}

    def micro_metrics(self):
        """Time each sampled op with the original operators (after restore).

        Returns (metrics, sample counts).  A metric with no samples is 0.
        """
        out, counts = {}, {}
        for metric, (cls_name, key, kind) in MICRO.items():
            sampler = self.samples.get((cls_name, key))
            args = sampler.kept if sampler else []
            if kind is not None:
                args = [a for a in args if _is_complex(a) == (kind == "complex")]
            counts[metric] = len(args)
            if not args:
                out[metric] = (0.0, "ns")
            elif cls_name == "Monomial":
                out[metric] = (_time_op(getattr(self.classes[cls_name], key), args), "ns")
            else:
                out[metric] = (_time_op(_OPERATORS[key], args), "ns")
        return out, counts


def _is_complex(args):
    return any(getattr(a, "im", 0) for a in args)


def _time_op(fn, args, reps=7, per_rep=3000):
    loops = max(1, per_rep // len(args))
    clock = time.perf_counter_ns
    per_op = []
    for _ in range(reps):
        start = clock()
        for _ in range(loops):
            for a in args:
                fn(*a)
        per_op.append((clock() - start) / (loops * len(args)))
    return statistics.median(per_op)


# --- CLI start-up ---------------------------------------------------------------

COLD_ARGV = ["st", "3+2*eps"]


def cli_startup(root, expected, spawns=20):
    """Median wall of fresh ``python -m epsgeom st`` processes, and of their
    epsgeom imports as ``-X importtime`` reports them.

    Returns (cold_start_ms, import_ms, spawned, failed).  Spawns run one at a
    time and each is waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONSTARTUP", None)
    base = [sys.executable, "-m", "epsgeom"] + COLD_ARGV
    walls, imports, failed = [], [], 0
    for _ in range(spawns):
        start = time.perf_counter()
        p = subprocess.run(base, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        walls.append((time.perf_counter() - start) * 1000)
        failed += p.returncode != 0 or p.stdout.strip() != expected
    timed = [sys.executable, "-X", "importtime"] + base[1:]
    for _ in range(spawns):
        p = subprocess.run(timed, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        failed += p.returncode != 0 or p.stdout.strip() != expected
        imports.append(_epsgeom_import_ms(p.stderr))
    return statistics.median(walls), statistics.median(imports), 2 * spawns, failed


def _epsgeom_import_ms(stderr):
    """Sum of cumulative import time of the outermost epsgeom modules."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.startswith(" epsgeom") and cumulative.strip().isdigit():
            total += int(cumulative)
    return total / 1000
