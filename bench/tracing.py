"""Per-layer spans and counters, wrapped around the package from outside.

``Tracer.install`` replaces the public functions of each ``carleson_frames``
layer with wrappers that record a span: name, start, end, parent span and
job id. A function imported by name into another module (``compensated_sum``
into ``carleson``, ``extremal_eigenvalues`` into ``orbit`` and so on) is
rebound there too, by identity, or internal calls would bypass the wrapper.
Per-index methods (``value_at``, ``modulus_gap_at``, ``signed_gap_at``) and
oracle primitives are only counted: a span each would cost more than the
call. ``uninstall`` puts every original back.

Spans stay in memory and are written as JSON lines when the run ends. A
span's self time is its duration minus the durations of its children.
"""

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "carleson_frames"

# (span name, module, attribute) of every spanned public function
SPANNED = (
    ("sequences.validate", "sequences", "validate"),
    ("carleson.product", "carleson", "carleson_product"),
    ("carleson.ratio_test", "carleson", "ratio_test"),
    ("numerics.sum", "numerics", "compensated_sum"),
    ("numerics.eigensolve", "numerics", "extremal_eigenvalues"),
    ("orbit.system_arrays", "orbit", "system_arrays"),
    ("orbit.assembly", "orbit", "frame_operator_matrix"),
    ("orbit.frame_bounds", "orbit", "frame_bounds"),
    ("weaving.tail_defect", "weaving", "tail_defect"),
    ("weaving.search", "weaving", "find_weaving_index"),
    ("weaving.woven_operator", "weaving", "woven_frame_operator"),
    ("adversarial.search", "adversarial", "build_adversarial_subsequence"),
    ("adversarial.reverify", "adversarial", "reverify_certificate"),
    ("adversarial.estimate", "adversarial", "estimate_subsequence_lower_bound"),
    ("reporting.write", "reporting", "write_json"),
    ("reporting.write", "reporting", "write_csv"),
)

# (counter, module, class or None, attribute) of every counted call
COUNTED = (
    ("sequences.point_evals", "sequences", "LambdaSequence", "value_at"),
    ("sequences.point_evals", "sequences", "LambdaSequence", "modulus_gap_at"),
    ("sequences.point_evals", "sequences", None, "signed_gap_at"),
    ("adversarial.oracle_calls", "adversarial", "OrbitFrameOracle", "coefficient"),
    ("adversarial.oracle_calls", "adversarial", "OrbitFrameOracle", "tail_energy"),
    ("adversarial.oracle_calls", "adversarial", "OrthonormalBasisOracle", "coefficient"),
    ("adversarial.oracle_calls", "adversarial", "OrthonormalBasisOracle", "tail_energy"),
)

JOB_SPAN = "cli.job"
HERMITIAN_SPAN = "numerics.hermitian_check"

# complex Hermitian eigendecomposition with vectors: Golub & Van Loan's 9 n^3
# real flops for the symmetric QR algorithm, times 4 for complex arithmetic
EIGENSOLVE_FLOPS_PER_N3 = 36
FLOPS_NOTE = (
    "numerics.eigensolve.flops_computed is computed from matrix sizes "
    f"({EIGENSOLVE_FLOPS_PER_N3} n^3 per n x n complex Hermitian eigensolve), not measured"
)

# the per-layer metrics, with units; per traced pass unless a ratio or maximum
PER_LAYER = (
    ("sequences.validate.calls", "count"),
    ("sequences.validate.s", "s"),
    ("sequences.validate.useful_ratio", "ratio"),
    ("sequences.point_evals", "count"),
    ("carleson.product.calls", "count"),
    ("carleson.product.s", "s"),
    ("carleson.factors", "count"),
    ("carleson.ratio_test.s", "s"),
    ("numerics.sum.calls", "count"),
    ("numerics.sum.terms", "count"),
    ("numerics.sum.s", "s"),
    ("numerics.eigensolve.calls", "count"),
    ("numerics.eigensolve.s", "s"),
    ("numerics.eigensolve.dim_max", "count"),
    ("numerics.eigensolve.flops_computed", "flop"),
    ("numerics.hermitian_check.s", "s"),
    ("orbit.assembly.calls", "count"),
    ("orbit.assembly.s", "s"),
    ("orbit.assembly.entries", "count"),
    ("orbit.system_arrays.calls", "count"),
    ("orbit.system_arrays.s", "s"),
    ("orbit.system_arrays.useful_ratio", "ratio"),
    ("weaving.tail_defect.calls", "count"),
    ("weaving.tail_defect.s", "s"),
    ("weaving.search.useful_ratio", "ratio"),
    ("weaving.woven_operator.s", "s"),
    ("adversarial.oracle_calls", "count"),
    ("adversarial.search.s", "s"),
    ("adversarial.search.useful_ratio", "ratio"),
    ("adversarial.reverify.s", "s"),
    ("adversarial.estimate.s", "s"),
    ("reporting.files", "count"),
    ("reporting.bytes", "B"),
    ("reporting.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, job)
        self._open = []  # [id, name, start, parent, job] of unfinished spans
        self._next_id = 0
        self.job = None
        self.counts = defaultdict(int)
        self.totals = defaultdict(float)
        self.maximum = defaultdict(int)
        self.keys = defaultdict(set)
        self.missing = []
        self._restore = []

    # spans -----------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else None
        self._open.append([self._next_id, name, time.perf_counter(), parent, self.job])
        self._next_id += 1

    def end(self) -> None:
        span_id, name, start, parent, job = self._open.pop()
        self.spans.append((span_id, name, start, time.perf_counter(), parent, job))

    def _spanned(self, name, function, before=None, after=None):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, function):
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # per-call notes ----------------------------------------------------------

    def _note_validate(self, args, kwargs):
        self.keys["sequences.validate"].add((args[0], args[1] if len(args) > 1 else kwargs["n_max"]))
        return args, kwargs

    def _note_product(self, args, kwargs):
        seq, _, k_trunc = args[:3]
        limit = k_trunc if seq.length is None else min(k_trunc, seq.length)
        # nominal factors per product; an exact zero ends a product early
        self.totals["carleson.factors"] += max(0, limit - 1)
        return args, kwargs

    def _note_sum(self, args, kwargs):
        terms = list(args[0] if args else kwargs.pop("terms"))
        self.totals["numerics.sum.terms"] += len(terms)
        return (terms,) + tuple(args[1:]), kwargs

    def _note_eigensolve(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        data = getattr(matrix, "data", matrix)
        n = len(data)
        self.maximum["numerics.eigensolve.dim_max"] = max(self.maximum["numerics.eigensolve.dim_max"], n)
        self.totals["numerics.eigensolve.flops_computed"] += EIGENSOLVE_FLOPS_PER_N3 * n**3
        return args, kwargs

    def _note_system_arrays(self, args, kwargs):
        dimension = args[1] if len(args) > 1 else kwargs["dimension"]
        self.keys["orbit.system_arrays"].add((args[0], dimension))
        return args, kwargs

    def _note_assembly(self, args, kwargs):
        dimension = args[2] if len(args) > 2 else kwargs["dimension"]
        self.totals["orbit.assembly.entries"] += dimension * dimension
        return args, kwargs

    def _note_adversary(self, args, kwargs):
        levels = args[1] if len(args) > 1 else kwargs["levels"]
        self.totals["adversarial.picks"] += 2 * levels + 1
        return args, kwargs

    def _note_written(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.totals["reporting.bytes"] += os.path.getsize(path)

    def _counting_predicates(self, function):
        counts = self.counts

        @functools.wraps(function)
        def wrapper(predicate, *args, **kwargs):
            def counted(candidate):
                counts["adversarial.predicate_evaluations"] += 1
                return predicate(candidate)

            return function(counted, *args, **kwargs)

        return wrapper

    # installation ------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _rebind(self, module_name: str, attribute: str, make) -> None:
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(module, attribute, None)
        if original is None:
            self.missing.append(f"{module_name}.{attribute}")
            return
        wrapper = make(original)
        for owner in self._modules():
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
                    self._restore.append((owner, name, original))

    def _rebind_method(self, module_name: str, class_name: str, attribute: str, make) -> None:
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner = getattr(module, class_name, None)
        original = owner.__dict__.get(attribute) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{class_name}.{attribute}")
            return
        setattr(owner, attribute, make(original))
        self._restore.append((owner, attribute, original))

    def install(self) -> None:
        notes = {
            "sequences.validate": (self._note_validate, None),
            "carleson.product": (self._note_product, None),
            "numerics.sum": (self._note_sum, None),
            "numerics.eigensolve": (self._note_eigensolve, None),
            "orbit.system_arrays": (self._note_system_arrays, None),
            "orbit.assembly": (self._note_assembly, None),
            "adversarial.search": (self._note_adversary, None),
            "reporting.write": (None, self._note_written),
        }
        for span, module_name, attribute in SPANNED:
            before, after = notes.get(span, (None, None))
            self._rebind(
                module_name,
                attribute,
                lambda f, span=span, before=before, after=after: self._spanned(span, f, before, after),
            )
        self._rebind_method(
            "numerics", "HermitianMatrix", "__post_init__", lambda f: self._spanned(HERMITIAN_SPAN, f)
        )
        for counter, module_name, class_name, attribute in COUNTED:
            make = lambda f, counter=counter: self._counted(counter, f)  # noqa: E731
            if class_name is None:
                self._rebind(module_name, attribute, make)
            else:
                self._rebind_method(module_name, class_name, attribute, make)
        self._rebind("adversarial", "_smallest_index", self._counting_predicates)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # results -----------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time and span count per span name."""
        children = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for span_id, name, start, end, _, _ in self.spans:
            self_time[name] += end - start - children[span_id]
            calls[name] += 1
        return {name: (self_time[name], calls[name]) for name in calls}

    def _search_attempts(self) -> int:
        searches = {span[0] for span in self.spans if span[1] == "weaving.search"}
        return sum(1 for span in self.spans if span[1] == "weaving.tail_defect" and span[4] in searches)

    def metrics(self, traced_passes: int, traced_walls, untraced_walls) -> dict:
        """Every PER_LAYER metric; counts and times are per traced pass."""
        per_pass = 1.0 / traced_passes
        times = self.self_times()

        def spent(name):
            return times.get(name, (0.0, 0))[0] * per_pass

        def calls(name):
            return times.get(name, (0.0, 0))[1] * per_pass

        def ratio(useful, attempts):
            return useful / attempts if attempts else 0.0

        searches = times.get("weaving.search", (0.0, 0))[1]
        validate_calls = times.get("sequences.validate", (0.0, 0))[1]
        arrays_calls = times.get("orbit.system_arrays", (0.0, 0))[1]
        traced = statistics.median(traced_walls)
        untraced = statistics.median(untraced_walls)
        values = {
            "sequences.validate.calls": calls("sequences.validate"),
            "sequences.validate.s": spent("sequences.validate"),
            "sequences.validate.useful_ratio": ratio(len(self.keys["sequences.validate"]), validate_calls),
            "sequences.point_evals": self.counts["sequences.point_evals"] * per_pass,
            "carleson.product.calls": calls("carleson.product"),
            "carleson.product.s": spent("carleson.product"),
            "carleson.factors": self.totals["carleson.factors"] * per_pass,
            "carleson.ratio_test.s": spent("carleson.ratio_test"),
            "numerics.sum.calls": calls("numerics.sum"),
            "numerics.sum.terms": self.totals["numerics.sum.terms"] * per_pass,
            "numerics.sum.s": spent("numerics.sum"),
            "numerics.eigensolve.calls": calls("numerics.eigensolve"),
            "numerics.eigensolve.s": spent("numerics.eigensolve"),
            "numerics.eigensolve.dim_max": self.maximum["numerics.eigensolve.dim_max"],
            "numerics.eigensolve.flops_computed": self.totals["numerics.eigensolve.flops_computed"] * per_pass,
            "numerics.hermitian_check.s": spent(HERMITIAN_SPAN),
            "orbit.assembly.calls": calls("orbit.assembly"),
            "orbit.assembly.s": spent("orbit.assembly"),
            "orbit.assembly.entries": self.totals["orbit.assembly.entries"] * per_pass,
            "orbit.system_arrays.calls": calls("orbit.system_arrays"),
            "orbit.system_arrays.s": spent("orbit.system_arrays"),
            "orbit.system_arrays.useful_ratio": ratio(len(self.keys["orbit.system_arrays"]), arrays_calls),
            "weaving.tail_defect.calls": calls("weaving.tail_defect"),
            "weaving.tail_defect.s": spent("weaving.tail_defect"),
            "weaving.search.useful_ratio": ratio(searches, self._search_attempts()),
            "weaving.woven_operator.s": spent("weaving.woven_operator"),
            "adversarial.oracle_calls": self.counts["adversarial.oracle_calls"] * per_pass,
            "adversarial.search.s": spent("adversarial.search"),
            "adversarial.search.useful_ratio": ratio(
                self.totals["adversarial.picks"], self.counts["adversarial.predicate_evaluations"]
            ),
            "adversarial.reverify.s": spent("adversarial.reverify"),
            "adversarial.estimate.s": spent("adversarial.estimate"),
            "reporting.files": calls("reporting.write"),
            "reporting.bytes": self.totals["reporting.bytes"] * per_pass,
            "reporting.s": spent("reporting.write"),
            "cli.self_s": spent(JOB_SPAN),
            "trace.overhead_s": traced - untraced,
            "trace.overhead_ratio": (traced - untraced) / untraced,
        }
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, job in sorted(self.spans):
                handle.write(
                    json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "job": job})
                    + "\n"
                )
