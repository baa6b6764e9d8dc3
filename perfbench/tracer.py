"""In-memory span tracing of the mdpaccel layers, from outside the package.

The package modules import each other's functions by value (``from
.operators import weighted_sums``), so a wrapper only sees the calls made
through the name it replaces.  ``Tracer.installed`` therefore rebinds the
wrapper at every name a consumer looks up: the package namespace the
benchmark itself calls through, and each module-level import inside the
package that the solve path uses.  The ``MdpModel.row_matrix`` property is
replaced so that only accesses that find no cached CSR matrix are recorded.

A span is ``[name, parent, start, end, error, work]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``error`` the name of the
exception the wrapped call raised (it is re-raised), and ``work`` the
computed cost of a weighted-sums matvec as ``(flops, bytes)``.  Spans stay
in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time

import mdpaccel
import mdpaccel.accelerators
import mdpaccel.generators
import mdpaccel.model
import mdpaccel.operators
import mdpaccel.solver
from mdpaccel.model import MdpModel
from mdpaccel.operators import sweep_carries_state

NAME, PARENT, START, END, ERROR, WORK = range(6)

# (span name, original function, [(module, attribute), ...]) per traced
# layer boundary.  Every binding listed is one a consumer on the
# generate -> save -> load -> solve path actually looks up.
_BINDINGS = [
    ("generators.generate", mdpaccel.generators.generate, [(mdpaccel, "generate")]),
    ("model.save_model", mdpaccel.model.save_model, [(mdpaccel, "save_model")]),
    ("model.load_model", mdpaccel.model.load_model, [(mdpaccel, "load_model")]),
    ("model.validate_model", mdpaccel.model.validate_model, [(mdpaccel.model, "validate_model")]),
    ("solver.solve", mdpaccel.solver.solve, [(mdpaccel, "solve")]),
    ("solver.extract_policy", mdpaccel.solver.extract_policy, [(mdpaccel.solver, "extract_policy")]),
    (
        "operators.weighted_sums",
        mdpaccel.operators.weighted_sums,
        [
            (mdpaccel.solver, "weighted_sums"),
            (mdpaccel.accelerators, "weighted_sums"),
            (mdpaccel.operators, "weighted_sums"),
        ],
    ),
    (
        "operators.is_feasible",
        mdpaccel.operators.is_feasible,
        [(mdpaccel.solver, "is_feasible"), (mdpaccel.accelerators, "is_feasible")],
    ),
    (
        "accelerators.apply_projective",
        mdpaccel.accelerators.apply_projective,
        [(mdpaccel.solver, "apply_projective")],
    ),
    (
        "accelerators.apply_linear_extension",
        mdpaccel.accelerators.apply_linear_extension,
        [(mdpaccel.solver, "apply_linear_extension")],
    ),
    (
        "accelerators.projective_alpha",
        mdpaccel.accelerators.projective_alpha,
        [(mdpaccel.accelerators, "projective_alpha")],
    ),
    (
        "accelerators.linear_extension_alpha",
        mdpaccel.accelerators.linear_extension_alpha,
        [(mdpaccel.accelerators, "linear_extension_alpha")],
    ),
]

_ROW_MATRIX = MdpModel.row_matrix

# apply_operator is split by operator family: a simultaneous backup reuses
# a sums pass, a sweep recomputes its sums row by row.
BACKUP = "operators.backup"
SWEEP = "operators.sweep"
ROW_MATRIX_BUILD = "model.row_matrix_build"

SPAN_NAMES = sorted({name for name, _, _ in _BINDINGS} | {BACKUP, SWEEP, ROW_MATRIX_BUILD})


def _operator_span(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return SWEEP if sweep_carries_state(kind) else BACKUP


def _matvec_work(m, result):
    """Flops and bytes of one CSR matvec, computed from the array sizes."""
    csr = _ROW_MATRIX.fget(m)
    moved = (
        csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        + result.base.nbytes + result.values.nbytes
    )
    return 2 * csr.nnz, moved


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _call(self, name, fn, args, kwargs, work=None):
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span[WORK] = work(args[0], result)
        return result

    def _wrap(self, name, fn):
        work = _matvec_work if name == "operators.weighted_sums" else None

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, work)

        return traced

    def _wrap_operator(self, fn):
        def traced(*args, **kwargs):
            return self._call(_operator_span(args, kwargs), fn, args, kwargs)

        return traced

    def _row_matrix_property(self):
        build = _ROW_MATRIX.fget

        def getter(m):
            if m._row_matrix is not None:
                return build(m)
            return self._call(ROW_MATRIX_BUILD, build, (m,), {})

        return property(getter, doc=_ROW_MATRIX.__doc__)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for name, fn, sites in _BINDINGS:
                wrapper = self._wrap(name, fn)
                for module, attr in sites:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            saved.append((mdpaccel.solver, "apply_operator", mdpaccel.solver.apply_operator))
            mdpaccel.solver.apply_operator = self._wrap_operator(mdpaccel.operators.apply_operator)
            saved.append((MdpModel, "row_matrix", _ROW_MATRIX))
            MdpModel.row_matrix = self._row_matrix_property()
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the spans as one JSON document with a name table."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[PARENT], s[START], s[END], s[ERROR], s[WORK]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "parent", "start", "end", "error", "work"],
                       "names": names, "spans": rows}, f, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own

