"""In-memory span tracer that wraps growthcalc's public calls from outside.

The benchmark never edits the package: :func:`install_layer_hooks` replaces
each traced function in every ``growthcalc`` module that imported it (and
``GrowthFunctionSpec.log_u`` / ``scipy``'s ``PPoly.__call__`` on their
classes), and :meth:`Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
Hot leaf layers (``log u``, single Legendre solves) are aggregated per name
instead of being kept as individual spans, so a traced suite stays within a
few tens of megabytes.
"""

from __future__ import annotations

import functools
import os
import sys
import time

CHECK_FUNCTIONS = {
    "table-definition": "check_table_definition",
    "log-concavity": "check_log_concavity",
    "submultiplicativity": "check_submultiplicativity",
    "supermultiplicativity": "check_supermultiplicativity",
    "t2t-log-convexity": "check_t2t_logconvex",
    "decreasing-tail": "check_decreasing_tail",
    "nth-root-decay": "check_nth_root",
    "lseries-sandwich": "check_lfunction_sandwich",
    "lseries-square-bound": "check_lemma_square",
    "lseries-sqrt-bound": "check_lemma_sqrt",
}
JOB_KINDS = ("eval", "conditions", "legendre", "lfn", "verify", "fock", "measures")
FOCK_FUNCTIONS = ("dual_norm", "exp_vector_norm", "s_transform_1d")
MEASURE_FUNCTIONS = (
    "grey_sample", "grey_integrability", "poisson_integrability",
    "fernique_product", "hida_condition",
)
#: Counts that must repeat exactly across two traced runs with one seed.
NAMED_COUNTS = (
    "growth.log_u.calls",
    "legendre.legendre_transform.calls",
    "legendre.log_u_per_solve",
    "legendre.spline_evals.calls",
    "legendre.l_function.attempts",
)


_INHERITED = object()


class _Frame:
    __slots__ = ("name", "start", "child", "record")

    def __init__(self, name, start, record):
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record


class Tracer:
    """Spans ``(name, start, end, parent, op)`` plus per-name aggregates.

    ``stats[name]`` is ``[calls, total_s, self_s]``; ``counts`` holds plain
    counters that hooks add to.  ``op`` is the workload's current operation
    id (``-1`` during set-up).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.records: list[list] = []
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.caches: dict[str, tuple] = {}
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def push(self, name: str, record: bool = True) -> _Frame:
        record_idx = None
        if record:
            parent = next((f.record for f in reversed(self.stack) if f.record is not None), -1)
            record_idx = len(self.records)
            self.records.append([name, 0.0, 0.0, parent, self.op])
        self.active[name] = self.active.get(name, 0) + 1
        frame = _Frame(name, self.clock(), record_idx)
        if record_idx is not None:
            self.records[record_idx][1] = frame.start
        self.stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> float:
        end = self.clock()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        if self.stack:
            self.stack[-1].child += duration
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame.child
        self.active[frame.name] -= 1
        if frame.record is not None:
            self.records[frame.record][2] = end
        return duration

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def children_total(self, name: str, parent_name: str) -> float:
        """Summed duration of recorded ``name`` spans whose parent is ``parent_name``."""
        recs = self.records
        return sum(r[2] - r[1] for r in recs
                   if r[0] == name and r[3] >= 0 and recs[r[3]][0] == parent_name)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, record=True, after=None):
        """``fn`` inside a span.  ``name`` may be a callable of the call's
        arguments; ``after(args, kwargs, result, exc, duration)`` runs on exit."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.push(name(*args, **kwargs) if callable(name) else name, record)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                duration = tracer.pop(frame)
                if after is not None:
                    after(args, kwargs, result, exc, duration)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`uninstall` restores it (or removes it
        again when ``owner`` only inherited the attribute)."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, module, attr: str, replacement_for) -> bool:
        """Replace ``module.attr`` in ``module`` and in every loaded growthcalc
        module that bound the same object under the same name."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        replacement = replacement_for(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("growthcalc"):
                continue
            if mod.__dict__.get(attr) is original:
                self.patch(mod, attr, replacement)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.records:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _on_cache_miss(tracer: Tracer, cached, key: str):
    """An ``after`` hook adding the call's duration to ``key`` when the
    ``lru_cache``d function missed."""
    misses = [cached.cache_info().misses]

    def done(args, kwargs, result, exc, duration):
        now = cached.cache_info().misses
        if now != misses[0]:
            tracer.add(key, duration)
            misses[0] = now

    return done


def install_layer_hooks(tracer: Tracer) -> list[str]:
    """Wrap every traced layer; returns the hook names that were not found."""
    import numpy as np
    from scipy.interpolate import PPoly

    from growthcalc import cli, fock, growth, inequality_lab, legendre, measures

    missing: list[str] = []

    def span(module, attr, name, record=True, after=None):
        if not tracer.patch_everywhere(
                module, attr, lambda fn: tracer.wrap(fn, name, record, after)):
            missing.append(f"{module.__name__}.{attr}")

    # growth: scalar log u on the class, counted inside Legendre solves too.
    spec_cls = growth.GrowthFunctionSpec
    log_u = spec_cls.__dict__["log_u"]

    def traced_log_u(self, r):
        if tracer.active.get("legendre.legendre_transform"):
            tracer.counts["log_u_in_solve"] = tracer.counts.get("log_u_in_solve", 0) + 1
        frame = tracer.push("growth.log_u", False)
        try:
            return log_u(self, r)
        finally:
            tracer.pop(frame)

    tracer.patch(spec_cls, "log_u", functools.wraps(log_u)(traced_log_u))
    span(growth, "log_u_grid", "growth.log_u_grid",
         after=lambda a, k, res, exc, d: tracer.add("growth.log_u_grid.points",
                                                    int(np.size(a[1] if len(a) > 1 else k["rs"]))))
    span(growth, "check_conditions", "growth.check_conditions")
    span(growth, "mittag_leffler", "growth.mittag_leffler")
    series_logc = getattr(growth, "_series_logc", None)
    if series_logc is not None and hasattr(series_logc, "cache_info"):
        span(growth, "_series_logc", "growth.series_table", record=False,
             after=_on_cache_miss(tracer, series_logc, "growth.series_table_s"))
    else:
        missing.append("growthcalc.growth._series_logc")

    # legendre
    span(legendre, "legendre_transform", "legendre.legendre_transform", record=False)
    span(legendre, "legendre_sequence", "legendre.legendre_sequence")
    span(legendre, "legendre_table", "legendre.legendre_table",
         after=lambda a, k, res, exc, d: res is not None and tracer.add(
             "legendre.legendre_table.rows", res.n_points))
    span(legendre, "bidual", "legendre.bidual")
    span(legendre, "l_function_wide", "legendre.l_function_wide")
    span(legendre, "l_function_integral", "legendre.l_function_integral")

    def l_after(a, k, res, exc, d):
        if exc is None:
            tracer.add("legendre.l_function.ok")

    span(legendre, "l_function", "legendre.l_function", after=l_after)
    ev_cls = legendre.LFunctionEvaluator
    from_spec = ev_cls.__dict__["from_spec"].__func__
    tracer.patch(ev_cls, "from_spec",
                 classmethod(tracer.wrap(from_spec, "legendre.evaluator_build")))
    cont = getattr(legendre, "_continuous_ell", None)
    if cont is not None and hasattr(cont, "cache_info"):
        tracer.caches["legendre.continuous_ell"] = (cont, cont.cache_info())
        span(legendre, "_continuous_ell", "legendre.continuous_ell",
             after=_on_cache_miss(tracer, cont, "legendre.continuous_ell.build_s"))
    else:
        missing.append("growthcalc.legendre._continuous_ell")

    ppoly_call = PPoly.__call__

    def counted_call(self, x, *args, **kwargs):
        tracer.counts["spline.calls"] = tracer.counts.get("spline.calls", 0) + 1
        tracer.counts["spline.points"] = tracer.counts.get("spline.points", 0) + np.size(x)
        return ppoly_call(self, x, *args, **kwargs)

    tracer.patch(PPoly, "__call__", functools.wraps(ppoly_call)(counted_call))

    # inequality_lab: the twelve battery checks, the chain order, the witness.
    span(inequality_lab, "verify_function", "inequality_lab.verify_function")
    for check_id, attr in CHECK_FUNCTIONS.items():
        span(inequality_lab, attr, f"inequality_lab.{check_id}")
    span(inequality_lab, "check_chain_order", "inequality_lab.chain-order")

    def witness_done(a, k, res, exc, d):
        g_id = str(k.get("g_id", ""))
        if g_id.startswith("L["):
            tracer.add("inequality_lab.equivalence-lseries.s", d)
        elif g_id.endswith("^2"):
            tracer.add("inequality_lab.equivalence-square.s", d)

    span(inequality_lab, "equivalence_witness", "inequality_lab.equivalence_witness",
         after=witness_done)

    for attr in FOCK_FUNCTIONS:
        span(fock, attr, f"fock.{attr}")
    for attr in MEASURE_FUNCTIONS:
        span(measures, attr, f"measures.{attr}")

    # cli: jobs by kind (each job is one op), artifacts, manifest validation.
    run_job = getattr(cli, "_run_job", None)
    if run_job is None:
        missing.append("growthcalc.cli._run_job")
    else:
        traced_job = tracer.wrap(run_job, lambda job, *a, **k: f"cli.job.{job.get('kind')}")

        def run_job_op(job, *args, **kwargs):
            tracer.op += 1
            return traced_job(job, *args, **kwargs)

        tracer.patch(cli, "_run_job", functools.wraps(run_job)(run_job_op))

    def wrote(path):
        try:
            tracer.add("cli.artifacts.bytes", os.path.getsize(path))
        except OSError:
            pass

    span(cli, "_dump_json", "cli.artifacts.write",
         after=lambda a, k, res, exc, d: wrote(a[1] if len(a) > 1 else k["path"]))
    table_cls = legendre.LegendreTable
    write_csv = table_cls.__dict__["write_csv"]
    tracer.patch(table_cls, "write_csv", tracer.wrap(
        write_csv, "cli.artifacts.write",
        after=lambda a, k, res, exc, d: wrote(a[1] if len(a) > 1 else k["path"])))
    span(cli, "validate_manifest", "cli.manifest.validate")
    return missing


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as ``(value, unit)``."""
    t = tracer
    c = t.counts
    m: dict[str, tuple[float, str]] = {}

    def calls_self(key, name):
        m[f"{key}.calls"] = (t.calls(name), "count")
        m[f"{key}.self_s"] = (t.self_s(name), "s")

    calls_self("legendre.l_function_integral", "legendre.l_function_integral")
    m["legendre.spline_evals.calls"] = (c.get("spline.calls", 0), "count")
    m["legendre.spline_evals.points"] = (c.get("spline.points", 0), "count")
    attempts = t.calls("legendre.l_function")
    ok = c.get("legendre.l_function.ok", 0)
    m["legendre.l_function.attempts"] = (attempts, "count")
    m["legendre.l_function.ok"] = (ok, "count")
    m["legendre.l_function.useful_ratio"] = (ok / attempts if attempts else 0.0, "ratio")
    m["legendre.l_function.self_s"] = (t.self_s("legendre.l_function"), "s")
    calls_self("legendre.legendre_transform", "legendre.legendre_transform")
    solves = t.calls("legendre.legendre_transform")
    m["legendre.log_u_per_solve"] = (
        c.get("log_u_in_solve", 0) / solves if solves else 0.0, "calls/solve")
    calls_self("legendre.legendre_table", "legendre.legendre_table")
    m["legendre.legendre_table.rows"] = (c.get("legendre.legendre_table.rows", 0), "count")
    m["legendre.evaluator_build_s"] = (t.total_s("legendre.evaluator_build"), "s")
    calls_self("legendre.bidual", "legendre.bidual")
    m["legendre.continuous_ell.build_s"] = (c.get("legendre.continuous_ell.build_s", 0.0), "s")
    cache, info0 = t.caches.get("legendre.continuous_ell", (None, None))
    info = cache.cache_info() if cache is not None else None
    m["legendre.continuous_ell.hits"] = (info.hits - info0.hits if info else 0, "count")
    m["legendre.continuous_ell.misses"] = (info.misses - info0.misses if info else 0, "count")

    calls_self("growth.log_u", "growth.log_u")
    calls_self("growth.log_u_grid", "growth.log_u_grid")
    m["growth.log_u_grid.points"] = (c.get("growth.log_u_grid.points", 0), "count")
    m["growth.series_table_s"] = (c.get("growth.series_table_s", 0.0), "s")
    m["growth.check_conditions_s"] = (t.total_s("growth.check_conditions"), "s")
    calls_self("growth.mittag_leffler", "growth.mittag_leffler")

    for check_id in CHECK_FUNCTIONS:
        m[f"inequality_lab.{check_id}.s"] = (t.total_s(f"inequality_lab.{check_id}"), "s")
    # verify_function builds the real-t table for this check outside the check call.
    m["inequality_lab.t2t-log-convexity.s"] = (
        m["inequality_lab.t2t-log-convexity.s"][0]
        + t.children_total("legendre.legendre_table", "inequality_lab.verify_function"), "s")
    for check_id in ("equivalence-lseries", "equivalence-square"):
        m[f"inequality_lab.{check_id}.s"] = (c.get(f"inequality_lab.{check_id}.s", 0.0), "s")
    m["inequality_lab.chain-order.s"] = (t.total_s("inequality_lab.chain-order"), "s")
    m["inequality_lab.equivalence_witness.self_s"] = (
        t.self_s("inequality_lab.equivalence_witness"), "s")

    for attr in FOCK_FUNCTIONS:
        m[f"fock.{attr}.self_s"] = (t.self_s(f"fock.{attr}"), "s")
    for attr in MEASURE_FUNCTIONS:
        m[f"measures.{attr}.self_s"] = (t.self_s(f"measures.{attr}"), "s")
    for kind in JOB_KINDS:
        m[f"cli.job.{kind}.s"] = (t.total_s(f"cli.job.{kind}"), "s")
    m["cli.artifacts.write_s"] = (t.total_s("cli.artifacts.write"), "s")
    m["cli.artifacts.bytes"] = (c.get("cli.artifacts.bytes", 0), "bytes")
    m["cli.manifest.validate_s"] = (t.total_s("cli.manifest.validate"), "s")
    return m
