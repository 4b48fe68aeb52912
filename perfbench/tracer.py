"""Timing from outside the package: attribute patches, spans and the
replication-boundary clock.

Nothing under ``src/`` knows it is being timed.  Each wrapper replaces a
public name at the place its callers resolve it at call time (a module
attribute or a class attribute) and is removed again by ``Patches.restore``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

clock = time.perf_counter


class Patches:
    """Attribute replacements that can be undone and verified as undone."""

    def __init__(self):
        self._saved: list = []          # (owner, attr, original)

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no attribute {attr!r} of its own")
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> list:
        return list(self._saved)


def all_restored(snapshot) -> bool:
    """True when every attribute in a Patches.snapshot holds what it held
    before the first wrapper around it was installed."""
    first: dict = {}
    for owner, attr, original in snapshot:
        first.setdefault((id(owner), attr), (owner, original))
    return all(vars(owner)[attr] is original for (_, attr), (owner, original) in first.items())


# -- replication boundary -------------------------------------------------------


class RepLog:
    """Replication boundaries and fit diagnostics, seen through the names
    ``tdvarma.mc`` resolves for ``simulate`` and ``fit``.

    A replication runs from the start of its simulation to the return of its
    fit.  This is the only clock the timing run keeps.
    """

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.outcomes: list = []        # ok / not_converged / no_covariance / raised
        self.terminations: Counter = Counter()
        self.n_evals: list = []
        self.thetas: list = []
        self.ses: list = []
        self.exceptions: list = []       # exception type names, one per raised fit
        self.on_start = None             # optional callback(rep_index)

    def install(self, patches: Patches, mc_module) -> None:
        patches.wrap(mc_module, "simulate", self._wrap_simulate)
        patches.wrap(mc_module, "fit", self._wrap_fit)

    def _wrap_simulate(self, original):
        @functools.wraps(original)
        def simulate(*args, **kwargs):
            if self.on_start is not None:
                self.on_start(len(self.starts))
            self.starts.append(clock())
            return original(*args, **kwargs)

        return simulate

    def _wrap_fit(self, original):
        @functools.wraps(original)
        def fit(*args, **kwargs):
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self.ends.append(clock())
                self.outcomes.append("raised")
                self.exceptions.append(type(exc).__name__)
                raise
            self.ends.append(clock())
            if not result.converged:
                outcome = "not_converged"
            elif not result.covariance_ok:
                outcome = "no_covariance"
            else:
                outcome = "ok"
                self.thetas.append(result.theta.copy())
                self.ses.append(result.se.copy())
            self.outcomes.append(outcome)
            self.terminations[result.termination] += 1
            self.n_evals.append(result.n_evals)
            return result

        return fit


# -- spans ------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, replication id]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.rep = -1

    def span_wrapper(self, name: str):
        spans, stack = self.spans, self._stack

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.rep])
                stack.append(idx)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    rec = spans[idx]
                    rec[1] = start
                    rec[2] = end

            return traced

        return make

    def set_rep(self, rep: int) -> None:
        self.rep = rep

    def summarize(self):
        """Per-name call count, inclusive time and self time, plus the root total.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent, so self times over all
        spans add up to the durations of the root spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        roots = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            if parent < 0:
                roots += dur
        return calls, total, self_s, roots

    def count_under(self, names, ancestor: str) -> int:
        """Spans named in `names` that have a span called `ancestor` above them."""
        spans = self.spans
        hits = 0
        for name, _, _, parent, _ in spans:
            if name not in names:
                continue
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    hits += 1
                    break
                parent = spans[parent][3]
        return hits

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,rep\n")
            for name, start, end, parent, rep in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{rep}\n")


# (module, class or None, attribute, span name).  Names are wrapped where their
# callers look them up: tdvarma.mc imports fit and simulate by name,
# tdvarma.asymptotics and tdvarma.assumptions import build_psi / build_pi /
# theoretical_v by name, and estimate reaches likelihood through its module.
SPAN_TARGETS = (
    ("tdvarma.timefn", "MatrixTimeFunction", "value", "timefn.value"),
    ("tdvarma.timefn", "MatrixTimeFunction", "deriv", "timefn.deriv"),
    ("tdvarma.timefn", "MatrixTimeFunction", "deriv_map", "timefn.deriv_map"),
    ("tdvarma.model", "TdVarmaModel", "a_values", "model.a_values"),
    ("tdvarma.model", "TdVarmaModel", "b_values", "model.b_values"),
    ("tdvarma.model", "TdVarmaModel", "g_values", "model.g_values"),
    ("tdvarma.model", "TdVarmaModel", "sigma_t_all", "model.sigma_t_all"),
    ("tdvarma.model", "TdVarmaModel", "_sigma_t_deriv_any", "model.scale_deriv"),
    ("tdvarma.likelihood", None, "residuals", "likelihood.residuals"),
    ("tdvarma.likelihood", None, "objective", "likelihood.objective"),
    ("tdvarma.likelihood", None, "objective_value", "likelihood.objective_value"),
    ("tdvarma.likelihood", None, "empirical_vw", "likelihood.empirical_vw"),
    ("tdvarma.estimate", None, "estimate_noise_cov", "estimate.noise_cov"),
    ("tdvarma.mc", None, "fit", "estimate.fit"),
    ("tdvarma.mc", None, "simulate", "simulate"),
    ("tdvarma.mc", None, "run_mc", "mc.run_mc"),
    ("tdvarma.representations", None, "build_psi", "representations.build_psi"),
    ("tdvarma.asymptotics", None, "build_psi", "representations.build_psi"),
    ("tdvarma.assumptions", None, "build_psi", "representations.build_psi"),
    ("tdvarma.representations", None, "build_pi", "representations.build_pi"),
    ("tdvarma.assumptions", None, "build_pi", "representations.build_pi"),
    ("tdvarma.asymptotics", None, "theoretical_v", "asymptotics.theoretical_v"),
    ("tdvarma.assumptions", None, "theoretical_v", "asymptotics.theoretical_v"),
    ("tdvarma.assumptions", None, "check_psi_decay", "assumptions.psi_decay"),
    ("tdvarma.assumptions", None, "check_sigma_bounds", "assumptions.sigma_bounds"),
    ("tdvarma.assumptions", None, "check_moment_bounds", "assumptions.moment_bounds"),
    ("tdvarma.assumptions", None, "check_information", "assumptions.information"),
    ("tdvarma.assumptions", None, "check_cross_sums", "assumptions.cross_sums"),
    ("tdvarma.assumptions", None, "run_all", "assumptions.run_all"),
)


def install_spans(patches: Patches, tracer: Tracer) -> None:
    import importlib

    for module_name, cls_name, attr, span in SPAN_TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        patches.wrap(owner, attr, tracer.span_wrapper(span))
