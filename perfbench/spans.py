"""Layer tracing from outside the program.

:class:`Tracer` wraps every public function (the names in ``__all__``) of
each ttensor layer module and rebinds the wrapper in every ``ttensor.*``
namespace that holds the original, because modules import functions by name
(``algebra``, ``spectral`` and ``certificates`` each do
``from .eigensolvers import hermitian_eig``).  No program source changes.

Each wrapped call records a span ``(name, start, end, parent, call id)``; the
call id is the benchmark call the span belongs to.  Spans stay in memory and
are written out by :meth:`Tracer.dump`.  A span's self time is its duration
minus the time covered by its child spans.

For the kernels with a numpy counterpart, the tracer also keeps a bounded
sample of the inputs, which :meth:`Tracer.ceilings` replays after the run
through ``np.linalg.eigh``, ``np.linalg.eigvals``, ``np.fft.rfft``/``irfft``,
or rfft plus batched matmul.
"""

from __future__ import annotations

import functools
import inspect
import json
import random
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "core",
    "fourier",
    "algebra",
    "eigensolvers",
    "spectral",
    "certificates",
    "inequalities",
    "localization",
    "campaigns",
)

# inputs kept per (kernel, input shape) for the ceiling replay; the replay
# time per shape is the mean over the sample times the number of calls
SAMPLE_CAP = 256


class Tracer:
    def __init__(self, package):
        self.package = package
        self.call_id = -1
        self.spans = []
        self.names = []
        self.stats = {}  # qualified name -> [calls, self_s, failed, total_s]
        self.work = defaultdict(int)  # "hermitian_eig" -> sum n^3, "to_fourier" -> sum elems
        self.samples = defaultdict(list)  # (kernel, shape) -> inputs
        self.shape_calls = defaultdict(int)
        self._rng = random.Random(0)
        self._stack = []
        self._saved = []  # (namespace, attribute, original)
        self._hooks = {
            "eigensolvers.hermitian_eig": self._record_matrix,
            "eigensolvers.general_eig": self._record_matrix,
            "fourier.to_fourier": self._record_to_fourier,
            "fourier.from_fourier": self._record_from_fourier,
            "algebra.t_product": self._record_t_product,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "ttensor" or name.startswith("ttensor.")]
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._saved.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._saved):
            setattr(ns, key, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats[name] = [0, 0.0, 0, 0.0]
        hook = self._hooks.get(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(name, *args)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            failed = 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name_id, start, end, parent, tracer.call_id)
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += failed
                stats[3] += dur

        return wrapper

    # -- input recording for the ceiling replay -----------------------------

    def _sample(self, kernel, shape, item, keep=lambda item: item) -> None:
        """Count one call of ``kernel`` on ``shape``; maybe keep ``keep(item)``."""
        key = (kernel, shape)
        self.shape_calls[key] += 1
        bucket = self.samples[key]
        if len(bucket) < SAMPLE_CAP:
            bucket.append(keep(item))
        else:  # reservoir sampling keeps the sample uniform over the run
            j = self._rng.randrange(self.shape_calls[key])
            if j < SAMPLE_CAP:
                bucket[j] = keep(item)

    def _record_matrix(self, name, m, *_):
        import numpy as np

        shape = np.shape(m)
        self.work[name] += shape[0] ** 3
        self._sample(name, shape, m, keep=lambda m: np.array(m, dtype=complex))

    def _record_to_fourier(self, name, a, *_):
        n1, n2, n3 = a.shape
        self.work[name] += n1 * n2 * n3
        self._sample(name, (a.shape, a.data.dtype.kind), a)

    def _record_from_fourier(self, name, s, *_):
        self.work[name] += s.n1 * s.n2 * s.n3
        self._sample(name, (s.n1, s.n2, s.n3), s)

    def _record_t_product(self, name, a, b, *_):
        self._sample(name, (a.shape, b.shape), (a, b))

    # -- results -------------------------------------------------------------

    def ceilings(self) -> dict:
        """Replay the sampled inputs through numpy; seconds per kernel name."""
        import numpy as np

        def to_fourier(a):
            return (lambda: np.fft.rfft(a.data, axis=2)) if a.data.dtype.kind == "f" \
                else (lambda: np.fft.fft(a.data, axis=2))

        def from_fourier(s):
            half = np.stack(s.slices[: s.n3 // 2 + 1])
            return lambda: np.fft.irfft(half, n=s.n3, axis=0)

        def t_product(ab):
            a, b = ab

            def run():
                fa = np.moveaxis(np.fft.rfft(a.data, axis=2), 2, 0)
                fb = np.moveaxis(np.fft.rfft(b.data, axis=2), 2, 0)
                return np.fft.irfft(np.matmul(fa, fb), n=a.n3, axis=0)
            return run

        replay = {
            "eigensolvers.hermitian_eig": lambda m: (lambda: np.linalg.eigh(m)),
            "eigensolvers.general_eig": lambda m: (lambda: np.linalg.eigvals(m)),
            "fourier.to_fourier": to_fourier,
            "fourier.from_fourier": from_fourier,
            "algebra.t_product": t_product,
        }
        out = {name: 0.0 for name in replay}
        for (kernel, shape), items in self.samples.items():
            elapsed = 0.0
            for item in items:
                run = replay[kernel](item)
                t0 = perf_counter()
                run()
                elapsed += perf_counter() - t0
            out[kernel] += elapsed / len(items) * self.shape_calls[(kernel, shape)]
        return out

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start", "end", "parent", "call_id"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(tracer: Tracer, ceilings: dict, overhead_ratio: float, program_s: float) -> dict:
    """The per-layer metric values of one traced run, by metric name."""
    stats = tracer.stats

    def calls(name):
        return stats[name][0]

    def self_s(*names):
        return sum(stats[n][1] for n in names)

    def failed(name):
        return stats[name][2]

    def prefixed(prefix):
        return [n for n in stats if n.startswith(prefix)]

    m = {}
    for kernel in ("hermitian_eig", "general_eig"):
        name = f"eigensolvers.{kernel}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.work"] = tracer.work[name]
        m[f"{name}.ceiling_s"] = ceilings[name]
        m[f"{name}.failed"] = failed(name)
    for kernel in ("to_fourier", "from_fourier"):
        name = f"fourier.{kernel}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.elems"] = tracer.work[name]
    m["fourier.ceiling_s"] = ceilings["fourier.to_fourier"] + ceilings["fourier.from_fourier"]
    m["algebra.t_product.calls"] = calls("algebra.t_product")
    m["algebra.t_product.self_s"] = self_s("algebra.t_product")
    # the ceiling replays whole products, so it compares with the inclusive time
    m["algebra.t_product.total_s"] = stats["algebra.t_product"][3]
    m["algebra.t_product.ceiling_s"] = ceilings["algebra.t_product"]
    m["algebra.t_inverse.calls"] = calls("algebra.t_inverse")
    m["algebra.t_inverse.self_s"] = self_s("algebra.t_inverse")
    m["algebra.t_inverse.failed"] = failed("algebra.t_inverse")
    m["algebra.is_t_psd.calls"] = calls("algebra.is_t_psd")
    m["algebra.is_t_psd.self_s"] = self_s("algebra.is_t_psd")
    m["algebra.is_symmetric.self_s"] = self_s("algebra.is_symmetric")
    for name in ("spectral.t_power", "spectral.t_eigenvalues",
                 "certificates.loewner_certificate", "certificates.norm_certificate",
                 "core.spectral_norm", "campaigns.run_campaign"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["core.gen.self_s"] = self_s(*prefixed("core.gen_"))
    m["inequalities.check.self_s"] = self_s(*prefixed("inequalities.check_"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*prefixed(f"{layer}."))
    m["trace.program_s"] = program_s
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
