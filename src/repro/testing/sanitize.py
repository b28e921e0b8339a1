"""Runtime determinism sanitizer and dynamic lock-order recorder.

The static rules in :mod:`repro.analyze.host` prove what the AST shows;
this module enforces the same invariants *dynamically*, catching what
static analysis cannot see (``getattr`` dispatch, third-party callbacks,
monkey-patched entry points):

:class:`DeterminismSanitizer`
    Patches the wall-clock and global-RNG entry points
    (``time.time``/``monotonic``/``perf_counter`` families, module-level
    ``random.*``, ``uuid.uuid4``, ``os.urandom``, numpy's legacy global
    RNG functions) so that a call *from repro code* raises
    :class:`~repro.errors.DeterminismViolation`.  Callers outside the
    package — pytest, stdlib internals such as
    ``ThreadPoolExecutor``'s own ``time.monotonic``, numpy — pass
    through untouched, as does the allowlisted stats-timing set (the
    same files ``host.time.wallclock`` exempts).

:class:`LockOrderRecorder`
    Wraps the ``threading.Lock``/``RLock`` factories to record, per
    thread, the order in which repro-created locks nest.  After a run,
    :meth:`LockOrderRecorder.assert_consistent` fails if two locks were
    ever taken in both orders — the dynamic witness for the
    ``host.lock.order`` static rule.

:func:`sanitize_from_env`
    The CI hook: returns an active sanitizer context when
    ``REPRO_SANITIZE`` is set (the chaos and serve-async jobs export
    it), a ``nullcontext`` otherwise — zero overhead by default.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import DeterminismViolation

__all__ = [
    "DeterminismSanitizer",
    "LockOrderRecorder",
    "sanitize_from_env",
    "SANITIZE_ENV_VAR",
    "WALLCLOCK_RUNTIME_ALLOWLIST",
]

#: Environment variable that arms :func:`sanitize_from_env`.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: Path suffixes (within the package) allowed to read the wall clock at
#: runtime — must stay in sync with the static rule's
#: ``WALLCLOCK_ALLOWED_SUFFIXES``.
WALLCLOCK_RUNTIME_ALLOWLIST = (
    os.path.join("tuner", "search.py"),
)


def _package_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _caller_filename(depth: int = 2) -> str:
    """Filename of the frame that called the patched entry point."""
    frame = sys._getframe(depth)
    return frame.f_code.co_filename


#: The sanitizer currently holding the global patches (one at a time;
#: nested instances become passive so wrappers never stack — a stacked
#: wrapper would itself be "repro code" and mis-attribute every caller).
_active_sanitizer: Optional["DeterminismSanitizer"] = None


class _Patch:
    """One (holder, attribute) replacement, reversible."""

    def __init__(self, holder, attr: str, wrapper_factory) -> None:
        self.holder = holder
        self.attr = attr
        self.original = getattr(holder, attr)
        self.wrapper = wrapper_factory(self.original)

    def apply(self) -> None:
        setattr(self.holder, self.attr, self.wrapper)

    def revert(self) -> None:
        setattr(self.holder, self.attr, self.original)


class DeterminismSanitizer(contextlib.AbstractContextManager):
    """Context manager that makes nondeterminism loud inside repro code.

    While active, wall-clock reads and unseeded global-RNG draws made by
    code under the ``repro`` package raise
    :class:`~repro.errors.DeterminismViolation` naming the entry point
    and the offending file.  All other callers get the original
    functions, so the interpreter, pytest, and libraries keep working.

    Use as::

        with DeterminismSanitizer():
            run_chaos_soak(...)

    Violations observed via :attr:`violations` survive the context exit
    for assertion messages.
    """

    #: (module name, attribute) wall-clock entry points to trap.
    WALL_CLOCK = (
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("time", "process_time_ns"),
    )

    #: Module-level RNG entry points whose state no seed controls here.
    GLOBAL_RNG = (
        ("random", "random"),
        ("random", "randint"),
        ("random", "randrange"),
        ("random", "uniform"),
        ("random", "choice"),
        ("random", "choices"),
        ("random", "shuffle"),
        ("random", "sample"),
        ("random", "gauss"),
        ("random", "getrandbits"),
        ("uuid", "uuid4"),
        ("os", "urandom"),
    )

    #: numpy legacy global-RNG functions (the `np.random.*` module-level
    #: API backed by a hidden global RandomState).
    NUMPY_GLOBAL_RNG = (
        "rand", "randn", "random", "randint", "choice", "shuffle",
        "permutation", "standard_normal", "uniform", "normal", "bytes",
        "random_sample",
    )

    def __init__(self, allow_wallclock_suffixes: Tuple[str, ...] =
                 WALLCLOCK_RUNTIME_ALLOWLIST) -> None:
        self._allow = allow_wallclock_suffixes
        self._package = _package_dir()
        self._patches: List[_Patch] = []
        self._active = False
        #: (entry point, caller filename) pairs that raised.
        self.violations: List[Tuple[str, str]] = []

    # -- caller classification -------------------------------------------
    def _repro_caller(self, filename: str) -> bool:
        return filename.startswith(self._package)

    def _allowed_wallclock(self, filename: str) -> bool:
        return any(filename.endswith(sfx) for sfx in self._allow)

    # -- wrapper construction --------------------------------------------
    def _guard(self, label: str, original: Callable,
               allow_check: Optional[Callable[[str], bool]]) -> Callable:
        def wrapper(*a, **kw):
            caller = _caller_filename()
            if self._active and self._repro_caller(caller):
                if allow_check is None or not allow_check(caller):
                    self.violations.append((label, caller))
                    raise DeterminismViolation(
                        f"{label} called from repro code ({caller}) under "
                        "the determinism sanitizer; thread timing or seed "
                        "state would leak into results"
                    )
            return original(*a, **kw)

        wrapper.__name__ = getattr(original, "__name__", label)
        return wrapper

    def _build_patches(self) -> List[_Patch]:
        import importlib

        patches: List[_Patch] = []
        for mod_name, attr in self.WALL_CLOCK:
            mod = importlib.import_module(mod_name)
            patches.append(_Patch(
                mod, attr,
                lambda orig, label=f"{mod_name}.{attr}": self._guard(
                    label, orig, self._allowed_wallclock),
            ))
        for mod_name, attr in self.GLOBAL_RNG:
            mod = importlib.import_module(mod_name)
            patches.append(_Patch(
                mod, attr,
                lambda orig, label=f"{mod_name}.{attr}": self._guard(
                    label, orig, None),
            ))
        try:
            import numpy.random as npr
        except ImportError:  # pragma: no cover - numpy is a hard dep
            npr = None
        if npr is not None:
            for attr in self.NUMPY_GLOBAL_RNG:
                if hasattr(npr, attr):
                    patches.append(_Patch(
                        npr, attr,
                        lambda orig, label=f"numpy.random.{attr}":
                            self._guard(label, orig, None),
                    ))
        return patches

    # -- context protocol ------------------------------------------------
    def __enter__(self) -> "DeterminismSanitizer":
        global _active_sanitizer
        if self._active:
            raise RuntimeError("DeterminismSanitizer is not reentrant")
        if _active_sanitizer is not None:
            # Nested activation (a sanitizing test fixture running the
            # CLI, whose entry points sanitize again): the outer
            # instance keeps enforcing; this one stays passive.
            return self
        self._patches = self._build_patches()
        for patch in self._patches:
            patch.apply()
        # Enter/exit run on the one orchestrating thread; _active is
        # read by wrappers but only flips while it is the sole thread
        # in repro code.
        self._active = True
        _active_sanitizer = self
        return self

    def __exit__(self, *exc) -> None:
        global _active_sanitizer
        if _active_sanitizer is not self:
            return  # was passive: the outer instance owns the patches
        self._active = False
        for patch in reversed(self._patches):
            patch.revert()
        self._patches = []
        _active_sanitizer = None


class LockOrderRecorder(contextlib.AbstractContextManager):
    """Records the nesting order of repro-created locks per thread.

    While active, ``threading.Lock``/``RLock`` objects constructed *by
    repro code* are wrapped so every acquire/release updates a
    thread-local held-stack; each "acquire B while holding A" adds the
    edge ``A -> B`` to a global order graph.  After the workload,
    :meth:`assert_consistent` fails if any pair of locks was observed in
    both orders — the runtime analogue of ``host.lock.order``.

    Locks are labelled by the source location that created them, so a
    report reads ``sched.py:143 -> fleet.py:88``.
    """

    def __init__(self) -> None:
        self._package = _package_dir()
        self._graph_lock = threading.Lock()
        #: edge -> first witnessed (thread name) ; edge = (outer, inner).
        self.edges: Dict[Tuple[str, str], str] = {}
        self._held = threading.local()
        self._orig_lock = None
        self._orig_rlock = None
        self._active = False

    # -- bookkeeping -----------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _on_acquire(self, label: str) -> None:
        stack = self._stack()
        with self._graph_lock:
            for outer in stack:
                if outer != label:
                    self.edges.setdefault(
                        (outer, label), threading.current_thread().name)
        stack.append(label)

    def _on_release(self, label: str) -> None:
        stack = self._stack()
        if label in stack:
            stack.reverse()
            stack.remove(label)
            stack.reverse()

    class _InstrumentedLock:
        """Proxy adding order bookkeeping around a real lock."""

        def __init__(self, inner, label: str,
                     recorder: "LockOrderRecorder") -> None:
            self._inner = inner
            self._label = label
            self._recorder = recorder

        def acquire(self, *a, **kw):
            got = self._inner.acquire(*a, **kw)
            if got:
                self._recorder._on_acquire(self._label)
            return got

        def release(self):
            self._recorder._on_release(self._label)
            return self._inner.release()

        def __enter__(self):
            self.acquire()
            return self

        def __exit__(self, *exc):
            self.release()

        def locked(self):
            return self._inner.locked()

        def __repr__(self):
            return f"<instrumented {self._label} {self._inner!r}>"

    def _factory(self, original):
        def make_lock(*a, **kw):
            inner = original(*a, **kw)
            # Skip this module's own frames: under a nested recorder the
            # direct caller is the inner recorder's make_lock, and the
            # lock belongs to whoever called *that*.
            caller = sys._getframe(1)
            while caller.f_code.co_filename == __file__:
                caller = caller.f_back
            filename = caller.f_code.co_filename
            if not filename.startswith(self._package):
                return inner
            label = (os.path.relpath(filename, self._package) +
                     f":{caller.f_lineno}")
            return self._InstrumentedLock(inner, label, self)

        return make_lock

    # -- context protocol ------------------------------------------------
    def __enter__(self) -> "LockOrderRecorder":
        if self._active:
            raise RuntimeError("LockOrderRecorder is not reentrant")
        # Enter/exit happen on the single orchestrating thread before
        # any workload thread exists; the recorder only shares `edges`
        # (guarded by _graph_lock) with instrumented threads.
        self._orig_lock = threading.Lock  # repro: allow(host.race.unlocked-attr)
        self._orig_rlock = threading.RLock  # repro: allow(host.race.unlocked-attr)
        threading.Lock = self._factory(self._orig_lock)  # type: ignore
        threading.RLock = self._factory(self._orig_rlock)  # type: ignore
        self._active = True  # repro: allow(host.race.unlocked-attr)
        return self

    def __exit__(self, *exc) -> None:
        threading.Lock = self._orig_lock  # type: ignore
        threading.RLock = self._orig_rlock  # type: ignore
        self._active = False  # repro: allow(host.race.unlocked-attr)

    # -- reporting -------------------------------------------------------
    def inversions(self) -> List[Tuple[str, str]]:
        """Lock pairs observed nesting in both orders (each pair once)."""
        seen: Set[Tuple[str, str]] = set(self.edges)
        out: List[Tuple[str, str]] = []
        for (a, b) in sorted(seen):
            if a < b and (b, a) in seen:
                out.append((a, b))
        return out

    def assert_consistent(self) -> None:
        """Raise ``AssertionError`` naming every order inversion."""
        bad = self.inversions()
        if bad:
            lines = [f"  {a} <-> {b}" for a, b in bad]
            raise AssertionError(
                "lock-acquisition-order inversions observed "
                "(potential ABBA deadlock):\n" + "\n".join(lines)
            )


def sanitize_from_env(
    env_var: str = SANITIZE_ENV_VAR,
) -> contextlib.AbstractContextManager:
    """An armed :class:`DeterminismSanitizer` when ``$REPRO_SANITIZE`` is
    set to a non-empty, non-"0" value; a ``nullcontext`` otherwise.

    The long-running CLI entry points (``repro tune``, ``repro serve``,
    ``repro soak``) wrap their bodies in this, so CI jobs opt in with
    one environment variable and local runs pay nothing.
    """
    value = os.environ.get(env_var, "")
    if value and value != "0":
        return DeterminismSanitizer()
    return contextlib.nullcontext()
