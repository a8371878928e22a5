"""Spans around the calls into each layer of cyclospec, from outside it.

`Tracer.install` replaces every public function of the six modules with a
wrapper, under every module attribute that refers to it, so calls made
through `from .special import complex_gamma` style imports are caught as
well as calls made through the module.  Spans are kept in memory as tuples
(id, name, parent, thread, start, end) and written out by `write`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

from chartab import totient

LAYERS = ("cli", "characters", "special", "dirichlet", "graph", "char_sums")
BENCH = "bench"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._patched = []
        self._seen = set()
        self.main_thread = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            token = before(args) if before else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, parent, threading.get_ident(), t0, t1))
                if after:
                    after(args, token)
        return wrapper

    def op(self, kind: str):
        """A caller that runs fn(*args) as the root span of one op of this kind."""
        def call(fn, *args):
            sid = next(self._ids)
            self._root = sid
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.spans.append((sid, f"{BENCH}.op:{kind}", 0, self.main_thread,
                                   t0, time.perf_counter()))
                self._root = 0
        return call

    # -- patching ----------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("cyclospec")
        mods = {name: importlib.import_module(f"cyclospec.{name}") for name in LAYERS}
        holders = [pkg, *mods.values()]
        self._enumerate = mods["characters"].enumerate_characters
        hooks = {
            "characters.enumerate_characters": (self._misses, self._count_cold),
            "graph.graph_l_n": (self._count_terms, None),
        }
        targets = [("cli.run", mods["cli"].run)]
        for layer in LAYERS[1:]:
            mod = mods[layer]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type):
                    targets.append((f"{layer}.{attr}", fn))
        for name, fn in targets:
            wrapper = self._wrap(name, fn, *hooks.get(name, (None, None)))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patched.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()

    def _misses(self, args):
        info = getattr(self._enumerate, "cache_info", None)
        return info().misses if info else None

    def _count_cold(self, args, misses_before):
        k = args[0]
        if misses_before is None:  # no lru_cache: count first sight of k
            cold = k not in self._seen
        else:
            cold = self._enumerate.cache_info().misses > misses_before
        self._seen.add(k)
        if cold:
            self.counts["characters.enumerate.cold"] += 1
            self.counts["characters.values_built"] += totient(k) * k

    def _count_terms(self, args):
        p = args[0]
        self.counts["graph.l_n.terms"] += p.chi.modulus * p.n - 1

    # -- analysis ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,parent,thread,start,end\n")
            for sid, name, parent, tid, t0, t1 in self.spans:
                fh.write(f"{sid},{name},{parent},{tid},{t0!r},{t1!r}\n")

    def self_times(self, t_start: float, t_end: float) -> Counter:
        """Self time per span name over [t_start, t_end).

        Within a thread each instant belongs to its innermost open span; the
        main thread's time outside every span belongs to the benchmark.
        While worker threads are busy the main thread only waits for them,
        so the instant is split evenly between the busy workers.  The result
        sums to t_end - t_start.
        """
        by_thread = defaultdict(list)
        for sid, name, _, tid, t0, t1 in self.spans:
            by_thread[tid].append((t0, 1, sid, name))
            by_thread[tid].append((t1, 0, -sid, name))
        events = []  # segment boundaries: (time, opens, thread, owner)
        for tid, marks in by_thread.items():
            marks.sort()
            stack = [BENCH] if tid == self.main_thread else []
            prev = t_start
            for t, opens, _, name in marks:
                if stack and t > prev:
                    events += [(prev, 1, tid, stack[-1]), (t, 0, tid, stack[-1])]
                prev = max(prev, t)
                if opens:
                    stack.append(name)
                else:  # spans of one thread nest, so this closes the innermost
                    del stack[len(stack) - 1 - stack[::-1].index(name)]
            if stack and t_end > prev:
                events += [(prev, 1, tid, stack[-1]), (t_end, 0, tid, stack[-1])]
        events.sort(key=lambda e: (e[0], e[1]))
        out = Counter()
        busy = {}
        prev = t_start
        for t, opens, tid, owner in events:
            if busy and t > prev:
                workers = [o for th, o in busy.items() if th != self.main_thread]
                share = workers or list(busy.values())
                for o in share:
                    out[o] += (t - prev) / len(share)
            prev = t
            if opens:
                busy[tid] = owner
            elif busy.get(tid) == owner:
                del busy[tid]
        return out
