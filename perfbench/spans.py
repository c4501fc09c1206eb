"""Spans around the calls into each rbx layer, recorded from outside rbx.

Tracer.install() replaces each function in TRACED, under every name an
rbx module holds it by, with a wrapper that records one span: name,
parent span, start, end and a detail (the claim id for verify_claim, the
number of results for the enumerators).  Spans stay in memory until the
benchmark writes them out at the end.  A span's self time is its duration
less the durations of its child spans; time spent in host-speed samples is
taken out of every span by the clock the tracer is given.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path) of every traced function, by layer
TRACED = (
    ("cli", "main"),
    ("formats", "algebra_from_text"),
    ("search", "enumerate_rb"),
    ("search", "enumerate_automorphisms"),
    ("search", "enumerate_derivations"),
    ("rb", "check_rb"),
    ("rb", "check_derivation_weight"),
    ("rb", "is_splitting"),
    ("rb", "diagnostics"),
    ("algebras", "check_automorphism"),
    ("linalg", "rank_nullspace"),
    ("linalg", "Matrix.rank"),
    ("orbits", "orbit_classify"),
    ("orbits", "verify_claim"),
)

LAYERS = ("search", "rb", "algebras", "linalg", "orbits", "formats", "cli")

# enumerators whose spans record how many results they returned
_RESULT_COUNTED = {
    "search.enumerate_rb",
    "search.enumerate_automorphisms",
    "search.enumerate_derivations",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index, start, end, detail]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        claim = name == "orbits.verify_claim"
        counted = name in _RESULT_COUNTED

        def traced(*args, **kwargs):
            detail = (args[0] if args else kwargs.get("claim")) if claim else None
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, detail]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counted:
                rec[4] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function wherever an rbx module binds it.

        A function that rbx no longer has is skipped; its metrics read 0.
        """
        modules = [m for k, m in sorted(sys.modules.items()) if k == "rbx" or k.startswith("rbx.")]
        for module_name, path in TRACED:
            owner = sys.modules.get(f"rbx.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(attr)
                if original is None:
                    continue
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def summary(self, first: int = 0) -> dict:
        """Per-name calls, self and total seconds, and derived counts, over
        the spans recorded from index `first` on."""
        spans = self.spans
        child = [0.0] * len(spans)
        for idx in range(first, len(spans)):
            name, parent, start, end, _ = spans[idx]
            if parent >= first:
                child[parent] += end - start
        by_name: dict = {}
        for idx in range(first, len(spans)):
            name, parent, start, end, _ = spans[idx]
            calls, self_s, total_s = by_name.get(name, (0, 0.0, 0.0))
            by_name[name] = (calls + 1, self_s + (end - start) - child[idx], total_s + end - start)

        def under(idx: int, ancestor: str) -> bool:
            parent = spans[idx][1]
            while parent >= first:
                if spans[parent][0] == ancestor:
                    return True
                parent = spans[parent][1]
            return False

        def results(name: str) -> int:
            return sum(s[4] for s in spans[first:] if s[0] == name)

        checks_in_search = sum(
            1 for idx in range(first, len(spans))
            if spans[idx][0] == "rb.check_rb" and under(idx, "search.enumerate_rb")
        )
        leaves = sum(
            1 for idx in range(first, len(spans))
            if spans[idx][0] == "algebras.check_automorphism"
            and under(idx, "search.enumerate_automorphisms")
        )
        claims = {}
        for name, _, start, end, detail in spans[first:]:
            if name == "orbits.verify_claim":
                claims[detail] = claims.get(detail, 0.0) + end - start
        return {
            "by_name": by_name,
            "operators": results("search.enumerate_rb"),
            "check_rb_in_search": checks_in_search,
            "automorphisms": results("search.enumerate_automorphisms"),
            "auto_leaves": leaves,
            "claims": claims,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\tdetail\n")
            for idx, (name, parent, start, end, detail) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{'' if detail is None else detail}\n")
