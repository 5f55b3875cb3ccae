"""Build the committed item pool of the `explore` workload.

    python3 bench/explore_pool.py            # rewrites bench/data/explore.jsonl.gz

Items are sessions of 2-3 protocols on disjoint role sets, so the reachable
state graph is the product of the protocols' graphs.  Each protocol is the
characteristic processes of the projections of a projectable random global
type.  Every fourth item instead pairs the counterexample session of a
refuted pair of session types with recursion-free protocols that always end,
so the product must get stuck.

Choosing items needs mpst itself (projection, characteristic processes and
the number of reachable states), so the pool is built once and committed:
the benchmark only reads it, and a later change to mpst cannot change which
items a seed yields.  Items are drawn with (state bound x session text
length) inside a fixed band, which keeps every search far within the fuel
and gives items comparable cost.  Each line of the pool holds an item and
its state bound at build time, which the workload uses only to stratify.
"""

import gzip
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
POOL = os.path.join(HERE, "data", "explore.jsonl.gz")
POOL_SEED = 20160211
POOL_SIZE = 1200
FUEL = 10000
SAFE_WORK = (40_000, 120_000)
CX_WORK = (20_000, 80_000)
MAX_TEXT = 2_000
MAX_STATES = 400


def read_pool():
    """The pool's lines: {"item": [kind, text...], "states": bound}."""
    with gzip.open(POOL, "rt", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _build(count):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import generate as G
    from mpst import (ProjectionError, canonicalize, char_proc,
                      counterexample_session, decide, parse_global_type,
                      parse_session_type, project_all, show, step_all)
    from mpst import syntax as S

    def reachable_states(session):
        """Canonical states reachable from session, or None above
        MAX_STATES."""
        start = canonicalize(session)
        seen = {start}
        frontier = [start]
        while frontier:
            later = []
            for state in frontier:
                for _, succ in step_all(state):
                    if succ not in seen:
                        seen.add(succ)
                        if len(seen) > MAX_STATES:
                            return None
                        later.append(succ)
            frontier = later
        return len(seen)

    def sized(session):
        if len(show(session)) > MAX_TEXT:
            return None
        return reachable_states(session)

    def protocol(rng, k, allow_rec):
        roles = (f"a{k}", f"b{k}", f"c{k}")
        while True:
            g = parse_global_type(G.show_global(G.gen_global(
                rng, rng.randint(1, 3), roles=roles, allow_rec=allow_rec)))
            try:
                locals_ = project_all(g)
            except ProjectionError:
                continue
            if not locals_:
                continue
            parts = tuple((role, char_proc(lt))
                          for role, lt in locals_.items())
            size = sized(S.Session(parts))
            if size is not None:
                return parts, size

    def in_band(band, states, text_length):
        lo, hi = band
        return states <= FUEL // 2 and lo <= states * text_length <= hi

    def safe_item(rng):
        while True:
            parts, states = (), 1
            for k in range(rng.choice((2, 2, 3))):
                more, n = protocol(rng, k, True)
                parts += more
                states *= n
            text = show(S.Session(parts))
            if in_band(SAFE_WORK, states, len(text)):
                return {"item": ["safe", text], "states": states}

    def refuted_pair(rng):
        while True:
            t = parse_session_type(G.show_type(
                G.gen_type(rng, rng.randint(1, 3))))
            tp = parse_session_type(G.show_type(
                G.gen_type(rng, rng.randint(1, 3))))
            if decide(t, tp).relation != "nleq":
                continue
            cx = counterexample_session(t, tp)
            size = sized(cx)
            if size is not None:
                return t, tp, len(show(cx)), size

    def counterexample_item(rng):
        while True:
            t, tp, length, states = refuted_pair(rng)
            parts = ()
            for k in range(rng.choice((1, 1, 2))):
                more, n = protocol(rng, k, False)
                parts += more
                states *= n
            others = show(S.Session(parts))
            if in_band(CX_WORK, states, length + len(others)):
                return {"item": ["cx", show(t), show(tp), others],
                        "states": states}

    rng = random.Random(POOL_SEED)
    return [counterexample_item(rng) if i % 4 == 3 else safe_item(rng)
            for i in range(count)]


def main():
    items = _build(POOL_SIZE)
    os.makedirs(os.path.dirname(POOL), exist_ok=True)
    with open(POOL, "wb") as raw:
        # mtime=0 keeps the file byte-identical when rebuilt.
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
            for item in items:
                f.write((json.dumps(item) + "\n").encode("utf-8"))
    print(f"{len(items)} items written to {POOL}")


if __name__ == "__main__":
    main()
