"""Traced launcher: ``python perfbench/traced_cli.py TRACE_OUT VERB ARGS...``

Imports ``ntcodes.cli``, wraps the public functions of ``gf``, ``geometry``,
``perm``, ``johnson``, ``codes`` and ``cli`` with spans and counters, then
runs ``ntcodes.cli.main`` on the remaining arguments.  The program's source
is untouched: each function is replaced at every module attribute through
which callers reach it (``codes`` imports ``neighbour_set`` by name, so it
is replaced there as well as in ``johnson``).

Spans (name, start, end, parent index) and counters stay in memory and are
written to TRACE_OUT as JSON when the process exits.  Hot functions
(``Permutation.apply_mask``, ``vertex_neighbours``) get counters only.
"""

import functools
import json
import sys
import time

SPANS = []           # [name, start, end, parent index or -1]
COUNTERS = {}
_stack = [-1]
_clock = time.perf_counter


def count(name, n=1):
    COUNTERS[name] = COUNTERS.get(name, 0) + n


def spanned(name, fn, on_result=None):
    """fn wrapped in a span; on_result(args, result) may bump counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(SPANS)
        SPANS.append([name, _clock(), None, _stack[-1]])
        _stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            _stack.pop()
            SPANS[idx][2] = _clock()
        if on_result is not None:
            on_result(args, result)
        return result
    return wrapper


def counted(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        COUNTERS[name] = COUNTERS.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def replace_everywhere(modules, original, wrapper):
    """Point every module attribute that holds original at wrapper."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)


def install(modules):
    gf, geometry, perm, johnson, codes, cli = (
        modules[m] for m in ("gf", "geometry", "perm", "johnson", "codes",
                             "cli"))
    mods = list(modules.values())

    def wrap_function(mod, fname, span, on_result=None):
        original = getattr(mod, fname)
        replace_everywhere(mods, original,
                           spanned(span, original, on_result))

    def gens_of(pos):
        """Count the generators of the group passed at argument pos."""
        return lambda args, _result: count("perm.group_gens",
                                           len(args[pos].generators))
    group_gens = gens_of(0)

    # gf: GF is lru-cached; fields built = cache misses, read at exit.
    wrap_function(gf, "GF", "gf.GF")

    # geometry
    for fname in ("group_generators", "wreath_stabilizer",
                  "subset_stabilizer"):
        wrap_function(geometry, fname, "geometry.group_generators")
    wrap_function(geometry, "build_space", "geometry.build_space")
    wrap_function(geometry, "restrict_group", "geometry.restrict_group")

    # perm: methods are reached through the classes.
    PermGroup = perm.PermGroup

    def wrap_method(cls, mname, span, on_result):
        setattr(cls, mname, spanned(span, getattr(cls, mname), on_result))

    def orbit_members(args, result):
        group_gens(args, result)
        count("perm.subset_orbit_members", len(result))

    def stabilizer_gens(args, result):
        group_gens(args, result)
        count("perm.stabilizer_gens", len(result.generators))

    wrap_method(PermGroup, "bsgs", "perm.bsgs", group_gens)
    wrap_method(PermGroup, "subset_orbit", "perm.subset_orbit",
                orbit_members)
    wrap_method(PermGroup, "setwise_stabilizer", "perm.setwise_stabilizer",
                stabilizer_gens)
    wrap_method(PermGroup, "point_stabilizer", "perm.point_stabilizer",
                stabilizer_gens)
    for mname in ("is_transitive", "is_transitive_on",
                  "is_transitive_on_product", "primitivity",
                  "is_2transitive"):
        wrap_method(PermGroup, mname, "perm.transitivity", group_gens)

    elements = PermGroup.elements

    def counted_elements(self, *args, **kwargs):
        for g in elements(self, *args, **kwargs):
            COUNTERS["perm.elements"] = COUNTERS.get("perm.elements", 0) + 1
            yield g
    PermGroup.elements = counted_elements
    perm.Permutation.apply_mask = counted(
        "perm.apply_mask_calls", perm.Permutation.apply_mask)

    # johnson
    wrap_function(johnson, "neighbour_set", "johnson.neighbour_set")
    wrap_function(johnson, "min_distance", "johnson.min_distance")
    wrap_function(johnson, "distance_partition", "johnson.distance_partition",
                  lambda _a, part: count("johnson.partition_vertices",
                                         sum(len(c) for c in part.cells)))
    wrap_function(johnson, "is_completely_regular",
                  "johnson.is_completely_regular")
    replace_everywhere(mods, johnson.vertex_neighbours,
                       counted("johnson.vertex_neighbours_calls",
                               johnson.vertex_neighbours))

    # codes
    wrap_function(codes, "build", "codes.build")
    wrap_function(codes, "check_properties", "codes.check_properties",
                  gens_of(1))
    wrap_function(codes, "check_theorem_consistency", "codes.consistency")
    wrap_function(codes, "subset_orbits", "codes.subset_orbits")

    def search_result(args, found):
        group_gens(args, found)
        count("codes.codes_found", len(found))

    wrap_function(codes, "classify_search", "codes.classify_search",
                  search_result)
    for pname, pred in list(codes.PREDICATES.items()):
        codes.PREDICATES[pname] = counted("codes.unions_tested", pred)

    # cli
    for fname in ("parse_code_file", "parse_group_spec", "code_to_json"):
        wrap_function(cli, fname, f"cli.{fname}")
    cli.main = spanned("cli.main", cli.main)


def main(argv):
    trace_out, cli_argv = argv[0], argv[1:]
    t0 = _clock()
    import ntcodes.cli
    from ntcodes import codes, geometry, gf, johnson, perm
    SPANS.append(["cli.import", t0, _clock(), -1])
    fields = gf.GF
    install({"gf": gf, "geometry": geometry, "perm": perm,
             "johnson": johnson, "codes": codes, "cli": ntcodes.cli})
    try:
        return ntcodes.cli.main(cli_argv)
    finally:
        COUNTERS["gf.fields"] = fields.cache_info().misses
        with open(trace_out, "w") as fh:
            json.dump({"spans": SPANS, "counters": COUNTERS}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
