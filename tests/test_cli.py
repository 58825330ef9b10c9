"""Command-line interface tests (run in-process through main(), except the
console entry point and traced-launcher checks, which run subprocesses)."""

import contextlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from ntcodes import cli, codes, geometry
from ntcodes.cli import (UsageError, code_to_json, main, parse_code_dict,
                         parse_group_spec)
from ntcodes.johnson import Code, vertex_neighbours
from ntcodes.perm import PermGroup, mask_of


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a path no verb can write: its parent is not a directory
UNWRITABLE = os.path.join(os.devnull, "x.json")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---- group spec grammar -----------------------------------------------------

def test_parse_group_spec_families():
    assert parse_group_spec("sym:5").order() == 120
    assert parse_group_spec("alt:5").order() == 60
    assert parse_group_spec("wreath:3,3").order() == 1296
    assert parse_group_spec("stab:8:0,1,2,3,4").order() == 120 * 6
    assert parse_group_spec("agammal:1,16").order() == 960
    assert parse_group_spec("pgl:2,9").order() == 720
    assert parse_group_spec("psl:2,9").order() == 360
    assert parse_group_spec("pgammau:3").order() == 12096


# the oversized specs are rejected before a field, a point set or a
# permutation of that size is built
@pytest.mark.parametrize("bad", ["sym", "sym:x", "psl:3,4", "frob:5",
                                 "stab:8:0,9", "stab:8", "wreath:3",
                                 "gens:file.txt", "agl:1,6",
                                 "agl:1,1000000007", "agammal:40,2",
                                 "pgl:22,2", "pgammau:16", "sym:100000000",
                                 "alt:100000000", "wreath:2,50000000",
                                 "stab:100000000:0"])
def test_parse_group_spec_rejects(bad):
    with pytest.raises(UsageError):
        parse_group_spec(bad)


def test_gens_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("4\n(0 1 2 3)\n(0 1)\n")
    G = parse_group_spec(f"gens:@{path}")
    assert G.degree == 4 and G.order() == 24
    bad = tmp_path / "bad.txt"
    bad.write_text("(0 1)\n")
    with pytest.raises(UsageError):
        parse_group_spec(f"gens:@{bad}")
    with pytest.raises(UsageError):
        parse_group_spec(f"gens:@{tmp_path / 'missing.txt'}")
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000\n(0 1)\n")
    with pytest.raises(UsageError, match="degree 1000000000 exceeds cap"):
        parse_group_spec(f"gens:@{huge}")


# ---- JSON code files -----------------------------------------------------------

def test_code_json_roundtrip():
    code, _ = codes.build("subfield_line")
    text = code_to_json(code)
    back = parse_code_dict(json.loads(text))
    assert back.codewords == code.codewords
    assert code_to_json(back) == text  # byte-identical reconstruction


@st.composite
def _codes(draw):
    v = draw(st.integers(1, 4096), label="v")
    k = draw(st.integers(0, min(v, 12)), label="k")
    words = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=k,
                                   max_size=k, unique=True).map(mask_of),
                          min_size=1, max_size=30), label="codewords")
    name = draw(st.text(st.sampled_from('ab"\\/\n\té\u2603\U0001f600 '),
                        max_size=8), label="name")
    return Code(v, k, words, name=name)


@settings(max_examples=200, deadline=None)
@given(st.lists(_codes(), max_size=3))
def test_code_json_is_the_standard_encoding(found):
    # the writer from masks against json.dumps with indent=2, for a code
    # file and for a search result, which may be empty
    for code in found:
        assert code_to_json(code) == json.dumps(code.as_dict(),
                                                indent=2) + "\n"
    assert cli.codes_to_json(found) == json.dumps(
        [c.as_dict() for c in found], indent=2) + "\n"


@settings(max_examples=500, deadline=None)
@given(st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ufeff\uffff'
                    "\ud800\udbff\udc00\udfff\U00010000\U0001f600"
                    "\U0010ffff"),
    st.characters(exclude_categories=()))))
@example("")
@example("\ud83d\ude00")  # a surrogate pair kept as two lone surrogates
def test_json_string_is_json_dumps(s):
    # the code files' name writer, for every str: quotes, backslashes,
    # control characters, non-ASCII and astral text, lone surrogates
    assert cli._json_string(s) == json.dumps(s)


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("v"), "missing field"),
    (lambda d: d.update(k=0), "1 <= k < v"),
    (lambda d: d.update(codewords=[]), "non-empty"),
    (lambda d: d["codewords"][0].reverse(), "ascending"),
    (lambda d: d["codewords"].append(d["codewords"][0]), "duplicate"),
    (lambda d: d["codewords"].reverse(), "lexicographically"),
    (lambda d: d["codewords"][0].__setitem__(0, 99), "outside"),
])
def test_code_file_validation(mutate, message):
    code, _ = codes.build("subfield_line")
    data = json.loads(code_to_json(code))
    mutate(data)
    with pytest.raises(UsageError, match=message):
        parse_code_dict(data)


# JSON true loads as a bool, which Python counts as the integer 1; each of
# these was read as a valid code with a 1 in place of the true.
@pytest.mark.parametrize("data", [
    {"v": True, "k": 1, "codewords": [[0]]},
    {"v": 6, "k": True, "codewords": [[0], [1]]},
    {"v": 6, "k": 2, "codewords": [[0, True], [2, 3]]},
], ids=["v", "k", "codeword"])
def test_code_file_rejects_json_booleans(tmp_path, capsys, data):
    with pytest.raises(UsageError, match="integer"):
        parse_code_dict(data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    rc, _, err = run(capsys, "verify", str(path), "--group", "sym:6")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("field,value,message", [
    ("params", "x", "params must be an object"),
    ("name", 7, "name must be a string"),
])
def test_code_file_rejects_bad_metadata(tmp_path, capsys, field, value,
                                        message):
    data = {"v": 6, "k": 2, "codewords": [[0, 1]], field: value}
    with pytest.raises(UsageError, match=message):
        parse_code_dict(data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    rc, _, err = run(capsys, "verify", str(path), "--group", "sym:6")
    assert rc == 2 and "error:" in err and "Traceback" not in err


# ---- construct -----------------------------------------------------------------

def test_construct_to_file_and_reread(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc, _, _ = run(capsys, "construct", "--family", "intransitive",
                   "--v", "8", "--u", "5", "--k", "3", "-o", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["v"] == 8 and data["k"] == 3 and len(data["codewords"]) == 10
    assert data["codewords"] == sorted(data["codewords"])


def test_construct_stdout(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "j93")
    assert rc == 0
    assert json.loads(out)["v"] == 9


def test_construct_bad_params(capsys):
    rc, _, err = run(capsys, "construct", "--family", "utype",
                     "--a", "3", "--b", "2", "--line", "1", "--k", "9")
    assert rc == 2 and "error:" in err
    rc, _, _ = run(capsys, "construct", "--family", "nonsense")
    assert rc == 2
    rc, out, err = run(capsys, "construct", "--family", "j93",
                       "-o", UNWRITABLE)
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write output file:")


# values the builders accept that an older parameter text left out: prime
# powers within the point cap
@pytest.mark.parametrize("argv,shape", [
    (["unital", "--q", "2"], (9, 3, 12)),
    (["baer_subline", "--q0", "4"], (17, 5, 68))])
def test_construct_beyond_the_old_parameter_text(capsys, argv, shape):
    rc, out, err = run(capsys, "construct", "--family", *argv)
    assert (rc, err) == (0, "")
    data = json.loads(out)
    assert (data["v"], data["k"], len(data["codewords"])) == shape


# a group of degree over 4096 ended in a PermError traceback and exit 1;
# the utype call first scanned all C(5000,2) 2-subsets
@pytest.mark.parametrize("argv", [
    ["intransitive", "--v", "5000", "--u", "1", "--k", "2"],
    ["blowup", "--a", "1000", "--b", "5", "--k0", "2"],
    ["utype", "--a", "100", "--b", "50", "--line", "3", "--k", "2"],
    # the degree is checked before the line's type, which for line 2 or
    # 4 is a tuple of b entries
    ["utype", "--a", "100", "--b", "50", "--line", "1", "--k", "200"],
    # and before the code's size, here over the orbit cap too
    ["intransitive", "--v", "5000", "--u", "2500", "--k", "6"],
    ["blowup", "--a", "200", "--b", "25", "--k0", "12"]])
def test_construct_over_the_degree_cap_exits_2(capsys, argv):
    rc, out, err = run(capsys, "construct", "--family", *argv)
    assert (rc, out) == (2, "")
    assert err == "error: construct: degree 5000 exceeds cap 4096\n"


# a space over the point cap or a q that is no field is a usage error
# before the code's size, which is over the orbit cap for each of these
@pytest.mark.parametrize("argv,message", [
    (["affine_subspace", "--n", "13", "--q", "2", "--s", "6"],
     "affine space of more than 4096 points"),
    (["projective_subspace", "--n", "9", "--q", "3", "--s", "4"],
     "projective space of more than 4096 points"),
    (["affine_subspace", "--n", "9", "--q", "6", "--s", "4"],
     "6 is not a prime power"),
    (["unital", "--q", "64"],
     "hermitian_isotropic space of more than 4096 points"),
    (["baer_subline", "--q0", "1000"], "unsupported field size 1000000"),
    (["psl2_orbit", "--q", "4105"], "unsupported field size 4105")])
def test_construct_checks_the_space_before_the_size(capsys, argv, message):
    rc, out, err = run(capsys, "construct", "--family", *argv)
    assert (rc, out, err) == (2, "", f"error: construct: {message}\n")


# q0 and q are squared into the field order: q0 = -3 built the q0 = 3 code,
# and a negative q failed only at the isotropic point count
@pytest.mark.parametrize("argv,message", [
    (["construct", "--family", "baer_subline", "--q0", "-3"],
     "construct: need q0 >= 2, got q0=-3"),
    (["construct", "--family", "baer_subline", "--q0", "1"],
     "construct: need q0 >= 2, got q0=1"),
    (["construct", "--family", "unital", "--q", "-2"],
     "construct: need q >= 2, got q=-2"),
    (["construct", "--family", "unital", "--q", "0"],
     "construct: need q >= 2, got q=0"),
    (["search", "--group", "pgu:-3", "--k", "2", "--predicate",
      "code_transitive"], "group spec 'pgu:-3': need q >= 2, got q=-3"),
    (["search", "--group", "pgammau:1", "--k", "2", "--predicate",
      "code_transitive"], "group spec 'pgammau:1': need q >= 2, got q=1")])
def test_squared_parameter_below_2_exits_2(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def capped_walk(monkeypatch, cap):
    """Every PermGroup.subset_orbit walk under the given cap, with the
    build memo emptied so that each family is built again."""
    walk = PermGroup.subset_orbit
    monkeypatch.setattr(PermGroup, "subset_orbit",
                        lambda self, mask, **kw: walk(self, mask,
                                                      **{**kw, "cap": cap}))
    monkeypatch.setattr(codes, "_BUILD_CACHE", {})


@pytest.mark.parametrize("family", sorted(codes.FAMILIES))
def test_construct_walks_its_orbits_under_the_cap(capsys, monkeypatch,
                                                  family):
    # every family is built as orbits of a group; the largest catalog code
    # of each has an orbit of more than 2 members
    params = max((p for f, p in codes.CATALOG if f == family),
                 key=lambda p: len(codes.build(family, **p)[0]))
    capped_walk(monkeypatch, 2)
    argv = [f"--{name}={value}" for name, value in params.items()]
    rc, out, err = run(capsys, "construct", "--family", family, *argv)
    assert (rc, out) == (3, "")
    assert err == "resource cap exceeded: orbit exceeds cap 2\n"


# each code's size follows from its parameters, so the builder stops at
# the default cap of 10^6 with the walk's message, and builds no group
# and walks nothing; the geometric calls took from 5 s to over 300 s, and
# the blowup exited 0 with 2,704,156 codewords
@pytest.mark.parametrize("argv", [
    # 6-subsets of 33 fixed points out of 40: C(33,6) = 1,107,568
    ["intransitive", "--v", "40", "--u", "33", "--k", "6"],
    # transversal 6-sets, on 6 of 7 parts of 10 points each:
    # 10^6 * 7 = 7,000,000
    ["utype", "--a", "10", "--b", "7", "--line", "3", "--k", "6"],
    # C(24,12) = 2,704,156
    ["blowup", "--a", "2", "--b", "24", "--k0", "12"],
    # [8 4]_3 = 75,913,222 solids of PG(7,3)
    ["projective_subspace", "--n", "8", "--q", "3", "--s", "4"],
    # 2^5 * [9 4]_2 = 105,911,904
    ["affine_subspace", "--n", "9", "--q", "2", "--s", "4"],
    # 2^6 * [12 6]_2 = 14,763,161,167,040, on 4,096 points, the most the
    # degree cap allows
    ["affine_subspace", "--n", "12", "--q", "2", "--s", "6"],
    # C(234,3) / 2 = 1,054,092
    ["psl2_orbit", "--q", "233"]],
    ids=["intransitive", "utype", "blowup", "projective_subspace",
         "affine_subspace_9_2_4", "affine_subspace_12_2_6", "psl2_orbit"])
def test_construct_over_the_orbit_cap_exits_3(capsys, monkeypatch, argv):
    def refuse(*args, **kw):
        raise AssertionError("built a group or walked an orbit over the cap")

    monkeypatch.setattr(PermGroup, "subset_orbit", refuse)
    monkeypatch.setattr(geometry, "group_generators", refuse)
    monkeypatch.setattr(codes, "_BUILD_CACHE", {})
    rc, out, err = run(capsys, "construct", "--family", *argv)
    assert (rc, out) == (3, "")
    assert err == "resource cap exceeded: orbit exceeds cap 1000000\n"


# utype rewrote a k that line 5 does not give and ignored a c on any
# other line: --line 5 --c 2 --k 4 wrote the k = 6 code
@pytest.mark.parametrize("argv,message", [
    (["--line", "5", "--c", "2", "--k", "4"], "line 5 needs k = c*b, or no k"),
    (["--line", "1", "--c", "2", "--k", "2"], "line 1 takes k, not c"),
    (["--line", "3", "--c", "2", "--k", "3"], "line 3 takes k, not c")])
def test_construct_utype_rejects_a_parameter_its_line_does_not_take(
        capsys, argv, message):
    rc, out, err = run(capsys, "construct", "--family", "utype", "--a", "3",
                       "--b", "3", *argv)
    assert (rc, out, err) == (2, "", f"error: construct: {message}\n")


# ---- verify --------------------------------------------------------------------

def test_verify_pass(tmp_path, capsys):
    code, _ = codes.build("subfield_line")
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, out, _ = run(capsys, "verify", str(path), "--group", "agammal:1,16")
    assert rc == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["strongly_incidence_transitive"] is True
    assert payload["consistency_ok"] is True
    assert "consistency: pass" in out


def test_verify_report_file(tmp_path, capsys):
    code, _ = codes.build("j93")
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    report = tmp_path / "r.json"
    rc, out, _ = run(capsys, "verify", str(path), "--group", "wreath:3,3",
                     "-o", str(report))
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["code_transitive"] is False
    assert payload["neighbour_set_size"] == 54


def test_verify_group_not_preserving_code(tmp_path, capsys):
    code, _ = codes.build("unital", q=3)
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, _, err = run(capsys, "verify", str(path), "--group", "sym:28")
    assert rc == 2 and "error:" in err


def test_verify_degree_mismatch_and_missing_file(tmp_path, capsys):
    code, _ = codes.build("j93")
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, _, _ = run(capsys, "verify", str(path), "--group", "sym:10")
    assert rc == 2
    rc, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"),
                   "--group", "sym:9")
    assert rc == 2
    # the report file is written before the summary, so nothing is printed
    rc, out, err = run(capsys, "verify", str(path), "--group", "wreath:3,3",
                       "-o", UNWRITABLE)
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write output file:")


def test_verify_caps_give_none_flags(tmp_path, capsys):
    code, _ = codes.build("unital", q=4)
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, out, _ = run(capsys, "verify", str(path), "--group", "pgammau:4",
                     "--cap-partition", "100000")
    assert rc == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["completely_regular"] is None


def test_verify_orbit_cap_between_orbits(tmp_path, capsys):
    # J(12,6) under S_3 wr S_4 has orbits of 6, 216, 108, 108 and 486
    # vertices.  At --cap-partition 461, one below the 462 6-sets through
    # a point, the fill stops and the orbits are walked on demand.  At
    # --cap-orbit 300 the flags that need only the code and its neighbours
    # are decided; at 200 the walk stops at the second orbit, which the
    # neighbour flags need whole, so the call ends at the cap rather than
    # read a part-walked orbit
    code, _ = codes.build("blowup", a=3, b=4, k0=2)
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, out, err = run(capsys, "verify", str(path), "--group", "wreath:3,4",
                       "--cap-partition", "461", "--cap-orbit", "300")
    assert (rc, err) == (0, "")
    payload = json.loads(out[out.index("{"):])
    assert payload["neighbour_set_size"] == 216
    assert payload["strongly_incidence_transitive"] is True
    assert payload["completely_transitive"] is None
    assert payload["completely_regular"] is None
    rc, out, err = run(capsys, "verify", str(path), "--group", "wreath:3,4",
                       "--cap-partition", "461", "--cap-orbit", "200")
    assert (rc, out) == (3, "")
    assert err == "resource cap exceeded: orbit exceeds cap 200\n"


def _distance(code, mask):
    """The Johnson distance from mask to the code, by popcount."""
    return code.k - max((mask & c).bit_count() for c in code.codewords)


def test_verify_decides_the_unital_q4(tmp_path, capsys):
    # J(65,5) under PGammaU(3,4): at the default caps both partition flags
    # are False.  Each witness is re-checked by popcount: the two vertices
    # of the split cell lie at one distance from the code, and the second
    # is not in the first's orbit, walked here on the generators' images;
    # the two vertices of the unequal row lie in cell i and have the
    # numbers of neighbours in cell j that the witness states
    code, G = codes.build("unital", q=4)
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, out, err = run(capsys, "verify", str(path), "--group", "pgammau:4")
    assert (rc, err) == (0, "")
    payload = json.loads(out[out.index("{"):])
    assert payload["completely_transitive"] is False
    assert payload["completely_regular"] is False
    assert payload["notes"] == []
    a, b = map(int, payload["witnesses"]["completely_transitive"])
    assert _distance(code, a) == _distance(code, b)
    orbit, todo = {a}, [a]
    for x in todo:
        for g in G.generators:
            y = mask_of(g.images[p] for p in range(code.v) if x >> p & 1)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    assert b not in orbit
    i, j, a, b, count_a, count_b = map(
        int, payload["witnesses"]["completely_regular"])
    assert _distance(code, a) == _distance(code, b) == i
    assert count_a != count_b
    for x, count in ((a, count_a), (b, count_b)):
        assert sum(_distance(code, y) == j
                   for y in vertex_neighbours(x, code.v)) == count


def test_verify_decides_the_lines_of_ag53(tmp_path, capsys):
    # the 9,801 lines of AG(5,3) under AGammaL(5,3): Gamma_1 is one orbit
    # of 2,352,240 3-sets, over --cap-orbit, which the fill through a point
    # sizes without a walk, so every flag is decided at the default caps
    code, _ = codes.build("affine_subspace", n=5, q=3, s=1)
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, out, err = run(capsys, "verify", str(path), "--group", "agammal:5,3")
    assert (rc, err) == (0, "")
    payload = json.loads(out[out.index("{"):])
    assert [payload[flag] for flag in codes.PropertyReport.FLAG_ORDER] == [
        True] * 6
    assert (payload["neighbour_set_size"], payload["min_distance"]) == (
        2352240, 2)


@pytest.mark.parametrize("v,k", [(v, k) for v in (4, 5, 6)
                                 for k in (1, 2, 3)])
def test_verify_skips_consistency_on_degenerate_codes(tmp_path, capsys, v, k):
    # the full vertex set of J(v,k) is no proper code, and the implications
    # are stated for 2 <= k <= v-2, so verify gives no consistency verdict
    # on such a code and exits 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"v": v, "k": k, "name": "full", "codewords":
                                [list(c) for c in combinations(range(v), k)]}))
    for group in (f"sym:{v}", f"alt:{v}"):
        rc, out, err = run(capsys, "verify", str(path), "--group", group)
        assert (rc, err) == (0, ""), (v, k, group)
        assert out.splitlines()[3] == "consistency: skipped (degenerate code)"
        payload = json.loads(out[out.index("{"):])
        assert payload["degenerate"] is True
        assert payload["consistency_ok"] is None
        assert payload["consistency_failures"] == []


def test_verify_skips_consistency_on_a_one_point_code(tmp_path, capsys):
    # k = 1 lies outside the window too, though {0} is a proper code
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"v": 5, "k": 1, "codewords": [[0]]}))
    rc, out, _ = run(capsys, "verify", str(path), "--group", "stab:5:0")
    assert rc == 0
    assert "consistency: skipped (degenerate code)" in out
    assert json.loads(out[out.index("{"):])["consistency_ok"] is None


@pytest.mark.parametrize("option,value", [
    ("--cap-orbit", "-5"), ("--cap-orbit", "0"),
    ("--cap-partition", "0"), ("--cap-partition", "-1"),
])
def test_verify_rejects_non_positive_caps(tmp_path, capsys, option, value):
    code, _ = codes.build("subfield_line")
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    rc, out, err = run(capsys, "verify", str(path), "--group",
                       "agammal:1,16", option, value)
    assert rc == 2 and out == ""
    assert "error:" in err and "positive integer" in err


# ---- search --------------------------------------------------------------------

def test_search_wreath(tmp_path, capsys):
    out = tmp_path / "found.json"
    rc, _, _ = run(capsys, "search", "--group", "wreath:3,3", "--k", "3",
                   "--predicate", "neighbour_transitive", "--max-union", "2",
                   "-o", str(out))
    assert rc == 0
    found = json.loads(out.read_text())
    assert sorted(len(c["codewords"]) for c in found) == [3, 27]


def test_search_bad_predicate(capsys):
    rc, _, err = run(capsys, "search", "--group", "sym:6", "--k", "3",
                     "--predicate", "telepathic")
    assert rc == 2 and "predicate" in err


@pytest.mark.parametrize("extra", [["--k", "2", "--max-union", "4"],
                                   ["--k", "-1"], ["--k", "6"], ["--k", "9"],
                                   ["--k", "2", "--max-union", "0"],
                                   ["--k", "2", "--max-union", "-3"],
                                   ["--k", "2", "-o", UNWRITABLE]])
def test_search_bad_arguments_exit_2(capsys, extra):
    rc, _, err = run(capsys, "search", "--group", "sym:5",
                     "--predicate", "code_transitive", *extra)
    assert rc == 2 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("k", ["0", "5"])
def test_search_degenerate_k_is_valid(capsys, k):
    # J(5,0) and J(5,5) have one vertex, the degenerate whole vertex set
    rc, out, _ = run(capsys, "search", "--group", "sym:5", "--k", k,
                     "--predicate", "code_transitive")
    assert rc == 0 and json.loads(out) == []


@pytest.mark.parametrize("value", ["-5", "0"])
def test_search_rejects_non_positive_cap(capsys, value):
    rc, out, err = run(capsys, "search", "--group", "sym:6", "--k", "2",
                       "--predicate", "completely_regular",
                       "--cap-orbit", value)
    assert rc == 2 and out == ""
    assert "error:" in err and "positive integer" in err


# affine and projective groups of dimension n <= 0
_NO_DIMENSION = ["agl:0,3", "agammal:0,2", "pgl:0,3", "pgammal:0,2",
                 "agl:-1,2"]


@pytest.mark.parametrize("spec", _NO_DIMENSION)
def test_group_of_no_dimension_exits_2(capsys, spec):
    # n <= 0 ended in an IndexError traceback, or in Python's own message
    rc, out, err = run(capsys, "search", "--group", spec, "--k", "1",
                       "--predicate", "code_transitive")
    assert (rc, out) == (2, "")
    assert err == f"error: group spec {spec!r}: need n >= 1\n"


@pytest.mark.parametrize("spec,degree", [
    ("sym:0", 0), ("sym:-1", -1), ("alt:-3", -3), ("wreath:-1,2", -1),
    ("wreath:3,0", 0), ("wreath:2,0", 0), ("wreath:-1,-1", -1)])
def test_group_of_degree_below_1_exits_2(capsys, spec, degree):
    # the degree and the wreath parts are checked before any generator or
    # order is built: a negative one met factorial(), and wreath:a,0 a
    # point of a generator
    rc, out, err = run(capsys, "search", "--group", spec, "--k", "1",
                       "--predicate", "code_transitive")
    assert (rc, out) == (2, "")
    assert err == f"error: group spec {spec!r}: degree {degree} out of range\n"


def test_search_resource_cap(capsys):
    rc, _, err = run(capsys, "search", "--group", "sym:24", "--k", "12",
                     "--predicate", "neighbour_transitive",
                     "--cap-orbit", "1000")
    assert rc == 3 and "resource cap" in err


def test_search_over_the_union_cap_exits_3(tmp_path, capsys, monkeypatch):
    # the trivial group on 10 points has 252 orbits on 5-sets, so 2,667,378
    # unions of at most 3 of them: over the cap before any is tested
    gens = tmp_path / "g10"
    gens.write_text("10\n")

    def untested(*_):
        raise AssertionError("a union was tested")
    monkeypatch.setitem(codes.PREDICATES, "completely_regular", untested)
    rc, out, err = run(capsys, "search", "--group", f"gens:@{gens}",
                       "--k", "5", "--predicate", "completely_regular",
                       "--max-union", "3")
    assert (rc, out) == (3, "")
    assert err == ("resource cap exceeded: 2667378 unions of at most 3 of "
                   "252 orbits exceed cap 1000000\n")


# ---- catalog and argument grammar ---------------------------------------------

def test_catalog_lists_every_family(capsys):
    rc, out, _ = run(capsys, "catalog")
    assert rc == 0
    for fam, (_, params, desc) in codes.FAMILIES.items():
        assert fam in out
        assert f"  {desc}\n" in out and f"  parameters: {params}\n" in out
    # the unital's text states the point cap that its builder enforces
    assert "q a prime power, q^3+1 <= 4096 points" in out
    rc, _, err = run(capsys, "construct", "--family", "unital", "--q", "16")
    assert rc == 2 and "more than 4096 points" in err


def test_usage_exit_code_from_argparse(capsys):
    assert main(["no-such-verb"]) == 2
    assert main([]) == 2


# the grammar tests below read the verbs and options from cli.VERBS, so a
# new option is covered as soon as it is in the table

def _sample(convert):
    """A token the converter accepts, and the value it reads."""
    if isinstance(convert, tuple):
        return convert[0], convert[0]
    return ("x", "x") if convert is str else ("7", 7)


def _required_argv(verb):
    """The verb with its positionals and required options, and no other."""
    _, _, positionals, options = cli.VERBS[verb]
    argv = [verb] + ["c.json"] * len(positionals)
    for flag, (_, convert, _, required) in options.items():
        if required:
            argv += [flag, _sample(convert)[0]]
    return argv


def _usage_error(capsys, argv, message):
    # a usage error is one line on stderr, and nothing on stdout
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err, err


_OPTIONS = [(verb, flag) for verb, spec in cli.VERBS.items()
            for flag in spec[3]]


@pytest.mark.parametrize("verb,flag", _OPTIONS)
def test_every_option_in_every_form(verb, flag):
    dest, convert, _, _ = cli.VERBS[verb][3][flag]
    token, value = _sample(convert)
    forms = [[flag, token], [f"{flag}={token}"]]
    if not flag.startswith("--"):
        forms.append([flag + token])
    for form in forms:
        args = cli.parse_argv(_required_argv(verb) + form)
        assert getattr(args, dest) == value, form
        assert args.func is cli.VERBS[verb][0]


@pytest.mark.parametrize("verb,flag", [(v, f) for v, f in _OPTIONS
                                       if f.startswith("--")])
def test_unique_prefix_names_its_option(verb, flag):
    flags = [*cli.VERBS[verb][3], *cli.HELP]
    prefixes = [flag[:n] for n in range(3, len(flag))
                if [f for f in flags if f.startswith(flag[:n])] == [flag]]
    dest, convert, _, _ = cli.VERBS[verb][3][flag]
    token, value = _sample(convert)
    for prefix in prefixes:
        args = cli.parse_argv(_required_argv(verb) + [prefix, token])
        assert getattr(args, dest) == value, prefix


_AMBIGUOUS = sorted({(verb, f[:n]) for verb, spec in cli.VERBS.items()
                     for f in spec[3] for n in range(3, len(f))
                     if f[:n] not in spec[3]
                     and sum(g.startswith(f[:n]) for g in spec[3]) > 1})


def test_the_table_has_ambiguous_prefixes():
    assert ("verify", "--cap") in _AMBIGUOUS


@pytest.mark.parametrize("verb,prefix", _AMBIGUOUS)
def test_ambiguous_prefix_is_a_usage_error(capsys, verb, prefix):
    _usage_error(capsys, _required_argv(verb) + [prefix, "5"],
                 f"ambiguous option: {prefix} could match")


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_unknown_option_and_extra_positional(capsys, verb):
    _usage_error(capsys, _required_argv(verb) + ["--no-such-option"],
                 "unrecognized arguments: --no-such-option")
    _usage_error(capsys, _required_argv(verb) + ["extra"],
                 "unrecognized arguments: extra")


@pytest.mark.parametrize("verb,name", [
    (verb, name) for verb, spec in cli.VERBS.items()
    for name in [*spec[2], *(f for f, o in spec[3].items() if o[3])]])
def test_missing_required_argument(capsys, verb, name):
    argv = _required_argv(verb)
    if name.startswith("-"):
        i = argv.index(name)
        del argv[i:i + 2]
    else:
        argv.remove("c.json")
    _usage_error(capsys, argv,
                 f"the following arguments are required: {name}")


@pytest.mark.parametrize("verb,flag", [(v, f) for v, f in _OPTIONS
                                       if cli.VERBS[v][3][f][1] is cli._int])
def test_integer_options_read_as_int_does(verb, flag):
    # int() takes any Unicode decimal digits; a negative number is a value,
    # not an option, and reaches the verb's own checks
    dest = cli.VERBS[verb][3][flag][0]
    for token, value in (("\u0663", 3), ("-1", -1), ("2", 2)):
        args = cli.parse_argv(_required_argv(verb) + [flag, token])
        assert getattr(args, dest) == value


@pytest.mark.parametrize("verb", ["construct", "search"])
def test_repeated_option_last_wins(verb):
    args = cli.parse_argv(_required_argv(verb) + ["--k", "2", "--k", "3"])
    assert args.k == 3


@pytest.mark.parametrize("flag", cli.HELP)
@pytest.mark.parametrize("verb", [None, *cli.VERBS])
def test_help_names_every_option(capsys, verb, flag):
    rc, out, err = run(capsys, *([verb] if verb else []), flag)
    assert (rc, err) == (0, "")
    assert out.startswith("usage: ntcodes")
    names = list(cli.VERBS) if verb is None else cli.VERBS[verb][3]
    for name in names:
        assert name in out


# the argparse parser the table replaced, kept as the oracle of its grammar
def _argparse_parser():
    import argparse
    p = argparse.ArgumentParser(prog="ntcodes")
    sub = p.add_subparsers(dest="verb", required=True)
    pc = sub.add_parser("construct")
    pc.add_argument("--family", required=True,
                    choices=sorted(codes.FAMILIES))
    for key in ("v", "u", "k", "a", "b", "c", "line", "k0", "n", "q",
                "s", "q0"):
        pc.add_argument(f"--{key}", type=int, default=None)
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(func=cli.cmd_construct)
    pv = sub.add_parser("verify")
    pv.add_argument("code_file")
    pv.add_argument("--group", required=True)
    pv.add_argument("--cap-orbit", type=cli._positive_int, default=10 ** 6)
    pv.add_argument("--cap-partition", type=cli._positive_int,
                    default=10 ** 6)
    pv.add_argument("-o", "--output", default=None)
    pv.set_defaults(func=cli.cmd_verify)
    ps = sub.add_parser("search")
    ps.add_argument("--group", required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--predicate", required=True)
    ps.add_argument("--max-union", type=int, default=1)
    ps.add_argument("--cap-orbit", type=cli._positive_int, default=10 ** 6)
    ps.add_argument("-o", "--output", default=None)
    ps.set_defaults(func=cli.cmd_search)
    pk = sub.add_parser("catalog")
    pk.set_defaults(func=cli.cmd_catalog)
    return p


def _read_by_argparse(argv):
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        try:
            args = _argparse_parser().parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"
    return vars(args) | {"verb": None}


def _read_by_table(argv):
    try:
        args = cli.parse_argv(argv)
    except UsageError:
        return "error"
    return "help" if args.func is cli.cmd_help else vars(args) | {"verb": None}


_TOKEN = st.sampled_from(
    [flag for _, flag in _OPTIONS] + list(cli.HELP)
    + ["--fam", "--fam=j93", "--k=", "--k=3", "--cap", "--cap-p=7", "--max",
       "--pred", "--gr", "--out=f", "-ofile", "-o=f", "--he", "-hx",
       "--help=x", "--x", "-x", "--", "-", "---", "--=x",
       "j93", "unital", "sym:4", "code_transitive", "c.json", "3", "0",
       "-1", "-5", "-1.5", "-.5", "x", "", "\u0663", "-\u0663", "\u00b2",
       " 4", "-a b", "--k -1", "-o "]
    + list(cli.VERBS) + ["no-such-verb"])


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([[], *([v] for v in cli.VERBS)]),
       st.lists(_TOKEN, max_size=8))
# where argparse keeps a "--" as an unrecognized argument
@example(["catalog"], ["--"])
@example(["verify"], ["c.json", "--group", "g", "--"])
@example(["verify"], ["--group", "g", "c.json", "--"])
@example(["verify"], ["--group", "g", "--", "-c.json", "--"])
@example(["search"], ["--k", "--", "5"])
def test_table_reads_argv_as_argparse_did(verb, tokens):
    # error, help, or the same values for the same handler
    argv = verb + tokens
    assert _read_by_table(argv) == _read_by_argparse(argv), argv


# ---- fuzzed argv -----------------------------------------------------------

# small numbers, now and then malformed ones: every group they name is
# cheap to search
_MALFORMED = ["x", "", "2.5", "1e3", "0x3", "\u00b2", "\u0663"]
_NUMBER = st.sampled_from(["-1", "0"] + ["1", "2", "3", "4"] * 8
                          + _MALFORMED)
# pgu:4 acts on 65 points, whose 677,040 4-sets a search prints whole
_PGU_Q = st.sampled_from(["-1", "0"] + ["1", "2", "3"] * 8 + _MALFORMED)
_GROUP = st.one_of(
    st.just("gens:@gens.txt"),
    st.sampled_from(["sym:4", "wreath:2,2", "stab:5:0,1", "agammal:1,4",
                     "pgl:2,3", "psl:2,5", "pgu:2", "pgammau:2"]),
    st.sampled_from(["", ":", "sym", "sym:4,4", "stab:5", "stab:5:",
                     "stab:5:9", "stab:5:x", "frob:3", "psl:3,4",
                     "gens:file", "gens:@", "gens:@missing.txt"]
                    + _NO_DIMENSION),
    st.builds("{}:{}".format, st.sampled_from(["sym", "alt"]), _NUMBER),
    st.builds("pgu:{}".format, _PGU_Q),
    st.builds("{}{},{}".format,
              st.sampled_from(["wreath:", "agl:", "agammal:", "pgl:",
                               "pgammal:", "psl:"]),
              st.sampled_from(["1", "2", "x", "-1"]), _NUMBER))
_GENS_FILE = st.sampled_from(["4\n(0 1 2 3)\n(0 1)\n", "4\n(0 9)\n",
                              "\u00b2\n(0 1)\n", "x\n", "", "0\n",
                              "5000\n", "3\n(0 1)(0 2)\n", "3\n0 1\n"])
_JSON_VALUE = st.one_of(st.integers(-2, 7), st.booleans(), st.none(),
                        st.floats(allow_nan=False), st.text(max_size=3),
                        st.lists(st.integers(-1, 7), max_size=4))


@st.composite
def _code_file(draw):
    """(text, v) of a code file: all or the first k-subsets of 4 to 6
    points, sometimes with one field replaced, or text that is no code."""
    v, k = draw(st.integers(4, 6)), draw(st.integers(1, 3))
    if not draw(st.integers(0, 3)):
        return draw(st.sampled_from(["", "{", "[]", "null", "1e999",
                                     '{"v": 4}', '{"v": 4, "k": 2}'])), v
    words = [list(c) for c in combinations(range(v), k)]
    if not draw(st.integers(0, 3)):
        words = words[:draw(st.integers(1, len(words)))]
    data = {"v": v, "k": k, "name": "fuzz", "codewords": words}
    if not draw(st.integers(0, 2)):
        data[draw(st.sampled_from(["v", "k", "name", "params",
                                   "codewords"]))] = draw(st.one_of(
            _JSON_VALUE, st.lists(_JSON_VALUE, max_size=3)))
    return json.dumps(data), v


def _options(draw, names):
    argv = []
    for option in draw(st.lists(st.sampled_from(names), unique=True)):
        argv += [option, draw(_NUMBER)]
    return argv


@st.composite
def _cli_call(draw):
    """(argv, code file text, generator file text) for one CLI call."""
    verb = draw(st.sampled_from(["construct", "verify", "search"]))
    code_text, v = draw(_code_file())
    if verb == "construct":
        argv = ["--family", draw(st.sampled_from(
            ["intransitive", "utype", "blowup", "psl2_orbit",
             "baer_subline", "subfield_line", "no_such_family"]))]
        argv += _options(draw, ["--v", "--u", "--k", "--a", "--b", "--c",
                                "--line", "--k0", "--q", "--q0"])
    elif verb == "verify":
        argv = [draw(st.sampled_from(["code.json", "code.json",
                                      "missing.json"])),
                "--group", draw(_GROUP) if not draw(st.integers(0, 2))
                else draw(st.sampled_from([f"sym:{v}", f"alt:{v}",
                                           f"stab:{v}:0,1"]))]
        argv += _options(draw, ["--cap-orbit", "--cap-partition"])
    else:
        argv = ["--group", draw(_GROUP), "--k", draw(_NUMBER),
                "--predicate", draw(st.sampled_from(
                    sorted(codes.PREDICATES) + ["no_such_predicate"]))]
        argv += _options(draw, ["--max-union", "--cap-orbit"])
    if not draw(st.integers(0, 5)):
        argv.remove(draw(st.sampled_from(argv)))
    return [verb] + argv, code_text, draw(_GENS_FILE)


@settings(max_examples=300, deadline=None)
@given(_cli_call())
def test_fuzzed_argv_exits_cleanly(call):
    # whatever the arguments and files, the CLI exits 0, 1, 2 or 3 and
    # never lets an exception through
    # the file names in argv are relative to a fresh directory
    argv, code_text, gens_text = call
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("code.json", code_text), ("gens.txt", gens_text)):
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                rc = main(argv)
        finally:
            os.chdir(cwd)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err.getvalue()


def test_search_over_the_orbit_cap_exits_3():
    # the search the fuzzed groups leave out: every orbit of the 677,040
    # 4-sets is code-transitive, so the orbits to print are over the cap,
    # and members stops before any orbit is walked
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["search", "--group", "pgu:4", "--k", "4", "--predicate",
                   "code_transitive", "--cap-orbit", "100000"])
    assert rc == 3
    assert "Traceback" not in err.getvalue()


# ---- console entry point ---------------------------------------------------

def _console(argv, **kwargs):
    # python -m ntcodes.cli goes through cli.run, as the ntcodes script
    # does; stdout is block-buffered, as it is by default
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "ntcodes.cli", *argv],
                          env=env, timeout=120, **kwargs)


_CONSOLE_CALLS = {
    "catalog": ["catalog"],
    "construct": ["construct", "--family", "unital", "--q", "3"],
    "construct_to_file": ["construct", "--family", "unital", "--q", "3",
                          "-o", "{out}"],
    "verify": ["verify", "{code}", "--group", "pgammau:3"],
    # 167 KB of output, more than a pipe holds
    "search": ["search", "--group", "pgammau:3", "--k", "3",
               "--predicate", "completely_regular"],
    "usage_error": ["search", "--group", "sym:x", "--k", "2",
                    "--predicate", "code_transitive"],
    "help": ["--help"],
    "verb_help": ["verify", "-h"],
    "argument_error": ["search", "--group", "sym:4", "--k", "x"],
    "resource_cap": ["search", "--group", "sym:24", "--k", "12",
                     "--predicate", "neighbour_transitive",
                     "--cap-orbit", "1000"],
}


@pytest.mark.parametrize("name", list(_CONSOLE_CALLS))
def test_console_call_matches_main(tmp_path, capsys, name):
    # run() ends the process with os._exit: nothing written may be lost
    code = tmp_path / "unital3.json"
    code.write_text(code_to_json(codes.build("unital", q=3)[0]))

    def argv(out):
        return [a.format(code=code, out=out) for a in _CONSOLE_CALLS[name]]

    rc = main(argv(tmp_path / "main.json"))
    captured = capsys.readouterr()
    proc = _console(argv(tmp_path / "console.json"), capture_output=True)
    assert proc.returncode == rc
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()
    if "{out}" in _CONSOLE_CALLS[name]:
        assert ((tmp_path / "console.json").read_bytes()
                == (tmp_path / "main.json").read_bytes())


def test_cli_import_leaves_out_argparse():
    # importing argparse and gettext and building an argparse parser cost
    # about 7 ms of every call's start-up
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "before = set(sys.modules)\n"
         "import ntcodes.cli\n"
         "print(sorted({'argparse', 'gettext'} & set(sys.modules) - before))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    proc = _console(["--help"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ntcodes")


@pytest.mark.parametrize("argv,expected", [
    (["catalog"], set()),
    (["construct", "--family", "unital", "--q", "3"], set()),
    (["search", "--group", "pgammau:3", "--k", "4", "--predicate",
      "code_transitive"], set()),
    # json imports re, and re enum
    (["verify", "{code}", "--group", "pgammau:3"], {"json", "re", "enum"}),
])
def test_call_imports_only_what_its_verb_uses(tmp_path, argv, expected):
    # json costs about 1.7 ms and signal 0.9 ms of a call's start-up; -S
    # keeps out what the host's site module loads
    code = tmp_path / "unital3.json"
    code.write_text(code_to_json(codes.build("unital", q=3)[0]))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "ntcodes.cli",
         *(a.format(code=code) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "ntcodes.codes" in imported
    assert imported & {"json", "re", "signal", "enum"} == expected


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
@pytest.mark.parametrize("verb", ["catalog", "construct", "verify", "search"])
def test_closed_stdout_ends_by_sigpipe(tmp_path, verb):
    # like any Unix filter: killed by SIGPIPE, with nothing on stderr
    code = tmp_path / "c.json"
    code.write_text(code_to_json(codes.build("j93")[0]))
    argv = {"catalog": ["catalog"],
            "construct": ["construct", "--family", "j93"],
            "verify": ["verify", str(code), "--group", "wreath:3,3"],
            "search": ["search", "--group", "sym:5", "--k", "2",
                       "--predicate", "code_transitive"]}[verb]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _console(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert proc.stderr == b""


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
@pytest.mark.parametrize("name,argv,closed", [
    # 167 KB of output: the write fails inside main()
    ("search", ["search", "--group", "pgammau:3", "--k", "3", "--predicate",
                "completely_regular"], "stdout"),
    # the report file is written before the summary fails
    ("verify_to_file", ["verify", "{code}", "--group", "pgammau:3",
                        "-o", "{out}"], "stdout"),
    # a code file written to a gone reader is not a bad -o path
    ("construct_to_stdout", ["construct", "--family", "unital", "--q", "3",
                             "-o", "/dev/stdout"], "stdout"),
    ("usage_error", ["search", "--group", "sym:x", "--k", "2",
                     "--predicate", "code_transitive"], "stderr"),
])
def test_closed_pipe_ends_by_sigpipe(tmp_path, name, argv, closed):
    code, out = tmp_path / "unital3.json", tmp_path / "report.json"
    code.write_text(code_to_json(codes.build("unital", q=3)[0]))
    if name == "construct_to_stdout" and not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    read_end, write_end = os.pipe()
    os.close(read_end)
    other = "stderr" if closed == "stdout" else "stdout"
    try:
        proc = _console([a.format(code=code, out=out) for a in argv],
                        **{closed: write_end, other: subprocess.PIPE})
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert getattr(proc, other) == b""
    if name == "verify_to_file":
        assert json.loads(out.read_text())["consistency_ok"] is True


def test_console_script_is_run():
    # the installed ntcodes script takes the same path as python -m
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ntcodes"]
    assert target == "ntcodes.cli:run"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


# ---- benchmark tracer contract ----------------------------------------------

def test_perfbench_tracer_wraps_existing_names(tmp_path):
    # perfbench/traced_cli.py wraps functions and methods by name and
    # crashes if one is missing
    code, _ = codes.build("subfield_line")
    path = tmp_path / "c.json"
    path.write_text(code_to_json(code))
    trace = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
         str(trace), "verify", str(path), "--group", "agammal:1,16"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert {"perm.setwise_stabilizer", "codes.check_properties"} <= spans

    # AGammaL(1,16) is transitive, so subset_orbits walks only the k-sets
    # through one point, C(15, k-1) of them, under that point's
    # stabilizer, and then the members of the orbits found (the 20
    # subfield lines at k=4): the codeword stabilizers form their
    # generators during a walk that stops early, and only for an orbit
    # whose stabilizer order k(v-k) divides; at k=4 one orbit passes that
    # count, at k=3 none does.  That stabilizer, of order 960 / 20 = 48,
    # keeps only the Schreier generators that grow its group: 3 of them,
    # where keeping every distinct one gave 12
    def search(k):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
             str(trace), "search", "--group", "agammal:1,16", "--k", str(k),
             "--predicate", "strongly_incidence_transitive",
             "--max-union", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(trace.read_text())
        return {span[0] for span in traced["spans"]}, traced["counters"]

    spans, counters = search(4)
    assert "perm.setwise_stabilizer" in spans
    assert counters["perm.subset_orbit_members"] == comb(15, 3) + len(code)
    assert counters["perm.stabilizer_gens"] == 3
    spans, counters = search(3)
    assert "perm.setwise_stabilizer" not in spans
    assert counters["perm.subset_orbit_members"] == comb(15, 2)

    # the union counter wraps the PREDICATES entries, so it reads one per
    # union the search tests; the orbit quotient looks at the neighbours
    # of one representative per orbit and no other vertex
    G = parse_group_spec("stab:6:0,1")
    quotient = codes.subset_orbits(G, 2)
    orbits = quotient.members(range(len(quotient.reps)))
    unions = [c for r in (1, 2) for c in combinations(orbits, r)
              if sum(map(len, c)) < comb(6, 2)]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
         str(trace), "search", "--group", "stab:6:0,1", "--k", "2",
         "--predicate", "completely_regular", "--max-union", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(trace.read_text())["counters"]
    assert len(unions) == 6
    assert counters["codes.unions_tested"] == len(unions)
    assert counters["johnson.vertex_neighbours_calls"] == len(orbits)

    # neighbour transitivity reads the code's and Gamma_1's orbits off the
    # same quotient rows, so it too looks at one vertex per orbit
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
         str(trace), "search", "--group", "stab:6:0,1", "--k", "2",
         "--predicate", "neighbour_transitive", "--max-union", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(trace.read_text())["counters"]
    assert len(orbits) == 3
    assert counters["codes.unions_tested"] == len(unions)
    assert counters["johnson.vertex_neighbours_calls"] == len(orbits)
