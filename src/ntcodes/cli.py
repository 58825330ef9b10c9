"""Command-line front end.

Verbs:
  construct  build a catalog family and write its JSON code file
  verify     check all properties of a (code file, group) pair
  search     exhaustive union-of-orbits classification search
  catalog    list the construction families

Exit codes:
  0     success, no findings
  1     verification findings (a structural consistency check failed)
  2     usage errors (bad parameters, malformed files, an unwritable -o path)
  3     resource-cap aborts
  -13   killed by SIGPIPE: standard output or standard error was closed by
        its reader (141 in a shell); only through run(), the console entry
        point

Arguments are read by one table, VERBS, which gives each verb its handler,
positionals and options; the -h/--help text comes from the same table. The
grammar is argparse's: --opt value or --opt=value, -o or --output, a long
option shortened to a unique prefix, the last of a repeated option, and a
token that starts with '-' taken as a value only if it is a negative
number. A usage error prints one line, "error: ...", on stderr.

main() is the in-process API and returns the exit code; run() is the
console entry point, which ends the process with that code.

A call imports only what its verb uses: json is imported by verify alone,
where it reads the code file and writes the report; construct and search
write their code files by hand. signal is imported only once a write to a
gone reader has failed, and re only to read a token that may be a negative
number or a gens:@file.
"""

import os
import sys
from types import SimpleNamespace

from . import codes as codes_mod
from . import geometry
from .gf import FieldError
from .johnson import DEFAULT_PARTITION_CAP, Code, JohnsonError
from .perm import (DEFAULT_ORBIT_CAP, PermError, PermGroup, Permutation,
                   ResourceCapError, bits, mask_of)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


# ---- group spec grammar ------------------------------------------------------

def parse_group_spec(spec):
    """Build a PermGroup from a spec string.

    Grammar: sym:n | alt:n | wreath:a,b | stab:v:i1,i2,... | agl:n,q |
    agammal:n,q | pgl:n,q | pgammal:n,q | psl:2,q | pgu:q | pgammau:q |
    gens:@file (first line = degree, then one permutation per line in
    cycle notation).
    """
    head, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"malformed group spec {spec!r} (missing ':')")

    def ints(text, n):
        parts = text.split(",")
        if len(parts) != n or not all(p.strip().lstrip("-").isdigit()
                                      for p in parts):
            raise UsageError(
                f"group spec {spec!r}: expected {n} integer parameter(s)")
        return [int(p) for p in parts]

    try:
        if head == "sym":
            return PermGroup.symmetric(ints(rest, 1)[0])
        if head == "alt":
            return PermGroup.alternating(ints(rest, 1)[0])
        if head == "wreath":
            a, b = ints(rest, 2)
            return geometry.wreath_stabilizer(a, b)
        if head == "stab":
            vpart, sep2, subset = rest.partition(":")
            if not sep2:
                raise UsageError(
                    f"group spec {spec!r}: use stab:v:i1,i2,...")
            v = ints(vpart, 1)[0]
            pts = [int(p) for p in subset.split(",") if p.strip()]
            if not pts or any(not 0 <= p < v for p in pts):
                raise UsageError(
                    f"group spec {spec!r}: subset points must lie in 0..{v-1}")
            return geometry.subset_stabilizer(v, pts)
        if head in ("agl", "agammal", "pgl", "pgammal"):
            n, q = ints(rest, 2)
            return geometry.group_generators(head, n=n, q=q)
        if head == "psl":
            n, q = ints(rest, 2)
            if n != 2:
                raise UsageError("only psl:2,q is supported")
            return geometry.group_generators("psl2", q=q)
        if head in ("pgu", "pgammau"):
            return geometry.group_generators(head, q=ints(rest, 1)[0])
        if head == "gens":
            if not rest.startswith("@"):
                raise UsageError("gens spec must be gens:@file")
            return _read_generators(rest[1:])
    except (PermError, FieldError, geometry.GeometryError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"group spec {spec!r}: {exc}")
    raise UsageError(f"unknown group family in spec {spec!r}")


def _read_generators(path):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read generator file: {exc}")
    if not lines or not lines[0].isdigit():
        raise UsageError(
            "generator file must start with the degree on its own line")
    degree = int(lines[0])
    try:
        gens = [Permutation.parse(ln, degree) for ln in lines[1:]]
    except PermError as exc:
        raise UsageError(f"generator file: {exc}")
    return PermGroup(degree, gens)


# ---- JSON code files ---------------------------------------------------------

_JSON_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f",
                 "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_string(s):
    """json.dumps(s) for a str s, without importing json: printable ASCII
    as itself, the short escapes, and every other character as \\uXXXX, a
    surrogate pair above U+FFFF (CPython's py_encode_basestring_ascii)."""
    out = []
    for c in s:
        if c in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[c])
        elif " " <= c <= "~":
            out.append(c)
        else:
            n = ord(c)
            if n > 0xFFFF:
                n -= 0x10000
                out.append(f"\\u{0xD800 | n >> 10:04x}")
                n = 0xDC00 | n & 0x3FF
            out.append(f"\\u{n:04x}")
    return '"' + "".join(out) + '"'


def _code_json(code, indent):
    """json.dumps(code.as_dict(), indent=2) for an object that opens at
    the given indent, written from the masks: each codeword's points
    ascending, and the codewords sorted as point lists.  The standard
    encoder runs in pure Python when it indents, at about twice the time."""
    i1, i2 = indent + "  ", indent + "    "
    item = [f",\n{i2}  {x}" for x in range(code.v)]
    words = [f"[{''.join(map(item.__getitem__, w))[1:]}\n{i2}]" if w else "[]"
             for w in sorted(map(tuple, map(bits, code.codewords)))]
    return (f'{{\n{i1}"v": {code.v},\n{i1}"k": {code.k},\n{i1}"name": '
            f'{_json_string(code.name)},\n{i1}"codewords": [\n{i2}'
            + f",\n{i2}".join(words) + f"\n{i1}]\n{indent}}}")


def code_to_json(code):
    """A code file: json.dumps(code.as_dict(), indent=2) and a newline."""
    return _code_json(code, "") + "\n"


def codes_to_json(codes):
    """json.dumps([c.as_dict() for c in codes], indent=2) and a newline."""
    if not codes:
        return "[]\n"
    return "[\n  " + ",\n  ".join(_code_json(c, "  ") for c in codes) + "\n]\n"


def parse_code_file(path):
    import json
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read code file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")
    return parse_code_dict(data)


def _is_int(x):
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def parse_code_dict(data):
    if not isinstance(data, dict):
        raise UsageError("code file: top level must be an object")
    for field in ("v", "k", "codewords"):
        if field not in data:
            raise UsageError(f"code file: missing field {field!r}")
    v, k = data["v"], data["k"]
    if not (_is_int(v) and _is_int(k) and 1 <= k < v):
        raise UsageError("code file: need integers 1 <= k < v")
    words = data["codewords"]
    if not isinstance(words, list) or not words:
        raise UsageError("code file: codewords must be a non-empty array")
    masks = []
    for i, w in enumerate(words):
        loc = f"codewords[{i}]"
        if (not isinstance(w, list) or len(w) != k
                or not all(_is_int(x) for x in w)):
            raise UsageError(f"code file: {loc} must be a list of {k} integers")
        if any(not 0 <= x < v for x in w):
            raise UsageError(f"code file: {loc} has an index outside 0..{v-1}")
        if any(w[j] >= w[j + 1] for j in range(k - 1)):
            raise UsageError(f"code file: {loc} is not strictly ascending")
        masks.append(mask_of(w))
    if len(set(masks)) != len(masks):
        raise UsageError("code file: duplicate codeword")
    if any(words[j] > words[j + 1] for j in range(len(words) - 1)):
        raise UsageError("code file: codewords are not sorted lexicographically")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise UsageError("code file: name must be a string")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise UsageError("code file: params must be an object")
    return Code(v, k, masks, name=name, params=params)


# ---- verbs -------------------------------------------------------------------

def _write_output(text, path):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except BrokenPipeError:
            raise  # a gone reader, not a bad path: run() ends by SIGPIPE
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)


CONSTRUCT_PARAMS = ("v", "u", "k", "a", "b", "c", "line", "k0", "n", "q",
                    "s", "q0")


def cmd_construct(args):
    params = {}
    for key in CONSTRUCT_PARAMS:
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    try:
        code, _ = codes_mod.build(args.family, **params)
    except (codes_mod.ConstructionError, TypeError, FieldError,
            geometry.GeometryError, JohnsonError, PermError) as exc:
        raise UsageError(f"construct: {exc}")
    _write_output(code_to_json(code), args.output)
    return EXIT_OK


def cmd_verify(args):
    code = parse_code_file(args.code_file)
    G = parse_group_spec(args.group)
    if G.degree != code.v:
        raise UsageError(
            f"group degree {G.degree} does not match code ground set {code.v}")
    try:
        report = codes_mod.check_properties(
            code, G, cap_orbit=args.cap_orbit, cap_partition=args.cap_partition)
    except ValueError as exc:
        raise UsageError(str(exc))
    # the implications are stated for proper codes with 2 <= k <= v-2, so a
    # degenerate code is not checked against them: passed is then None
    passed, failures = None, []
    if not code.degenerate:
        passed, failures = codes_mod.check_theorem_consistency(code,
                                                               report=report)
    summary = _summarize(report, passed, failures)
    payload = report.as_dict()
    payload["consistency_ok"] = passed
    payload["consistency_failures"] = failures
    import json
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        # the report file first, so that an unwritable path prints nothing
        _write_output(text, args.output)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(summary)
        sys.stdout.write(text)
    return EXIT_FINDINGS if passed is False else EXIT_OK


def _summarize(report, passed, failures):
    lines = [
        f"code {report.code.name or '(unnamed)'}: v={report.code.v} "
        f"k={report.code.k} |code|={len(report.code)} "
        f"|neighbours|={report.gamma1_size} "
        f"min_distance={report.delta}",
        f"group order {report.group_order}; "
        f"transitive={report.group_facts['transitive_on_V']} "
        f"primitive={report.group_facts['primitive_on_V']} "
        f"2-transitive={report.group_facts['two_transitive_on_V']}",
    ]
    flagtext = " ".join(
        f"{name}={report.flags[name]}" for name in report.FLAG_ORDER)
    lines.append(flagtext)
    for note in report.notes:
        lines.append(f"note: {note}")
    if passed is None:
        lines.append("consistency: skipped (degenerate code)")
    else:
        lines.append("consistency: " + (
            "pass" if passed else "FAIL (" + "; ".join(failures) + ")"))
    return "\n".join(lines) + "\n"


def cmd_search(args):
    G = parse_group_spec(args.group)
    if args.predicate not in codes_mod.PREDICATES:
        raise UsageError(
            f"unknown predicate {args.predicate!r}; choose from "
            + ", ".join(sorted(codes_mod.PREDICATES)))
    try:
        found = codes_mod.classify_search(
            G, args.k, args.predicate, max_union=args.max_union,
            cap=args.cap_orbit)
    except ValueError as exc:
        raise UsageError(f"search: {exc}")
    _write_output(codes_to_json(found), args.output)
    return EXIT_OK


def cmd_catalog(_args):
    width = max(map(len, codes_mod.FAMILIES))
    for fam, (_, params, desc) in codes_mod.FAMILIES.items():
        sys.stdout.write(f"{fam:<{width}}  {desc}\n")
        sys.stdout.write(f"{'':<{width}}  parameters: {params}\n")
    return EXIT_OK


# ---- argument grammar --------------------------------------------------------

def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _positive_int(text):
    # the caps; a cap below 1 is a usage error
    value = _int(text)
    if value <= 0:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


_GROUP = ("group", str, None, True)
_CAP_ORBIT = ("cap_orbit", _positive_int, DEFAULT_ORBIT_CAP, False)
_OUTPUT = ("output", str, None, False)

# verb -> (handler, summary, positionals, options); each option is
# flag -> (dest, converter, default, required), where a converter that is
# a tuple lists the values the option accepts
VERBS = {
    "construct": (cmd_construct, "build a catalog code", (), {
        "--family": ("family", tuple(sorted(codes_mod.FAMILIES)), None, True),
        **{f"--{key}": (key, _int, None, False) for key in CONSTRUCT_PARAMS},
        "-o": _OUTPUT, "--output": _OUTPUT}),
    "verify": (cmd_verify, "verify a (code file, group) pair",
               ("code_file",), {
        "--group": _GROUP,
        "--cap-orbit": _CAP_ORBIT,
        "--cap-partition": ("cap_partition", _positive_int,
                            DEFAULT_PARTITION_CAP, False),
        "-o": _OUTPUT, "--output": _OUTPUT}),
    "search": (cmd_search, "union-of-orbits classification search", (), {
        "--group": _GROUP,
        "--k": ("k", _int, None, True),
        "--predicate": ("predicate", str, None, True),
        "--max-union": ("max_union", _int, 1, False),
        "--cap-orbit": _CAP_ORBIT,
        "-o": _OUTPUT, "--output": _OUTPUT}),
    "catalog": (cmd_catalog, "list construction families", (), {}),
}

HELP = ("-h", "--help")


def _option(token, flags):
    """argparse's reading of one token against the flags it may name.

    None for a value or a positional; else (flag, attached value or None),
    with flag None for an unknown option. A long option may be shortened to
    a unique prefix and carry its value after '='; a short one carries it
    after '=' or directly ("-ofile").
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token.startswith("--"):
        hits = [(f, value if eq else None) for f in flags
                if f.startswith(name)]
    else:
        hits = [(f, token[2:] if f == token[:2] else None) for f in flags
                if f == token[:2] or f.startswith(token)]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         + ", ".join(f for f, _ in hits))
    if hits:
        return hits[0]
    # argparse's negative-number pattern; re is imported only here, for a
    # token that starts with '-' and names no flag
    import re
    if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:
        return None
    return None, token


def _help(verb):
    """The -h text of a verb, or of the program when verb is None."""
    if verb is None:
        head = ["usage: ntcodes [-h] {" + ",".join(VERBS) + "} ...", "",
                "Construct and verify highly symmetric codes in Johnson "
                "graphs J(v,k).", "", "verbs:"]
        rows = [(name, spec[1]) for name, spec in VERBS.items()]
    else:
        _, summary, positionals, options = VERBS[verb]
        names = {}
        for flag, spec in options.items():
            names.setdefault(spec, []).append(flag)
        usage = ["usage: ntcodes", verb, "[-h]", *map(str.upper, positionals)]
        rows = [("-h, --help", "show this help message and exit")]
        for (dest, convert, default, required), flags in names.items():
            option = f"{flags[0]} {dest.upper()}"
            usage.append(option if required else f"[{option}]")
            text = ("required" if required else
                    "" if default is None else f"default {default}")
            if isinstance(convert, tuple):
                text += "; one of: " + ", ".join(convert)
            rows.append((", ".join(flags) + " " + dest.upper(), text))
        head = [" ".join(usage), "", summary, "", "options:"]
    width = max(len(left) for left, _ in rows)
    lines = head + [f"  {left:<{width}}  {text}".rstrip()
                    for left, text in rows]
    return "\n".join(lines) + "\n"


def cmd_help(args):
    sys.stdout.write(_help(args.verb))
    return EXIT_OK


def _asks_help(verb, value):
    # -h/--help, which takes no value
    if value is not None:
        raise UsageError(
            f"argument -h/--help: ignored explicit argument {value!r}")
    return SimpleNamespace(func=cmd_help, verb=verb)


def parse_argv(argv):
    """Read argv by the VERBS table into a namespace that holds the verb's
    dests and func, the function that runs it: the verb's handler, or
    cmd_help when -h or --help was given. Raises UsageError."""
    argv, extra = list(argv), []
    for i, verb in enumerate(argv):
        hit = None if verb == "--" else _option(verb, HELP)
        if hit is None:
            break
        if hit[0] is None:
            extra.append(verb)
        else:
            return _asks_help(None, hit[1])
    else:
        raise UsageError("the following arguments are required: verb")
    if verb not in VERBS:
        raise UsageError(f"argument verb: invalid choice: {verb!r} "
                         f"(choose from {', '.join(VERBS)})")
    func, _, positionals, options = VERBS[verb]
    args = SimpleNamespace(func=func)
    for dest, _, default, _ in options.values():
        setattr(args, dest, default)
    # every token is read before any is used, as argparse does, so an
    # ambiguous option is an error wherever it stands; the first "--" is
    # read as False, and every token after it as a positional
    flags, read = (*options, *HELP), []
    for j, token in enumerate(argv[i + 1:]):
        if token == "--":
            read += [(token, False)] + [(t, None) for t in argv[i + j + 2:]]
            break
        read.append((token, _option(token, flags)))
    tokens, given, values = iter(read), set(), []
    filled = False  # the last token read filled the last positional
    for token, hit in tokens:
        if hit is False:
            # argparse drops the "--" while a positional is still open or
            # right after the token that fills the last one; elsewhere it
            # is an unrecognized argument
            if len(values) == len(positionals) and not filled:
                extra.append(token)
            continue
        filled = False
        if hit is None:
            if len(values) < len(positionals):
                values.append(token)
                filled = len(values) == len(positionals)
            else:
                extra.append(token)
            continue
        flag, value = hit
        if flag is None:
            extra.append(token)
            continue
        if flag in HELP:
            return _asks_help(verb, value)
        dest, convert, _, _ = options[flag]
        if value is None:
            value, hit = next(tokens, (None, True))
            if hit is not None:
                raise UsageError(f"argument {flag}: expected one argument")
        if isinstance(convert, tuple):
            if value not in convert:
                raise UsageError(
                    f"argument {flag}: invalid choice: {value!r} (choose "
                    f"from {', '.join(convert)})")
        else:
            try:
                value = convert(value)
            except ValueError as exc:
                raise UsageError(f"argument {flag}: {exc}") from None
        setattr(args, dest, value)
        given.add(dest)
    missing = list(positionals[len(values):]) + [
        flag for flag, (dest, _, _, required) in options.items()
        if required and dest not in given]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    if extra:
        raise UsageError("unrecognized arguments: " + " ".join(extra))
    for name, value in zip(positionals, values):
        setattr(args, name, value)
    return args


def main(argv=None):
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap exceeded: {exc}\n")
        return EXIT_RESOURCE


def run(argv=None):
    """Console entry point: main(argv), then end the process at once.

    Flushes sys.stdout and sys.stderr and ends with os._exit, so the
    process skips interpreter teardown (freeing its objects and modules),
    a sizeable share of a short call's wall time. No other buffer is
    flushed: every file a verb writes is closed by ``with`` before main()
    returns, and a verb that left one open would lose its tail.

    An exception that escapes main() ends the process the ordinary way,
    with its traceback. A call whose stdout or stderr reader has gone ends
    like any Unix filter: silently, killed by SIGPIPE. Python starts with
    SIGPIPE ignored, so such a write raises BrokenPipeError, from main() or
    from the flushes here; only then is signal imported, SIGPIPE's default
    action restored and the signal sent to this process.
    """
    try:
        rc = main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        import signal
        if not hasattr(signal, "SIGPIPE"):
            raise
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGPIPE)
        raise
    os._exit(rc)


if __name__ == "__main__":
    run()
