#!/usr/bin/env python3
"""Line and function coverage of src/ from a --coverage build.

Configure a build with --coverage, run its tests, then:

    python3 tools/coverage_report.py BUILD_DIR

The script runs `gcov --json-format` over every .gcda file under BUILD_DIR
and merges the records per src/ source location: a header function
compiled into many objects, or the instantiations of one template, count
once, and ran if any copy ran. It prints line coverage per src/ file and
every function that never ran, and exits 1 if a never-run function is not
named in tools/coverage_allowlist.txt.

Allowlist lines read `FILE | FUNCTION | REASON`: FILE is the path under the
repository root, FUNCTION the qualified name without its parameter list (as
this report prints it), and REASON must not be empty. Lines starting with #
are comments. An entry that matches no never-run function is reported but
does not fail the run.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
ALLOWLIST = os.path.join(ROOT, "tools", "coverage_allowlist.txt")


OPERATOR_CHARS = set("<>=!+-*/%^&|~[],")


def function_key_name(demangled):
    """The qualified name without parameter lists and qualifiers, e.g.
    `ns::f::{lambda()#1}::operator()` for a lambda inside ns::f(int)."""
    name = demangled.replace("(anonymous namespace)", "{anonymous}")
    out = ""
    depth = 0
    i = 0
    while i < len(name):
        c = name[i]
        if out.endswith("operator") and (c in OPERATOR_CHARS or name.startswith("()", i)):
            if name.startswith("()", i):
                end = i + 2
            else:
                end = i
                while end < len(name) and name[end] in OPERATOR_CHARS:
                    end += 1
            out += name[i:end]
            i = end
            continue
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == "(" and depth == 0:
            # Skip the parameter list and any qualifiers up to the next scope.
            level = 0
            while i < len(name):
                level += {"(": 1, ")": -1}.get(name[i], 0)
                i += 1
                if level == 0:
                    break
            scope = name.find("::", i)
            i = len(name) if scope < 0 else scope
            continue
        out += c
        i += 1
    return out


def gcov_documents(gcda_files, build_dir):
    """Yield every JSON document gcov prints for `gcda_files`."""
    decoder = json.JSONDecoder()
    batch = 64
    for start in range(0, len(gcda_files), batch):
        chunk = gcda_files[start:start + batch]
        proc = subprocess.run(["gcov", "--json-format", "--stdout"] + chunk,
                              cwd=build_dir, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit("coverage_report: gcov failed:\n" + proc.stderr)
        text = proc.stdout
        pos = 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            doc, pos = decoder.raw_decode(text, pos)
            yield doc


def collect(build_dir):
    gcda_files = []
    for dirpath, _, names in os.walk(build_dir):
        gcda_files += [os.path.join(dirpath, n) for n in names if n.endswith(".gcda")]
    if not gcda_files:
        sys.exit("coverage_report: no .gcda files under %s (build with --coverage "
                 "and run the tests first)" % build_dir)
    lines = {}      # (file, line) -> ran
    functions = {}  # (file, line, column) -> [name, ran]
    for doc in gcov_documents(sorted(gcda_files), build_dir):
        cwd = doc.get("current_working_directory", build_dir)
        for record in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, record["file"]))
            if not path.startswith(SRC):
                continue
            rel = os.path.relpath(path, ROOT)
            for line in record["lines"]:
                key = (rel, line["line_number"])
                lines[key] = lines.get(key, False) or line["count"] > 0
            for fn in record["functions"]:
                key = (rel, fn["start_line"], fn["start_column"])
                entry = functions.setdefault(
                    key, [function_key_name(fn["demangled_name"]), False])
                entry[1] = entry[1] or fn["execution_count"] > 0
    return lines, functions


def read_allowlist(path):
    allowed = {}
    bad = []
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|", 2)]
            if len(parts) != 3 or not all(parts):
                bad.append("%s:%d: expected FILE | FUNCTION | REASON" % (path, number))
                continue
            allowed[(parts[0], parts[1])] = parts[2]
    return allowed, bad


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: coverage_report.py BUILD_DIR")
    lines, functions = collect(os.path.abspath(sys.argv[1]))
    per_file = {}
    for (rel, _), ran in lines.items():
        counts = per_file.setdefault(rel, [0, 0])
        counts[0] += ran
        counts[1] += 1
    print("%-36s %7s %7s %7s" % ("src/ file", "lines", "ran", "cover"))
    for rel in sorted(per_file):
        ran, total = per_file[rel]
        print("%-36s %7d %7d %6.1f%%" % (rel, total, ran, 100.0 * ran / total))
    ran_lines = sum(lines.values())
    print("%-36s %7d %7d %6.1f%%" % ("total", len(lines), ran_lines,
                                     100.0 * ran_lines / max(1, len(lines))))

    never = sorted((rel, line, name) for (rel, line, _), (name, ran) in functions.items()
                   if not ran)
    print("\n%d function locations, %d never ran" % (len(functions), len(never)))
    allowed, bad = read_allowlist(ALLOWLIST)
    used = set()
    failures = list(bad)
    for rel, line, name in never:
        reason = allowed.get((rel, name))
        if reason is None:
            failures.append("%s:%d: %s never ran" % (rel, line, name))
            print("  NOT ALLOWED  %s:%d  %s" % (rel, line, name))
        else:
            used.add((rel, name))
            print("  allowed      %s:%d  %s  (%s)" % (rel, line, name, reason))
    for rel, name in sorted(set(allowed) - used):
        print("  note: allowlist entry matches no never-run function: %s | %s" % (rel, name))
    if failures:
        print("\ncoverage_report: FAILED", file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
