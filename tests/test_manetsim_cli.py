#!/usr/bin/env python3
"""manetsim's front door: --help prints usage and exits 0; an unknown or
malformed flag prints the parse error and exits 2 (a usage error, never an
abort).

usage: test_manetsim_cli.py PATH_TO_MANETSIM
"""
import subprocess
import sys


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=60)


def main():
    binary = sys.argv[1]
    failures = []
    checks = 0

    def expect(args, code, stream, needle):
        nonlocal checks
        checks += 1
        r = run(binary, *args)
        text = r.stdout if stream == "stdout" else r.stderr
        if r.returncode != code:
            failures.append(f"{args}: exit {r.returncode}, want {code}\n"
                            f"stderr: {r.stderr.strip()}")
        elif needle not in text:
            failures.append(f"{args}: {stream} lacks {needle!r}:\n{text}")

    expect(["--help"], 0, "stdout", "usage: manetsim")
    expect(["--nodes=abc"], 2, "stderr", "--nodes expects an integer, got 'abc'")
    expect(["--speed", "fast"], 2, "stderr", "--speed expects a number")
    expect(["--compare=maybe"], 2, "stderr", "--compare expects a boolean")
    expect(["--no-such-flag"], 2, "stderr", "no-such-flag")
    expect(["--scrub-cache", "--cache-dir", "x", "--bogus"], 2, "stderr",
           "bogus")

    for f in failures:
        print("FAIL", f)
    print(f"{checks - len(failures)}/{checks} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
