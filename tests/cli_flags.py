#!/usr/bin/env python3
"""Regression tests for strict numeric command-line flags.

Every numeric flag of telechat and litmus-sim goes through one checked
parser (support/StringUtils.h parseNumber): the whole value must be one
number in range, or the tool prints an error naming the flag and exits
with status 2 before doing any work. Before that parser, `--max-steps abc`
silently became a zero budget (every unit timed out, "0 bugs", exit 0),
`-j -3` wrapped to four billion threads and died in std::bad_alloc, and
`--lease-timeout nan` was accepted.

It also pins the exit codes that keep a short-changed run from reading
as clean: a campaign in which any unit errored or timed out exits 1
(2 still wins when a bug was found), and so does a single litmus-sim
run whose step budget ran out. Removed options stay removed: they are
refused as unknown, never silently ignored.

Usage: cli_flags.py <telechat> <litmus-sim>
"""

import os
import struct
import subprocess
import sys
import tempfile

MP = """C MP
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
void P1(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\\ P1:r1=0)
"""

failures = []


def run(argv, timeout=120):
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout)


def expect(argv, code, needle=None, absent=None):
    """Runs argv; checks the exit code, that stderr+stdout holds needle,
    and that it does not hold absent."""
    r = run(argv)
    out = r.stdout + r.stderr
    ok = (r.returncode == code and (needle is None or needle in out) and
          (absent is None or absent not in out))
    label = " ".join(os.path.basename(a) if i == 0 else a
                     for i, a in enumerate(argv))
    print(("ok   " if ok else "FAIL ") + label + " -> %d" % r.returncode)
    if not ok:
        failures.append(label)
        print("  expected exit %d%s; output:\n%s" %
              (code, " and '%s'" % needle if needle else "", out[-800:]))


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    telechat, litmus_sim = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        mp = os.path.join(tmp, "mp.litmus")
        with open(mp, "w") as f:
            f.write(MP)

        camp = [telechat, "--campaign", "--classics",
                "--profile", "llvm-O2-AArch64"]
        # The silent false negative: a malformed budget must not run.
        expect(camp + ["--max-steps", "abc"], 2, "--max-steps")
        expect(camp + ["-j", "-3"], 2, "-j")
        expect(camp + ["-j", "4x"], 2, "-j")
        expect(camp + ["--limit", " 5"], 2, "--limit")
        expect(camp + ["--gen-seed", "+7"], 2, "--gen-seed")
        expect(camp + ["--max-steps", "99999999999999999999999"], 2,
               "--max-steps")
        expect(camp + ["--max-steps", "0"], 2, "--max-steps")
        # A well-formed budget too small to finish any unit: every unit
        # times out, and the campaign must not read as clean.
        expect(camp + ["--max-steps", "1"], 1, "19 timeouts")
        expect(camp + ["--max-steps", "1"], 1,
               "error: campaign incomplete: 0 errors, 19 timeouts")
        # The skeleton cache is gone; its knob is an unknown option on
        # every CLI that used to take it.
        expect(camp + ["--skel-cache", "16"], 1, "--skel-cache")
        expect([telechat, "--work", "127.0.0.1:1", "--skel-cache", "16"], 1,
               "--skel-cache")
        expect([litmus_sim, "--work", "127.0.0.1:1", "--skel-cache", "16"],
               1, "--skel-cache")
        # A journal written by an older build (layout version 5) is
        # refused on resume, naming both versions.
        old_journal = os.path.join(tmp, "v5.journal")
        header = struct.pack("<IH", 0x4C4A4354, 5)
        with open(old_journal, "wb") as f:
            f.write(struct.pack("<IB", len(header) + 1, 1) + header)
        expect([telechat, "--campaign", "--resume", "--journal", old_journal],
               1, "journal version mismatch: file 5, reader ")
        # Server knobs are refused before anything binds.
        serve = [telechat, "--serve", "0", "--classics",
                 "--profile", "llvm-O2-AArch64"]
        expect(serve + ["--lease-timeout", "nan"], 2, "--lease-timeout")
        expect(serve + ["--lease-timeout", "inf"], 2, "--lease-timeout")
        expect(serve + ["--lease-timeout", "-1"], 2, "--lease-timeout")
        expect(serve + ["--status-port", "70000"], 2, "--status-port")
        expect(serve + ["--batch", "1.5"], 2, "--batch")
        expect([telechat, "--serve", "http", "--classics"], 2, "--serve")
        expect([telechat, "--work", "127.0.0.1:1", "-j", "-1"], 2, "-j")
        expect([telechat, "--work", "127.0.0.1:1", "--max-units", "x"], 2,
               "--max-units")
        expect([telechat, "--relay", "0", "127.0.0.1:1",
                "--lease-timeout", "nan"], 2, "--lease-timeout")
        expect([telechat, "--relay", "-5", "127.0.0.1:1"], 2, "--relay")
        # --serve and --relay read their downstream flags through one
        # parser: a zero batch cap (every GetWork answered with Wait) is
        # refused, not floored to 1, and a flag missing its value prints
        # usage instead of reading as an unknown option.
        expect(serve + ["--batch", "0"], 2, "--batch")
        expect([telechat, "--relay", "0", "127.0.0.1:1", "--batch", "0"], 2,
               "--batch")
        expect([litmus_sim, "--relay", "0", "127.0.0.1:1", "--batch", "0"],
               2, "--batch")
        expect([telechat, "--relay", "0", "127.0.0.1:1", "--bind"], 1,
               "usage: telechat", absent="unknown option")
        expect([telechat, "--relay", "0", "127.0.0.1:1",
                "--status-port", "70000"], 2, "--status-port")
        # Server-only flags stay unknown to the relay.
        expect([telechat, "--relay", "0", "127.0.0.1:1", "--dedupe"], 1,
               "unknown option '--dedupe'")
        # Single-test mode.
        expect([telechat, mp, "--max-steps", "abc"], 2, "--max-steps")
        expect([telechat, mp, "-j", "-3"], 2, "-j")
        expect([telechat, mp, "--fuzz-seed", "0x"], 2, "--fuzz-seed")
        # litmus-sim.
        expect([litmus_sim, "--help"], 0, "usage: litmus-sim")
        expect([litmus_sim, mp, "-j", "-3"], 2, "-j")
        expect([litmus_sim, mp, "--max-steps", "1e3"], 2, "--max-steps")
        expect([litmus_sim, mp, "--explore-seed", "seven"], 2,
               "--explore-seed")
        # An exhausted budget is not an answer.
        expect([litmus_sim, mp, "--max-steps", "1"], 1,
               "TIMEOUT (budget exhausted)")
        # Well-formed values still work, in every notation parseNumber
        # accepts (decimal, 0x hex).
        expect([litmus_sim, mp, "-j", "2", "--max-steps", "0x1000"], 0,
               "States 3")
        expect([telechat, mp, "-j", "1", "--max-steps", "100000"], 0)
        # The same campaign with a valid budget finds the LB bug (exit 2
        # meaning "bug found", told apart from a refusal by its summary).
        expect(camp + ["--max-steps", "2000000", "-j", "2"], 2,
               "1 bugs, 0 errors, 0 timeouts")
    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
