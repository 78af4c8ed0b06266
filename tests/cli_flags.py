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

Every tool reads its command line through one flag table
(support/Flags.h), with one exit rule: an unknown flag or a flag missing
its value prints usage and exits 1; a refused value (a number out of
range, a name outside a fixed set, a malformed host:port) names the flag
and exits 2.

Usage: cli_flags.py <telechat> <litmus-sim> <diy-gen>
"""

import os
import resource
import signal
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


def run_file_capped(argv, limit):
    """Runs argv with regular-file writes capped at limit bytes: a write
    past the cap fails with EFBIG (SIGXFSZ is ignored). Pipes are not
    capped."""
    def cap():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=120, preexec_fn=cap)


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    telechat, litmus_sim, diy_gen = sys.argv[1], sys.argv[2], sys.argv[3]
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
        # litmus-sim single mode reads the same table as every other
        # mode: a typo'd flag or a flag missing its value is refused,
        # not silently ignored.
        expect([litmus_sim, mp, "--max-step", "1"], 1,
               "unknown option '--max-step'")
        expect([litmus_sim, mp, "--model"], 1, "usage: litmus-sim")
        expect([litmus_sim, mp, "--backend", "dpll"], 2,
               "sweep|solve|auto|explore")
        # An unknown model name is refused up front instead of aborting
        # the run ("fatal: unknown memory model").
        expect([litmus_sim, mp, "--model", "bogus"], 2, "--model expects")
        expect(camp + ["--model", "bogus"], 2, "--model expects")
        # Suite names, memory orders and limits are typed values; a bad
        # suite name no longer falls back to c11.
        expect([telechat, "--campaign", "--suite", "bogus"], 2,
               "--suite expects c11|c11acq|realworld|realworld:")
        expect([telechat, "--serve", "0", "--suite", "c11x"], 2,
               "--suite expects c11|c11acq|realworld|realworld:")
        expect([litmus_sim, "--serve", "0", "--suite", "realworld:nope"], 2,
               "--suite expects c11|c11acq|realworld|realworld:")
        expect([diy_gen, "--suite", "bogus"], 2,
               "--suite expects c11|c11acq|realworld|realworld:")
        expect([diy_gen, "--suite", "c11", "--limit", "abc"], 2, "--limit")
        expect([diy_gen, "--suite", "c11", "--limit", "2", "--bogus"], 1,
               "unknown option '--bogus'")
        expect([diy_gen, "PodWW Rfe PodRR Fre", "--load", "xyz"], 2,
               "--load expects na|rlx|acq|rel|acqrel|sc")
        expect([diy_gen, "PodWW Rfe PodRR Fre", "--load", "acq",
                "--store", "rel", "--name", "MPra"], 0, "C MPra")
        expect([diy_gen, "--suite", "realworld:spsc", "--limit", "1"], 0,
               "C rw.spsc")
        # An unknown classic is refused with the list of known ones, not
        # an abort.
        expect([diy_gen, "--classic", "NOPE"], 1, "known: MP")
        # Ports are parseNumber values in [1, 65535]: no sign, no blank.
        expect([telechat, "--work", "127.0.0.1:+80"], 2, "--work")
        expect([telechat, "--work", "127.0.0.1: 80"], 2, "--work")
        expect([telechat, "--relay", "0", "127.0.0.1:+80"], 2, "--relay")
        # The short -j takes its value attached wherever -j N works.
        expect([telechat, mp, "-j4"], 0, "verdict:")
        expect([litmus_sim, mp, "-j4"], 0, "States 3")
        expect([litmus_sim, mp, "-j-3"], 2, "-j")
        expect([telechat, "--work", "127.0.0.1:1", "-j-1"], 2, "-j")
        # Profile names are checked in the flag table like every other
        # value: one name, or in campaigns a comma list that may repeat.
        campaign = [telechat, "--campaign", "--classics"]
        expect(campaign + ["--profile", "bogus"], 2, "--profile expects")
        expect(campaign + ["--profile", "llvm-O2-AArch64,bogus"], 2,
               "--profile expects")
        expect(campaign + ["--profile", "llvm-O2-AArch64,"], 2,
               "--profile expects")
        expect(campaign + ["--profile", "llvm-O2-AArch64,gcc-O2-ARMv7",
                           "--profile", "llvm-O2-AArch64"], 2,
               "--profile expects")
        expect([telechat, "--serve", "0", "--classics", "--profile",
                "gcc-O9-ARMv7"], 2, "--profile expects")
        expect([telechat, mp, "--profile", "bogus"], 2, "--profile expects")
        expect([telechat, mp, "--profile", "llvm-O2-AArch64,gcc-O2-ARMv7"],
               2, "--profile expects one profile name")
        expect([telechat, mp, "--profile", "gcc-O2-ARMv7", "--profile",
                "llvm-O2-AArch64"], 0, "verdict:")
        # A profile list is one campaign over a config table, test-major;
        # the source side of each test is simulated once, not per profile.
        expect(campaign + ["--profile", "llvm-O2-AArch64,gcc-O2-ARMv7",
                           "--profile", "llvm-O2-x86-64", "-j", "2"], 2,
               "57 units (profiles llvm-O2-AArch64, gcc-O2-ARMv7, "
               "llvm-O2-x86-64), 2 bugs, 0 errors, 0 timeouts")
        expect(campaign + ["--profile", "llvm-O2-AArch64,gcc-O2-ARMv7",
                           "-j", "2"], 2,
               "source memo: 19 source simulations for 38 units")
        # A local campaign leases nothing: the lease-server flags are
        # unknown there instead of parsed and ignored; --serve takes them
        # (the refused --max-steps at the end proves the rest parsed).
        for flag, value in (("--bind", "1.2.3.4"), ("--batch", "3"),
                            ("--lease-timeout", "5"),
                            ("--status-port", "9")):
            expect(campaign + [flag, value], 1,
                   "unknown option '%s'" % flag)
        expect(campaign + ["--verbose"], 1, "unknown option '--verbose'")
        # Engine telemetry is lease telemetry: --serve only.
        engine_json = os.path.join(tmp, "engine.json")
        expect(campaign + ["--engine-json", engine_json], 1,
               "unknown option '--engine-json'")
        expect(serve + ["--engine-json", engine_json, "--max-steps", "0"],
               2, "--max-steps expects")
        # A journal that stops accepting appends: journaling stops, the
        # campaign JSON is still written in full, and the run exits 1
        # (not 2, though the classics hold bugs). The file cap admits the
        # journal header and fails the first result append; the JSON
        # goes to stdout, a pipe, which the cap does not cover.
        journal = os.path.join(tmp, "capped.journal")
        clean_json = os.path.join(tmp, "clean.json")
        run(camp + ["-j", "2", "--journal", journal,
                    "--campaign-json", clean_json])
        with open(journal, "rb") as f:
            header_bytes = 4 + struct.unpack("<I", f.read(4))[0]
        os.remove(journal)
        with open(clean_json) as f:
            clean = f.read()
        r = run_file_capped(camp + ["-j", "2", "--journal", journal,
                                    "--campaign-json", "/dev/stdout"],
                            header_bytes + 1)
        ok = (r.returncode == 1 and clean and clean in r.stdout and
              "journaling disabled" in r.stderr and
              os.path.getsize(journal) <= header_bytes + 1)
        print(("ok   " if ok else "FAIL ") +
              "telechat --campaign --journal <capped file> -> %d" %
              r.returncode)
        if not ok:
            failures.append("journal fault")
            print("  expected exit 1, the clean JSON and 'journaling "
                  "disabled'; stderr:\n%s" % r.stderr[-800:])
        expect(serve + ["--bind", "127.0.0.1", "--batch", "3",
                        "--lease-timeout", "5", "--status-port", "0",
                        "--verbose", "--max-steps", "0"], 2,
               "--max-steps expects")
        # diy-gen prints its usage on --help, like the other tools.
        expect([diy_gen, "--help"], 0, "usage: diy-gen",
               absent="bad cycle edge")
    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
