"""Digest the result files of every CLI subcommand on every config.

    python3 tools/result_digest.py TREE

For each file in TREE/configs/*.json and each of the seven subcommands,
runs ``python3 -m microshell.cli <command> --config <file>`` with
TREE/src first on the import path, in a fresh temporary directory.  It
prints one line per run with the exit code and the sha256 of stdout and
stderr (with the tree's and the run directory's paths replaced by
placeholders), then one line per result file with its sha256.
manifest.json and run.log are left out: they hold the library version
and the wall-clock time, which no byte-identity claim covers.

Result files are a pure function of (config, seed), so the output of
two trees differs only where a change moves a result, a message or an
exit code: diff the two outputs to back a byte-identity claim.
"""

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

COMMANDS = ("validate", "solve", "classify", "rate", "sample", "bruteforce", "verify")
EXCLUDED = ("manifest.json", "run.log")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest_run(tree, config, command):
    """Digest lines of one run of `command` on `config` with TREE's code."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    tag = "%s %s" % (os.path.basename(config), command)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run(
            [sys.executable, "-m", "microshell.cli", command,
             "--config", os.path.abspath(config), "--out", out],
            cwd=tmp, env=env, capture_output=True,
        )
        streams = [
            s.replace(tmp.encode(), b"<run>").replace(tree.encode(), b"<tree>")
            for s in (proc.stdout, proc.stderr)
        ]
        lines = ["%s exit=%d stdout=%s stderr=%s" % (
            tag, proc.returncode, _sha256(streams[0]), _sha256(streams[1]))]
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        for name in names:
            if name not in EXCLUDED:
                with open(os.path.join(out, name), "rb") as fh:
                    lines.append("%s %s %s" % (tag, name, _sha256(fh.read())))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="repository checkout whose src/ and configs/ are used")
    args = parser.parse_args(argv)
    configs = sorted(glob.glob(os.path.join(args.tree, "configs", "*.json")))
    if not configs:
        parser.error("no configs/*.json under %s" % args.tree)
    for config in configs:
        for command in COMMANDS:
            print("\n".join(digest_run(args.tree, config, command)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
