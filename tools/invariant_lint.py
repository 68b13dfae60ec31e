#!/usr/bin/env python3
"""Invariant linter: greppable architectural rules the type system cannot see.

The Clang thread-safety annotations (util/annotations.hpp) prove the lock
discipline and [[clang::lifetimebound]] proves the borrow lifetimes, but a
handful of this codebase's invariants live above the type system -- which
decode helper the streaming path may call, which lane may push to which
queue source, when the checkpoint version must be bumped. This linter pins
those down as source-level rules so CI catches a regression the reviewer
would otherwise have to remember.

Rules (each suppressible per line with `// invariant-lint: allow(<rule>)`
on the offending line or the line directly above):

  no-materializing-decode   The extraction path (src/pipeline, src/stream,
                            src/core) must stay on the O(1)-scratch cursor/
                            framer decoders; parse_rib()/parse_updates()/
                            decode_all() materialize the whole archive and
                            belong to offline tools and tests only.
  bmp-resync-guard          MrtFramer::resync() scans raw MRT bytes for a
                            plausible header. A BMP lane's record
                            boundaries come from BMP framing -- resyncing
                            inside a synthesized record would anchor on
                            garbage. Every framer.resync() in src/pipeline
                            must sit within a visible `bmp` lane-kind
                            check (same line or the 10 lines above).
  queue-push-own-source     A lane/producer may push only under its OWN
                            source index (`source`, `s`, or `index`); a
                            literal or foreign index would interleave two
                            feeds' observations and break the
                            deterministic merge.
  no-naked-mutex            src/pipeline and src/stream must use the
                            annotated util::Mutex/MutexLock/CondVar shim;
                            naked std:: synchronization primitives are
                            invisible to -Wthread-safety.
  escape-hatch-comment      Every thread-safety escape hatch
                            (MLP_NO_THREAD_SAFETY_ANALYSIS, assert_held())
                            must carry an explanatory comment on the same
                            line or within the 6 lines above: an
                            unexplained hole in the proof is a future bug.
  shared-attribution-index  Every core::PassiveExtractor that src/pipeline
                            constructs -- a local, a temporary, a
                            make_unique/make_shared, or a member through
                            its constructor's init list in the declaring
                            file -- takes the context set's shared
                            AttributionIndex as its first argument, named
                            `*attribution*`. The contexts-only constructors
                            build a private index per extractor: one build
                            per lane or per restore, on paths that are
                            timed (resume_ms) or must not stall.
  checkpoint-version-bump   (only with --base REF) If the diff against REF
                            changes serialized-payload encode/decode lines
                            in checkpoint.cpp/live_session.cpp without
                            touching kCheckpointVersion, fail: a loader
                            that speaks the old layout would misparse the
                            new one.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

ALLOW_RE = re.compile(r"//\s*invariant-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Rule scopes, relative to the repo root.
EXTRACTION_DIRS = ("src/pipeline", "src/stream", "src/core")
SHIM_DIRS = ("src/pipeline", "src/stream")
PIPELINE_DIR = "src/pipeline"

MATERIALIZING_RE = re.compile(r"\b(parse_rib|parse_updates|decode_all)\s*\(")
MRT_RESYNC_RE = re.compile(r"\bframer\.resync\s*\(")
QUEUE_PUSH_RE = re.compile(r"(?:\bqueue\.|queues?\[[^\]]+\]->|\.queue\.)push\s*\(\s*([A-Za-z_][A-Za-z0-9_.]*|\d+)\s*,")
NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
ESCAPE_HATCH_RE = re.compile(r"MLP_NO_THREAD_SAFETY_ANALYSIS|\.assert_held\s*\(")
COMMENT_RE = re.compile(r"^\s*//|//")

ALLOWED_PUSH_SOURCES = {"source", "s", "index"}

# First argument of a PassiveExtractor construction: a named local or
# temporary, or make_unique/make_shared<PassiveExtractor>(...).
EXTRACTOR_CTOR_RE = re.compile(
    r"\bPassiveExtractor\s*(?:>\s*)?(?:[A-Za-z_]\w*\s*)?[({]\s*([^,)}]*)")
# A PassiveExtractor member (or local) declared without arguments; its
# construction is then an init-list entry `name(...)`.
EXTRACTOR_MEMBER_RE = re.compile(
    r"\bPassiveExtractor\s+([A-Za-z_]\w*)\s*(?:MLP_[A-Z_]+\([^)]*\)\s*)*;")


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(lines: list[str], idx: int, rule: str) -> bool:
    """True when line idx (0-based) carries or inherits an allow pragma."""
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and rule in {r.strip() for r in m.group(1).split(",")}:
                return True
    return False


def in_scope(rel: str, scopes: tuple[str, ...]) -> bool:
    return any(rel == s or rel.startswith(s + "/") for s in scopes)


def lint_file(rel: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.splitlines()
    is_header_or_source = rel.endswith((".hpp", ".cpp", ".h", ".cc"))
    if not is_header_or_source:
        return findings
    extractor_members = {m.group(1) for m in EXTRACTOR_MEMBER_RE.finditer(
        "\n".join(line.split("//", 1)[0] for line in lines))}

    for i, line in enumerate(lines):
        lineno = i + 1
        # Strip trailing comments for code-token rules, but keep the raw
        # line for comment-aware ones.
        code = line.split("//", 1)[0]

        if in_scope(rel, EXTRACTION_DIRS):
            m = MATERIALIZING_RE.search(code)
            # Declarations/definitions in mrt/ itself are the helpers.
            if m and not allowed(lines, i, "no-materializing-decode"):
                findings.append(Finding(
                    "no-materializing-decode", rel, lineno,
                    f"{m.group(1)}() materializes the whole archive; the "
                    "extraction path must stay on MrtCursor/MrtFramer"))

        if in_scope(rel, (PIPELINE_DIR,)) and rel.endswith(".cpp"):
            if MRT_RESYNC_RE.search(code) and not allowed(lines, i, "bmp-resync-guard"):
                window = "\n".join(lines[max(0, i - 10):i + 1])
                if "bmp" not in window:
                    findings.append(Finding(
                        "bmp-resync-guard", rel, lineno,
                        "MrtFramer::resync() without a visible bmp lane-kind "
                        "check; BMP lanes must reset(), never resync()"))

            m = QUEUE_PUSH_RE.search(code)
            if m and not allowed(lines, i, "queue-push-own-source"):
                first_arg = m.group(1)
                if first_arg not in ALLOWED_PUSH_SOURCES:
                    findings.append(Finding(
                        "queue-push-own-source", rel, lineno,
                        f"queue push under index '{first_arg}'; a producer may "
                        "only push under its own source index "
                        f"({'/'.join(sorted(ALLOWED_PUSH_SOURCES))})"))

        if in_scope(rel, (PIPELINE_DIR,)):
            first_args = [m.group(1) for m in EXTRACTOR_CTOR_RE.finditer(code)]
            for member in extractor_members:
                m = re.match(r"\s*[:,]?\s*" + re.escape(member) + r"\s*[({]\s*([^,)}]*)",
                             code)
                if m:
                    first_args.append(m.group(1))
            for first_arg in first_args:
                if "attribution" not in first_arg and not allowed(
                        lines, i, "shared-attribution-index"):
                    findings.append(Finding(
                        "shared-attribution-index", rel, lineno,
                        f"PassiveExtractor built from '{first_arg.strip()}'; "
                        "pass the context set's shared AttributionIndex "
                        "(a contexts-only constructor builds one per "
                        "extractor)"))

        if in_scope(rel, SHIM_DIRS):
            m = NAKED_MUTEX_RE.search(code)
            if m and not allowed(lines, i, "no-naked-mutex"):
                findings.append(Finding(
                    "no-naked-mutex", rel, lineno,
                    f"naked std::{m.group(1)}; use the annotated util::Mutex/"
                    "MutexLock/CondVar shim (util/annotations.hpp)"))

        if rel.startswith("src/") and not rel.endswith("annotations.hpp"):
            if ESCAPE_HATCH_RE.search(code) and not allowed(lines, i, "escape-hatch-comment"):
                window = lines[max(0, i - 6):i] + [line]
                if not any(COMMENT_RE.search(w) for w in window):
                    findings.append(Finding(
                        "escape-hatch-comment", rel, lineno,
                        "thread-safety escape hatch without an explanatory "
                        "comment on the line or the 6 lines above"))

    return findings


PAYLOAD_FILES = ("src/pipeline/checkpoint.cpp", "src/pipeline/live_session.cpp",
                 "src/pipeline/observation_queue.cpp", "src/core/engine.cpp",
                 "src/pipeline/feed_supervisor.cpp")
PAYLOAD_LINE_RE = re.compile(r"\b(writer|reader)\.(u8|u16|u32|u64|bytes|sub)\s*\(")
VERSION_RE = re.compile(r"kCheckpointVersion\s*=")


def lint_checkpoint_version(root: Path, base: str) -> list[Finding]:
    """Fail when the diff vs `base` edits payload encode/decode lines in a
    serialize/restore/encode/decode function without bumping
    kCheckpointVersion."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--unified=0", base, "--", *PAYLOAD_FILES,
             "src/pipeline/checkpoint.hpp"],
            cwd=root, capture_output=True, text=True, check=True).stdout
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"invariant_lint: git diff against {base!r} failed: {e}",
              file=sys.stderr)
        sys.exit(2)

    version_bumped = False
    payload_edits: list[tuple[str, str]] = []
    current_file = ""
    in_serializer_hunk = False
    for line in diff.splitlines():
        if line.startswith("+++ b/"):
            current_file = line[6:]
        elif line.startswith("@@"):
            # The function-context tail of the hunk header names the
            # enclosing function for most edits.
            context = line.split("@@")[-1]
            in_serializer_hunk = bool(re.search(
                r"serialize_state|restore_state|apply_payload|"
                r"encode_checkpoint|decode_checkpoint", context))
        elif line.startswith(("+", "-")) and not line.startswith(("+++", "---")):
            body = line[1:]
            if VERSION_RE.search(body):
                version_bumped = True
            if in_serializer_hunk and PAYLOAD_LINE_RE.search(body):
                if ALLOW_RE.search(body) and "checkpoint-version-bump" in ALLOW_RE.search(body).group(1):
                    continue
                payload_edits.append((current_file, body.strip()))

    if payload_edits and not version_bumped:
        sample = payload_edits[0]
        return [Finding(
            "checkpoint-version-bump", sample[0], 0,
            f"{len(payload_edits)} payload encode/decode line(s) changed vs "
            f"{base} (e.g. `{sample[1][:60]}`) without bumping "
            "kCheckpointVersion in checkpoint.hpp")]
    return []


# ---------------------------------------------------------------------------
# Self test: every rule must fire on its bad fixture and stay quiet on the
# good one (and on the allow-pragma'd bad one).

SELF_TESTS = [
    ("no-materializing-decode", "src/pipeline/x.cpp",
     "auto rib = mrt::parse_rib(data);\n", True),
    ("no-materializing-decode", "src/pipeline/x.cpp",
     "cursor.next();  // streaming\n", False),
    ("no-materializing-decode", "src/pipeline/x.cpp",
     "// invariant-lint: allow(no-materializing-decode)\n"
     "auto rib = mrt::parse_rib(data);\n", False),
    ("no-materializing-decode", "tools/dump.cpp",
     "auto rib = mrt::parse_rib(data);\n", False),  # out of scope
    ("bmp-resync-guard", "src/pipeline/x.cpp",
     "void f(Lane& t) {\n  t.framer.resync();\n}\n", True),
    ("bmp-resync-guard", "src/pipeline/x.cpp",
     "void f(Lane& t) {\n  if (!t.bmp) t.framer.resync();\n}\n", False),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "queue.push(other_lane, std::move(batch));\n", True),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "queue.push(0, std::move(batch));\n", True),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "shards_[ixp]->queue.push(index, std::move(batch));\n", False),
    ("no-naked-mutex", "src/stream/x.hpp",
     "std::mutex mu_;\n", True),
    ("no-naked-mutex", "src/stream/x.hpp",
     "util::Mutex mu_;\n", False),
    ("no-naked-mutex", "src/util/annotations.hpp",
     "std::mutex inner_;\n", False),  # the shim itself is out of scope
    ("escape-hatch-comment", "src/pipeline/x.cpp",
     "void f() MLP_NO_THREAD_SAFETY_ANALYSIS;\n", True),
    ("escape-hatch-comment", "src/pipeline/x.cpp",
     "// Dynamic lock set: proven by assert_held at each use site.\n"
     "void f() MLP_NO_THREAD_SAFETY_ANALYSIS;\n", False),
    ("shared-attribution-index", "src/pipeline/x.cpp",
     "core::PassiveExtractor extractor(contexts_, relationships_,\n"
     "                                 config_.passive);\n", True),
    ("shared-attribution-index", "src/pipeline/x.cpp",
     "core::PassiveExtractor extractor(attribution_, relationships_,\n"
     "                                 config_.passive);\n", False),
    ("shared-attribution-index", "src/pipeline/x.cpp",
     "auto e = std::make_unique<core::PassiveExtractor>(ixps, rels);\n",
     True),
    ("shared-attribution-index", "src/pipeline/x.hpp",
     "struct Lane {\n"
     "  Lane(Contexts ixps, bgp::RelFn rels)\n"
     "      : owner(nullptr),\n"
     "        extractor(std::move(ixps), std::move(rels)) {}\n"
     "  core::PassiveExtractor extractor MLP_GUARDED_BY(mutex);\n"
     "};\n", True),
    ("shared-attribution-index", "src/pipeline/x.hpp",
     "struct Lane {\n"
     "  Lane(Index attribution, bgp::RelFn rels)\n"
     "      : owner(nullptr),\n"
     "        extractor(std::move(attribution), std::move(rels)) {}\n"
     "  core::PassiveExtractor extractor MLP_GUARDED_BY(mutex);\n"
     "};\n", False),
    ("shared-attribution-index", "src/core/x.cpp",
     "PassiveExtractor extractor(contexts, nullptr);\n", False),  # out of scope
]


def self_test() -> int:
    failures = 0
    for rule, path, text, should_fire in SELF_TESTS:
        fired = any(f.rule == rule for f in lint_file(path, text))
        if fired != should_fire:
            failures += 1
            print(f"SELF-TEST FAIL: {rule} on {path!r}: expected "
                  f"{'finding' if should_fire else 'clean'}, got "
                  f"{'finding' if fired else 'clean'}", file=sys.stderr)
    if failures:
        return 1
    print(f"invariant_lint: self-test OK ({len(SELF_TESTS)} cases)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent's parent)")
    parser.add_argument("--base", default=None,
                        help="git ref to diff against for checkpoint-version-bump")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"invariant_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in sorted(root.glob("src/**/*")):
        if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
            continue
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_file(rel, path.read_text(encoding="utf-8")))

    if args.base:
        findings.extend(lint_checkpoint_version(root, args.base))

    for finding in findings:
        print(finding)
    if findings:
        print(f"invariant_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("invariant_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
