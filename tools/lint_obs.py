#!/usr/bin/env python
"""Lint: no stray ``print()``; no silent excepts in serve/; no
``http.server`` outside ``src/repro/obs/``; no raw file writes, renames
or fsyncs outside ``repro.commit``; ``repro.parallel`` only where it
pays; ``multiprocessing`` only inside ``src/repro/parallel/``.

Six AST checks over ``src/repro`` (``make lint-obs``):

* library output must flow through ``repro.obs.get_logger`` so it
  carries a level and respects ``--log-level`` / ``--log-json`` — any
  ``print(...)`` outside the allowlisted CLI entry point fails;
* the serve daemon (``src/repro/serve/``) and the out-of-core subsystem
  (``src/repro/scale/``) are long-running supervisors whose whole job
  is *accounting* for failures — a bare ``except:`` or an ``except
  Exception:`` whose body is only ``pass``/``...`` hides a fault from
  the quarantine counters, the breaker, the shard manifest checks and
  the logs, so both are rejected there;
* the HTTP surface is ``repro.obs.server``'s single responsibility —
  importing ``http.server`` anywhere else in the library scatters
  socket lifecycles and bypasses the endpoint's scrape counters, dump
  retries and access-log routing, so it is rejected outside
  ``src/repro/obs/``;
* every persisted directory (checkpoints, model artifacts, shard
  stores, run manifests, datasets) commits through one protocol in
  ``src/repro/commit.py`` — a partial file from a crashed raw
  ``open(..., "w")`` / ``write_text`` / ``write_bytes`` would either
  fail manifest verification or, worse, be manifested before it is
  durable, so every write in ``src/repro`` must go through
  ``repro.commit`` (``atomic_write``/``atomic_writer``: fsync + rename),
  and ``os.replace``/``os.fsync`` appear nowhere else. The only
  exceptions are the two deliberately streaming JSONL writers a
  consumer may tail while they grow: ``serve/replay.write_stream`` and
  the paced ``repro replay --speed`` loop (``cli._cmd_replay``);
* a worker pool pays only for coarse jobs — forest tree fits, grid
  search / CV, forward selection and the sharded monitor's shards — so
  ``repro.parallel`` may be imported only by the four modules that run
  them (``PARALLEL_USERS``); everything else, serve and the in-RAM
  monitor included, scores in-process;
* process management is ``repro.parallel``'s single responsibility, so
  ``multiprocessing`` may be imported only under ``src/repro/parallel/``.

AST-based on purpose: docstrings contain ``print()`` usage examples and
prose about ``except`` clauses that a grep would false-positive on.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Files (relative to src/repro) where print() remains acceptable.
ALLOWED = {
    Path("cli.py"),  # argparse entry point; output goes through get_logger,
    # but SystemExit-adjacent fallbacks may print
}

#: Directories (relative to src/repro) under the silent-except ban.
STRICT_EXCEPT_DIRS = frozenset({Path("serve"), Path("scale")})

#: The only directory (relative to src/repro) allowed to import
#: ``http.server``.
HTTP_SERVER_DIR = Path("obs")

#: The commit module: the only file allowed raw writes, renames and
#: fsyncs.
COMMIT_MODULE = Path("commit.py")

#: Functions (file relative to src/repro → names) that stream JSONL on
#: purpose and may open files for writing.
STREAMING_WRITERS = {
    Path("serve/replay.py"): frozenset({"write_stream"}),
    Path("cli.py"): frozenset({"_cmd_replay"}),
}

#: The only modules (relative to src/repro) outside the package itself
#: allowed to import ``repro.parallel``: the fan-outs that pay.
PARALLEL_USERS = frozenset({
    Path("ml/forest.py"),
    Path("ml/model_selection.py"),
    Path("core/selection.py"),
    Path("scale/monitor.py"),
})

#: The package that owns worker processes; the only place allowed to
#: import ``multiprocessing``.
PARALLEL_DIR = Path("parallel")


def find_prints(tree: ast.AST) -> list[tuple[int, str]]:
    return [
        (node.lineno, "print() call")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def _is_silent_body(body: list[ast.stmt]) -> bool:
    """Whether an except body does nothing but swallow."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
        for stmt in body
    )


def find_silent_excepts(tree: ast.AST) -> list[tuple[int, str]]:
    offenders: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            offenders.append(
                (node.lineno, "bare `except:` (name the exception type)")
            )
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
            and _is_silent_body(node.body)
        ):
            offenders.append(
                (
                    node.lineno,
                    f"`except {node.type.id}: pass` swallows the fault — "
                    "count, log or re-raise it",
                )
            )
    return offenders


def find_imports(
    tree: ast.AST, package: str, message: str
) -> list[tuple[int, str]]:
    """``package`` reached any way: ``import package[.x]``, ``from
    package[.x] import ...``, or ``from <parent> import <leaf>``."""
    offenders: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == package or name.startswith(f"{package}.") for name in names):
            offenders.append((node.lineno, message))
    return offenders


def find_raw_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """Write-mode ``open()`` and ``Path.write_text``/``write_bytes``.

    ``open()`` with a non-literal mode is flagged too: if the mode can
    vary at runtime, the call can write, and committed bytes must only
    reach disk through ``repro.commit``. So are ``os.replace`` and
    ``os.fsync``: a hand-rolled rename or fsync is a second commit
    protocol.
    """
    offenders: list[tuple[int, str]] = []
    route = "route writes through repro.commit.atomic_write"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("replace", "fsync")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
        ):
            offenders.append(
                (node.lineno, f"os.{node.func.attr}() outside repro.commit")
            )
        elif isinstance(node.func, ast.Attribute) and node.func.attr in (
            "write_text",
            "write_bytes",
        ):
            offenders.append(
                (node.lineno, f".{node.func.attr}() — {route}")
            )
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if mode is None:
                continue  # default "r" is a read
            if not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            ):
                offenders.append(
                    (node.lineno, f"open() with dynamic mode — {route}")
                )
            elif any(flag in mode.value for flag in "wax+"):
                offenders.append(
                    (
                        node.lineno,
                        f'open(..., "{mode.value}") — {route}',
                    )
                )
    return offenders


def _outside(
    findings: list[tuple[int, str]], tree: ast.AST, functions
) -> list[tuple[int, str]]:
    """Drop findings inside the named top-level functions."""
    if not functions:
        return findings
    spans = [
        (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in functions
    ]
    return [
        (lineno, message)
        for lineno, message in findings
        if not any(start <= lineno <= end for start, end in spans)
    ]


def main() -> int:
    offenders: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        tree = ast.parse(path.read_text(), filename=str(path))
        findings: list[tuple[int, str]] = []
        if relative not in ALLOWED:
            findings.extend(find_prints(tree))
        if any(strict in relative.parents for strict in STRICT_EXCEPT_DIRS):
            findings.extend(find_silent_excepts(tree))
        if HTTP_SERVER_DIR not in relative.parents:
            findings.extend(find_imports(
                tree, "http.server",
                "http.server import outside src/repro/obs/ — the live "
                "endpoint lives in repro.obs.server; talk to it instead",
            ))
        if relative != COMMIT_MODULE:
            findings.extend(
                _outside(find_raw_writes(tree), tree, STREAMING_WRITERS.get(relative))
            )
        if PARALLEL_DIR not in relative.parents:
            findings.extend(find_imports(
                tree, "multiprocessing",
                "multiprocessing import outside src/repro/parallel/ — "
                "use repro.parallel.ParallelExecutor",
            ))
            if relative not in PARALLEL_USERS:
                findings.extend(find_imports(
                    tree, "repro.parallel",
                    "repro.parallel import outside its allowlist — only "
                    "forest fit, CV/grid search, forward selection and the "
                    "sharded monitor fan out; score in-process",
                ))
        for lineno, message in sorted(findings):
            offenders.append(f"src/repro/{relative}:{lineno}: {message}")
    if offenders:
        print("\n".join(offenders))
        print(f"\n{len(offenders)} lint finding(s)")
        return 1
    print(
        "lint-obs: no stray print() calls in src/repro; "
        "no silent excepts in src/repro/serve or src/repro/scale; "
        "no http.server imports outside src/repro/obs; "
        "no raw file writes, os.replace or os.fsync outside src/repro/commit.py "
        "(bar the two streaming JSONL writers); "
        "repro.parallel imported only by ml/forest.py, ml/model_selection.py, "
        "core/selection.py and scale/monitor.py; "
        "multiprocessing imported only under src/repro/parallel"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
