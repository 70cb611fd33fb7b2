"""EMI101: interprocedural kernel-purity (reachability, not residency).

EMI001/EMI002 inspect the kernel's own module; this rule proves the
stronger property the determinism story actually needs: *no* RNG,
clock, filesystem, or environment call is reachable from any policy
kernel entry point through any chain of helpers, however many modules
deep.  The proof runs over the conservative project call graph
(:mod:`emissary.analysis.callgraph`), so dynamic dispatch
over-approximates — a clean pass is a real guarantee, while a finding
may name a chain the runtime never takes (suppress with a justified
pragma at the entry point in that case).
"""

from __future__ import annotations

from collections.abc import Iterator

from emissary.analysis.callgraph import CallGraph, FunctionInfo
from emissary.analysis.lint import ProjectContext, ProjectRule, Violation
from emissary.analysis.rules.determinism import (
    BLESSED_NP_RANDOM,
    MONOTONIC_CALLS,
    WALL_CLOCK_CALLS,
)

#: Policy-kernel entry points: the per-dispatch and per-set calls plus
#: the per-event hooks the hierarchy engine invokes on the policy object.
KERNEL_ENTRY_METHODS = frozenset({
    "run_sets",
    "run_set",
    "_run_set_tel",
    "on_hit",
    "on_fill",
    "find_victim",
    "replaced",
})

#: ``os.path`` helpers that are pure string manipulation, not I/O.
_PURE_OS_PATH = frozenset({
    "os.path.join", "os.path.split", "os.path.splitext", "os.path.basename",
    "os.path.dirname", "os.path.normpath", "os.fspath",
})

#: Path-object method names that always mean filesystem I/O regardless
#: of how the receiver was obtained.
_FS_METHOD_TAILS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes", "unlink",
    "touch", "mkdir", "rmdir", "rglob", "glob", "iterdir", "scandir",
    "hardlink_to", "symlink_to",
})


def classify_forbidden(name: str) -> str | None:
    """Why an external call text is impure, or None if it is allowed."""
    parts = name.split(".")
    tail2 = ".".join(parts[-2:])
    if name in WALL_CLOCK_CALLS or tail2 in WALL_CLOCK_CALLS:
        return "wall-clock read"
    if name in MONOTONIC_CALLS or tail2 in MONOTONIC_CALLS:
        return "monotonic timer read"
    if name == "os.urandom" or name.endswith(".urandom"):
        return "OS entropy read"
    if parts[0] == "random" and len(parts) > 1:
        return "stdlib process-global RNG"
    for prefix in ("np.random.", "numpy.random."):
        if name.startswith(prefix):
            member = name[len(prefix):].split(".")[0]
            if member not in BLESSED_NP_RANDOM:
                return "legacy global-state numpy RNG"
    if name.startswith("os.environ") or name in ("os.getenv", "os.getenvb"):
        return "environment read"
    if name == "open" or name.endswith(".open"):
        return "filesystem access"
    if name in _PURE_OS_PATH:
        return None
    if parts[0] in ("shutil", "tempfile", "glob") and len(parts) > 1:
        return "filesystem access"
    if parts[0] == "os" and len(parts) > 1 and not name.startswith("os.path."):
        return "OS call"
    if parts[-1] in _FS_METHOD_TAILS:
        return "filesystem access"
    return None


def kernel_entry_points(graph: CallGraph) -> Iterator[FunctionInfo]:
    """Every policy-kernel entry point present in the graph: the
    ``policies/`` per-set/per-event methods.  (The compiled kernels are
    C; ``tests/test_compiled_backend.py`` holds their source to calls of
    its own functions.)"""
    for fn in graph.iter_functions():
        if "policies" in fn.module.split(".") and fn.cls is not None \
                and fn.name in KERNEL_ENTRY_METHODS:
            yield fn


class ImpureKernelReach(ProjectRule):
    """EMI101: an RNG/clock/filesystem/env call is *reachable* from a
    policy-kernel entry point."""

    code = "EMI101"
    summary = ("RNG/clock/filesystem/env call reachable from a policy-kernel "
               "entry point (interprocedural, over the project call graph)")

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        graph = project.graph
        for entry in sorted(kernel_entry_points(graph),
                            key=lambda fn: (str(fn.path), fn.line)):
            reach = graph.reachable([entry.qual])
            for external in sorted(reach.externals):
                reason = classify_forbidden(external)
                if reason is None:
                    continue
                chain, line = reach.externals[external]
                caller = graph.function(chain[-1])
                site = f"{caller.path}:{line}" if caller is not None \
                    else f"line {line}"
                hops = " -> ".join(q.split(":", 1)[1] for q in chain)
                yield self.project_violation(
                    entry.path, entry.line,
                    f"kernel entry point `{entry.qual}` reaches `{external}` "
                    f"({reason}) at {site} via {hops}")
