"""Static write numbering and read resolution.

Every static write site gets a distinct version number per array, assigned in
program order (loop bodies numbered once, branch arms sequentially). A read
site resolves to the set of versions that could reach it:

* straight-line code: exactly one candidate;
* inside a loop, before the body's write of the same array: the value from
  the previous iteration (the body's last write) or, on the first iteration,
  whatever was current at loop entry;
* after a two-armed branch where only the arms wrote: one candidate per arm,
  flagged as a branch merge.

Each candidate records how to locate the concrete written instance at
runtime, as one directive per loop enclosing the write site: ``cur`` (same
iterate as the reader), ``prev`` (one forward iterate back), or ``last`` (the
loop's final iterate). Candidates are ordered most-recent-first, so a reverse
pass can fetch the first recorded instance that exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    AccessNode,
    Block,
    Conditional,
    Dataflow,
    LoopRegion,
    Program,
    State,
    schedule,
)

CUR, PREV, LAST = "cur", "prev", "last"


@dataclass(frozen=True)
class Candidate:
    version: int
    # (loop label, directive) per loop enclosing the write, outer to inner
    directives: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ReachSet:
    candidates: tuple[Candidate, ...]  # most recent first
    branch_merged: bool = False


@dataclass
class VersionInfo:
    write_version: dict[tuple[str, str], int] = field(default_factory=dict)
    write_site: dict[tuple[str, int], tuple[str, str]] = field(default_factory=dict)
    write_loops: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)
    reads: dict[tuple[str, str], ReachSet] = field(default_factory=dict)
    # what a write kills: the reaching set just before it (empty for a
    # first-ever write outside any loop)
    killed: dict[tuple[str, str], ReachSet] = field(default_factory=dict)
    n_versions: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ForwardingEntry:
    """One value the reverse pass reads from the forward execution: the
    stored descriptor name, the array it snapshots, and the candidate
    instances (most recent first) that could hold the value."""

    name: str
    data: str
    candidates: tuple[Candidate, ...]


def _write_instances(df: Dataflow) -> set[str]:
    return {e.dst for e in df.edges if any(isinstance(n, AccessNode) and n.id == e.dst for n in df.nodes)}


def analyze_versions(program: Program) -> VersionInfo:
    info = VersionInfo()
    counter: dict[str, int] = {d: 0 for d in program.descriptors}
    info.n_versions = counter

    # phase A: number every write instance in program order
    def number_region(region: list[Block], loops: tuple[str, ...]):
        for block in region:
            if isinstance(block, State):
                written = _write_instances(block.graph)
                for n in block.graph.nodes:
                    if isinstance(n, AccessNode) and n.id in written:
                        counter[n.data] += 1
                        v = counter[n.data]
                        info.write_version[(block.label, n.id)] = v
                        info.write_site[(n.data, v)] = (block.label, n.id)
                        info.write_loops[(n.data, v)] = loops
            elif isinstance(block, LoopRegion):
                number_region(block.body, loops + (block.label,))
            elif isinstance(block, Conditional):
                number_region(block.then_body, loops)
                number_region(block.else_body, loops)

    number_region(program.region, ())

    # phase B: resolve reads against reaching candidates
    current: dict[str, ReachSet] = {}
    for name, desc in program.descriptors.items():
        if desc.role == "input":
            current[name] = ReachSet((Candidate(0),))

    def demote(rs: ReachSet, label: str, kind: str) -> ReachSet:
        """Rewrite candidates written inside loop `label`: its directive
        becomes `kind` and everything deeper becomes `last`."""
        out = []
        for c in rs.candidates:
            labels = [l for l, _ in c.directives]
            if label in labels:
                i = labels.index(label)
                dirs = (
                    c.directives[:i]
                    + ((label, kind),)
                    + tuple((l, LAST) for l, _ in c.directives[i + 1 :])
                )
                out.append(Candidate(c.version, dirs))
            else:
                out.append(c)
        return ReachSet(tuple(out), rs.branch_merged)

    def carry_versions(region: list[Block]) -> dict[str, tuple[int, bool]]:
        """Per array, the last version assigned anywhere under this region,
        and whether that write lies in a branch arm: then it need not have
        run in the previous iteration, so the carried value merges arms."""
        out: dict[str, tuple[int, bool]] = {}

        def walk(r: list[Block], in_arm: bool):
            for block in r:
                if isinstance(block, State):
                    for n in block.graph.nodes:
                        v = info.write_version.get((block.label, n.id))
                        if v is not None and v > out.get(n.data, (0, False))[0]:
                            out[n.data] = (v, in_arm)
                elif isinstance(block, LoopRegion):
                    walk(block.body, in_arm)
                elif isinstance(block, Conditional):
                    walk(block.then_body, True)
                    walk(block.else_body, True)

        walk(region, False)
        return out

    def resolve_region(region: list[Block], loops: tuple[str, ...]):
        for block in region:
            if isinstance(block, State):
                resolve_state(block, loops)
            elif isinstance(block, LoopRegion):
                resolve_loop(block, loops)
            elif isinstance(block, Conditional):
                resolve_branch(block, loops)

    def resolve_state(state: State, loops: tuple[str, ...]):
        for n in schedule(state.graph):
            if not isinstance(n, AccessNode):
                continue
            nid = n.id
            v = info.write_version.get((state.label, nid))
            if v is not None:
                info.killed[(state.label, nid)] = current.get(n.data, ReachSet(()))
                cand = Candidate(v, tuple((l, CUR) for l in loops))
                info.reads[(state.label, nid)] = ReachSet((cand,))
                current[n.data] = ReachSet((cand,))
            else:
                info.reads[(state.label, nid)] = current.get(
                    n.data, ReachSet(())
                )

    def resolve_loop(loop: LoopRegion, loops: tuple[str, ...]):
        carries = carry_versions(loop.body)
        entry = {a: current[a] for a in current}
        for a, (v, in_arm) in carries.items():
            dirs = tuple((l, CUR) for l in info.write_loops[(a, v)])
            prev_rs = demote(ReachSet((Candidate(v, dirs),)), loop.label, PREV)
            old = entry.get(a, ReachSet(()))
            current[a] = ReachSet(prev_rs.candidates + old.candidates, old.branch_merged or in_arm)
        resolve_region(loop.body, loops + (loop.label,))
        for a, (v, in_arm) in carries.items():
            dirs = tuple((l, CUR) for l in info.write_loops[(a, v)])
            exit_rs = demote(ReachSet((Candidate(v, dirs),)), loop.label, LAST)
            old = entry.get(a, ReachSet(()))
            current[a] = ReachSet(exit_rs.candidates + old.candidates, old.branch_merged or in_arm)

    def resolve_branch(br: Conditional, loops: tuple[str, ...]):
        pre = dict(current)
        resolve_region(br.then_body, loops)
        after_then = dict(current)
        current.clear()
        current.update(pre)
        resolve_region(br.else_body, loops)
        after_else = dict(current)
        merged: dict[str, ReachSet] = {}
        for a in set(after_then) | set(after_else):
            t = after_then.get(a, ReachSet(()))
            e = after_else.get(a, ReachSet(()))
            if t == e:
                merged[a] = t
            else:
                seen: list[Candidate] = []
                for c in t.candidates + e.candidates:
                    if c not in seen:
                        seen.append(c)
                merged[a] = ReachSet(tuple(seen), branch_merged=True)
        current.clear()
        current.update(merged)

    resolve_region(program.region, ())
    info.n_versions = dict(counter)
    return info
