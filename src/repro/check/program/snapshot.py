"""Checkpoint-coverage pass: mutable state must be captured or excluded.

``repro/sim/checkpoint.py`` captures simulation state three ways: generic
``_capture_obj`` over component objects (everything except ``_SKIP_COMMON``
/ ``_SKIP_EXTRA`` / ``_m_*``), verbatim attribute lists for the engine and
driver (``_ENGINE_ATTRS`` / ``_DRIVER_ATTRS``), and explicit reads in
``_build_state`` / ``restore_into``.  This pass re-derives that contract
from the AST and diffs it against the classes' actual mutable-attribute
sets, so "added a field, forgot checkpoint/restore" drift is caught
statically:

* ``snapshot-uncaptured`` — an attr-list class (Engine/UvmDriver) mutates
  ``self.<attr>`` outside ``__init__`` but the attribute is neither in the
  verbatim list, nor skip-excluded, nor referenced by the checkpoint
  module, nor annotated ``# snapshot: skip``;
* ``snapshot-skip-drift`` — a ``# snapshot: skip`` annotation that the
  checkpoint machinery does not actually honor: on a ``_capture_obj``
  component class the attribute is not excluded (so it *is* pickled), or
  on an attr-list class the attribute is captured verbatim anyway;
* ``snapshot-stale-skip`` — a skip-set entry that matches no attribute
  assignment anywhere in the project (dead weight, or a renamed field
  whose exclusion silently stopped applying), or a catalog class name
  that matches no class (a deleted or renamed component whose check
  silently stopped running).

The pass activates only when the analyzed tree contains a module named per
:data:`~.protocols.SnapshotSpec` defining the skip-set global, so fixture
projects without a checkpoint module are unaffected.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .base import AnalysisPass, Finding, Rule
from .ir import ModuleInfo, ProjectIR
from .protocols import SNAPSHOT, SNAPSHOT_SKIP_RE, SnapshotSpec

#: Method names that mutate a container in place: ``self.X.append(...)``
#: outside ``__init__`` marks ``X`` mutable state.
_MUTATORS = frozenset(
    {"append", "add", "insert", "extend", "update", "pop", "popleft",
     "appendleft", "remove", "discard", "clear", "setdefault"}
)

_RULES = {
    "uncaptured": Rule(
        id="snapshot-uncaptured",
        pass_name="snapshot",
        severity="error",
        description=(
            "A checkpoint-listed class mutates an attribute outside "
            "__init__ that no capture list, skip set, checkpoint-module "
            "reference, or '# snapshot: skip' annotation accounts for — "
            "restore would silently lose it."
        ),
    ),
    "skip-drift": Rule(
        id="snapshot-skip-drift",
        pass_name="snapshot",
        severity="error",
        description=(
            "A '# snapshot: skip' annotation the checkpoint machinery does "
            "not honor: the attribute is captured anyway (missing from the "
            "skip sets, or present in a verbatim attr list)."
        ),
    ),
    "stale-skip": Rule(
        id="snapshot-stale-skip",
        pass_name="snapshot",
        severity="warning",
        description=(
            "A skip-set entry matching no attribute assignment, or a "
            "catalog class name matching no class, in the project: dead "
            "weight, or a renamed field or class whose check silently "
            "stopped applying."
        ),
    ),
}


def _string_elements(node: ast.AST) -> Set[str]:
    return {
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _module_global_value(module: ModuleInfo, name: str) -> Optional[ast.expr]:
    for st in module.tree.body:
        if isinstance(st, ast.Assign):
            for t in st.targets:
                if isinstance(t, ast.Name) and t.id == name:
                    return st.value
        elif isinstance(st, ast.AnnAssign):
            if isinstance(st.target, ast.Name) and st.target.id == name:
                return st.value
    return None


def _global_line(module: ModuleInfo, name: str) -> int:
    for st in module.tree.body:
        targets = (
            st.targets if isinstance(st, ast.Assign)
            else [st.target] if isinstance(st, ast.AnnAssign) else ()
        )
        for t in targets:
            if isinstance(t, ast.Name) and t.id == name:
                return st.lineno
    return 1


class _ClassScan:
    """Attribute facts of one class: init/mutation sites, annotations."""

    def __init__(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        #: attr → line of first assignment inside __init__.
        self.init_attrs: Dict[str, int] = {}
        #: attr → line of first mutation outside __init__.
        self.mutated: Dict[str, int] = {}
        #: attrs whose assignment line carries ``# snapshot: skip``,
        #: attr → annotation line.
        self.annotated: Dict[str, int] = {}
        lines = module.lines
        for meth in node.body:
            if not isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_init = meth.name == "__init__"
            for sub in ast.walk(meth):
                for attr, line in _self_attr_writes(sub):
                    if in_init:
                        self.init_attrs.setdefault(attr, line)
                    else:
                        self.mutated.setdefault(attr, line)
                    if 1 <= line <= len(lines) and SNAPSHOT_SKIP_RE.search(
                        lines[line - 1]
                    ):
                        self.annotated.setdefault(attr, line)


def _self_attr_writes(node: ast.AST) -> List[Tuple[str, int]]:
    """(attr, line) pairs this single node writes on ``self``."""
    out: List[Tuple[str, int]] = []
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            base = t
            while isinstance(base, ast.Subscript):
                base = base.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                out.append((base.attr, node.lineno))
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            out.append((func.value.attr, node.lineno))
    return out


def _find_class(
    ir: ProjectIR, local_name: str
) -> Optional[Tuple[ModuleInfo, ast.ClassDef]]:
    for mod_name in sorted(ir.modules):
        module = ir.modules[mod_name]
        if local_name in module.classes:
            for st in ast.walk(module.tree):
                if isinstance(st, ast.ClassDef) and st.name == local_name:
                    return module, st
    return None


class SnapshotCoveragePass(AnalysisPass):
    """Diff the engine's mutable-attribute set against checkpoint capture."""

    name = "snapshot"
    rules = tuple(_RULES.values())

    def __init__(self, spec: SnapshotSpec = SNAPSHOT) -> None:
        self.spec = spec

    def run(self, ir: ProjectIR) -> List[Finding]:
        spec = self.spec
        ckpt = self._find_checkpoint_module(ir)
        if ckpt is None:
            return []
        findings: List[Finding] = []

        skip_common = self._set_global(ckpt, spec.skip_common_global)
        skip_extra = self._set_global(ckpt, spec.skip_extra_global)
        skips = skip_common | skip_extra
        #: Attribute names the checkpoint module touches explicitly
        #: (``engine.clock``, ``driver.log.records`` …) — coarse but
        #: sufficient as an "explicitly captured" whitelist.
        referenced = {
            n.attr for n in ast.walk(ckpt.tree) if isinstance(n, ast.Attribute)
        }

        scanned: List[_ClassScan] = []
        ckpt_path = str(ckpt.path)

        for list_global, class_name in sorted(spec.attr_lists.items()):
            value = _module_global_value(ckpt, list_global)
            if value is None:
                continue
            found = _find_class(ir, class_name)
            if found is None:
                findings.append(
                    self._missing_class(ckpt_path, class_name, list_global)
                )
                continue
            listed = _string_elements(value)
            module, node = found
            scan = _ClassScan(module, node)
            scanned.append(scan)
            path = str(module.path)
            for attr in sorted(scan.mutated):
                line = scan.mutated[attr]
                if (
                    attr in listed
                    or attr in skips
                    or attr.startswith(spec.metric_prefix)
                    or attr in referenced
                    or attr in scan.annotated
                ):
                    continue
                findings.append(
                    self.make_finding(
                        _RULES["uncaptured"], path, line, 0,
                        f"{class_name}.{attr} is mutated outside __init__ but "
                        f"is not in {list_global}, not skip-excluded, not "
                        f"referenced by the checkpoint module, and not "
                        f"annotated '# snapshot: skip' — checkpoint/restore "
                        f"silently loses it",
                    )
                )
            for attr in sorted(set(scan.annotated) & listed):
                findings.append(
                    self.make_finding(
                        _RULES["skip-drift"], path, scan.annotated[attr], 0,
                        f"{class_name}.{attr} is annotated '# snapshot: skip' "
                        f"but is captured verbatim by {list_global} — the "
                        f"annotation contradicts the capture list",
                    )
                )

        for class_name in spec.component_classes:
            found = _find_class(ir, class_name)
            if found is None:
                findings.append(
                    self._missing_class(ckpt_path, class_name, "component_classes")
                )
                continue
            module, node = found
            scan = _ClassScan(module, node)
            scanned.append(scan)
            path = str(module.path)
            for attr in sorted(scan.annotated):
                if attr in skips or attr.startswith(spec.metric_prefix):
                    continue
                findings.append(
                    self.make_finding(
                        _RULES["skip-drift"], path, scan.annotated[attr], 0,
                        f"{class_name}.{attr} is annotated '# snapshot: skip' "
                        f"but no skip set excludes it — _attr_names still "
                        f"captures (and restore still rewinds) this wiring "
                        f"attribute",
                    )
                )

        assigned_anywhere = self._all_self_attrs(ir)
        for name, owner in sorted(
            [(n, spec.skip_common_global) for n in skip_common]
            + [(n, spec.skip_extra_global) for n in skip_extra]
        ):
            if name in assigned_anywhere:
                continue
            findings.append(
                self.make_finding(
                    _RULES["stale-skip"], ckpt_path, _global_line(ckpt, owner), 0,
                    f"skip entry '{name}' in {owner} matches no attribute "
                    f"assignment anywhere in the project",
                )
            )
        return findings

    # ------------------------------------------------------------ helpers

    def _missing_class(self, path: str, class_name: str, listed_in: str) -> Finding:
        return self.make_finding(
            _RULES["stale-skip"], path, 1, 0,
            f"catalog class '{class_name}' ({listed_in}) matches no class in "
            f"the project — its checkpoint-coverage check does not run",
        )

    def _find_checkpoint_module(self, ir: ProjectIR) -> Optional[ModuleInfo]:
        for mod_name in sorted(ir.modules):
            module = ir.modules[mod_name]
            if mod_name.split(".")[-1] != self.spec.checkpoint_module:
                continue
            if _module_global_value(module, self.spec.skip_common_global):
                return module
        return None

    def _set_global(self, module: ModuleInfo, name: str) -> Set[str]:
        value = _module_global_value(module, name)
        if value is None:
            return set()
        if isinstance(value, ast.Dict):
            # _SKIP_EXTRA maps kind → names; only the names are skips.
            out: Set[str] = set()
            for v in value.values:
                out |= _string_elements(v)
            return out
        return _string_elements(value)

    @staticmethod
    def _all_self_attrs(ir: ProjectIR) -> Set[str]:
        out: Set[str] = set()
        for _name, module in sorted(ir.modules.items()):
            for node in ast.walk(module.tree):
                for attr, _line in _self_attr_writes(node):
                    out.add(attr)
        return out
