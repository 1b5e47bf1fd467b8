"""A PTX-like virtual ISA.

Production CATT would run on nvcc's PTX output rather than CUDA source; this
package provides that path: :mod:`repro.ptx.codegen` lowers the CUDA-subset
AST to the ISA below, :mod:`repro.ptx.parser` reads the textual form back,
and :mod:`repro.ptx.analysis` re-derives the paper's ``C_tid``/``C_i``
coefficients purely from the instruction stream — cross-validated against
the source-level analysis in the test suite.

The ISA is a faithful subset of real PTX (same mnemonics and register
classes), restricted to what the lowered kernels need:

* typed virtual registers: ``%r`` (s32), ``%rd`` (s64), ``%f`` (f32),
  ``%fd`` (f64), ``%p`` (pred);
* special registers ``%tid.x/y/z``, ``%ctaid.*``, ``%ntid.*``, ``%nctaid.*``;
* ``ld``/``st`` with ``.global``/``.shared`` state spaces;
* arithmetic/logic (``add``, ``sub``, ``mul.lo``, ``mad.lo``, ``div``,
  ``rem``, ``and``, ``or``, ``xor``, ``shl``, ``shr``, ``min``, ``max``),
  ``setp.<cmp>``, ``selp``, ``cvt``, ``mov``;
* control flow: labels, ``bra`` (optionally predicated), ``bar.sync``,
  ``ret``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class RegClass(Enum):
    R = "r"       # 32-bit signed int
    RD = "rd"     # 64-bit signed int (addresses)
    F = "f"       # 32-bit float
    FD = "fd"     # 64-bit float
    P = "p"       # predicate

    @property
    def ptx_type(self) -> str:
        return {
            RegClass.R: "s32",
            RegClass.RD: "s64",
            RegClass.F: "f32",
            RegClass.FD: "f64",
            RegClass.P: "pred",
        }[self]


@dataclass(frozen=True)
class Reg:
    cls: RegClass
    index: int

    def __str__(self) -> str:
        return f"%{self.cls.value}{self.index}"


@dataclass(frozen=True)
class Special:
    """Special read-only register, e.g. %tid.x."""

    name: str  # "tid", "ctaid", "ntid", "nctaid"
    axis: str  # "x" | "y" | "z"

    def __str__(self) -> str:
        return f"%{self.name}.{self.axis}"


@dataclass(frozen=True)
class Imm:
    value: int | float

    def __str__(self) -> str:
        if isinstance(self.value, float):
            return repr(self.value)  # real PTX uses 0fXXXXXXXX; text is clearer
        return str(self.value)


@dataclass(frozen=True)
class ParamRef:
    """Kernel parameter slot (ld.param source)."""

    name: str

    def __str__(self) -> str:
        return f"[{self.name}]"


Operand = Reg | Special | Imm | ParamRef


@dataclass(frozen=True)
class Instr:
    """One PTX instruction: ``[@pred] opcode.dtype dst, src...``."""

    opcode: str                      # "add", "mul.lo", "ld.global", ...
    dtype: str                       # "s32", "f32", "s64", "pred", ...
    dst: Reg | None
    srcs: tuple[Operand, ...] = ()
    pred: Reg | None = None          # guard predicate
    pred_neg: bool = False           # @!%p guard

    def render(self) -> str:
        guard = ""
        if self.pred is not None:
            guard = f"@{'!' if self.pred_neg else ''}{self.pred} "
        ops = []
        if self.dst is not None:
            ops.append(str(self.dst))
        ops.extend(str(s) for s in self.srcs)
        dtype = f".{self.dtype}" if self.dtype else ""
        return f"{guard}{self.opcode}{dtype} {', '.join(ops)};"


@dataclass(frozen=True)
class Label:
    name: str

    def render(self) -> str:
        return f"{self.name}:"


@dataclass(frozen=True)
class Branch:
    target: str
    pred: Reg | None = None
    pred_neg: bool = False

    def render(self) -> str:
        guard = ""
        if self.pred is not None:
            guard = f"@{'!' if self.pred_neg else ''}{self.pred} "
        return f"{guard}bra {self.target};"


@dataclass(frozen=True)
class Barrier:
    def render(self) -> str:
        return "bar.sync 0;"


@dataclass(frozen=True)
class Ret:
    pred: Reg | None = None
    pred_neg: bool = False

    def render(self) -> str:
        guard = ""
        if self.pred is not None:
            guard = f"@{'!' if self.pred_neg else ''}{self.pred} "
        return f"{guard}ret;"


Item = Instr | Label | Branch | Barrier | Ret


@dataclass
class PTXParam:
    name: str
    ptx_type: str  # "u64" for pointers, "s32"/"f32"/... for scalars
    is_pointer: bool


@dataclass
class PTXKernel:
    name: str
    params: list[PTXParam]
    body: list[Item] = field(default_factory=list)
    reg_counts: dict[RegClass, int] = field(default_factory=dict)
    shared_decls: list[tuple[str, int]] = field(default_factory=list)  # (name, bytes)

    def render(self) -> str:
        lines = [f".visible .entry {self.name}("]
        lines.append(",\n".join(
            f"    .param .{p.ptx_type} {p.name}" for p in self.params
        ))
        lines.append(")")
        lines.append("{")
        for cls, count in sorted(self.reg_counts.items(), key=lambda kv: kv[0].value):
            if count:
                lines.append(f"    .reg .{cls.ptx_type} %{cls.value}<{count}>;")
        for name, nbytes in self.shared_decls:
            lines.append(f"    .shared .align 8 .b8 {name}[{nbytes}];")
        lines.append("")
        for item in self.body:
            text = item.render()
            indent = "" if isinstance(item, Label) else "    "
            lines.append(indent + text)
        lines.append("}")
        return "\n".join(lines)

    def instructions(self) -> list[Instr]:
        return [i for i in self.body if isinstance(i, Instr)]


@dataclass
class PTXModule:
    kernels: list[PTXKernel]

    def render(self) -> str:
        header = (
            "//\n// Generated by repro.ptx.codegen (PTX-like subset)\n//\n"
            ".version 6.4\n.target sm_70\n.address_size 64\n\n"
        )
        return header + "\n\n".join(k.render() for k in self.kernels) + "\n"

    def kernel(self, name: str) -> PTXKernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no PTX kernel {name!r}")
